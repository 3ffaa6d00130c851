"""Model surgery: connected components, channels, and reduction to the most
refined model preserving the projected extension onto a target variable set."""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .criteria import UtilityInterval
from .domain import (
    DecisionProblem,
    Distribution,
    DomainError,
    Model,
    VariableSpace,
    project,
)
from .sets import EmptyCredalSetError, from_marginals
from .solver import LpProblem, solve


@dataclass(frozen=True)
class ComponentPartition:
    components: tuple[frozenset[frozenset[str]], ...]


@dataclass(frozen=True)
class ReductionOutcome:
    reduced: Model
    dropped_blocks: tuple[frozenset[str], ...]
    dropped_variables: tuple[str, ...]
    # for each reduced block, an input block containing it; marginal tables
    # for shrunken blocks are projections of the originating block's table
    origins: tuple[tuple[frozenset[str], frozenset[str]], ...]


def connected_components(model: Model) -> ComponentPartition:
    """Partition the blocks under the shares-a-variable adjacency relation."""
    remaining = list(model.blocks)
    components = []
    while remaining:
        component = [remaining.pop(0)]
        grew = True
        while grew:
            grew = False
            for b in list(remaining):
                if any(b & c for c in component):
                    component.append(b)
                    remaining.remove(b)
                    grew = True
        components.append(frozenset(component))
    return ComponentPartition(tuple(components))


def restrict_to_target(model: Model, target: Iterable[str]) -> Model:
    """Keep only blocks of components that touch the target variables."""
    target = frozenset(target)
    keep = []
    for component in connected_components(model).components:
        if any(b & target for b in component):
            keep.extend(b for b in model.blocks if b in component)
    return Model(model.space, keep)


def find_channels(
    model: Model, v_a: str, v_b: str, max_length: int | None = None
) -> list[tuple[str, ...]]:
    """All sequences of distinct variables (v_a, ..., v_b), length >= 3, where
    each interior variable co-occurs with its predecessor and successor in two
    distinct blocks.  Exponential in the worst case; verification use only."""
    if v_a == v_b:
        raise DomainError("channel endpoints must differ")
    if max_length is None:
        max_length = len(model.space.names)
    blocks = model.blocks

    def bridges(prev: str, mid: str, nxt: str) -> bool:
        holds_in = [b for b in blocks if {prev, mid} <= b]
        holds_out = [b for b in blocks if {mid, nxt} <= b]
        return any(a != b for a in holds_in for b in holds_out)

    channels = []

    def extend(path: list[str]) -> None:
        if len(path) > max_length:
            return
        last = path[-1]
        for v in model.space.names:
            if v in path:
                continue
            if not any({last, v} <= b for b in blocks):
                continue
            if len(path) >= 2 and not bridges(path[-2], last, v):
                continue
            if v == v_b:
                if len(path) + 1 >= 3:
                    channels.append(tuple(path + [v]))
                continue
            extend(path + [v])

    extend([v_a])
    return channels


def reduce_model(
    model: Model,
    target: Iterable[str],
    rng: random.Random | None = None,
) -> ReductionOutcome:
    """The most refined model with the same extension projected onto the target.

    GYO elimination with the target protected, from the components touching
    the target: each round drops every non-target variable occurring in a
    single block, then every empty block and every block contained in another
    (of two equal blocks, the later stays), until a round changes nothing.
    The result is order independent; an rng shuffles the blocks before each
    round (used to test confluence).
    """
    target = frozenset(target)
    unknown = target - set(model.space.names)
    if unknown:
        raise DomainError(f"unknown target variables {sorted(unknown)}")

    # working blocks paired with the input block each descends from
    work = [(b, b) for b in restrict_to_target(model, target).blocks]
    changed = True
    while changed:
        if rng is not None:
            rng.shuffle(work)
        counts = Counter(v for b, _ in work for v in b)
        lone = {v for v, c in counts.items() if c == 1} - target
        work = [(b - lone, origin) for b, origin in work]
        holders = defaultdict(list)  # variable -> indices of blocks holding it
        for i, (b, _) in enumerate(work):
            for v in b:
                holders[v].append(i)

        def absorbed(i: int, b: frozenset[str]) -> bool:
            rarest = min(b, key=lambda v: len(holders[v]))
            return any(
                b < work[j][0] or (b == work[j][0] and j > i)
                for j in holders[rarest] if j != i
            )

        kept = [(b, o) for i, (b, o) in enumerate(work) if b and not absorbed(i, b)]
        changed = bool(lone) or len(kept) < len(work)
        work = kept

    reduced = Model(model.space, [b for b, _ in work])
    dropped_vars = model.covered - reduced.covered - target
    return ReductionOutcome(
        reduced=reduced,
        dropped_blocks=tuple(b for b in model.blocks if b not in reduced.block_set),
        dropped_variables=tuple(v for v in model.space.names if v in dropped_vars),
        origins=tuple(work),
    )


def projected_utility_intervals(
    dp: DecisionProblem,
    model: Model,
    tables: Mapping[frozenset[str], Distribution],
    target: Sequence[str],
    use_reduction: bool = True,
) -> list[UtilityInterval]:
    """Utility intervals of the extension of the tables, projected onto the
    target variables that the decision problem is stated over.

    The LP runs over the joint states of the (reduced) model's variables plus
    any uncovered target variables; each joint state contributes the utility
    of its target projection, so the projected polytope is never built.
    """
    tables = {frozenset(b): t for b, t in tables.items()}
    target = list(target)
    if set(dp.space.names) != set(target):
        raise DomainError("decision problem must be stated over the target variables")

    if use_reduction:
        outcome = reduce_model(model, target)
        work_model_blocks = outcome.reduced.blocks
        work_tables = {b: project(tables[o], b) for b, o in outcome.origins}
    else:
        work_model_blocks = model.blocks
        work_tables = {b: tables[b] for b in work_model_blocks}

    covered = frozenset().union(*work_model_blocks)
    ambient = model.space.subspace(covered | set(target))
    work_model = Model(ambient, work_model_blocks)
    k = from_marginals(ambient, work_model, work_tables)

    # utility of each ambient state = utility of its target projection
    positions = [ambient.names.index(n) for n in dp.space.names]
    out = []
    for action in dp.actions:
        row = dp.utility_row(action)
        objective = [
            row[dp.space.state_index(tuple(s[i] for i in positions))]
            for s in ambient.states
        ]
        lo = solve(LpProblem(objective, "min", k))
        hi = solve(LpProblem(objective, "max", k))
        if lo.status != "optimal":
            raise EmptyCredalSetError("the marginal tables are inconsistent")
        out.append(
            UtilityInterval(
                action=action,
                lo=lo.value, hi=hi.value,
                lo_witness=lo.witness, hi_witness=hi.witness,
            )
        )
    return out
