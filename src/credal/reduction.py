"""Model surgery: connected components, channels, and reduction to the most
refined model preserving the projected extension onto a target variable set."""

from __future__ import annotations

import random
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

    def origin_of(self, block: frozenset[str]) -> frozenset[str]:
        for b, o in self.origins:
            if b == block:
                return o
        raise DomainError(f"block {sorted(block)} is not in the reduced model")


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

    Starting from the components touching the target, repeat to a fixpoint:
    drop a non-target variable occurring in a single block from that block,
    and drop any block contained in another.  The result is order independent;
    an rng randomizes the step order (used to test confluence).
    """
    target = frozenset(target)
    unknown = target - set(model.space.names)
    if unknown:
        raise DomainError(f"unknown target variables {sorted(unknown)}")

    restricted = restrict_to_target(model, target)
    # working blocks paired with the input block each descends from
    work: list[tuple[frozenset[str], frozenset[str]]] = [
        (b, b) for b in restricted.blocks
    ]

    def shrink_step() -> bool:
        counts: dict[str, int] = {}
        for b, _ in work:
            for v in b:
                counts[v] = counts.get(v, 0) + 1
        candidates = [
            (i, v)
            for i, (b, _) in enumerate(work)
            for v in sorted(b)
            if v not in target and counts[v] == 1
        ]
        if not candidates:
            return False
        if rng is not None:
            i, v = rng.choice(candidates)
        else:
            i, v = candidates[0]
        b, origin = work[i]
        work[i] = (b - {v}, origin)
        return True

    def absorb_step() -> bool:
        for i, (bi, _) in enumerate(work):
            for j, (bj, _) in enumerate(work):
                if i != j and bi <= bj:
                    del work[i]
                    return True
        return False

    steps = [shrink_step, absorb_step]
    while True:
        if rng is not None:
            rng.shuffle(steps)
        if not (steps[0]() or steps[1]()):
            break

    reduced_blocks = [b for b, _ in work if b]
    reduced = Model(model.space, reduced_blocks)
    dropped_blocks = tuple(
        b for b in model.blocks if b not in set(reduced_blocks)
    )
    kept_vars = reduced.covered
    dropped_vars = tuple(
        v for v in model.space.names if v in (model.covered - kept_vars - target)
    )
    origins = tuple((b, o) for b, o in work if b)
    return ReductionOutcome(
        reduced=reduced,
        dropped_blocks=dropped_blocks,
        dropped_variables=dropped_vars,
        origins=origins,
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
        work_tables = {
            b: project(tables[outcome.origin_of(b)], b) for b in work_model_blocks
        }
    else:
        work_model_blocks = model.blocks
        work_tables = {b: tables[b] for b in work_model_blocks}

    covered = frozenset().union(*work_model_blocks) if work_model_blocks else frozenset()
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
