"""Model reduction to the most refined model preserving the projected
extension onto a target variable set, and the utility intervals it sharpens."""

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
    project,
)
from .sets import EmptyCredalSetError, from_marginals, solve


@dataclass(frozen=True)
class ReductionOutcome:
    reduced: Model
    dropped_blocks: tuple[frozenset[str], ...]
    dropped_variables: tuple[str, ...]
    # for each reduced block, an input block containing it; marginal tables
    # for shrunken blocks are projections of the originating block's table
    origins: tuple[tuple[frozenset[str], frozenset[str]], ...]


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

    # label each block with the first block of its component
    blocks = model.blocks
    holders = _holders(blocks)
    label = [None] * len(blocks)
    for first in range(len(blocks)):
        if label[first] is None:
            label[first] = first
            stack = [first]
            while stack:
                for v in blocks[stack.pop()]:
                    for j in holders[v]:
                        if label[j] is None:
                            label[j] = first
                            stack.append(j)
    touching = {label[i] for i, b in enumerate(blocks) if b & target}
    order = sorted((label[i], i) for i in range(len(blocks)) if label[i] in touching)

    # working blocks paired with the input block each descends from
    work = [(blocks[i], blocks[i]) for _, i in order]
    changed = True
    while changed:
        if rng is not None:
            rng.shuffle(work)
        counts = Counter(v for b, _ in work for v in b)
        lone = {v for v, c in counts.items() if c == 1} - target
        work = [(b - lone, origin) for b, origin in work]
        holders = _holders([b for b, _ in work])

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


def _holders(blocks) -> defaultdict[str, list[int]]:
    """Variable -> indices of the blocks holding it."""
    holders = defaultdict(list)
    for i, b in enumerate(blocks):
        for v in b:
            holders[v].append(i)
    return holders


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

    # utility of each ambient state = utility of its target state, in dp.space's order
    positions = [ambient.names.index(n) for n in dp.space.names]
    cell = [dp.space.state_index([s[i] for i in positions]) for s in ambient.states]
    out = []
    for action in dp.actions:
        row = dp.utility_row(action)
        objective = [row[c] for c in cell]
        lo = solve(k, objective, "min")
        hi = solve(k, objective, "max")
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
