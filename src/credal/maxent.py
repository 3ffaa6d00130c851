"""Maximum-entropy extension of marginal tables by iterative proportional fitting."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .domain import Distribution, DomainError, Model, VariableSpace
from .sets import from_marginals, is_consistent

TOLERANCE = 1e-12
MAX_SWEEPS = 10000


class MaxEntError(RuntimeError):
    """Inconsistent marginals or failure to converge."""


@dataclass(frozen=True)
class MaxEntResult:
    """The entropy-maximizing extension of a set of marginal tables.

    The masses are exact rationals when fitting terminates after the first
    sweep (always the case for decomposable models); otherwise they are floats
    with the stated residual.
    """

    space: VariableSpace
    distribution: tuple
    entropy: float
    iterations: int
    residual: float
    exact: bool


def entropy(mass, base: float = math.e) -> float:
    """Shannon entropy -sum p log p, with 0 log 0 = 0."""
    total = 0.0
    for m in mass:
        m = float(m)
        if m > 0.0:
            total -= m * math.log(m)
    return total / math.log(base)


def maxent_extend(
    space: VariableSpace,
    model: Model,
    tables: Mapping[frozenset[str], Distribution],
) -> MaxEntResult:
    """Fit the unique maximum-entropy joint distribution matching the tables.

    Starts from the uniform distribution and cycles over the marginal cells
    in model declaration order (cells lexicographic), rescaling the matching
    states multiplicatively.  The first sweep runs in exact rationals and is
    exact after one sweep for decomposable models (partitions and junction
    trees, in any block order).  Otherwise fitting continues in floating point
    until the residual is at most TOLERANCE, for at most MAX_SWEEPS sweeps.
    Entropy is in nats.  Inconsistent tables raise MaxEntError; the exact LP
    that detects them runs only when the first sweep misses a table.
    """
    tables = {frozenset(b): t for b, t in tables.items()}
    k = from_marginals(space, model, tables)  # validates the tables

    n = space.n_states
    plans = []
    for block in model.blocks:
        if not block:
            continue
        sub, cell = space.projection(block)
        groups = [[] for _ in range(sub.n_states)]
        for j, c in enumerate(cell):
            groups[c].append(j)
        plans.append(list(zip(groups, tables[block].mass)))

    # An exact first sweep that reproduces every table is a point of K, which
    # proves the tables consistent; only a miss needs the consistency LP.
    p = [Fraction(1, n)] * n
    try:
        _sweep(p, plans, 0)
    except MaxEntError:
        _require_consistent(k)
        raise
    if _residual(p, plans) == 0:
        return MaxEntResult(
            space=space,
            distribution=tuple(p),
            entropy=entropy(p),
            iterations=1,
            residual=0.0,
            exact=True,
        )

    _require_consistent(k)
    # float continuation
    p = [float(m) for m in p]
    for sweep in range(2, MAX_SWEEPS + 1):
        _sweep(p, plans, TOLERANCE)
        residual = _residual(p, plans)
        if residual <= TOLERANCE:
            return MaxEntResult(
                space=space,
                distribution=tuple(p),
                entropy=entropy(p),
                iterations=sweep,
                residual=float(residual),
                exact=False,
            )
    raise MaxEntError(f"no convergence within {MAX_SWEEPS} sweeps")


def _require_consistent(k) -> None:
    if not is_consistent(k):
        raise MaxEntError("the marginal tables are inconsistent")


def _sweep(p, plans, tolerance) -> None:
    """One IPF sweep in place: scale each cell's states to the cell's target.

    Exact on Fraction masses; on float masses the Fraction targets divide as
    floats.  A cell with no mass left may only have a target within tolerance.
    """
    for plan in plans:
        for indices, target in plan:
            current = sum(p[j] for j in indices)
            if current == 0:
                if target > tolerance:
                    raise MaxEntError(
                        "a marginal cell with positive mass is unreachable"
                    )
                continue
            factor = target / current
            for j in indices:
                p[j] *= factor


def _residual(p, plans):
    """Largest absolute deviation of the fitted marginals from the tables."""
    worst = 0
    for plan in plans:
        for indices, target in plan:
            dev = abs(sum(p[j] for j in indices) - target)
            if dev > worst:
                worst = dev
    return worst
