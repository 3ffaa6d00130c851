"""Maximum-entropy extension of marginal tables by iterative proportional fitting."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .domain import Distribution, DomainError, Model, VariableSpace
from .sets import from_marginals, is_consistent

DEFAULT_TOLERANCE = 1e-12
DEFAULT_MAX_SWEEPS = 10000


class MaxEntError(RuntimeError):
    """Inconsistent marginals or failure to converge."""


@dataclass(frozen=True)
class MaxEntResult:
    """The entropy-maximizing extension of a set of marginal tables.

    The masses are exact rationals when fitting terminates after the first
    sweep (always the case for partition models); otherwise they are floats
    with the stated residual.
    """

    space: VariableSpace
    distribution: tuple
    entropy: float
    iterations: int
    residual: float
    exact: bool

    def as_distribution(self) -> Distribution:
        if not self.exact:
            raise MaxEntError("result is a float approximation, not exact")
        return Distribution(self.space, self.distribution)


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
    base: float = math.e,
    tolerance: float = DEFAULT_TOLERANCE,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
) -> MaxEntResult:
    """Fit the unique maximum-entropy joint distribution matching the tables.

    Starts from the uniform distribution and cycles over the marginal cells
    in model declaration order (cells lexicographic), rescaling the matching
    states multiplicatively.  The first sweep runs in exact rationals; if it
    already reproduces every table (e.g. the blocks form a partition) the
    result is exact, otherwise fitting continues in floating point.
    """
    tables = {frozenset(b): t for b, t in tables.items()}
    if not is_consistent(from_marginals(space, model, tables)):
        raise MaxEntError("the marginal tables are inconsistent")

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

    p = [Fraction(1, n)] * n
    _sweep(p, plans, 0)  # exact first sweep
    if _residual(p, plans) == 0:
        return MaxEntResult(
            space=space,
            distribution=tuple(p),
            entropy=entropy(p, base),
            iterations=1,
            residual=0.0,
            exact=True,
        )

    # float continuation
    p = [float(m) for m in p]
    for sweep in range(2, max_sweeps + 1):
        _sweep(p, plans, tolerance)
        residual = _residual(p, plans)
        if residual <= tolerance:
            return MaxEntResult(
                space=space,
                distribution=tuple(p),
                entropy=entropy(p, base),
                iterations=sweep,
                residual=float(residual),
                exact=False,
            )
    raise MaxEntError(f"no convergence within {max_sweeps} sweeps")


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
