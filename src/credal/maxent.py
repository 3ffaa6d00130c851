"""Maximum-entropy extension of marginal tables by iterative proportional fitting."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .domain import Distribution, Model, VariableSpace
from .sets import EmptyCredalSetError, from_marginals, is_consistent

TOLERANCE = 1e-12
MAX_SWEEPS = 10000


class MaxEntError(RuntimeError):
    """The fit did not converge (inconsistent tables raise EmptyCredalSetError)."""


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

    Iterative proportional fitting from the uniform start over the rows of K,
    one 0/1 equality per marginal cell (model order, cells in sub-state order).
    The first sweep runs in exact rationals and fits decomposable models
    (partitions and junction trees, in any block order); otherwise fitting
    goes on in floats until the residual is at most TOLERANCE, for at most
    MAX_SWEEPS sweeps.  Entropy is in nats.  IPF zeroes only states in
    zero-mass cells, where every p in K is zero too (Csiszar 1975), so
    consistent tables leave every positive cell some mass.  A first sweep that
    reproduces every table is a point of K; only a miss runs the exact LP,
    which alone judges the tables and raises EmptyCredalSetError if inconsistent.
    """
    k = from_marginals(space, model, tables)  # validates the tables
    cells = [
        ([j for j, c in enumerate(row.coefficients) if c], row.rhs)
        for row in k.constraints
    ]

    p = [Fraction(1, space.n_states)] * space.n_states
    _sweep(p, cells)
    residual, sweeps = _residual(p, cells), 1
    if residual:
        if not is_consistent(k):
            raise EmptyCredalSetError("the marginal tables are inconsistent")
        p = [float(m) for m in p]  # float continuation
        for sweeps in range(2, MAX_SWEEPS + 1):
            _sweep(p, cells)
            residual = _residual(p, cells)
            if residual <= TOLERANCE:
                break
        else:
            raise MaxEntError(f"no convergence within {MAX_SWEEPS} sweeps")
    return MaxEntResult(
        space=space,
        distribution=tuple(p),
        entropy=entropy(p),
        iterations=sweeps,
        residual=float(residual),
        exact=sweeps == 1,
    )


def _sweep(p, cells) -> None:
    """One IPF sweep in place: scale each cell's states to the cell's target.

    Exact on Fraction masses; on float masses the Fraction targets divide as
    floats.  A cell with no mass left is skipped: for consistent tables only
    a zero-target cell can empty (see maxent_extend), and an empty positive
    cell leaves a residual that sends the tables to the LP.
    """
    for indices, target in cells:
        current = sum(p[j] for j in indices)
        if current == 0:
            continue
        factor = target / current
        for j in indices:
            p[j] *= factor


def _residual(p, cells):
    """Largest absolute deviation of the fitted marginals from the tables."""
    worst = 0
    for indices, target in cells:
        dev = abs(sum(p[j] for j in indices) - target)
        if dev > worst:
            worst = dev
    return worst
