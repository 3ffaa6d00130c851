"""Optimization of linear objectives over a credal set."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import lp
from .domain import Distribution, DomainError, to_fraction
from .sets import CredalSet

__all__ = ["LpProblem", "LpOutcome", "solve"]


@dataclass(frozen=True)
class LpProblem:
    objective: tuple[Fraction, ...]  # one coefficient per state
    sense: str  # "min" | "max"
    credal: CredalSet

    def __init__(self, objective: Sequence, sense: str, credal: CredalSet):
        obj = tuple(to_fraction(v) for v in objective)
        if len(obj) != credal.space.n_states:
            raise DomainError("objective length != state count")
        if sense not in ("min", "max"):
            raise DomainError(f"sense must be 'min' or 'max', got {sense!r}")
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "sense", sense)
        object.__setattr__(self, "credal", credal)


@dataclass(frozen=True)
class LpOutcome:
    status: str  # "optimal" | "infeasible"
    value: Fraction | None = None
    witness: Distribution | None = None


def solve(problem: LpProblem) -> LpOutcome:
    """Exact optimum and attaining distribution of a linear objective over K."""
    k = problem.credal
    eq, ub = k.lp_rows()
    result = lp.solve_lp(
        k.space.n_states, list(problem.objective), problem.sense, eq=eq, ub=ub
    )
    if result.status != "optimal":
        return LpOutcome(status="infeasible")
    return LpOutcome(
        status="optimal",
        value=result.value,
        witness=Distribution(k.space, result.x),
    )
