"""Exact-rational two-phase simplex with Bland's anti-cycling rule.

Both phases run on one tableau layout: the variables, then one slack per
``<=`` row, then the right-hand side; phase one's artificials have no columns.
Phase one reads only the constraints, so ``reoptimize`` can start phase two
for any objective from an earlier result's basis: a credal set runs phase one
once (``sets.CredalSet.phase_one``) however many objectives it is solved for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence


class SolverError(RuntimeError):
    """Internal solver failure (e.g. unboundedness where it cannot occur)."""


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal" | "infeasible"
    value: Fraction | None = None
    x: tuple[Fraction, ...] | None = None
    # final tableau and basis of an optimal result, from which reoptimize starts
    _tableau: list[list[Fraction]] | None = field(default=None, repr=False, compare=False)
    _basis: list[int] | None = field(default=None, repr=False, compare=False)


def solve_lp(
    num_vars: int,
    objective: Sequence[Fraction],
    sense: str,
    eq: Sequence[tuple[Sequence[Fraction], Fraction]] = (),
    ub: Sequence[tuple[Sequence[Fraction], Fraction]] = (),
) -> LpResult:
    """Optimize objective·x subject to eq rows (a·x = b), ub rows (a·x <= b), x >= 0.

    All arithmetic is exact; the returned x satisfies every constraint exactly.
    Phase one minimizes the sum of one artificial per row and ignores the
    objective; ``reoptimize`` runs phase two alone for another objective.
    Unbounded problems raise SolverError (the feasible sets handled here are
    always bounded).
    """
    _check_objective(num_vars, objective, sense)

    n_slack = len(ub)
    total = num_vars + n_slack

    tableau: list[list[Fraction]] = []
    for i, (coeffs, b) in enumerate([*eq, *ub]):
        row = [Fraction(v) for v in coeffs] + [Fraction(0)] * n_slack + [Fraction(b)]
        if i >= len(eq):
            row[num_vars + i - len(eq)] = Fraction(1)  # the slack of a <= row
        tableau.append(row if row[-1] >= 0 else [-v for v in row])  # b >= 0 for phase one

    # Phase one minimizes the sum of one artificial per row; row i starts on
    # its artificial, index total + i.  The artificials need no columns: one
    # that leaves the basis is fixed at 0, which keeps every x that satisfies
    # the rows feasible.  The reduced costs start at minus the column sums.
    m = len(tableau)
    basis = [total + i for i in range(m)]
    obj1 = [-sum((row[j] for row in tableau), Fraction(0)) for j in range(total + 1)]
    _iterate(tableau, basis, obj1)
    if -obj1[-1] != 0:
        return LpResult(status="infeasible")

    # Drive the remaining artificials out of the basis.  A row whose artificial
    # cannot leave is zero in every column (a redundant row), so it never takes
    # part in a ratio test: dropping it changes no pivot.
    kept = []
    for i in range(m):
        if basis[i] >= total:
            piv = next((j for j in range(total) if tableau[i][j] != 0), None)
            if piv is None:
                continue
            _pivot(tableau, basis, obj1, i, piv)
        kept.append(i)
    tableau = [tableau[i] for i in kept]
    return _phase_two(tableau, [basis[i] for i in kept], objective, sense)


def reoptimize(start: LpResult, objective: Sequence[Fraction], sense: str) -> LpResult:
    """Optimize a new objective from the final basis of an optimal ``start``.

    Runs phase two on a copy of ``start``'s tableau, which stays unchanged.
    When ``start`` came from a zero objective, the result equals what
    ``solve_lp`` with this objective returns, witness included.  An infeasible
    ``start`` is returned as is.
    """
    if start.status != "optimal":
        return start
    _check_objective(len(start.x), objective, sense)
    return _phase_two([row[:] for row in start._tableau], list(start._basis), objective, sense)


def _check_objective(num_vars: int, objective: Sequence[Fraction], sense: str) -> None:
    if sense not in ("min", "max"):
        raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
    if len(objective) != num_vars:
        raise ValueError("objective length != variable count")


def _phase_two(tableau, basis, c: Sequence[Fraction], sense: str) -> LpResult:
    """Optimize c·x from a feasible basis; tableau and basis are updated in place.

    The tableau holds the structural columns (variables, then slacks) and the
    right-hand side.
    """
    num_vars = len(c)
    total = len(tableau[0]) - 1 if tableau else num_vars
    obj2 = [Fraction(v) for v in c]
    if sense == "max":
        obj2 = [-v for v in obj2]
    obj2 += [Fraction(0)] * (total - num_vars) + [Fraction(0)]
    for row, bi in zip(tableau, basis):
        _eliminate(obj2, row, bi)
    _iterate(tableau, basis, obj2)

    x = [Fraction(0)] * num_vars
    for i, bi in enumerate(basis):
        if bi < num_vars:
            x[bi] = tableau[i][-1]
    value = -obj2[-1]
    if sense == "max":
        value = -value
    return LpResult(
        status="optimal", value=value, x=tuple(x), _tableau=tableau, _basis=basis
    )


def _eliminate(obj: list[Fraction], row: list[Fraction], col: int) -> None:
    factor = obj[col]
    if factor != 0:
        for j in range(len(obj)):
            obj[j] -= factor * row[j]


def _pivot(tableau, basis, obj, r: int, col: int) -> None:
    row = tableau[r]
    inv = Fraction(1) / row[col]
    for j in range(len(row)):
        row[j] *= inv
    for other in tableau:
        if other is not row and other[col] != 0:
            factor = other[col]
            for j in range(len(other)):
                other[j] -= factor * row[j]
    _eliminate(obj, row, col)
    basis[r] = col


def _iterate(tableau, basis, obj) -> None:
    """Run simplex to optimality with Bland's rule; obj's last entry is the rhs."""
    while True:
        entering = next((j for j in range(len(obj) - 1) if obj[j] < 0), None)
        if entering is None:
            return
        leaving = None
        best = None
        for i, row in enumerate(tableau):
            a = row[entering]
            if a > 0:
                ratio = row[-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving is None:
            raise SolverError("LP unbounded: the feasible set should be bounded")
        _pivot(tableau, basis, obj, leaving, entering)
