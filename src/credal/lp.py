"""Exact-rational two-phase simplex with Bland's anti-cycling rule.

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
    # final tableau (artificial columns dropped) and basis of an optimal
    # result, from which reoptimize starts
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
    Phase one ignores the objective; ``reoptimize`` runs phase two alone for
    another objective.  Unbounded problems raise SolverError (the feasible
    sets handled here are always bounded).
    """
    _check_objective(num_vars, objective, sense)

    n_slack = len(ub)
    total = num_vars + n_slack

    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for coeffs, b in eq:
        row = [Fraction(v) for v in coeffs] + [Fraction(0)] * n_slack
        rows.append(row)
        rhs.append(Fraction(b))
    for k, (coeffs, b) in enumerate(ub):
        row = [Fraction(v) for v in coeffs] + [Fraction(0)] * n_slack
        row[num_vars + k] = Fraction(1)
        rows.append(row)
        rhs.append(Fraction(b))

    # b >= 0 for phase one
    for i in range(len(rows)):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]

    m = len(rows)
    # one artificial per row; a slack already basic with b >= 0 could serve,
    # but uniform artificials keep the setup simple at desk scale
    tableau = [rows[i] + [Fraction(0)] * m + [rhs[i]] for i in range(m)]
    for i in range(m):
        tableau[i][total + i] = Fraction(1)
    basis = [total + i for i in range(m)]

    # phase one: minimize the sum of artificials
    obj1 = [Fraction(0)] * total + [Fraction(1)] * m + [Fraction(0)]
    for i in range(m):
        _eliminate(obj1, tableau[i], basis[i])
    _iterate(tableau, basis, obj1)
    if -obj1[-1] != 0:
        return LpResult(status="infeasible")

    # Drive the remaining artificials out of the basis.  A row whose artificial
    # cannot leave is zero in every structural column (a redundant row), so it
    # never takes part in a ratio test, and phase two never lets an artificial
    # enter: dropping such rows and the artificial columns changes no pivot.
    kept = []
    for i in range(m):
        if basis[i] >= total:
            piv = next((j for j in range(total) if tableau[i][j] != 0), None)
            if piv is None:
                continue
            _pivot(tableau, basis, obj1, i, piv)
        kept.append(i)
    tableau = [tableau[i][:total] + tableau[i][-1:] for i in kept]
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
