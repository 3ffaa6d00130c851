"""Independent brute-force oracles used to cross-check the library.

Nothing here shares code with the solver paths under test, except where a
section says so.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from credal.domain import Distribution, Model, VariableSpace
from credal.maxent import MAX_SWEEPS, TOLERANCE, MaxEntError, MaxEntResult, entropy
from credal.sets import CredalSet, from_marginals, is_consistent


def solve_unique(rows, rhs, n):
    """Exact Gaussian elimination; the unique solution of rows·x = rhs or None."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    m = len(aug)
    pivots = []
    row = 0
    for col in range(n):
        piv = next((i for i in range(row, m) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = Fraction(1) / aug[row][col]
        aug[row] = [v * inv for v in aug[row]]
        for i in range(m):
            if i != row and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    for i in range(row, m):
        if aug[i][n] != 0:
            return None  # inconsistent
    if len(pivots) < n:
        return None  # underdetermined
    x = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        x[col] = aug[i][n]
    return x


def polytope_vertices(k: CredalSet) -> set[tuple[Fraction, ...]]:
    """All vertices of K by enumerating active constraint subsets (small n only)."""
    n = k.space.n_states
    ones = [Fraction(1)] * n
    eqs = [(ones, Fraction(1))]
    ineqs = []  # rows normalized to a·x >= b
    for c in k.constraints:
        if c.relation == "=":
            eqs.append((list(c.coefficients), c.rhs))
        elif c.relation == ">=":
            ineqs.append((list(c.coefficients), c.rhs))
        else:
            ineqs.append(([-v for v in c.coefficients], -c.rhs))
    for j in range(n):
        unit = [Fraction(0)] * n
        unit[j] = Fraction(1)
        ineqs.append((unit, Fraction(0)))

    def feasible(x):
        return all(
            sum(a * v for a, v in zip(row, x)) >= b for row, b in ineqs
        ) and all(
            sum(a * v for a, v in zip(row, x)) == b for row, b in eqs
        )

    vertices = set()
    need = max(0, n - len(eqs))
    for size in range(need, len(ineqs) + 1):
        for active in itertools.combinations(ineqs, size):
            rows = [r for r, _ in eqs] + [r for r, _ in active]
            rhs = [b for _, b in eqs] + [b for _, b in active]
            x = solve_unique(rows, rhs, n)
            if x is not None and feasible(x):
                vertices.add(tuple(x))
    return vertices


def interval_by_vertices(k: CredalSet, objective) -> tuple[Fraction, Fraction]:
    """Exact [min, max] of objective·p over K via full vertex enumeration."""
    values = [
        sum(c * v for c, v in zip(objective, vertex))
        for vertex in polytope_vertices(k)
    ]
    assert values, "empty polytope"
    return min(values), max(values)


def grid_optimum(k: CredalSet, objective, sense: str, steps: int = 200):
    """Float grid search over the 3-state simplex at resolution 1/steps."""
    assert k.space.n_states == 3
    obj = [float(v) for v in objective]
    rows = []
    for c in k.constraints:
        rows.append((
            [float(v) for v in c.coefficients], c.relation, float(c.rhs)
        ))
    best = None
    eps = 1e-9
    for i in range(steps + 1):
        for j in range(steps + 1 - i):
            p = (i / steps, j / steps, (steps - i - j) / steps)
            ok = True
            for coeffs, rel, rhs in rows:
                lhs = sum(a * v for a, v in zip(coeffs, p))
                if rel == "=" and abs(lhs - rhs) > eps:
                    ok = False
                elif rel == "<=" and lhs > rhs + eps:
                    ok = False
                elif rel == ">=" and lhs < rhs - eps:
                    ok = False
                if not ok:
                    break
            if not ok:
                continue
            value = sum(a * v for a, v in zip(obj, p))
            if best is None or (sense == "min" and value < best) or (
                sense == "max" and value > best
            ):
                best = value
    return best


def find_channels(model, v_a: str, v_b: str) -> list[tuple[str, ...]]:
    """All sequences of distinct variables (v_a, ..., v_b), length >= 3, where
    each interior variable co-occurs with its predecessor and successor in two
    distinct blocks.  Exponential in the worst case; verification use only."""
    if v_a == v_b:
        raise ValueError("channel endpoints must differ")
    blocks = model.blocks

    def bridges(prev: str, mid: str, nxt: str) -> bool:
        holds_in = [b for b in blocks if {prev, mid} <= b]
        holds_out = [b for b in blocks if {mid, nxt} <= b]
        return any(a != b for a in holds_in for b in holds_out)

    channels = []

    def extend(path: list[str]) -> None:
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


def reduce_stepwise(blocks, target, names):
    """Reference model reduction, one step at a time.

    Keeps the blocks of components that touch the target (components ordered
    by their first block, blocks in input order), then loops: drop the first
    non-target variable (by block, then name) that occurs in a single block;
    if there is none, delete the first block contained in another; stop when
    neither applies.  Returns the reduced blocks in order, the dropped input
    blocks and the dropped variables (in `names` order).
    """
    blocks = [frozenset(b) for b in blocks]
    target = frozenset(target)
    components = []  # lists of block indices
    for i, b in enumerate(blocks):
        touching = [c for c in components if any(b & blocks[j] for j in c)]
        components = [c for c in components if c not in touching]
        components.append(sorted(sum(touching, [i])))
    components.sort()
    work = [blocks[j] for c in components if any(blocks[j] & target for j in c) for j in c]

    def shrink():
        counts = {}
        for b in work:
            for v in b:
                counts[v] = counts.get(v, 0) + 1
        for i, b in enumerate(work):
            for v in sorted(b):
                if v not in target and counts[v] == 1:
                    work[i] = b - {v}
                    return True
        return False

    def absorb():
        for i, bi in enumerate(work):
            for j, bj in enumerate(work):
                if i != j and bi <= bj:
                    del work[i]
                    return True
        return False

    while shrink() or absorb():
        pass
    reduced = [b for b in work if b]
    covered = frozenset().union(*blocks)
    dropped_vars = covered - frozenset().union(*reduced) - target
    return (
        reduced,
        tuple(b for b in blocks if b not in set(reduced)),
        tuple(v for v in names if v in dropped_vars),
    )


# The two-phase simplex as it stood before phase one was cached per credal
# set: every call builds its tableau and runs phase one afresh.  It is the
# reference for ``credal.lp.solve_lp`` and ``credal.lp.reoptimize``.


class ColdUnbounded(RuntimeError):
    """The reference simplex found an unbounded objective."""


@dataclass(frozen=True)
class ColdResult:
    status: str  # "optimal" | "infeasible"
    value: Fraction | None = None
    x: tuple[Fraction, ...] | None = None


def solve_lp_cold(
    num_vars: int,
    objective: Sequence[Fraction],
    sense: str,
    eq: Sequence[tuple[Sequence[Fraction], Fraction]] = (),
    ub: Sequence[tuple[Sequence[Fraction], Fraction]] = (),
) -> ColdResult:
    """Optimize objective·x subject to eq rows (a·x = b), ub rows (a·x <= b), x >= 0.

    All arithmetic is exact; the returned x satisfies every constraint exactly.
    Unbounded problems raise ColdUnbounded (the feasible sets handled here are
    always bounded).
    """
    if sense not in ("min", "max"):
        raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
    if len(objective) != num_vars:
        raise ValueError("objective length != variable count")

    c = [Fraction(v) for v in objective]
    if sense == "max":
        c = [-v for v in c]

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
    width = total + m

    # phase one: minimize the sum of artificials
    obj1 = [Fraction(0)] * width + [Fraction(0)]
    for j in range(total, width):
        obj1[j] = Fraction(1)
    for i in range(m):
        _eliminate(obj1, tableau[i], basis[i])
    _iterate(tableau, basis, obj1, width, allowed=width)
    if -obj1[-1] != 0:
        return ColdResult(status="infeasible")

    # drive remaining artificials out of the basis
    for i in range(m):
        if basis[i] >= total:
            piv = next((j for j in range(total) if tableau[i][j] != 0), None)
            if piv is None:
                # redundant row
                continue
            _pivot(tableau, basis, [obj1], i, piv)

    # phase two
    obj2 = c + [Fraction(0)] * (n_slack + m) + [Fraction(0)]
    for i in range(m):
        _eliminate(obj2, tableau[i], basis[i])
    _iterate(tableau, basis, obj2, width, allowed=total)

    x = [Fraction(0)] * num_vars
    for i, bi in enumerate(basis):
        if bi < num_vars:
            x[bi] = tableau[i][-1]
    value = -obj2[-1]
    if sense == "max":
        value = -value
    return ColdResult(status="optimal", value=value, x=tuple(x))


def _eliminate(obj: list[Fraction], row: list[Fraction], col: int) -> None:
    factor = obj[col]
    if factor != 0:
        for j in range(len(obj)):
            obj[j] -= factor * row[j]


def _pivot(tableau, basis, extra_rows, r: int, col: int) -> None:
    row = tableau[r]
    inv = Fraction(1) / row[col]
    for j in range(len(row)):
        row[j] *= inv
    for other in tableau:
        if other is not row and other[col] != 0:
            factor = other[col]
            for j in range(len(other)):
                other[j] -= factor * row[j]
    for obj in extra_rows:
        _eliminate(obj, row, col)
    basis[r] = col


def _iterate(tableau, basis, obj, width: int, allowed: int) -> None:
    """Run simplex to optimality with Bland's rule; columns >= allowed are barred."""
    while True:
        entering = next((j for j in range(min(allowed, width)) if obj[j] < 0), None)
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
            raise ColdUnbounded("LP unbounded: the feasible set should be bounded")
        _pivot(tableau, basis, [obj], leaving, entering)

# Maximum-entropy fitting as it stood before it read its cells off the rows of
# K: it groups the states of each block's cells through
# ``VariableSpace.projection`` and raises on an unreachable positive cell.  It
# shares ``from_marginals``, ``is_consistent`` and ``entropy`` with the
# library, and is the reference for ``credal.maxent.maxent_extend``.


def maxent_extend_grouped(
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
