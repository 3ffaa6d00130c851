"""Independent brute-force oracles used to cross-check the library.

Nothing here shares code with the solver paths under test.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from credal.sets import CredalSet


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
