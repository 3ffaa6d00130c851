import random
from fractions import Fraction

import pytest

import credal as cr
from credal.lp import SolverError, reoptimize, solve_lp
from credal.sets import solve

from oracles import ColdUnbounded, grid_optimum, solve_lp_cold
from test_domain import rand_distribution


def check_witness(k, outcome, objective=None):
    """Witness satisfies every constraint exactly and attains the value."""
    w = outcome.witness
    assert sum(w.mass) == 1
    assert all(m >= 0 for m in w.mass)
    assert k.contains(w)
    if objective is not None:
        assert sum(c * m for c, m in zip(objective, w.mass)) == outcome.value


def rand_interval_credal(space, rng):
    """Nonempty K from random intervals around a random anchor distribution."""
    anchor = rand_distribution(space, rng)
    bounds = {}
    for s, m in zip(space.states, anchor.mass):
        # width >= 0.05 on each side so a 1/200 grid always lands inside
        lo = max(Fraction(0), m - Fraction(rng.randrange(5, 30), 100))
        hi = min(Fraction(1), m + Fraction(rng.randrange(5, 30), 100))
        bounds[s] = (lo, hi)
    return cr.from_intervals(space, bounds)


class TestSolve:
    def test_paper_ws_maximum(self, shape_color):
        _, _, _, k, dp = shape_color
        outcome = solve(k, dp.utility_row("a_WS"), "max")
        assert outcome.value == 127
        assert outcome.witness[("W", "S")] == Fraction(3, 10)
        check_witness(k, outcome, dp.utility_row("a_WS"))

    def test_point_k_returns_dot_product(self, shape_color):
        space, _, _, _, dp = shape_color
        p = cr.Distribution(space, ["0.42", "0.28", "0.18", "0.12"])
        k = cr.from_intervals(space, {s: (m, m) for s, m in p.as_dict().items()})
        for action in dp.actions:
            outcome = solve(k, dp.utility_row(action), "min")
            assert outcome.value == cr.expected_utility(p, dp, action)

    def test_infeasible_reported(self, coin):
        space = coin[0]
        k = cr.from_raw(space, [
            cr.LinearConstraint([1, 0], "=", "0.3"),
            cr.LinearConstraint([1, 0], "=", "0.4"),
        ])
        outcome = solve(k, [1, 0], "max")
        assert outcome.status == "infeasible"

    def test_matches_grid_oracle_on_random_intervals(self):
        rng = random.Random(99)
        space = cr.VariableSpace([("x", "abc")])
        for _ in range(20):
            k = rand_interval_credal(space, rng)
            objective = [Fraction(rng.randrange(-50, 51)) for _ in range(3)]
            scale = max(abs(float(v)) for v in objective) or 1.0
            for sense in ("min", "max"):
                outcome = solve(k, objective, sense)
                assert outcome.status == "optimal"
                check_witness(k, outcome, objective)
                grid = grid_optimum(k, objective, sense)
                assert grid is not None
                assert abs(float(outcome.value) - grid) <= 3 * scale / 200


class TestFeasible:
    def test_paper_system_witness_satisfies_all_marginal_rows(self, shape_color):
        _, _, _, k, _ = shape_color
        ok, witness = cr.feasible(k)
        assert ok
        assert all(c.satisfied_by(witness.mass) for c in k.constraints)

    def test_contradictory_equalities(self, coin):
        space = coin[0]
        k = cr.from_raw(space, [
            cr.LinearConstraint([1, 0], "=", "0.3"),
            cr.LinearConstraint([1, 0], "=", "0.4"),
        ])
        assert cr.feasible(k) == (False, None)

    def test_full_simplex_feasible(self, shape_color):
        space = shape_color[0]
        ok, witness = cr.feasible(cr.full_simplex(space))
        assert ok
        assert sum(witness.mass) == 1


class TestSolverProperties:
    def test_duality_gap_zero_on_paper_examples(self, shape_color, coin):
        for k, dp in ((shape_color[3], shape_color[4]), (coin[1], coin[2])):
            for action in dp.actions:
                row = dp.utility_row(action)
                neg = [-u for u in row]
                hi = solve(k, row, "max").value
                lo_of_neg = solve(k, neg, "min").value
                assert hi == -lo_of_neg

    def test_termination_on_degenerate_systems(self):
        # many coincident/redundant constraints force degenerate pivots;
        # Bland's rule must still terminate
        rng = random.Random(1234)
        space = cr.VariableSpace([("x", "abcd")])
        for _ in range(1000):
            constraints = []
            for _ in range(rng.randrange(1, 6)):
                j = rng.randrange(4)
                coeffs = [Fraction(0)] * 4
                coeffs[j] = Fraction(1)
                rel = rng.choice(["<=", ">=", "="])
                rhs = Fraction(rng.randrange(0, 3), 4)
                constraints.append(cr.LinearConstraint(coeffs, rel, rhs))
            k = cr.from_raw(space, constraints)
            objective = [Fraction(rng.randrange(-3, 4)) for _ in range(4)]
            outcome = solve(k, objective, "max")
            if outcome.status == "optimal":
                check_witness(k, outcome, objective)

    def test_added_constraint_never_improves_optimum(self):
        rng = random.Random(55)
        space = cr.VariableSpace([("x", "abc")])
        for _ in range(30):
            k = rand_interval_credal(space, rng)
            objective = [Fraction(rng.randrange(-20, 21)) for _ in range(3)]
            base_max = solve(k, objective, "max").value
            base_min = solve(k, objective, "min").value
            j = rng.randrange(3)
            coeffs = [Fraction(0)] * 3
            coeffs[j] = Fraction(1)
            extra = cr.from_raw(space, [
                cr.LinearConstraint(coeffs, "<=", Fraction(rng.randrange(1, 4), 4))
            ])
            merged = cr.intersect(k, extra)
            tighter = solve(merged, objective, "max")
            if tighter.status == "optimal":
                assert tighter.value <= base_max
                assert solve(merged, objective, "min").value >= base_min


class TestRawSimplex:
    def test_unbounded_raises(self):
        with pytest.raises(SolverError):
            solve_lp(2, [Fraction(1), Fraction(0)], "max",
                     ub=[([Fraction(0), Fraction(1)], Fraction(1))])

    def test_simple_equality_system(self):
        result = solve_lp(
            2, [Fraction(3), Fraction(1)], "max",
            eq=[([Fraction(1), Fraction(1)], Fraction(1))],
        )
        assert result.status == "optimal"
        assert result.value == 3
        assert result.x == (Fraction(1), Fraction(0))


def rand_lp(rng):
    """A small random LP: eq rows, ub rows (some with negative rhs), repeated
    and redundant rows, often an upper bound on the total.  Most are built
    around a point x0 >= 0 and so are feasible; the rest have random
    right-hand sides and are often infeasible."""
    n = rng.randrange(1, 9)
    x0 = [Fraction(rng.randrange(0, 3)) for _ in range(n)]
    around_x0 = rng.random() < 0.75

    def row(slack):
        a = [Fraction(rng.randrange(-3, 4), rng.choice((1, 1, 2, 3))) for _ in range(n)]
        if around_x0:
            return a, sum((u * v for u, v in zip(a, x0)), slack)
        return a, Fraction(rng.randrange(-3, 6), rng.choice((1, 2)))

    eq = [row(Fraction(0)) for _ in range(rng.randrange(0, 4))]
    ub = [row(Fraction(rng.randrange(0, 3))) for _ in range(rng.randrange(0, 5))]
    if rng.random() < 0.8:
        ub.append(([Fraction(1)] * n, sum(x0) + rng.randrange(0, 4)))
    if eq and rng.random() < 0.3:
        eq.append(rng.choice(eq))  # repeated row
    if len(eq) >= 2 and rng.random() < 0.3:
        (a, b), (c, d) = eq[0], eq[1]
        eq.append(([u + v for u, v in zip(a, c)], b + d))  # redundant row
    if ub and rng.random() < 0.3:
        ub.append(rng.choice(ub))
    objective = [Fraction(rng.randrange(-5, 6)) for _ in range(n)]
    return n, objective, rng.choice(("min", "max")), eq, ub


def lp_answer(solve, *args):
    """(status, value, x) of an LP, or "unbounded"."""
    try:
        result = solve(*args)
    except (SolverError, ColdUnbounded):
        return "unbounded"
    return result.status, result.value, result.x


class TestWarmStart:
    def test_matches_cold_oracle_on_random_lps(self):
        rng = random.Random(2024)
        statuses = set()
        for _ in range(300):
            n, objective, sense, eq, ub = rand_lp(rng)
            want = lp_answer(solve_lp_cold, n, objective, sense, eq, ub)
            assert lp_answer(solve_lp, n, objective, sense, eq, ub) == want
            start = solve_lp(n, [Fraction(0)] * n, "min", eq, ub)
            assert lp_answer(reoptimize, start, objective, sense) == want
            statuses.add(want if want == "unbounded" else want[0])
        assert statuses == {"optimal", "infeasible", "unbounded"}

    def test_infeasible_start_returned_as_is(self):
        start = solve_lp(1, [Fraction(0)], "min", eq=[([Fraction(1)], Fraction(-1))])
        assert start.status == "infeasible"
        assert reoptimize(start, [Fraction(1)], "max") is start

    def test_repeated_solves_match_fresh_sets(self, shape_color):
        # small integer objectives tie often, so a phase two started from a
        # mutated tableau would reach a different witness
        rng = random.Random(77)
        space = shape_color[0]
        sets = [shape_color[3]] + [rand_interval_credal(space, rng) for _ in range(10)]
        for k in sets:
            for sense in ("max", "min", "max", "min", "max", "min"):
                objective = [rng.randrange(-2, 3) for _ in range(space.n_states)]
                fresh = cr.from_raw(space, k.constraints)
                assert solve(k, objective, sense) == solve(fresh, objective, sense)


def rand_degenerate_lp(rng):
    """A small LP built to be degenerate: equality rows through a point x0
    with many zero coordinates, their scaled duplicates and sums, rows with a
    zero right-hand side, <= rows tight at x0, and a total-mass bound that
    keeps it bounded.  A few have one right-hand side moved and are often
    infeasible."""
    n = rng.randrange(2, 6)
    x0 = [Fraction(rng.choice((0, 0, 0, 1, 2))) for _ in range(n)]

    def through_x0():
        a = [Fraction(rng.randrange(-2, 3)) for _ in range(n)]
        return a, sum(u * v for u, v in zip(a, x0))

    def zero_rhs():
        a = [Fraction(rng.randrange(-2, 3)) if v == 0 else Fraction(0) for v in x0]
        return a, Fraction(0)

    eq = [rng.choice((through_x0, zero_rhs))() for _ in range(rng.randrange(1, 3))]
    for _ in range(rng.randrange(0, 3)):
        (a, b), (c, d) = rng.choice(eq), rng.choice(eq)
        if rng.random() < 0.5:
            k = Fraction(rng.choice((-2, -1, 3)), rng.choice((1, 2)))
            eq.append(([k * u for u in a], k * b))  # scaled duplicate
        else:
            eq.append(([u + v for u, v in zip(a, c)], b + d))  # summed rows
    ub = [rng.choice((through_x0, zero_rhs))() for _ in range(rng.randrange(0, 2))]
    ub.append(([Fraction(1)] * n, sum(x0) + rng.choice((0, 0, 1))))
    if rng.random() < 0.1:
        a, b = eq[0]
        eq[0] = (a, b + rng.choice((-1, 1)))
    rng.shuffle(eq)
    objective = [Fraction(rng.randrange(-2, 3)) for _ in range(n)]
    return n, objective, rng.choice(("min", "max")), eq, ub


# On this LP a phase one with artificial columns (solve_lp_cold) pivots an
# artificial back in while degenerate, and so ends on another optimal vertex
# than solve_lp, whose artificials have no columns: the values agree, x not.
ARTIFICIAL_REENTRY_LP = (
    5, [Fraction(v) for v in (2, -1, -1, 1, -1)], "min",
    [([Fraction(v) for v in a], Fraction(b)) for a, b in (
        ((0, 0, 0, 0, 0), 0), ((2, -1, 2, -1, -1), 3), ((-1, 1, -1, 1, 1), -1),
        ((-1, -1, -1, -1, -1), -3), ((1, 1, 1, 1, 1), 3), ((1, -1, 1, -1, -1), 1))],
    [([Fraction(v) for v in a], Fraction(b)) for a, b in (
        ((-1, -2, 2, 1, -2), 0), ((1, -2, 1, 2, 1), 4), ((1, 1, 1, 1, 1), 3))],
)


class TestDegenerate:
    @staticmethod
    def check_x(result, n, objective, eq, ub):
        """x satisfies every row exactly, is >= 0 and attains the value."""
        x = result.x
        assert len(x) == n and all(v >= 0 for v in x)
        for a, b in eq:
            assert sum(u * v for u, v in zip(a, x)) == b
        for a, b in ub:
            assert sum(u * v for u, v in zip(a, x)) <= b
        assert sum(c * v for c, v in zip(objective, x)) == result.value

    def test_status_and_value_match_cold_oracle(self):
        rng = random.Random(31)
        lps = [rand_degenerate_lp(rng) for _ in range(1000)] + [ARTIFICIAL_REENTRY_LP]
        statuses = set()
        for n, objective, sense, eq, ub in lps:
            want = solve_lp_cold(n, objective, sense, eq, ub)
            start = solve_lp(n, [Fraction(0)] * n, "min", eq, ub)
            for got in (solve_lp(n, objective, sense, eq, ub),
                        reoptimize(start, objective, sense)):
                assert (got.status, got.value) == (want.status, want.value)
                if got.status == "optimal":
                    self.check_x(got, n, objective, eq, ub)
            statuses.add(want.status)
        assert statuses == {"optimal", "infeasible"}

    def test_artificial_reentry_lp_pinned(self):
        result = solve_lp(*ARTIFICIAL_REENTRY_LP)
        assert result.value == -1
        assert result.x == tuple(Fraction(v) for v in ("2/3", "1", "4/3", "0", "0"))
        cold = solve_lp_cold(*ARTIFICIAL_REENTRY_LP)
        assert cold.value == -1
        assert cold.x == tuple(Fraction(v) for v in ("2/3", "0", "4/3", "0", "1"))
