import random
from fractions import Fraction

import pytest

import credal as cr
import credal.lp
from credal.domain import DomainError
from credal.sets import EmptyCredalSetError

from oracles import polytope_vertices
from test_domain import rand_distribution
from test_lp import rand_interval_credal


@pytest.fixture
def two_interval_problem():
    """Raw matrix whose utility intervals over P^2 are [4.8, 6] and [4.7, 950]."""
    space = cr.VariableSpace([("s", ["s1", "s2"])])
    dp = cr.DecisionProblem(space, ["a1", "a2"], [["4.8", "6"], ["4.7", "950"]])
    return space, dp, cr.full_simplex(space)


def empty_k(space):
    return cr.from_raw(space, [
        cr.LinearConstraint([1] + [0] * (space.n_states - 1), "=", "0.3"),
        cr.LinearConstraint([1] + [0] * (space.n_states - 1), "=", "0.4"),
    ])


class TestUtilityIntervals:
    def test_shape_color_paper_values(self, shape_color):
        _, _, _, k, dp = shape_color
        ivs = cr.utility_intervals(dp, k)
        assert [(iv.lo, iv.hi) for iv in ivs] == [
            (Fraction(-1, 2), Fraction(4)),
            (Fraction(1, 10), Fraction(17, 5)),
            (Fraction(-50), Fraction(127)),
            (Fraction(-1), Fraction(23, 10)),
        ]
        for iv in ivs:
            assert k.contains(iv.lo_witness) and k.contains(iv.hi_witness)

    def test_point_k_degenerates(self, shape_color):
        space, _, _, _, dp = shape_color
        p = cr.Distribution(space, ["0.42", "0.28", "0.18", "0.12"])
        k = cr.from_intervals(space, {s: (m, m) for s, m in p.as_dict().items()})
        for iv in cr.utility_intervals(dp, k):
            assert iv.lo == iv.hi == cr.expected_utility(p, dp, iv.action)

    def test_coin_a1(self, coin):
        _, k, dp = coin
        iv = cr.utility_intervals(dp, k)[0]
        assert iv.lo == -197
        # upper endpoint is attained at the p(H) = 0.6 vertex
        assert iv.hi == Fraction(3, 5) * 1000 + Fraction(2, 5) * -995 == 202

    def test_empty_k_refused(self, shape_color):
        space, _, _, _, dp = shape_color
        with pytest.raises(EmptyCredalSetError):
            cr.utility_intervals(dp, empty_k(space))

    def test_one_phase_one_per_credal_set(self, shape_color, monkeypatch):
        _, _, _, k, dp = shape_color
        calls = []
        original = credal.lp.solve_lp

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(credal.lp, "solve_lp", counting)
        cr.utility_intervals(dp, k)
        assert len(calls) == 1


class TestGm:
    def test_coin(self, coin):
        _, k, dp = coin
        result = cr.gm_choose(dp, k)
        assert result.chosen == "a3"
        assert dict(result.ranking) == {"a1": -197, "a2": -197, "a3": 0}

    def test_shape_color(self, shape_color):
        _, _, _, k, dp = shape_color
        result = cr.gm_choose(dp, k)
        assert result.chosen == "a_BC"
        assert dict(result.ranking)["a_BC"] == Fraction(1, 10)

    def test_full_simplex_equals_maximin(self, shape_color):
        space, _, _, _, dp = shape_color
        gm = cr.gm_choose(dp, cr.full_simplex(space))
        mm = cr.maximin_choose(dp)
        assert dict(gm.ranking) == dict(mm.ranking)
        assert gm.chosen == mm.chosen


class TestGh:
    def test_alpha_half_prefers_wide_upside(self, two_interval_problem):
        _, dp, k = two_interval_problem
        assert cr.gh_choose(dp, k, "1/2").chosen == "a2"

    def test_alpha_one_matches_gm(self, shape_color):
        _, _, _, k, dp = shape_color
        gh = cr.gh_choose(dp, k, 1)
        gm = cr.gm_choose(dp, k)
        assert [s for _, s in gh.ranking] == [s for _, s in gm.ranking]

    def test_threshold_crossing(self, two_interval_problem):
        _, dp, k = two_interval_problem
        threshold = Fraction(944) / Fraction("944.1")  # 9440/9441
        assert cr.gh_choose(dp, k, threshold - Fraction(1, 10**6)).chosen == "a2"
        assert cr.gh_choose(dp, k, Fraction(9441, 9442)).chosen == "a1"
        # exactly at the threshold the scores tie and the index rule picks a1
        at = cr.gh_choose(dp, k, threshold)
        scores = dict(at.ranking)
        assert scores["a1"] == scores["a2"]
        assert at.chosen == "a1"

    def test_alpha_out_of_range(self, two_interval_problem):
        _, dp, k = two_interval_problem
        with pytest.raises(DomainError):
            cr.gh_choose(dp, k, "1.5")


class TestEAdmissible:
    def test_coin_excludes_a3(self, coin):
        _, k, dp = coin
        assert cr.e_admissible(dp, k) == ["a1", "a2"]

    def test_point_k_gives_eu_maximizers(self, shape_color):
        space, _, _, _, dp = shape_color
        p = cr.Distribution(space, ["0.42", "0.28", "0.18", "0.12"])
        k = cr.from_intervals(space, {s: (m, m) for s, m in p.as_dict().items()})
        best = max(cr.expected_utility(p, dp, a) for a in dp.actions)
        expected = [a for a in dp.actions if cr.expected_utility(p, dp, a) == best]
        assert cr.e_admissible(dp, k) == expected

    def test_against_vertex_oracle(self, shape_color):
        _, _, _, k, dp = shape_color
        # an action is E-admissible iff it is EU-maximal somewhere on K;
        # by linearity it suffices to scan vertices and midpoints of the
        # (here 1-dimensional) solution segment
        vertices = sorted(polytope_vertices(k))
        probes = list(vertices)
        for a, b in zip(vertices, vertices[1:]):
            probes.append(tuple((x + y) / 2 for x, y in zip(a, b)))
        oracle = set()
        for mass in probes:
            p = cr.Distribution(dp.space, mass)
            best = max(cr.expected_utility(p, dp, a) for a in dp.actions)
            for a in dp.actions:
                if cr.expected_utility(p, dp, a) == best:
                    oracle.add(a)
        assert set(cr.e_admissible(dp, k)) == oracle

    def test_witnesses_certify_admissibility(self, coin):
        _, k, dp = coin
        for action, witness in cr.e_admissible_witnesses(dp, k):
            eu = {a: cr.expected_utility(witness, dp, a) for a in dp.actions}
            assert eu[action] == max(eu.values())

    def test_empty_k_refused(self, shape_color):
        space, _, _, _, dp = shape_color
        with pytest.raises(EmptyCredalSetError):
            cr.e_admissible(dp, empty_k(space))

    def test_identical_utility_rows(self, coin):
        space, k, _ = coin
        # b1 duplicates a1, so their dominance rows over each other are zero
        twin = cr.DecisionProblem(space, ["a1", "b1", "a2", "a3"],
                                  [[1000, -995], [1000, -995], [-995, 1000], [0, 0]])
        pairs = dict(cr.e_admissible_witnesses(twin, k))
        assert list(pairs) == ["a1", "b1", "a2"]
        for action, witness in pairs.items():
            eu = {a: cr.expected_utility(witness, twin, a) for a in twin.actions}
            assert eu[action] == max(eu.values())
        # each witness maximizes the action's EU where the action is maximal
        assert pairs["a1"][("H",)] == pairs["b1"][("H",)] == Fraction(3, 5)


class TestLevi:
    def test_coin_tiebreak(self, coin):
        _, k, dp = coin
        result = cr.levi_choose(dp, k)
        assert result.chosen == "a1"
        assert dict(result.ranking) == {"a1": -995, "a2": -995}

    def test_singleton_admissible_set(self, shape_color):
        space, _, _, _, dp = shape_color
        # point mass on (W,S): only a_WS is E-admissible
        k = cr.from_intervals(space, {
            ("W", "S"): ("1", "1"),
            ("B", "S"): ("0", "0"), ("B", "C"): ("0", "0"), ("W", "C"): ("0", "0"),
        })
        assert cr.levi_choose(dp, k).chosen == "a_WS"

    def test_shape_color_matches_hand_computation(self, shape_color):
        _, _, _, k, dp = shape_color
        admissible = cr.e_admissible(dp, k)
        raw_min = {a: min(dp.utility_row(a)) for a in admissible}
        best = max(raw_min.values())
        expected = next(a for a in dp.actions if raw_min.get(a) == best)
        assert cr.levi_choose(dp, k).chosen == expected

    def test_empty_k_refused(self, shape_color):
        space, _, _, _, dp = shape_color
        with pytest.raises(EmptyCredalSetError):
            cr.levi_choose(dp, empty_k(space))


class TestPme:
    def test_shape_color(self, shape_color):
        _, _, _, k, dp = shape_color
        result = cr.pme_choose(dp, k)
        assert result.chosen == "a_WS"
        assert dict(result.ranking)["a_WS"] == Fraction(281, 5)

    def test_point_model_is_bayesian(self, shape_color):
        space, _, _, _, dp = shape_color
        p = cr.Distribution(space, ["0.42", "0.28", "0.18", "0.12"])
        model = cr.Model(space, [{"C", "S"}])
        k = cr.from_marginals(space, model, {frozenset({"C", "S"}): p})
        result = cr.pme_choose(dp, k)
        best = max(cr.expected_utility(p, dp, a) for a in dp.actions)
        assert cr.expected_utility(p, dp, result.chosen) == best

    def test_interval_k_rejected(self, coin):
        _, k, dp = coin
        with pytest.raises(DomainError):
            cr.pme_choose(dp, k)


class TestBaselines:
    def test_maximin(self, two_interval_problem, coin):
        _, dp, _ = two_interval_problem
        assert cr.maximin_choose(dp).chosen == "a1"
        assert cr.maximin_choose(coin[2]).chosen == "a3"

    def test_maximin_single_action(self, coin):
        space = coin[0]
        dp = cr.DecisionProblem(space, ["only"], [[1, 2]])
        assert cr.maximin_choose(dp).chosen == "only"

    def test_hurwicz_endpoints(self, two_interval_problem):
        _, dp, _ = two_interval_problem
        assert cr.hurwicz_choose(dp, 1).chosen == cr.maximin_choose(dp).chosen
        assert cr.hurwicz_choose(dp, 0).chosen == "a2"

    def test_gh_over_full_simplex_equals_hurwicz(self):
        rng = random.Random(77)
        space = cr.VariableSpace([("s", "abc")])
        k = cr.full_simplex(space)
        for _ in range(10):
            dp = cr.DecisionProblem(space, ["a1", "a2", "a3"], [
                [Fraction(rng.randrange(-9, 10)) for _ in range(3)]
                for _ in range(3)
            ])
            for alpha in (0, Fraction(1, 3), Fraction(1, 2), 1):
                gh = cr.gh_choose(dp, k, alpha)
                hw = cr.hurwicz_choose(dp, alpha)
                assert dict(gh.ranking) == dict(hw.ranking)

    def test_minimax_regret_paper_values(self, two_interval_problem):
        _, dp, _ = two_interval_problem
        result = cr.minimax_regret_choose(dp)
        assert result.chosen == "a2"
        assert dict(result.ranking) == {
            "a1": -Fraction(944), "a2": -Fraction(1, 10)
        }

    def test_minimax_regret_all_equal(self, coin):
        space = coin[0]
        dp = cr.DecisionProblem(space, ["a1", "a2"], [[5, 5], [5, 5]])
        result = cr.minimax_regret_choose(dp)
        assert result.chosen == "a1"
        assert all(s == 0 for _, s in result.ranking)

    def test_minimax_regret_coin(self, coin):
        result = cr.minimax_regret_choose(coin[2])
        assert result.chosen == "a3"
        assert dict(result.ranking) == {
            "a1": -1995, "a2": -1995, "a3": -1000
        }


class TestCriterionProperties:
    def test_gm_not_subset_of_e_admissible(self, coin):
        # the paper's central contrast: GM picks a3, which is not E-admissible
        _, k, dp = coin
        assert cr.gm_choose(dp, k).chosen not in cr.e_admissible(dp, k)

    def test_interval_sandwich(self, shape_color):
        _, _, _, k, dp = shape_color
        ivs = cr.utility_intervals(dp, k)
        witnesses = [w for iv in ivs for w in (iv.lo_witness, iv.hi_witness)]
        for iv in ivs:
            for w in witnesses:
                assert iv.lo <= cr.expected_utility(w, dp, iv.action) <= iv.hi

    def test_gh_score_monotone_in_alpha(self, shape_color):
        _, _, _, k, dp = shape_color
        alphas = [Fraction(i, 10) for i in range(11)]
        per_action = {a: [] for a in dp.actions}
        for alpha in alphas:
            for a, s in cr.gh_choose(dp, k, alpha).ranking:
                per_action[a].append(s)
        for scores in per_action.values():
            assert all(x >= y for x, y in zip(scores, scores[1:]))

    def test_positive_affine_invariance(self):
        rng = random.Random(13)
        space = cr.VariableSpace([("s", "abc")])
        for _ in range(10):
            k = rand_interval_credal(space, rng)
            dp = cr.DecisionProblem(space, ["a1", "a2", "a3"], [
                [Fraction(rng.randrange(-9, 10)) for _ in range(3)]
                for _ in range(3)
            ])
            a = Fraction(rng.randrange(1, 5))
            b = Fraction(rng.randrange(-5, 6))
            dp2 = cr.DecisionProblem(space, dp.actions, [
                [a * u + b for u in row] for row in dp.utilities
            ])

            def argmax_set(result):
                top = max(s for _, s in result.ranking)
                return {act for act, s in result.ranking if s == top}

            assert argmax_set(cr.gm_choose(dp, k)) == argmax_set(cr.gm_choose(dp2, k))
            assert argmax_set(cr.gh_choose(dp, k, "1/3")) == argmax_set(
                cr.gh_choose(dp2, k, "1/3"))
            assert argmax_set(cr.maximin_choose(dp)) == argmax_set(
                cr.maximin_choose(dp2))
            assert argmax_set(cr.hurwicz_choose(dp, "2/3")) == argmax_set(
                cr.hurwicz_choose(dp2, "2/3"))
            assert argmax_set(cr.minimax_regret_choose(dp)) == argmax_set(
                cr.minimax_regret_choose(dp2))
            assert set(cr.e_admissible(dp, k)) == set(cr.e_admissible(dp2, k))

    def test_independence_of_irrelevant_alternatives_gm_gh(self):
        rng = random.Random(31)
        space = cr.VariableSpace([("s", "abc")])
        for _ in range(15):
            k = rand_interval_credal(space, rng)
            dp = cr.DecisionProblem(space, ["a1", "a2", "a3", "a4"], [
                [Fraction(rng.randrange(-9, 10)) for _ in range(3)]
                for _ in range(4)
            ])
            for choose in (
                lambda d: cr.gm_choose(d, k),
                lambda d: cr.gh_choose(d, k, "1/2"),
            ):
                chosen = choose(dp).chosen
                for drop in dp.actions:
                    if drop == chosen:
                        continue
                    keep = [a for a in dp.actions if a != drop]
                    sub = cr.DecisionProblem(space, keep, {
                        a: dict(zip(space.states, dp.utility_row(a))) for a in keep
                    })
                    assert choose(sub).chosen == chosen
