"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass line (run with `pytest tests/test_acceptance.py -v -s`)."""

import random
import time
from fractions import Fraction

import pytest

import credal as cr
from credal.domain import DomainError
from credal.sets import solve

from oracles import grid_optimum
from test_domain import rand_distribution
from test_lp import rand_interval_credal


def report(tag, detail):
    print(f"ACCEPT {tag} PASS: {detail}")


def test_criterion_1_maxent_and_pme(shape_color):
    space, model, tables, k, dp = shape_color
    start = time.monotonic()
    result = cr.maxent_extend(space, model, tables)
    choice = cr.pme_choose(dp, k)
    elapsed = time.monotonic() - start
    assert result.exact and result.iterations == 1
    assert result.distribution == (
        Fraction("0.42"), Fraction("0.28"), Fraction("0.18"), Fraction("0.12")
    )
    assert choice.chosen == "a_WS"
    assert elapsed < 1.0
    report("criterion 1", f"p* exact in one sweep, PME picks a_WS ({elapsed:.3f}s)")


def test_criterion_2_intervals_and_gm(shape_color):
    _, _, _, k, dp = shape_color
    start = time.monotonic()
    ivs = cr.utility_intervals(dp, k)
    choice = cr.gm_choose(dp, k)
    elapsed = time.monotonic() - start
    assert [(iv.lo, iv.hi) for iv in ivs] == [
        (Fraction("-0.5"), Fraction(4)),
        (Fraction("0.1"), Fraction("3.4")),
        (Fraction(-50), Fraction(127)),
        (Fraction(-1), Fraction("2.3")),
    ]
    assert choice.chosen == "a_BC"
    assert elapsed < 1.0
    report("criterion 2", f"four exact intervals, GM picks a_BC ({elapsed:.3f}s)")


def test_criterion_3_coin_example(coin):
    _, k, dp = coin
    admissible = cr.e_admissible(dp, k)
    gm = cr.gm_choose(dp, k)
    assert admissible == ["a1", "a2"]
    scores = dict(gm.ranking)
    assert gm.chosen == "a3" and scores["a3"] == 0
    assert scores["a1"] == scores["a2"] == -197
    report("criterion 3", "E-admissible {a1,a2}, GM picks a3 at 0 vs -197")


def test_criterion_4_gh_threshold():
    space = cr.VariableSpace([("s", ["s1", "s2"])])
    dp = cr.DecisionProblem(space, ["a1", "a2"], [["4.8", "6"], ["4.7", "950"]])
    k = cr.full_simplex(space)
    threshold = Fraction(944) / Fraction("944.1")
    at = dict(cr.gh_choose(dp, k, threshold).ranking)
    assert at["a1"] == at["a2"]
    rng = random.Random(8)
    for _ in range(20):
        delta = Fraction(rng.randrange(1, 1000), 10**6)
        below = threshold - delta
        above = threshold + delta
        if below >= 0:
            assert cr.gh_choose(dp, k, below).chosen == "a2"
        if above <= 1:
            assert cr.gh_choose(dp, k, above).chosen == "a1"
    report("criterion 4", "GH scores tie exactly at 944/944.1, a2 below, a1 above")


def test_criterion_5_baselines():
    space = cr.VariableSpace([("s", ["s1", "s2"])])
    dp = cr.DecisionProblem(space, ["a1", "a2"], [["4.8", "6"], ["4.7", "950"]])
    assert cr.maximin_choose(dp).chosen == "a1"
    regret = cr.minimax_regret_choose(dp)
    assert regret.chosen == "a2"
    assert dict(regret.ranking) == {"a1": -Fraction(944), "a2": -Fraction("0.1")}
    report("criterion 5", "maximin picks a1, minimax regret picks a2 (944 vs 0.1)")


def test_criterion_6_reduction(three_table):
    _, model, _, _ = three_table
    w1 = cr.reduce_model(model, {"C", "S"}).reduced
    assert {frozenset(b) for b in w1.blocks} == {
        frozenset({"C", "M"}), frozenset({"M", "S"})
    }
    space2 = cr.VariableSpace([(v, "01") for v in "ABCDEFGHM"])
    model2 = cr.Model(space2, [{"A", "D"}, {"D", "B", "M"},
                               {"E", "F", "G", "H", "M"}])
    w2 = cr.reduce_model(model2, {"A", "B", "C"}).reduced
    assert {frozenset(b) for b in w2.blocks} == {
        frozenset({"A", "D"}), frozenset({"D", "B"})
    }
    report("criterion 6", "both worked reductions give the expected W")


def test_criterion_7_sharpened_intervals(three_table):
    space, model, tables, dp = three_table
    start = time.monotonic()
    sharp = cr.projected_utility_intervals(dp, model, tables, ["C", "S"])
    full = cr.projected_utility_intervals(
        dp, model, tables, ["C", "S"], use_reduction=False
    )
    elapsed = time.monotonic() - start
    expected = [
        (Fraction("-0.5"), Fraction("2.5")),
        (Fraction("1.2"), Fraction("3.4")),
        (Fraction(9), Fraction(127)),
        (Fraction(-1), Fraction("1.2")),
    ]
    assert [(iv.lo, iv.hi) for iv in sharp] == expected
    assert [(iv.lo, iv.hi) for iv in full] == expected

    xo = cr.Model(space, [{"C"}, {"S"}])
    xo_tables = {
        frozenset({"C"}): cr.project(tables[frozenset({"C", "M"})], {"C"}),
        frozenset({"S"}): cr.project(tables[frozenset({"M", "S", "D"})], {"S"}),
    }
    loose = cr.projected_utility_intervals(dp, xo, xo_tables, ["C", "S"])
    for s, l in zip(sharp, loose):
        assert l.lo <= s.lo <= s.hi <= l.hi

    # with the sharpened intervals a_WS dominates outright, so every
    # interval-based criterion selects it
    ws = next(iv for iv in sharp if iv.action == "a_WS")
    assert all(iv.hi < ws.lo for iv in sharp if iv.action != "a_WS")
    assert cr.choose_from_intervals(sharp).chosen == "a_WS"
    for alpha in ("0", "1/4", "1/2", "3/4", "1"):
        assert cr.choose_from_intervals(sharp, "gh", alpha).chosen == "a_WS"
    assert elapsed < 10.0
    report("criterion 7", f"U' exact, reduce == no-reduce, a_WS dominates ({elapsed:.2f}s)")


def _random_antichain(space, rng, max_blocks=3, max_size=3):
    blocks = []
    for _ in range(rng.randrange(1, max_blocks + 1)):
        blocks.append(frozenset(
            rng.sample(space.names, rng.randrange(1, max_size + 1))
        ))
    keep = [b for b in blocks
            if not any(b < other for other in blocks)]
    return cr.Model(space, set(keep))


def _refine(space, model, rng):
    """A random refinement of the model: shrink or drop blocks."""
    blocks = []
    for b in model.blocks:
        if rng.random() < 0.2:
            continue
        size = rng.randrange(1, len(b) + 1)
        blocks.append(frozenset(rng.sample(sorted(b), size)))
    keep = [b for b in blocks if not any(b < other for other in blocks)]
    if not keep:
        keep = [frozenset([rng.choice(space.names)])]
        if not any(keep[0] <= b for b in model.blocks):
            return None
    return cr.Model(space, set(keep))


def test_criterion_8a_higashi_containment():
    rng = random.Random(2024)
    space = cr.VariableSpace([("x", "01"), ("y", "01"), ("z", "01")])
    n = space.n_states
    pairs = 0
    while pairs < 200:
        fine = _random_antichain(space, rng)
        coarse = _refine(space, fine, rng)
        if coarse is None or not cr.is_refinement(coarse, fine):
            continue
        p = rand_distribution(space, rng)
        k_fine = cr.from_marginals(space, fine, cr.project_model(p, fine))
        k_coarse = cr.from_marginals(space, coarse, cr.project_model(p, coarse))
        for j in range(n):
            unit = [Fraction(0)] * n
            unit[j] = Fraction(1)
            lo_f = solve(k_fine, unit, "min").value
            hi_f = solve(k_fine, unit, "max").value
            lo_c = solve(k_coarse, unit, "min").value
            hi_c = solve(k_coarse, unit, "max").value
            assert lo_c <= lo_f <= hi_f <= hi_c
        pairs += 1
    report("criterion 8a", "interval nesting held on 200 random (p, X <= Y) pairs")


def test_criterion_8b_lp_vs_grid_oracle():
    rng = random.Random(555)
    space = cr.VariableSpace([("x", "abc")])
    for _ in range(100):
        k = rand_interval_credal(space, rng)
        objective = [Fraction(rng.randrange(-50, 51)) for _ in range(3)]
        scale = max(abs(float(v)) for v in objective) or 1.0
        for sense in ("min", "max"):
            lp_value = float(solve(k, objective, sense).value)
            grid = grid_optimum(k, objective, sense)
            assert grid is not None
            assert abs(lp_value - grid) <= 3 * scale / 200
    report("criterion 8b", "LP optimum matched grid oracle on 100 random problems")


def test_criterion_8c_degeneration():
    rng = random.Random(321)
    space = cr.VariableSpace([("x", "01"), ("y", "01")])
    full = cr.full_simplex(space)

    def argmax_set(result):
        top = max(s for _, s in result.ranking)
        return {a for a, s in result.ranking if s == top}

    for _ in range(100):
        dp = cr.DecisionProblem(space, ["a1", "a2", "a3"], [
            [Fraction(rng.randrange(-9, 10)) for _ in range(4)] for _ in range(3)
        ])
        p = rand_distribution(space, rng)
        point = cr.from_intervals(space, {s: (m, m) for s, m in p.as_dict().items()})
        bayes = {
            a for a in dp.actions
            if cr.expected_utility(p, dp, a)
            == max(cr.expected_utility(p, dp, b) for b in dp.actions)
        }
        assert argmax_set(cr.gm_choose(dp, point)) == bayes
        for alpha in ("0", "1/2", "1"):
            assert argmax_set(cr.gh_choose(dp, point, alpha)) == bayes
        assert cr.levi_choose(dp, point).chosen in bayes
        point_model = cr.Model(space, [{"x", "y"}])
        k_pme = cr.from_marginals(space, point_model, {frozenset({"x", "y"}): p})
        assert cr.pme_choose(dp, k_pme).chosen in bayes
        # pure uncertainty: GM degenerates to maximin
        assert argmax_set(cr.gm_choose(dp, full)) == argmax_set(
            cr.maximin_choose(dp))
    report("criterion 8c", "degeneration at K={p} and K=P^n on 100 random problems")


def test_criterion_8d_reduce_confluence():
    rng = random.Random(606)
    space = cr.VariableSpace([(v, "01") for v in "ABCDEF"])
    done = 0
    while done < 100:
        try:
            model = _random_antichain(space, rng, max_blocks=4, max_size=4)
        except DomainError:
            continue
        target = set(rng.sample(space.names, rng.randrange(1, 4)))
        baseline = {frozenset(b)
                    for b in cr.reduce_model(model, target).reduced.blocks}
        for seed in range(2):
            shuffled = cr.reduce_model(model, target,
                                       rng=random.Random(seed * 7919 + done))
            assert {frozenset(b) for b in shuffled.reduced.blocks} == baseline
        done += 1
    report("criterion 8d", "reduction confluent under randomized step order, 100 models")


def test_criterion_8e_maxent_maximality_and_fidelity():
    rng = random.Random(4321)
    space = cr.VariableSpace([("x", "01"), ("y", "01"), ("z", "01")])
    model = cr.Model(space, [{"x", "y"}, {"y", "z"}])
    for _ in range(10):
        p = rand_distribution(space, rng)
        tables = cr.project_model(p, model)
        result = cr.maxent_extend(space, model, tables)
        assert result.residual <= 1e-12
        # fidelity: fitted marginals reproduce the tables
        for block in model.blocks:
            sub = space.subspace(block)
            positions = [space.names.index(n) for n in sub.names]
            for cell in sub.states:
                fitted = sum(
                    m for s, m in zip(space.states, result.distribution)
                    if all(s[i] == c for i, c in zip(positions, cell))
                )
                assert abs(fitted - float(tables[block][cell])) <= 1e-11
        # maximality against members of the same extension polytope
        k = cr.from_marginals(space, model, tables)
        witnesses = []
        for _ in range(6):
            objective = [Fraction(rng.randrange(-10, 11)) for _ in range(8)]
            witnesses.append(solve(k, objective, "max").witness.mass)
        h_star = cr.entropy(result.distribution)
        for _ in range(100):
            weights = [rng.random() for _ in witnesses]
            total = sum(weights)
            q = [sum(w * float(v[j]) for w, v in zip(weights, witnesses)) / total
                 for j in range(8)]
            assert cr.entropy(q) <= h_star + 1e-9
    report("criterion 8e", "maxent maximal and marginal-faithful at 1e-12 residual")
