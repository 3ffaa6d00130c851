import random
from fractions import Fraction

import pytest

import credal as cr
from credal.domain import DomainError
from credal.sets import solve

from oracles import polytope_vertices
from test_domain import rand_distribution


def state_bounds(k):
    """Exact per-state [min, max] probability bounds over K."""
    n = k.space.n_states
    out = []
    for j in range(n):
        unit = [Fraction(0)] * n
        unit[j] = Fraction(1)
        lo = solve(k, unit, "min")
        hi = solve(k, unit, "max")
        out.append((lo.value, hi.value))
    return out


class TestFromMarginals:
    def test_shape_color_system(self, shape_color):
        space, model, tables, k, _ = shape_color
        assert len(k.constraints) == 4
        rhs = sorted(c.rhs for c in k.constraints)
        assert rhs == [Fraction(3, 10), Fraction(2, 5), Fraction(3, 5), Fraction(7, 10)]
        # the paper's p(BS)+p(BC)=0.7 row
        b_row = next(c for c in k.constraints if c.rhs == Fraction(7, 10))
        assert b_row.coefficients == (1, 1, 0, 0)
        assert b_row.relation == "="

    def test_full_block_pins_the_joint(self, shape_color):
        space = shape_color[0]
        p = cr.Distribution(space, ["0.42", "0.28", "0.18", "0.12"])
        model = cr.Model(space, [{"C", "S"}])
        k = cr.from_marginals(space, model, {frozenset({"C", "S"}): p})
        assert polytope_vertices(k) == {p.mass}

    def test_empty_block_model_gives_full_simplex(self, shape_color):
        space = shape_color[0]
        model = cr.Model(space, [frozenset()])
        table = cr.Distribution(cr.VariableSpace([]), [Fraction(1)])
        k = cr.from_marginals(space, model, {frozenset(): table})
        assert polytope_vertices(k) == polytope_vertices(cr.full_simplex(space))

    def test_block_table_mismatch(self, shape_color):
        space, model, tables, _, _ = shape_color
        bad = {frozenset({"C"}): tables[frozenset({"S"})],
               frozenset({"S"}): tables[frozenset({"C"})]}
        with pytest.raises(DomainError):
            cr.from_marginals(space, model, bad)

    def test_partition_model_coefficients_are_indicator_rows(self):
        space = cr.VariableSpace([("a", "01"), ("b", "012")])
        model = cr.Model(space, [{"a"}, {"b"}])
        pa = cr.Distribution(space.subspace({"a"}), ["1/4", "3/4"])
        pb = cr.Distribution(space.subspace({"b"}), ["1/2", "1/3", "1/6"])
        k = cr.from_marginals(space, model, {frozenset("a"): pa, frozenset("b"): pb})
        assert len(k.constraints) == 5  # 2 + 3 cells
        for c in k.constraints:
            assert set(c.coefficients) <= {Fraction(0), Fraction(1)}


class TestFromIntervals:
    def test_degenerate_intervals_pin_p(self, shape_color):
        space = shape_color[0]
        p = ["0.42", "0.28", "0.18", "0.12"]
        k = cr.from_intervals(
            space, {s: (v, v) for s, v in zip(space.states, p)}
        )
        assert polytope_vertices(k) == {
            tuple(cr.to_fraction(v) for v in p)
        }

    def test_vacuous_intervals_give_full_simplex(self, shape_color):
        space = shape_color[0]
        k = cr.from_intervals(space, {s: ("0", "1") for s in space.states})
        assert polytope_vertices(k) == polytope_vertices(cr.full_simplex(space))

    def test_only_cutting_bounds_give_rows(self, shape_color, coin):
        space = shape_color[0]
        k = cr.from_intervals(space, {s: ("0", "1") for s in space.states})
        assert k.constraints == ()
        assert [(c.relation, c.rhs) for c in coin[1].constraints] == [
            (">=", Fraction(2, 5)), ("<=", Fraction(3, 5))]

    def test_coin_k_is_segment_between_p1_and_p2(self, coin):
        _, k, _ = coin
        assert polytope_vertices(k) == {
            (Fraction(2, 5), Fraction(3, 5)),
            (Fraction(3, 5), Fraction(2, 5)),
        }

    def test_crossed_bounds_rejected(self, coin):
        space = coin[0]
        with pytest.raises(DomainError):
            cr.from_intervals(space, {("H",): ("0.6", "0.4")})


class TestFromOrdering:
    def test_full_chain_vertices_are_k_uniform(self):
        space = cr.VariableSpace([("x", "abcd")])
        chain = [("a",), ("b",), ("c",), ("d",)]
        k = cr.from_ordering(space, chain)
        expected = set()
        for top in range(1, 5):
            v = [Fraction(1, top)] * top + [Fraction(0)] * (4 - top)
            expected.add(tuple(v))
        assert polytope_vertices(k) == expected

    def test_single_state_chain_adds_nothing(self, shape_color):
        space = shape_color[0]
        k = cr.from_ordering(space, [("B", "S")])
        assert k.constraints == ()

    def test_two_state_chain_forces_majority(self, coin):
        space = coin[0]
        k = cr.from_ordering(space, [("H",), ("T",)])
        assert state_bounds(k)[0] == (Fraction(1, 2), Fraction(1))

    def test_duplicate_state_rejected(self, coin):
        space = coin[0]
        with pytest.raises(DomainError):
            cr.from_ordering(space, [("H",), ("H",)])


class TestIntersect:
    def test_with_full_simplex_is_identity(self, shape_color, coin):
        for k in (shape_color[3], coin[1]):
            merged = cr.intersect(k, cr.full_simplex(k.space))
            assert state_bounds(merged) == state_bounds(k)

    def test_extra_halfspace_tightens_bs(self, shape_color):
        space, _, _, k, _ = shape_color
        extra = cr.from_raw(space, [
            cr.LinearConstraint([1, 0, 0, 0], ">=", "0.5")
        ])
        merged = cr.intersect(k, extra)
        assert state_bounds(merged)[0] == (Fraction(1, 2), Fraction(3, 5))

    def test_conflicting_marginals_detected(self, shape_color):
        space, model, tables, k, _ = shape_color
        other_tables = dict(tables)
        other_tables[frozenset({"C"})] = cr.Distribution(
            space.subspace({"C"}), {("B",): "0.6", ("W",): "0.4"}
        )
        k2 = cr.from_marginals(space, model, other_tables)
        assert not cr.is_consistent(cr.intersect(k, k2))

    def test_space_mismatch(self, shape_color, coin):
        with pytest.raises(DomainError):
            cr.intersect(shape_color[3], coin[1])


class TestIsConsistent:
    def test_paper_system_is_solvable(self, shape_color):
        assert cr.is_consistent(shape_color[3])

    def test_mismatched_totals(self, shape_color):
        space = shape_color[0]
        model = cr.Model(space, [{"C"}])
        # a "table" that sums to 1 but contradicts an extra raw constraint
        k = cr.intersect(
            cr.from_marginals(space, model, {
                frozenset({"C"}): cr.Distribution(
                    space.subspace({"C"}), {("B",): "0.7", ("W",): "0.3"})
            }),
            cr.from_raw(space, [cr.LinearConstraint([1, 1, 0, 0], "=", "0.6")]),
        )
        assert not cr.is_consistent(k)

    def test_two_states_both_at_least_09(self, coin):
        space = coin[0]
        k = cr.from_raw(space, [
            cr.LinearConstraint([1, 0], ">=", "0.9"),
            cr.LinearConstraint([0, 1], ">=", "0.9"),
        ])
        assert not cr.is_consistent(k)


class TestContainmentProperties:
    def test_p_lies_in_its_own_marginal_extension(self):
        rng = random.Random(23)
        space = cr.VariableSpace([("a", "01"), ("b", "01"), ("c", "01")])
        model = cr.Model(space, [{"a", "b"}, {"b", "c"}])
        for _ in range(20):
            p = rand_distribution(space, rng)
            k = cr.from_marginals(space, model, cr.project_model(p, model))
            assert k.contains(p)
