import math
import random
from fractions import Fraction

import pytest

import credal as cr
from credal.maxent import MaxEntError
from credal.solver import LpProblem, solve

from test_domain import rand_distribution


class TestMaxentExtend:
    def test_shape_color_exact_in_one_sweep(self, shape_color):
        space, model, tables, _, _ = shape_color
        result = cr.maxent_extend(space, model, tables)
        assert result.exact
        assert result.iterations == 1
        assert result.distribution == (
            Fraction(21, 50), Fraction(7, 25), Fraction(9, 50), Fraction(3, 25)
        )

    def test_full_block_echoes_input(self, shape_color):
        space = shape_color[0]
        p = cr.Distribution(space, ["0.42", "0.28", "0.18", "0.12"])
        model = cr.Model(space, [{"C", "S"}])
        result = cr.maxent_extend(space, model, {frozenset({"C", "S"}): p})
        assert result.exact
        assert result.distribution == p.mass
        assert result.entropy == pytest.approx(cr.entropy(p.mass))

    def test_uniform_marginals_give_uniform_joint(self):
        space = cr.VariableSpace([("a", "01"), ("b", "012")])
        model = cr.Model(space, [{"a"}, {"b"}])
        tables = {
            frozenset("a"): cr.Distribution(space.subspace("a"), ["1/2", "1/2"]),
            frozenset("b"): cr.Distribution(space.subspace("b"), ["1/3", "1/3", "1/3"]),
        }
        result = cr.maxent_extend(space, model, tables)
        assert result.distribution == (Fraction(1, 6),) * 6

    def test_inconsistent_marginals_rejected(self):
        space = cr.VariableSpace([("a", "01"), ("b", "01")])
        model = cr.Model(space, [{"a", "b"}])
        # full-block table whose own projection conflicts is impossible, so
        # force inconsistency with two overlapping blocks instead
        space2 = cr.VariableSpace([("a", "01"), ("b", "01"), ("c", "01")])
        model2 = cr.Model(space2, [{"a", "b"}, {"b", "c"}])
        t_ab = cr.Distribution(space2.subspace({"a", "b"}), ["1", "0", "0", "0"])
        t_bc = cr.Distribution(space2.subspace({"b", "c"}), ["0", "0", "0", "1"])
        with pytest.raises(MaxEntError):
            cr.maxent_extend(space2, model2, {
                frozenset({"a", "b"}): t_ab, frozenset({"b", "c"}): t_bc
            })

    def test_overlapping_blocks_converge(self, three_table):
        space, model, tables, _ = three_table
        result = cr.maxent_extend(space, model, tables)
        assert result.residual <= 1e-12
        assert math.isclose(sum(result.distribution), 1.0, abs_tol=1e-9)


class TestEntropy:
    def test_uniform_base_two(self):
        assert cr.entropy([Fraction(1, 4)] * 4, base=2) == pytest.approx(2.0)

    def test_point_mass(self):
        assert cr.entropy([1, 0, 0]) == 0.0

    def test_shape_color_direct_summation(self, shape_color):
        p = [0.42, 0.28, 0.18, 0.12]
        direct = -sum(m * math.log(m) for m in p)
        assert cr.entropy(["0.42", "0.28", "0.18", "0.12"]) == pytest.approx(direct)
        assert direct == pytest.approx(1.283876, abs=1e-6)


class TestMaxentProperties:
    def _samples_from(self, k, rng, count):
        """Random elements of K: LP witnesses mixed with random convex weights."""
        witnesses = []
        n = k.space.n_states
        for _ in range(8):
            objective = [Fraction(rng.randrange(-10, 11)) for _ in range(n)]
            outcome = solve(LpProblem(objective, "max", k))
            witnesses.append(outcome.witness.mass)
        for _ in range(count):
            weights = [rng.random() for _ in witnesses]
            total = sum(weights)
            yield [
                sum(w * float(v[j]) for w, v in zip(weights, witnesses)) / total
                for j in range(n)
            ]

    def test_maximality_over_random_members(self, shape_color):
        space, model, tables, k, _ = shape_color
        rng = random.Random(42)
        result = cr.maxent_extend(space, model, tables)
        h_star = cr.entropy(result.distribution)
        for q in self._samples_from(k, rng, 1000):
            assert cr.entropy(q) <= h_star + 1e-9

    def test_marginal_fidelity(self, three_table):
        space, model, tables, _ = three_table
        result = cr.maxent_extend(space, model, tables)
        for block in model.blocks:
            sub = space.subspace(block)
            positions = [space.names.index(n) for n in sub.names]
            for cell in sub.states:
                fitted = sum(
                    m for s, m in zip(space.states, result.distribution)
                    if all(s[i] == c for i, c in zip(positions, cell))
                )
                assert abs(fitted - float(tables[block][cell])) <= 1e-11

    def test_partition_model_exact_product(self):
        rng = random.Random(9)
        space = cr.VariableSpace([("a", "01"), ("b", "012")])
        model = cr.Model(space, [{"a"}, {"b"}])
        for _ in range(20):
            ta = rand_distribution(space.subspace("a"), rng)
            tb = rand_distribution(space.subspace("b"), rng)
            result = cr.maxent_extend(
                space, model, {frozenset("a"): ta, frozenset("b"): tb}
            )
            assert result.exact and result.iterations == 1
            expected = tuple(
                ta[(sa,)] * tb[(sb,)] for sa, sb in space.states
            )
            assert result.distribution == expected

    def test_zero_marginal_cell_forces_zero_mass(self, three_table):
        space, model, tables, _ = three_table
        result = cr.maxent_extend(space, model, tables)
        block = frozenset({"M", "S", "D"})
        sub = space.subspace(block)
        positions = [space.names.index(n) for n in sub.names]
        for j, state in enumerate(space.states):
            cell = tuple(state[i] for i in positions)
            if tables[block][cell] == 0:
                assert result.distribution[j] == 0.0

    def test_decomposable_models_exact_in_one_sweep(self):
        # random junction trees: each block joins a nonempty proper subset of
        # an earlier block to a new variable; blocks are then shuffled, and
        # the joint has zero cells
        rng = random.Random(61)
        for _ in range(30):
            variables = [(f"v{k}", "012"[: rng.choice((2, 3))]) for k in range(2)]
            blocks = [{"v0", "v1"}]
            n = math.prod(len(values) for _, values in variables)
            while n * 2 <= 32:
                parent = sorted(rng.choice(blocks))
                separator = set(rng.sample(parent, rng.randrange(1, len(parent))))
                name = f"v{len(variables)}"
                variables.append((name, "012"[: rng.choice((2, 3)) if n * 3 <= 32 else 2]))
                blocks.append(separator | {name})
                n *= len(variables[-1][1])
            rng.shuffle(blocks)
            space = cr.VariableSpace(variables)
            weights = [rng.choice((0, 0, 1, 2, 3, 5, 8)) for _ in range(n)]
            weights[rng.randrange(n)] += 1
            p = cr.Distribution(space, [Fraction(w, sum(weights)) for w in weights])
            model = cr.Model(space, blocks)
            result = cr.maxent_extend(space, model, cr.project_model(p, model))
            assert result.exact and result.iterations == 1, blocks
