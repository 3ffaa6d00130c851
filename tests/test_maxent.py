import math
import random
from fractions import Fraction

import pytest

import credal as cr
import credal.lp
import credal.maxent
from credal.maxent import MaxEntError
from credal.sets import EmptyCredalSetError, solve

import oracles
from oracles import maxent_extend_grouped
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

    def test_exact_sweep_needs_no_lp(self, shape_color, monkeypatch):
        space, model, tables, _, _ = shape_color

        def no_lp(*args, **kwargs):
            raise AssertionError("the exact sweep already proves consistency")

        monkeypatch.setattr(credal.lp, "solve_lp", no_lp)
        assert cr.maxent_extend(space, model, tables).exact

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
        with pytest.raises(EmptyCredalSetError, match="the marginal tables are inconsistent"):
            cr.maxent_extend(space2, model2, {
                frozenset({"a", "b"}): t_ab, frozenset({"b", "c"}): t_bc
            })

    @pytest.mark.parametrize("agree, ac", [
        # the exact sweep meets an unreachable cell
        (["1/2", "0", "0", "1/2"], ["0", "1/2", "1/2", "0"]),
        # the exact sweep misses the a,c table
        (["9/20", "1/20", "1/20", "9/20"], ["1/20", "9/20", "9/20", "1/20"]),
    ], ids=["unreachable-cell", "missed-table"])
    def test_cyclic_inconsistency_named(self, agree, ac):
        # a, b and b, c mostly agree, yet a, c mostly disagree
        space = cr.VariableSpace([("a", "01"), ("b", "01"), ("c", "01")])
        model = cr.Model(space, [{"a", "b"}, {"b", "c"}, {"a", "c"}])
        tables = {frozenset(b): cr.Distribution(space.subspace(b), t)
                  for b, t in (("ab", agree), ("bc", agree), ("ac", ac))}
        with pytest.raises(EmptyCredalSetError, match="the marginal tables are inconsistent"):
            cr.maxent_extend(space, model, tables)

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
            outcome = solve(k, objective, "max")
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


def _fit(extend, space, model, tables):
    """Every output of a fit, floats by repr so that equality is bitwise."""
    try:
        r = extend(space, model, tables)
    except (MaxEntError, EmptyCredalSetError) as exc:
        return str(exc)
    return (tuple(map(repr, r.distribution)), r.iterations, repr(r.residual),
            r.exact, repr(r.entropy))


def _random_marginals(rng, variables, blocks):
    """A model and the tables of a joint with zero states, some zero cells."""
    space = cr.VariableSpace(variables)
    weights = [rng.choice((0, 0, 1, 2, 3, 5, 8)) for _ in range(space.n_states)]
    weights[rng.randrange(space.n_states)] += 1
    p = cr.Distribution(space, [Fraction(w, sum(weights)) for w in weights])
    model = cr.Model(space, blocks)
    return space, model, cr.project_model(p, model)


def _tree(rng):
    """A random junction tree with shuffled blocks (exact in one sweep)."""
    variables = [("v0", "01"), ("v1", "012"[: rng.choice((2, 3))])]
    blocks = [{"v0", "v1"}]
    while len(variables) < rng.choice((3, 4, 5)):
        parent = sorted(rng.choice(blocks))
        separator = set(rng.sample(parent, rng.randrange(1, len(parent))))
        variables.append((f"v{len(variables)}", "01"))
        blocks.append(separator | {variables[-1][0]})
    rng.shuffle(blocks)
    return _random_marginals(rng, variables, blocks)


def _cycle(rng):
    """Pairwise tables around a cycle of 3 or 4 variables (float fit)."""
    k = rng.choice((3, 4))
    variables = [("v0", "012"[: rng.choice((2, 3))])] + [(f"v{i}", "01") for i in range(1, k)]
    blocks = [{f"v{i}", f"v{(i + 1) % k}"} for i in range(k)]
    return _random_marginals(rng, variables, blocks)


def _agreeing_triangle(rng):
    """A 3-cycle whose binary tables agree pairwise (uniform margins) but
    disagree globally: P(a != c) > P(a != b) + P(b != c)."""
    space = cr.VariableSpace([("a", "01"), ("b", "01"), ("c", "01")])
    d_ab, d_bc = (Fraction(rng.randrange(0, 4), 10) for _ in range(2))
    d_ac = d_ab + d_bc + Fraction(rng.randrange(1, 11 - int(10 * (d_ab + d_bc))), 10)
    tables = {
        frozenset(b): cr.Distribution(space.subspace(b), [(1 - d) / 2, d / 2, d / 2, (1 - d) / 2])
        for b, d in (("ab", d_ab), ("bc", d_bc), ("ac", d_ac))
    }
    return space, cr.Model(space, tables), tables


def _faint_cycle(rng):
    """A binary 3-cycle with pairwise interactions of size eps ~ 1e-7: the
    exact first sweep misses by O(eps^2), under TOLERANCE but not zero."""
    space = cr.VariableSpace([("a", "01"), ("b", "01"), ("c", "01")])
    eps = Fraction(rng.randrange(1, 10), 10**7)
    agree, differ = (1 + eps) / 4, (1 - eps) / 4
    tables = {
        frozenset(b): cr.Distribution(space.subspace(b), [agree, differ, differ, agree])
        for b in ("ab", "bc", "ac")
    }
    return space, cr.Model(space, tables), tables


def _perturbed(rng):
    """Tree or cycle tables with mass moved between two cells of one table."""
    space, model, tables = rng.choice((_tree, _cycle))(rng)
    block = rng.choice(model.blocks)
    mass = list(tables[block].mass)
    i = rng.choice([c for c, m in enumerate(mass) if m > 0])
    j = rng.choice([c for c in range(len(mass)) if c != i])
    moved = min(mass[i], Fraction(rng.randrange(1, 5), 10))
    mass[i] -= moved
    mass[j] += moved
    tables[block] = cr.Distribution(tables[block].space, mass)
    return space, model, tables


class TestMaxentOracle:
    def test_matches_grouped_reference_on_random_models(self, monkeypatch):
        # some cycles have a maximum-entropy point on the boundary of K that
        # no zero cell forces, where IPF creeps; a lower cap, the same for
        # both, keeps their "no convergence" outcome cheap to compare
        for module in (credal.maxent, oracles):
            monkeypatch.setattr(module, "MAX_SWEEPS", 200)
        rng = random.Random(2024)
        kinds = ([_tree] * 60 + [_cycle] * 60 + [_agreeing_triangle] * 40
                 + [_faint_cycle] * 10 + [_perturbed] * 60)
        seen = set()
        for kind in kinds:
            space, model, tables = kind(rng)
            want = _fit(maxent_extend_grouped, space, model, tables)
            assert _fit(cr.maxent_extend, space, model, tables) == want, (kind, tables)
            seen.add(want if isinstance(want, str) else want[3])  # the message, or exact
        assert seen == {True, False, "the marginal tables are inconsistent",
                        "no convergence within 200 sweeps"}
