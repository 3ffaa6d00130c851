import random
from fractions import Fraction

import pytest

import credal as cr
from credal.domain import DomainError

from oracles import reduce_stepwise
from test_domain import rand_distribution


def blocks_of(model):
    return {frozenset(b) for b in model.blocks}


@pytest.fixture
def abcdef():
    return cr.VariableSpace([(v, "01") for v in "ABCDEF"])


class TestConnectedComponents:
    def test_paper_partition(self, abcdef):
        model = cr.Model(abcdef, [{"A", "B"}, {"B", "C"}, {"D", "E"}, {"E", "F"}])
        parts = cr.connected_components(model).components
        assert {frozenset(map(frozenset, [{"A", "B"}, {"B", "C"}])),
                frozenset(map(frozenset, [{"D", "E"}, {"E", "F"}]))} == set(parts)

    def test_single_block(self, abcdef):
        model = cr.Model(abcdef, [{"A", "B"}])
        assert len(cr.connected_components(model).components) == 1

    def test_disjoint_blocks_are_singletons(self, abcdef):
        model = cr.Model(abcdef, [{"A", "B"}, {"C", "D"}, {"E", "F"}])
        assert len(cr.connected_components(model).components) == 3


class TestRestrictToTarget:
    def test_drops_unlinked_component(self, three_table):
        _, model, _, _ = three_table
        restricted = cr.restrict_to_target(model, {"C", "S"})
        assert blocks_of(restricted) == {
            frozenset({"C", "M"}), frozenset({"M", "S", "D"})
        }

    def test_disjoint_target_gives_empty_model(self, abcdef):
        model = cr.Model(abcdef, [{"A", "B"}])
        assert cr.restrict_to_target(model, {"C"}).blocks == ()

    def test_fully_connected_model_unchanged(self, abcdef):
        model = cr.Model(abcdef, [{"A", "B"}, {"B", "C"}, {"C", "D"}])
        assert blocks_of(cr.restrict_to_target(model, {"A"})) == blocks_of(model)

    def test_never_drops_block_touching_target(self, abcdef):
        rng = random.Random(4)
        for _ in range(50):
            blocks = set()
            while len(blocks) < 3:
                blocks.add(frozenset(rng.sample("ABCDEF", rng.randrange(1, 3))))
            try:
                model = cr.Model(abcdef, blocks)
            except DomainError:
                continue
            target = set(rng.sample("ABCDEF", 2))
            kept = blocks_of(cr.restrict_to_target(model, target))
            for b in blocks:
                if b & target:
                    assert b in kept


class TestFindChannels:
    def test_single_bridge(self, three_table):
        space = three_table[0]
        model = cr.Model(space, [{"C", "M"}, {"M", "S", "D"}])
        assert cr.find_channels(model, "C", "S") == [("C", "M", "S")]

    def test_single_block_has_no_channel(self, abcdef):
        model = cr.Model(abcdef, [{"A", "B"}])
        assert cr.find_channels(model, "A", "B") == []

    def test_paper_second_example(self):
        space = cr.VariableSpace([(v, "01") for v in "ABCDEFGHM"])
        model = cr.Model(space, [{"A", "D"}, {"D", "B", "M"},
                                 {"E", "F", "G", "H", "M"}])
        assert cr.find_channels(model, "A", "B") == [("A", "D", "B")]


class TestReduce:
    def test_paper_three_table(self, three_table):
        _, model, _, _ = three_table
        outcome = cr.reduce_model(model, {"C", "S"})
        assert blocks_of(outcome.reduced) == {
            frozenset({"C", "M"}), frozenset({"M", "S"})
        }
        assert frozenset({"U", "A"}) in set(outcome.dropped_blocks)
        assert set(outcome.dropped_variables) == {"D", "U", "A"}

    def test_paper_uncovered_target(self):
        space = cr.VariableSpace([(v, "01") for v in "ABCDEFGHM"])
        model = cr.Model(space, [{"A", "D"}, {"D", "B", "M"},
                                 {"E", "F", "G", "H", "M"}])
        outcome = cr.reduce_model(model, {"A", "B", "C"})
        assert blocks_of(outcome.reduced) == {
            frozenset({"A", "D"}), frozenset({"D", "B"})
        }

    def test_target_block_without_channels(self, abcdef):
        model = cr.Model(abcdef, [{"A", "B"}, {"C", "D"}])
        outcome = cr.reduce_model(model, {"A", "B"})
        assert blocks_of(outcome.reduced) == {frozenset({"A", "B"})}

    def test_idempotent(self, three_table):
        _, model, _, _ = three_table
        once = cr.reduce_model(model, {"C", "S"})
        twice = cr.reduce_model(once.reduced, {"C", "S"})
        assert blocks_of(twice.reduced) == blocks_of(once.reduced)

    def test_retained_nontarget_variables_lie_on_channels(self, abcdef):
        rng = random.Random(17)
        for _ in range(60):
            blocks = set()
            while len(blocks) < rng.randrange(2, 5):
                blocks.add(frozenset(rng.sample("ABCDEF", rng.randrange(1, 4))))
            try:
                model = cr.Model(abcdef, blocks)
            except DomainError:
                continue
            target = set(rng.sample("ABCDEF", 2))
            outcome = cr.reduce_model(model, target)
            w = outcome.reduced
            assert blocks_of(w) == blocks_of(cr.Model(abcdef, w.blocks))  # antichain
            for v in w.covered - target:
                on_channel = any(
                    v in chan
                    for a in target for b in target if a != b
                    for chan in cr.find_channels(w, a, b)
                )
                assert on_channel, (sorted(map(sorted, blocks)), sorted(target), v)

    def test_order_randomization_confluence(self, abcdef):
        rng = random.Random(29)
        for trial in range(40):
            blocks = set()
            while len(blocks) < rng.randrange(2, 5):
                blocks.add(frozenset(rng.sample("ABCDEF", rng.randrange(1, 4))))
            try:
                model = cr.Model(abcdef, blocks)
            except DomainError:
                continue
            target = set(rng.sample("ABCDEF", rng.randrange(1, 3)))
            baseline = blocks_of(cr.reduce_model(model, target).reduced)
            for seed in range(3):
                shuffled = cr.reduce_model(
                    model, target, rng=random.Random(seed * 1000 + trial)
                )
                assert blocks_of(shuffled.reduced) == baseline

    def test_matches_stepwise_reference(self):
        rng = random.Random(53)
        checked = 0
        while checked < 600:
            names = "ABCDEFGH"[: rng.randrange(1, 9)]
            space = cr.VariableSpace([(v, "01") for v in names])
            blocks = [
                frozenset(rng.sample(names, rng.randrange(1, min(4, len(names)) + 1)))
                for _ in range(rng.randrange(1, 7))
            ]
            try:
                model = cr.Model(space, blocks)
            except DomainError:
                continue
            target = set(rng.sample(names, rng.randrange(0, min(3, len(names)) + 1)))
            outcome = cr.reduce_model(model, target)
            assert (
                list(outcome.reduced.blocks),
                outcome.dropped_blocks,
                outcome.dropped_variables,
            ) == reduce_stepwise(model.blocks, target, names), (blocks, target)
            checked += 1

    def test_wide_tree_keeps_cycle(self):
        # a 4-cycle through the target, with 200 dangling tree blocks
        cycle = ["C1", "C2", "C3", "C4"]
        rng = random.Random(7)
        names = list(cycle)
        blocks = [frozenset(p) for p in zip(cycle, cycle[1:] + cycle[:1])]
        for t in range(200):
            child = f"Y{t + 1}"
            blocks.append(frozenset({rng.choice(names), child}))
            names.append(child)
        model = cr.Model(cr.VariableSpace([(v, "01") for v in names]), blocks)
        outcome = cr.reduce_model(model, {"C1", "C3"})
        assert outcome.reduced.blocks == tuple(blocks[:4])
        assert outcome.dropped_variables == tuple(names[4:])
        assert [b for b, _ in outcome.origins] == list(outcome.reduced.blocks)
        for b, origin in outcome.origins:
            assert origin in model.blocks and b <= origin


class TestProjectedUtilityIntervals:
    def test_paper_sharpened_intervals(self, three_table):
        _, model, tables, dp = three_table
        ivs = cr.projected_utility_intervals(dp, model, tables, ["C", "S"])
        assert [(iv.lo, iv.hi) for iv in ivs] == [
            (Fraction(-1, 2), Fraction(5, 2)),
            (Fraction(6, 5), Fraction(17, 5)),
            (Fraction(9), Fraction(127)),
            (Fraction(-1), Fraction(6, 5)),
        ]

    def test_singleton_model_reproduces_unsharpened_intervals(
        self, three_table, shape_color
    ):
        space, _, tables, dp = three_table
        xo = cr.Model(space, [{"C"}, {"S"}])
        xo_tables = {
            frozenset({"C"}): cr.project(tables[frozenset({"C", "M"})], {"C"}),
            frozenset({"S"}): cr.project(tables[frozenset({"M", "S", "D"})], {"S"}),
        }
        ivs = cr.projected_utility_intervals(dp, xo, xo_tables, ["C", "S"])
        assert [(iv.lo, iv.hi) for iv in ivs] == [
            (Fraction(-1, 2), Fraction(4)),
            (Fraction(1, 10), Fraction(17, 5)),
            (Fraction(-50), Fraction(127)),
            (Fraction(-1), Fraction(23, 10)),
        ]

    def test_reduce_and_no_reduce_agree(self, three_table):
        _, model, tables, dp = three_table
        reduced = cr.projected_utility_intervals(dp, model, tables, ["C", "S"])
        full = cr.projected_utility_intervals(
            dp, model, tables, ["C", "S"], use_reduction=False
        )
        assert [(iv.lo, iv.hi) for iv in reduced] == [(iv.lo, iv.hi) for iv in full]

    def test_sharpening_on_random_instances(self):
        # bounds from the full model nest inside those from its singleton
        # refinement, for random consistent tables
        rng = random.Random(101)
        space = cr.VariableSpace([("a", "01"), ("b", "01"), ("c", "01")])
        model = cr.Model(space, [{"a", "b"}, {"b", "c"}])
        dp_space = space.subspace({"a", "c"})
        for _ in range(10):
            p = rand_distribution(space, rng)
            tables = cr.project_model(p, model)
            xo = cr.Model(space, [{"a"}, {"c"}])
            xo_tables = {
                frozenset("a"): cr.project(p, {"a"}),
                frozenset("c"): cr.project(p, {"c"}),
            }
            dp = cr.DecisionProblem(dp_space, ["u", "v"], [
                [Fraction(rng.randrange(-9, 10)) for _ in range(4)]
                for _ in range(2)
            ])
            sharp = cr.projected_utility_intervals(dp, model, tables, ["a", "c"])
            loose = cr.projected_utility_intervals(dp, xo, xo_tables, ["a", "c"])
            for s, l in zip(sharp, loose):
                assert l.lo <= s.lo <= s.hi <= l.hi
