from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pandora import (
    DomainError,
    FiniteDistribution,
    HardnessCost,
    Instance,
    TreeClosureCost,
    bernoullify,
    budget_counterexample,
    check_preservation,
    discretize,
    example1,
    kappa_epsilon,
    max_distribution,
    optimal_adaptive,
    optimal_fixed_order,
    optimal_impulsive,
    pull_back_strategy,
    random_instance,
    rat,
    subadditive4,
    unit_demand_pair,
    xos_lift_of,
)

seeds = st.integers(0, 2 ** 31 - 1)


def total_tail(instance, kappa):
    # E[(V - kappa)^+] summed over the boxes
    return sum((p * (v - kappa) for b in instance.boxes for v, p in b.atoms if v > kappa),
               Fraction(0))


class TestKappa:
    def test_frozen_example1(self):
        # tail(k) = 21 - 2k on [0, 10]: epsilon 5 crosses at 8, epsilon 1 at 10
        assert kappa_epsilon(example1(), 5) == 8
        assert kappa_epsilon(example1(), 1) == 10
        assert kappa_epsilon(example1(), 25) == 0

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(DomainError, match="positive"):
            kappa_epsilon(example1(), 0)

    @settings(max_examples=50, deadline=None)
    @given(seeds, st.integers(1, 40), st.integers(1, 6))
    def test_least_kappa_with_small_tail(self, seed, num, den):
        inst = random_instance("general_coverage", (seed % 3) + 1, seed)
        eps = Fraction(num, den)
        kappa = kappa_epsilon(inst, eps)
        assert kappa >= 0
        assert total_tail(inst, kappa) <= eps
        # minimality: at kappa > 0 the tail constraint is tight, and the tail
        # is strictly decreasing wherever positive, so nothing smaller works
        assert kappa == 0 or total_tail(inst, kappa) == eps


class TestDiscretize:
    def test_example1_snaps_to_grid(self):
        out = discretize(example1(), 1)
        assert out.labels == (1, 2, 3)
        assert out.box(1).support == (0, 10)
        assert out.box(2).support == (0, 10)      # 12 capped at kappa = 10
        assert out.box(3).support == (10,)
        assert out.cost is example1().cost or out.cost.eval({2, 3}) == 20

    def test_collapsed_boxes_are_dropped(self):
        from pandora import AdditiveCost, bernoulli

        inst = Instance(
            [bernoulli("1/4", "1/2"), bernoulli(10, "1/2")],
            AdditiveCost({1: 1, 2: 1}),
            cost_class="additive",
        )
        out = discretize(inst, 1)
        assert out.labels == (2,)
        assert out.cost.eval({2}) == 1
        assert out.cost_class == "additive"

    def test_merging_sums_probabilities(self):
        from pandora import AdditiveCost

        box = FiniteDistribution({"1/2": "1/4", "3/4": "1/4", 2: "1/2"})
        inst = Instance([box], AdditiveCost([rat("1/8")]))
        out = discretize(inst, "1/2")
        # kappa: tail(k) = 9/8 - k on [3/4, 2] crosses 1/2 at 5/8... check grid
        got = out.box(1)
        assert all(v % rat("1/2") == 0 for v in got.support)
        assert sum(p for _, p in got.atoms) == 1

    @settings(max_examples=30, deadline=None)
    @given(seeds, st.integers(1, 8))
    def test_sandwich(self, seed, num):
        inst = random_instance("general_coverage", (seed % 3) + 1, seed)
        eps = Fraction(num, 4)
        lo = optimal_adaptive(discretize(inst, eps))[0]
        hi = optimal_adaptive(inst)[0]
        assert lo <= hi <= lo + 2 * eps


class TestBernoullify:
    def test_subadditive4_copies(self):
        lifted, bmap = bernoullify(subadditive4())
        assert bmap.pairs == ((1, 2), (1, 3), (2, 1), (3, 2), (4, 2))
        assert bmap.values == (rat("5/2"), 100, 2, 3, 6)
        assert bmap.weights == (rat("1/2"), rat("1/3"), 1, rat("1/2"), rat("1/2"))
        assert lifted.is_bernoulli()
        assert lifted.labels == (1, 2, 3, 4, 5)
        assert lifted.cost_class == "subadditive"

    def test_second_copy_of_a_box_is_free(self):
        lifted, bmap = bernoullify(subadditive4())
        one = lifted.cost.eval({bmap.label_for((1, 2))})
        both = lifted.cost.eval({bmap.label_for((1, 2)), bmap.label_for((1, 3))})
        assert one == both == 0

    def test_max_of_copies_reproduces_each_box(self):
        inst = subadditive4()
        lifted, bmap = bernoullify(inst)
        for i in inst.labels:
            copies = [lifted.box(k) for k in lifted.labels if bmap.original_box(k) == i]
            assert max_distribution(copies) == inst.box(i)

    @settings(max_examples=30, deadline=None)
    @given(seeds)
    def test_max_law_on_random_instances(self, seed):
        inst = random_instance("general_coverage", (seed % 3) + 1, seed)
        lifted, bmap = bernoullify(inst)
        for i in inst.labels:
            copies = [lifted.box(k) for k in lifted.labels if bmap.original_box(k) == i]
            assert copies, "every box has a positive atom, so at least one copy"
            assert max_distribution(copies) == inst.box(i)

    def test_map_lookup_errors(self):
        _, bmap = bernoullify(subadditive4())
        with pytest.raises(DomainError, match="dropped or never existed"):
            bmap.label_for((1, 1))          # the zero atom never gets a copy
        with pytest.raises(DomainError, match="no lifted box"):
            bmap.original_box(99)

    def test_to_json_shape(self):
        _, bmap = bernoullify(unit_demand_pair())
        assert bmap.to_json() == {"pairs": [[1, 2, "2", "1/3"], [2, 2, "2", "1/3"]]}

    def test_declared_class_survives_only_when_liftable(self):
        inst = budget_counterexample()
        assert inst.cost_class == "submodular"   # budget-additive is submodular
        assert bernoullify(inst)[0].cost_class == "submodular"
        # additivity itself is lost: two copies of a box share one charge
        add = random_instance("additive", 2, 0)
        assert bernoullify(add)[0].cost_class is None

    @settings(max_examples=25, deadline=None)
    @given(seeds)
    def test_fixed_order_optimum_equals_lifted_impulsive(self, seed):
        inst = random_instance(
            ("general_coverage", "additive", "explicit_subadditive")[seed % 3],
            (seed % 3) + 1, seed, {"max_atoms": 2},
        )
        lifted, _ = bernoullify(inst)
        u_fixed, _ = optimal_fixed_order(inst)
        u_imp, _ = optimal_impulsive(lifted)
        assert u_fixed == u_imp

    def test_fixed_order_optimum_frozen(self):
        lifted, _ = bernoullify(subadditive4())
        u_fixed, _ = optimal_fixed_order(subadditive4())
        u_imp, _ = optimal_impulsive(lifted)
        assert u_fixed == u_imp


class TestPullBack:
    def test_accepts_labels_pairs_and_lists(self):
        inst = subadditive4()
        lifted, bmap = bernoullify(inst)
        s = pull_back_strategy(bmap, [(1, 3), 3, [3, 2]])
        assert s.sigma == (1, 2, 3, 4)
        assert s.thresholds[3] == 0          # box 4 appended, never reached

    def test_empty_strategy(self):
        _, bmap = bernoullify(unit_demand_pair())
        s = pull_back_strategy(bmap, [])
        assert s.sigma == (1, 2)
        assert s.thresholds == (0, 0)

    def test_dropped_copy_is_an_error(self):
        _, bmap = bernoullify(subadditive4())
        with pytest.raises(DomainError, match="dropped"):
            pull_back_strategy(bmap, [(1, 1)])

    @settings(max_examples=30, deadline=None)
    @given(seeds)
    def test_never_loses_utility(self, seed):
        # the inequality is asserted inside pull_back_strategy on every call;
        # drive it across random lifted orders to hunt for violations
        import random

        inst = random_instance("general_coverage", (seed % 3) + 1, seed, {"max_atoms": 2})
        lifted, bmap = bernoullify(inst)
        rng = random.Random(seed)
        k = rng.randint(0, lifted.n)
        order = rng.sample(list(lifted.labels), k)
        pull_back_strategy(bmap, order)


class TestPreservation:
    def test_submodular_coverage_and_friends(self):
        assert check_preservation(unit_demand_pair(), "submodular").passed
        assert check_preservation(unit_demand_pair(), "coverage").passed
        assert check_preservation(subadditive4(), "subadditive").passed

    def test_xos(self):
        report = check_preservation(xos_lift_of(example1()), "xos")
        assert report.passed
        assert "certificate" in report.witness

    def test_matroid_rank_with_real_splits(self):
        three = FiniteDistribution({0: "1/3", 1: "1/3", 2: "1/3"})
        inst = Instance([three] * 3, HardnessCost(3, 2, 1), cost_class="matroid_rank")
        assert check_preservation(inst, "matroid_rank").passed

    def test_gross_substitutes_with_real_splits(self):
        three = FiniteDistribution({0: "1/3", 1: "1/3", 2: "1/3"})
        cost = TreeClosureCost({1: 0, 2: 1, 3: 1}, {1: 1, 2: "1/2", 3: 2})
        inst = Instance([three] * 3, cost, cost_class="gross_substitutes")
        assert check_preservation(inst, "gross_substitutes").passed

    def test_budget_additive_is_not_preserved(self):
        report = check_preservation(budget_counterexample(), "budget_additive")
        assert not report.passed
        w = report.witness
        lifted, _ = bernoullify(budget_counterexample())
        S = frozenset(w["S"])
        candidate = min(rat(w["budget"]),
                        sum((rat(x) for x in w["weights"].values()), Fraction(0)))
        assert lifted.cost.eval(S) == rat(w["cost"])
        assert candidate == rat(w["min(B, sum w)"])
        assert rat(w["cost"]) != candidate

    def test_wrong_oracle_type_is_an_error(self):
        with pytest.raises(DomainError, match="coverage"):
            check_preservation(subadditive4(), "coverage")
        with pytest.raises(DomainError, match="xos"):
            check_preservation(subadditive4(), "xos")
        with pytest.raises(DomainError, match="budget_additive"):
            check_preservation(subadditive4(), "budget_additive")

    def test_unknown_class(self):
        with pytest.raises(DomainError, match="no preservation check"):
            check_preservation(subadditive4(), "nonesuch")
