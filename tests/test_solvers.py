import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from pandora import (
    AdditiveCost,
    CapabilityError,
    DomainError,
    FiniteDistribution,
    GapReport,
    Instance,
    adaptivity_gap,
    bernoulli,
    deterministic,
    eval_fixed_order,
    eval_impulsive,
    eval_policy,
    example1,
    optimal_adaptive,
    optimal_fixed_order,
    optimal_impulsive,
    optimal_thresholds,
    random_instance,
    rat,
    reservation_value,
    subadditive4,
    unit_demand_pair,
    weitzman,
)

from oracles import (
    best_adaptive_utility,
    best_fixed_order_utility,
    best_impulsive_utility,
    fixed_order_free_halting,
    tree_utility,
)

seeds = st.integers(0, 2 ** 31 - 1)
families = st.sampled_from(("bernoulli_coverage", "bernoulli_tree", "bernoulli_hardness",
                            "general_coverage", "additive", "explicit_subadditive"))
sizes = st.integers(1, 5)


class TestOptimalAdaptive:
    def test_frozen_corpus_values(self):
        assert optimal_adaptive(example1())[0] == rat("21/2")
        assert optimal_adaptive(unit_demand_pair())[0] == rat("1/9")
        assert optimal_adaptive(subadditive4())[0] == rat("4253/120")

    def test_witness_tree_replays(self):
        for inst in (example1(), unit_demand_pair(), subadditive4()):
            u, tree = optimal_adaptive(inst)
            assert eval_policy(inst, tree) == u

    def test_halts_when_nothing_pays(self):
        inst = Instance([bernoulli(1, "1/2")], AdditiveCost([10]))
        u, tree = optimal_adaptive(inst)
        assert u == 0 and tree.is_halt

    def test_empty_instance(self):
        inst = Instance([], AdditiveCost([]))
        u, tree = optimal_adaptive(inst)
        assert u == 0 and tree.is_halt

    def test_size_guard(self):
        boxes = [bernoulli(1, "1/2")] * 15
        inst = Instance(boxes, AdditiveCost([1] * 15))
        with pytest.raises(CapabilityError):
            optimal_adaptive(inst)

    def test_scaled_states_are_bounded(self):
        # 29 atoms per box with distinct prime-denominator probabilities: the
        # DP would hold 2^10 * 40 states at about 32k bits each
        primes = [p for p in range(1000, 20000) if all(p % q for q in range(2, int(p ** 0.5) + 1))]
        boxes = []
        for b in range(10):
            probs = [Fraction(1, p) for p in primes[30 * b:30 * b + 29]]
            atoms = [(k + 1, p) for k, p in enumerate(probs)] + [(100 + b, 1 - sum(probs))]
            boxes.append(FiniteDistribution(atoms))
        with pytest.raises(CapabilityError, match="budget"):
            optimal_adaptive(Instance(boxes, AdditiveCost([1] * 10)))

    @settings(max_examples=40, deadline=None)
    @given(families, st.integers(1, 4), seeds)
    def test_matches_exhaustive_oracle(self, family, n, seed):
        assume(family != "bernoulli_hardness" or n > 1)
        inst = random_instance(family, n, seed)
        u, tree = optimal_adaptive(inst)
        assert u == best_adaptive_utility(inst)
        assert tree_utility(inst, tree) == u
        assert eval_policy(inst, tree) == u


class TestOptimalFixedOrder:
    def test_frozen_example1(self):
        u, s = optimal_fixed_order(example1())
        assert u == 10
        assert eval_fixed_order(example1(), s) == 10

    def test_per_permutation_thresholds_are_optimal(self):
        # thresholds can only condition on the running max, but along a fixed
        # order that is all history buys you: free halting does no better
        for inst in (example1(), unit_demand_pair()):
            for sigma in itertools.permutations(inst.labels):
                u, s = optimal_thresholds(inst, sigma)
                assert u == fixed_order_free_halting(inst, sigma)
                assert eval_fixed_order(inst, s) == u

    def test_thresholds_live_on_the_grid(self):
        from pandora import support_union

        inst = subadditive4()
        u, s = optimal_fixed_order(inst)
        grid = set(support_union(inst))
        assert all(t in grid for t in s.thresholds)

    def test_sigma_tie_break_is_lexicographic(self):
        inst = unit_demand_pair()           # fully symmetric boxes and cost
        _, s = optimal_fixed_order(inst)
        assert s.sigma == (1, 2)

    def test_rejects_non_permutation(self):
        with pytest.raises(DomainError, match="permutation"):
            optimal_thresholds(example1(), (1, 2))

    def test_size_guard(self):
        boxes = [bernoulli(1, "1/2")] * 9
        inst = Instance(boxes, AdditiveCost([0] * 9))
        with pytest.raises(CapabilityError):
            optimal_fixed_order(inst)

    @settings(max_examples=40, deadline=None)
    @given(families, sizes, seeds)
    def test_matches_exhaustive_oracle(self, family, n, seed):
        assume(family != "bernoulli_hardness" or n > 1)
        inst = random_instance(family, n, seed)
        u, s = optimal_fixed_order(inst)
        assert u == best_fixed_order_utility(inst)
        # the witness: the least sigma whose best thresholds reach the optimum
        scans = [optimal_thresholds(inst, sigma) for sigma in itertools.permutations(inst.labels)]
        assert (u, s) == next(scan for scan in scans if scan[0] == u)


class TestOptimalImpulsive:
    def test_frozen_unit_demand(self):
        u, s = optimal_impulsive(unit_demand_pair())
        assert u == rat("1/9")
        assert s.order == (1, 2)            # symmetric tie -> least tuple

    def test_example1(self):
        u, s = optimal_impulsive(example1())
        assert u == 10
        assert s.order == (1, 3)
        assert eval_impulsive(example1(), s.order) == 10

    def test_empty_when_nothing_pays(self):
        inst = Instance([bernoulli(1, "1/2")], AdditiveCost([10]))
        u, s = optimal_impulsive(inst)
        assert u == 0 and s.order == ()

    def test_rejects_general_distributions(self):
        with pytest.raises(DomainError, match="Bernoulli"):
            optimal_impulsive(subadditive4())

    def test_halts_after_a_sure_box(self):
        # box 1 always pays out, so no slot after it is reached: the least
        # optimal tuple is (1,), not (1, 2)
        inst = Instance([bernoulli(10, 1), bernoulli(5, "1/2")], AdditiveCost([0, 0]))
        u, s = optimal_impulsive(inst)
        assert (s.order, u) == ((1,), 10)

    @pytest.mark.parametrize("family", ["bernoulli_coverage", "bernoulli_tree",
                                        "bernoulli_hardness"])
    @pytest.mark.parametrize("n", [9, 10])
    def test_submodular_needs_no_adaptivity_above_eight_boxes(self, family, n):
        # T31 past the n! search's old cap of 8
        for seed in range(5):
            inst = random_instance(family, n, seed)
            assert optimal_impulsive(inst)[0] == optimal_adaptive(inst)[0]

    @settings(max_examples=40, deadline=None)
    @given(families, sizes, seeds)
    def test_matches_exhaustive_oracle(self, family, n, seed):
        assume(family != "bernoulli_hardness" or n > 1)
        inst = random_instance(family, n, seed, {"bernoulli": True})
        u, s = optimal_impulsive(inst)
        assert u == best_impulsive_utility(inst)
        # the witness: the least ordered subset whose utility reaches the optimum
        orders = sorted(order for k in range(n + 1)
                        for order in itertools.permutations(inst.labels, k))
        assert s.order == next(order for order in orders if eval_impulsive(inst, order) == u)


class TestReservationValue:
    def test_frozen_values(self):
        assert reservation_value(bernoulli(2, "1/3"), 1) == -1
        assert reservation_value(bernoulli(10, "1/2"), 1) == 8
        assert reservation_value(deterministic(10), "1/2") == rat("19/2")

    def test_zero_cost_gives_top_value(self):
        assert reservation_value(bernoulli(10, "1/2"), 0) == 10

    def test_sign_flips_at_the_mean(self):
        box = bernoulli(6, "1/2")           # E[V] = 3
        assert reservation_value(box, 3) == 0
        assert reservation_value(box, "7/2") < 0 < reservation_value(box, "5/2")

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError, match="nonnegative"):
            reservation_value(bernoulli(1, "1/2"), -1)
        with pytest.raises(DomainError, match="constant-zero"):
            reservation_value(deterministic(0), 1)

    @settings(max_examples=40, deadline=None)
    @given(seeds, st.integers(1, 30), st.integers(1, 5))
    def test_solves_the_tail_equation(self, seed, num, den):
        inst = random_instance("additive", 1, seed)
        box = inst.box(1)
        c = Fraction(num, den)
        z = reservation_value(box, c)
        tail = sum((p * (v - z) for v, p in box.atoms if v > 0 and v > z), Fraction(0))
        assert tail == c
        # and it is decreasing in the cost
        assert reservation_value(box, c + 1) < z


class TestWeitzman:
    def test_rejects_combinatorial_costs(self):
        with pytest.raises(DomainError, match="additive"):
            weitzman(unit_demand_pair())

    def test_hand_computed(self):
        inst = Instance(
            [bernoulli(10, "1/2"), bernoulli(12, "1/2")],
            AdditiveCost({1: 1, 2: 5}),
        )
        u, s = weitzman(inst)
        # z_1 = 8, z_2 = 2: open box 1 first, then box 2 only on a miss
        assert s.sigma == (1, 2)
        assert s.thresholds == (8, 2)
        assert u == rat("1/2") * 10 + rat("1/2") * (rat("1/2") * 12 - 5) - 1

    def test_negative_reservation_means_skip(self):
        inst = Instance([bernoulli(2, "1/3")], AdditiveCost([1]))
        u, s = weitzman(inst)
        assert u == 0
        assert s.thresholds == (0,)         # clamped: halt before opening

    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_matches_adaptive_on_additive_costs(self, seed):
        inst = random_instance("additive", (seed % 4) + 1, seed)
        assert weitzman(inst)[0] == optimal_adaptive(inst)[0]

    def test_fraction_work_is_linear_in_the_boxes(self):
        # every round reads one prefix cost; summing it as Fractions would
        # make about n^2 / 2 of them, the scaled ints one per round
        import cProfile
        import pstats

        n = 300
        inst = Instance([bernoulli(10, "1/2")] * n, AdditiveCost([1] * n))
        profile = cProfile.Profile()
        u, _ = profile.runcall(weitzman, inst)
        made = sum(stat[1] for (path, _, name), stat in pstats.Stats(profile).stats.items()
                   if name == "__new__" and path.endswith("fractions.py"))
        assert u == 8 - Fraction(8, 2 ** n)
        assert made <= 20 * n


class TestAdaptivityGap:
    def test_example1_report(self):
        r = adaptivity_gap(example1())
        assert r.opt_adaptive == rat("21/2")
        assert r.opt_fixed_order == 10
        assert r.opt_impulsive == 10
        assert r.strict_gap == {
            "adaptive_vs_fixed": True,
            "fixed_vs_impulsive": False,
            "adaptive_vs_impulsive": True,
        }

    def test_witnesses_replay(self):
        inst = example1()
        r = adaptivity_gap(inst)
        assert eval_policy(inst, r.witness_adaptive) == r.opt_adaptive
        assert eval_fixed_order(inst, r.witness_fixed_order) == r.opt_fixed_order
        assert eval_impulsive(inst, r.witness_impulsive.order) == r.opt_impulsive

    def test_off_bernoulli_domain(self):
        r = adaptivity_gap(subadditive4())
        assert r.opt_impulsive is None and r.witness_impulsive is None
        assert set(r.strict_gap) == {"adaptive_vs_fixed"}
        assert r.strict_gap["adaptive_vs_fixed"] is True

    @pytest.mark.parametrize("n, message", [
        (9, "order_enum enumeration is capped at n <= 8 (got n = 9)"),
        (15, "adaptive enumeration is capped at n <= 14 (got n = 15)"),
    ])
    def test_caps_are_checked_before_the_dp(self, monkeypatch, n, message):
        # the adaptive DP must not run for an instance the fixed-order scan refuses
        import pandora.solvers

        def no_dp(instance):
            raise AssertionError("adaptive DP ran")

        monkeypatch.delenv("PANDORA_MAX_N", raising=False)
        monkeypatch.setattr(pandora.solvers, "optimal_adaptive", no_dp)
        boxes = [bernoulli(b, "1/2") for b in range(1, n + 1)]
        inst = Instance(boxes, AdditiveCost({b: 1 for b in range(1, n + 1)}))
        with pytest.raises(CapabilityError) as caught:
            adaptivity_gap(inst)
        assert str(caught.value).startswith(message)

    @settings(max_examples=15, deadline=None)
    @given(seeds)
    def test_class_chain(self, seed):
        inst = random_instance("bernoulli_coverage", (seed % 3) + 2, seed)
        r = adaptivity_gap(inst)
        assert r.opt_adaptive >= r.opt_fixed_order >= r.opt_impulsive >= 0
        assert r.strict_gap["adaptive_vs_fixed"] == (r.opt_adaptive > r.opt_fixed_order)

    def test_broken_chain_is_refused_even_under_python_O(self):
        # a violating report must fail loudly also when asserts are compiled out
        import os
        import subprocess
        import sys
        from pathlib import Path

        import pandora

        program = (
            "import sys\n"
            "from fractions import Fraction\n"
            "from pandora import GapReport, PolicyTree\n"
            "assert False, 'asserts are live'\n"
            "GapReport(Fraction(1), Fraction(2), None, PolicyTree.halt(), None, None, {})\n"
        )
        src = str(Path(pandora.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-O", "-c", program], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert done.returncode == 1
        assert "AssertionError: class chain" in done.stderr
        assert "asserts are live" not in done.stderr
        with pytest.raises(AssertionError, match="class chain"):
            GapReport(rat(1), rat(1), rat(2), None, None, None, {})


@pytest.mark.parametrize("family", ["bernoulli_coverage", "bernoulli_tree", "bernoulli_hardness",
                                    "general_coverage", "additive", "explicit_subadditive"])
def test_every_solver_returns_utility_then_strategy(family):
    # each solver's strategy, replayed by its class's evaluator, earns its
    # utility; at seed 27 every optimum here is positive
    inst = random_instance(family, 4, 27)
    runs = [(optimal_adaptive, inst, eval_policy),
            (optimal_fixed_order, inst, eval_fixed_order),
            (lambda i: optimal_thresholds(i, i.labels[::-1]), inst, eval_fixed_order),
            (optimal_impulsive, random_instance(family, 4, 27, {"bernoulli": True}), eval_impulsive)]
    if family == "additive":
        runs.append((weitzman, inst, eval_fixed_order))
    for solver, instance, evaluate in runs:
        utility, strategy = solver(instance)
        assert evaluate(instance, strategy) == utility


def test_package_all_is_the_public_surface():
    import ast
    from pathlib import Path

    import pandora

    namespace = {}
    exec("from pandora import *", namespace)
    assert set(pandora.__all__) <= set(namespace)
    assert len(set(pandora.__all__)) == len(pandora.__all__)
    tree = ast.parse(Path(pandora.__file__).read_text())
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert {name for name in imported if not name.startswith("_")} == set(pandora.__all__)
