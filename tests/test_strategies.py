from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pandora import (
    INF,
    DomainError,
    FixedOrderThresholds,
    ImpulsiveStrategy,
    Instance,
    PolicyTree,
    QueryCountingOracle,
    dummy_mixture,
    eval_fixed_order,
    eval_impulsive,
    eval_policy,
    example1,
    marginal_utility,
    optimal_fixed_order,
    pq_of,
    random_instance,
    rat,
    subadditive4,
    unit_demand_pair,
)

from oracles import fixed_order_utility, impulsive_utility, tree_utility

seeds = st.integers(0, 2 ** 31 - 1)


def bern_instance(seed, n=None):
    import random

    k = n if n is not None else random.Random(seed ^ 0xA5).randint(1, 4)
    family = ("bernoulli_coverage", "bernoulli_tree", "explicit_subadditive")[seed % 3]
    return random_instance(family, k, seed, {"bernoulli": True})


def test_impulsive_rejects_repeats():
    with pytest.raises(DomainError, match="repeated"):
        ImpulsiveStrategy((1, 2, 1))
    assert len(ImpulsiveStrategy((2, 1))) == 2
    assert list(ImpulsiveStrategy((2, 1))) == [2, 1]


def test_dummies_opened_must_be_subset():
    base = ImpulsiveStrategy((1, 2, 3))
    with pytest.raises(DomainError, match="subset"):
        ImpulsiveStrategy(base.order, {4})
    s = ImpulsiveStrategy(base.order, {1, 3})
    assert s.opened == frozenset({1, 3})                  # slot 2 is a dummy
    assert s.order == (1, 2, 3)


class TestPq:
    def test_hand_computed(self):
        inst = unit_demand_pair()          # both boxes: 2 w.p. 1/3
        p, q = pq_of((1, 2), inst)
        assert p == rat("5/9") and q == rat("4/9")
        # box 2 demoted to a dummy: it can halt the run but never pays out
        pd, qd = pq_of(ImpulsiveStrategy((1, 2), {1}), inst)
        assert pd == rat("1/3") and qd == rat("4/9")
        assert pd < 1 - qd

    def test_needs_bernoulli(self):
        with pytest.raises(DomainError, match="Bernoulli"):
            pq_of((1,), subadditive4())

    def test_unknown_box(self):
        with pytest.raises(DomainError, match="unknown box"):
            pq_of((7,), unit_demand_pair())

    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_p_plus_q_is_one_without_dummies(self, seed):
        inst = bern_instance(seed)
        order = tuple(inst.labels[: (seed % inst.n) + 1])
        p, q = pq_of(order, inst)
        assert p + q == 1

    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_split_preserves_p(self, seed):
        inst = bern_instance(seed, n=4)
        order = inst.labels
        a = frozenset(order[i] for i in range(4) if (seed >> i) & 1)
        base = ImpulsiveStrategy(order)
        p_whole, _ = pq_of(base, inst)
        p_a, _ = pq_of(ImpulsiveStrategy(base.order, a), inst)
        p_b, _ = pq_of(ImpulsiveStrategy(base.order, frozenset(order) - a), inst)
        assert p_whole == p_a + p_b


class TestMarginalUtility:
    def root_and_rest(self, inst):
        labels = inst.labels
        return labels[0], labels[1:]

    def test_guards(self):
        inst = unit_demand_pair()
        with pytest.raises(DomainError, match="kind"):
            marginal_utility("Z", (2,), 1, inst)
        with pytest.raises(DomainError, match="root"):
            marginal_utility("N", (1, 2), 1, inst)
        with pytest.raises(DomainError, match="overlaps"):
            marginal_utility("N", (2,), 1, inst, {2})

    def test_hand_computed_unit_demand(self):
        # root = box 1 already open; box 2 costs nothing more (coverage is hit)
        inst = unit_demand_pair()
        assert marginal_utility("N", (2,), 1, inst) == rat("2/3")
        assert marginal_utility("Y", (2,), 1, inst) == 0        # v2 never beats v1
        assert marginal_utility("M", (2,), 1, inst) == 0

    @settings(max_examples=50, deadline=None)
    @given(seeds)
    def test_kind_ordering_and_m_identity(self, seed):
        inst = bern_instance(seed, n=4)
        root, rest = self.root_and_rest(inst)
        order = rest[: (seed % 3) + 1]
        u_n = marginal_utility("N", order, root, inst)
        u_y = marginal_utility("Y", order, root, inst)
        u_m = marginal_utility("M", order, root, inst)
        assert u_m <= u_y <= u_n
        p, _ = pq_of(order, inst)
        v_r, _ = inst.bernoulli(root)
        assert u_m == u_n - p * v_r

    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_agrees_with_dummy_mixture(self, seed):
        inst = bern_instance(seed, n=4)
        root, rest = self.root_and_rest(inst)
        base = ImpulsiveStrategy(rest)
        opened = frozenset(b for i, b in enumerate(rest) if (seed >> i) & 1)
        s = ImpulsiveStrategy(base.order, opened)
        for kind in ("N", "Y", "M"):
            direct = marginal_utility(kind, s, root, inst)
            mixed = sum(
                (w * marginal_utility(kind, part, root, inst)
                 for part, w in dummy_mixture(s, inst)),
                Fraction(0),
            )
            assert direct == mixed


def test_dummy_mixture_is_a_distribution():
    inst = bern_instance(17, n=4)
    base = ImpulsiveStrategy(inst.labels)
    s = ImpulsiveStrategy(base.order, frozenset(inst.labels[1:2]))
    parts = dummy_mixture(s, inst)
    assert sum(w for _, w in parts) == 1
    assert all(w > 0 for _, w in parts)
    assert all(set(t.order) <= s.opened for t, _ in parts)
    # no dummies: the mixture is the strategy itself
    plain = dummy_mixture(base, inst)
    assert plain == [(base, Fraction(1))]


@pytest.mark.parametrize("call", [
    lambda inst, s: pq_of(s, inst),
    lambda inst, s: marginal_utility("N", s, 2, inst),
    lambda inst, s: dummy_mixture(s, inst),
    lambda inst, s: eval_impulsive(inst, s),
], ids=["pq_of", "marginal_utility", "dummy_mixture", "eval_impulsive"])
def test_every_impulsive_function_checks_its_slots(call):
    with pytest.raises(DomainError, match="needs a weighted-Bernoulli instance"):
        call(subadditive4(), (1,))
    with pytest.raises(DomainError, match="unknown box 7"):
        call(unit_demand_pair(), (7,))
    with pytest.raises(DomainError, match="not an impulsive strategy"):
        call(unit_demand_pair(), "1")


class TestEvalImpulsive:
    def test_frozen_unit_demand(self):
        inst = unit_demand_pair()
        assert eval_impulsive(inst, (1, 2)) == rat("1/9")
        assert eval_impulsive(inst, ()) == 0
        assert eval_impulsive(inst, (1,)) == rat("-1/3")

    def test_rejects_unresolved_dummies(self):
        inst = unit_demand_pair()
        s = ImpulsiveStrategy((1, 2), {1})
        with pytest.raises(DomainError, match="dummy_mixture"):
            eval_impulsive(inst, s)

    @settings(max_examples=50, deadline=None)
    @given(seeds)
    def test_matches_oracle(self, seed):
        inst = bern_instance(seed)
        order = tuple(reversed(inst.labels[: (seed % inst.n) + 1]))
        assert eval_impulsive(inst, order) == impulsive_utility(inst, order)


class TestEvalFixedOrder:
    def test_sigma_must_be_permutation(self):
        inst = unit_demand_pair()
        with pytest.raises(DomainError, match="permutation"):
            eval_fixed_order(inst, FixedOrderThresholds((1,), (INF,)))

    def test_threshold_edge_cases(self):
        inst = unit_demand_pair()
        # t_0 = 0 halts on the spot: the running best starts at 0
        stop = FixedOrderThresholds((1, 2), (Fraction(0), Fraction(0)))
        assert eval_fixed_order(inst, stop) == 0
        # never halt: open both regardless
        both = FixedOrderThresholds((1, 2), (INF, INF))
        assert eval_fixed_order(inst, both) == rat("1/9")
        # halt before round 2 whenever round 1 paid out
        greedy = FixedOrderThresholds((1, 2), (INF, Fraction(1)))
        assert eval_fixed_order(inst, greedy) == rat("1/9")

    def test_example1_best_fixed_order(self):
        inst = example1()
        s = FixedOrderThresholds((3, 1, 2), (INF, Fraction(10), Fraction(10)))
        assert eval_fixed_order(inst, s) == 10

    def test_one_prefix_query_per_round_reached(self):
        inst = random_instance("general_coverage", 6, 5)
        utility, best = optimal_fixed_order(inst)
        never = FixedOrderThresholds(best.sigma, (INF,) * 6)
        # the optimal order halts every run before its fifth round
        for s, rounds in [(best, 4), (never, 6)]:
            counted = Instance(inst.boxes, QueryCountingOracle(inst.cost))
            assert eval_fixed_order(counted, s) == fixed_order_utility(inst, s)
            assert counted.cost.count == rounds
        assert fixed_order_utility(inst, best) == utility

    @settings(max_examples=40, deadline=None)
    @given(seeds, st.integers(0, 3 ** 4 - 1))
    def test_matches_oracle(self, seed, code):
        inst = random_instance("general_coverage", 3, seed)
        sigma = inst.labels if seed % 2 else tuple(reversed(inst.labels))
        grid = [Fraction(0), Fraction(2), INF]
        thresholds = tuple(grid[(code // 3 ** i) % 3] for i in range(3))
        s = FixedOrderThresholds(sigma, thresholds)
        assert eval_fixed_order(inst, s) == fixed_order_utility(inst, s)


class TestEvalPolicy:
    def tree_b1(self):
        halt = PolicyTree.halt()
        return PolicyTree.open(1, {
            10: PolicyTree.open(2, {12: halt, 0: halt}),
            0: PolicyTree.open(3, {10: halt}),
        })

    def test_example1_tree(self):
        assert eval_policy(example1(), self.tree_b1()) == rat("21/2")
        assert eval_policy(example1(), self.tree_b1()) == tree_utility(example1(), self.tree_b1())

    def test_halt_alone(self):
        assert eval_policy(example1(), PolicyTree.halt()) == 0

    def test_malformed_trees(self):
        halt = PolicyTree.halt()
        reopen = PolicyTree.open(1, {10: PolicyTree.open(1, {10: halt, 0: halt}), 0: halt})
        with pytest.raises(DomainError, match="reopens"):
            eval_policy(example1(), reopen)
        missing = PolicyTree.open(1, {10: halt})
        with pytest.raises(DomainError, match="atoms"):
            eval_policy(example1(), missing)
        stranger = PolicyTree.open(9, {0: halt})
        with pytest.raises(DomainError):
            eval_policy(example1(), stranger)

    def test_child_lookup(self):
        t = self.tree_b1()
        assert t.child(Fraction(10)).box == 2
        with pytest.raises(DomainError, match="no child"):
            t.child(Fraction(7))

    def test_costs_accrue_as_marginals(self):
        # opening 2 then 3 pays the full 20 exactly once, on the second open
        halt = PolicyTree.halt()
        t = PolicyTree.open(2, {
            12: PolicyTree.open(3, {10: halt}),
            0: PolicyTree.open(3, {10: halt}),
        })
        # E[max] = 12*1/2 + 10*1/2 = 11, cost 20 regardless
        assert eval_policy(example1(), t) == 11 - 20
