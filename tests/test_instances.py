from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pandora import (
    AdditiveCost,
    CapabilityError,
    DomainError,
    FiniteDistribution,
    Instance,
    bernoulli,
    deterministic,
    example1,
    hardness_instance,
    instance_to_json,
    max_distribution,
    random_instance,
    rat,
    subadditive4,
    support_union,
    unit_demand_pair,
    xos_lift_of,
)


class TestFiniteDistribution:
    def test_sorted_atoms(self):
        d = FiniteDistribution([(3, "1/4"), (0, "1/2"), (1, "1/4")])
        assert d.support == (0, 1, 3)

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(DomainError, match="sum"):
            FiniteDistribution([(0, "1/2"), (1, "1/4")])

    def test_rejects_duplicates_negatives_empties(self):
        with pytest.raises(DomainError, match="duplicate"):
            FiniteDistribution([(1, "1/2"), (1, "1/2")])
        with pytest.raises(DomainError):
            FiniteDistribution([(-1, 1)])
        with pytest.raises(DomainError):
            FiniteDistribution([])
        with pytest.raises(DomainError):
            FiniteDistribution([(0, "3/2"), (1, "-1/2")])

    def test_cdf_prob_of(self):
        d = FiniteDistribution({0: "1/3", 2: "2/3"})
        assert d.cdf(0) == rat("1/3")
        assert d.cdf(1) == rat("1/3")
        assert d.cdf(2) == 1
        assert dict(d.atoms) == {0: rat("1/3"), 2: rat("2/3")}

    def test_is_bernoulli(self):
        box = bernoulli(5, "1/3")
        assert box.is_bernoulli() and box.atoms[-1] == (5, rat("1/3"))
        assert deterministic(4).is_bernoulli()                    # {v: 1} is (v, 1)
        assert not deterministic(0).is_bernoulli()
        assert not FiniteDistribution({1: "1/2", 2: "1/2"}).is_bernoulli()  # lower atom nonzero
        three = FiniteDistribution({0: "1/3", 1: "1/3", 2: "1/3"})
        assert not three.is_bernoulli()


def test_weighted_bernoulli_validation():
    with pytest.raises(DomainError, match="v > 0"):
        bernoulli(0, "1/2")
    with pytest.raises(DomainError, match="p in"):
        bernoulli(1, "3/2")
    with pytest.raises(DomainError, match="p in"):
        bernoulli(1, 0)
    # the zero atom carries q = 1 - p; p = 1 leaves the single atom {v: 1}
    assert bernoulli(1, Fraction(1, 2)).atoms == ((0, Fraction(1, 2)), (1, Fraction(1, 2)))
    assert bernoulli(3, 1) == deterministic(3)


def test_max_distribution_law():
    a = bernoulli(2, "1/2")
    b = bernoulli(3, "1/3")
    m = max_distribution([a, b])
    # P(max = 0) = 1/2 * 2/3, P(max = 2) = 1/2 * 2/3, P(max = 3) = 1/3
    assert dict(m.atoms) == {0: rat("1/3"), 2: rat("1/3"), 3: rat("1/3")}
    with pytest.raises(DomainError):
        max_distribution([])


class TestInstance:
    def test_arity_must_match(self):
        with pytest.raises(DomainError, match="arity"):
            Instance([bernoulli(1, "1/2")], AdditiveCost([1, 1]))

    def test_constant_zero_rejected(self):
        with pytest.raises(DomainError, match="constant zero"):
            Instance([deterministic(0)], AdditiveCost([1]))

    def test_labels_follow_cost_ground(self):
        inst = unit_demand_pair()
        assert inst.labels == (1, 2)
        assert inst.box(1).support == (0, 2)
        with pytest.raises(DomainError):
            inst.box(5)

    def test_bernoulli_view(self):
        inst = unit_demand_pair()
        assert inst.is_bernoulli()
        assert inst.bernoulli(2) == (2, rat("1/3"))
        assert Instance([deterministic(4)], AdditiveCost([1])).bernoulli(1) == (4, 1)
        assert not subadditive4().is_bernoulli()
        with pytest.raises(DomainError, match="not weighted Bernoulli"):
            subadditive4().bernoulli(1)


def test_support_union_includes_zero():
    assert support_union(example1()) == (0, 10, 12)
    assert support_union(subadditive4()) == (0, 2, rat("5/2"), 3, 6, 100)


def test_example1_shape():
    inst = example1()
    assert inst.n == 3
    assert inst.cost.eval({2, 3}) == 20
    assert inst.cost.eval({1, 2}) == 0
    assert inst.cost.eval({1, 2, 3}) == 20


def test_unit_demand_shape():
    inst = unit_demand_pair()
    assert inst.cost.eval({1}) == inst.cost.eval({2}) == inst.cost.eval({1, 2}) == 1


def test_subadditive4_base_table():
    cost = subadditive4().cost
    # box 1 is free on top of anything
    for S in [(), (2,), (3, 4), (2, 3, 4)]:
        assert cost.eval(set(S) | {1}) == cost.eval(S)
    assert cost.eval({3}) == rat("11/10")
    assert cost.eval({2, 4}) == 1


def test_hardness_instance_variants():
    base = hardness_instance(6, "baseline", alpha=4, beta=1)
    assert base.n == 6
    assert base.cost_class == "matroid_rank"
    assert base.bernoulli(1) == (5, rat("1/4"))     # M = 5*beta, p = 1/alpha
    planted = hardness_instance(6, "planted", alpha=4, beta=1, R={2, 3, 4, 5})
    assert planted.cost.R == frozenset({2, 3, 4, 5})
    with pytest.raises(DomainError):
        hardness_instance(6, "unknown", alpha=4, beta=1)


def test_xos_lift_of_example1():
    lifted = xos_lift_of(example1())
    assert lifted.labels == (0, 1, 2, 3)
    assert lifted.cost_class == "xos"
    # V0 = 2*(1 + 3*20 + max) with a fair coin on top; max is 10 or 12, each 1/2
    assert dict(lifted.box(0).atoms) == {0: rat("1/2"), 2 * (61 + 10): rat("1/4"),
                                         2 * (61 + 12): rat("1/4")}
    with pytest.raises(DomainError):
        xos_lift_of(lifted)      # label 0 taken


class TestRandomInstances:
    def test_deterministic_by_seed(self):
        a = random_instance("general_coverage", 4, 99)
        b = random_instance("general_coverage", 4, 99)
        assert instance_to_json(a) == instance_to_json(b)
        c = random_instance("general_coverage", 4, 100)
        assert instance_to_json(a) != instance_to_json(c)

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            random_instance("nonesuch", 3, 0)

    def test_size_guard(self):
        with pytest.raises(CapabilityError):
            random_instance("additive", 15, 0)

    @pytest.mark.parametrize("family,cls", [
        ("bernoulli_coverage", "submodular"),
        ("bernoulli_tree", "gross_substitutes"),
        ("bernoulli_hardness", "matroid_rank"),
        ("additive", "additive"),
        ("explicit_subadditive", "subadditive"),
    ])
    def test_declared_class(self, family, cls):
        inst = random_instance(family, 3, 5)
        assert inst.cost_class == cls

    def test_bernoulli_families_are_bernoulli(self):
        for family in ("bernoulli_coverage", "bernoulli_tree", "bernoulli_hardness"):
            assert random_instance(family, 4, 11).is_bernoulli()

    def test_bernoulli_param_forces_two_point_boxes(self):
        inst = random_instance("general_coverage", 4, 3, {"bernoulli": True})
        assert inst.is_bernoulli()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_max_atoms_respected(self, seed):
        inst = random_instance("additive", 3, seed, {"max_atoms": 2})
        assert all(len(b.atoms) <= 2 for b in inst.boxes)
        assert all(not b.is_constant_zero() for b in inst.boxes)
