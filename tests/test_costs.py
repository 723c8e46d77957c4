import itertools
from fractions import Fraction

import pytest

from pandora import (
    AdditiveCost,
    BudgetAdditiveCost,
    CapabilityError,
    CostOracle,
    CoverageCost,
    DomainError,
    ExplicitCost,
    HardnessCost,
    ProjectionCost,
    QueryCountingOracle,
    TreeClosureCost,
    XosCost,
    marginal_cost,
    random_instance,
    rat,
    xos_lift,
)
from pandora.instances import _FAMILIES


def test_additive_eval_and_sequence_labels():
    c = AdditiveCost(["1/2", 2, "3/4"])
    assert c.ground == (1, 2, 3)
    assert c.eval([]) == 0
    assert c.eval([1, 3]) == rat("5/4")
    assert c.eval([1, 2, 3]) == rat("13/4")


def test_additive_rejects_negative():
    with pytest.raises(DomainError):
        AdditiveCost({1: -1})


def test_eval_outside_ground():
    c = AdditiveCost([1, 1])
    with pytest.raises(DomainError, match="outside ground"):
        c.eval([3])


def test_marginal_cost_and_disjointness():
    c = BudgetAdditiveCost([1, 1, 1], 2)
    assert marginal_cost(c, {3}, {1, 2}) == 0          # budget already hit
    assert marginal_cost(c, {2}, {1}) == 1
    with pytest.raises(DomainError, match="overlap"):
        marginal_cost(c, {1}, {1, 2})


def test_budget_additive_truncates():
    c = BudgetAdditiveCost({1: "1/2", 2: "3/2", 3: 1}, budget=2)
    assert c.eval([1]) == rat("1/2")
    assert c.eval([1, 2]) == 2
    assert c.eval([1, 2, 3]) == 2


class TestExplicitCost:
    def test_round_values_and_inferred_ground(self):
        table = {(): 0, (1,): 1, (2,): 1, (1, 2): "3/2"}
        c = ExplicitCost(table)
        assert c.ground == (1, 2)
        assert c.eval({1, 2}) == rat("3/2")

    def test_missing_subset(self):
        with pytest.raises(DomainError, match="entries"):
            ExplicitCost({(): 0, (1,): 1}, ground=(1, 2))

    def test_not_normalized(self):
        with pytest.raises(DomainError, match="normalized"):
            ExplicitCost({(): 1, (1,): 1})

    def test_key_outside_the_ground(self):
        with pytest.raises(DomainError, match=r"table key \[3\] outside ground"):
            ExplicitCost({(): 0, (3,): 1}, ground=(1,))

    def test_not_monotone(self):
        with pytest.raises(DomainError, match="monotone") as err:
            ExplicitCost({(): 0, (1,): 2, (2,): 0, (1, 2): 1})
        assert "'S': [1], 'x': 2" in str(err.value)

    def test_negative(self):
        with pytest.raises(DomainError):
            ExplicitCost({(): 0, (1,): -1})


def test_coverage_matches_hand_computation():
    # elements: weight 2 covered by {1,2}, weight 1 covered by {3}
    c = CoverageCost([1, 2, 3], [(2, [1, 2]), (1, [3])])
    assert c.eval([1]) == 2
    assert c.eval([2]) == 2
    assert c.eval([1, 2]) == 2      # same element, not paid twice
    assert c.eval([3]) == 1
    assert c.eval([1, 3]) == 3


def test_coverage_rejects_bad_elements():
    with pytest.raises(DomainError):
        CoverageCost([1], [(-1, [1])])
    with pytest.raises(DomainError):
        CoverageCost([1], [(1, [2])])


def test_xos_max_of_clauses():
    c = XosCost([1, 2], [{1: 3}, {1: 1, 2: 2}])
    assert c.eval([]) == 0
    assert c.eval([1]) == 3
    assert c.eval([2]) == 2
    assert c.eval([1, 2]) == 3      # max(3, 1+2)


def test_xos_matches_certificate():
    c = XosCost([1, 2], [{1: 1}, {2: 1}])
    ok, witness = c.matches(lambda S: Fraction(1) if S else Fraction(0))
    assert ok and witness is None
    ok, witness = c.matches(lambda S: Fraction(len(S)))
    assert not ok
    assert witness == frozenset({1, 2})


def test_xos_rejects_empty_and_negative():
    with pytest.raises(DomainError):
        XosCost([1], [])
    with pytest.raises(DomainError):
        XosCost([1], [{1: -1}])


class TestTreeClosure:
    def tree(self):
        # 0 -> 1 -> 2, 0 -> 3
        return TreeClosureCost({1: 0, 2: 1, 3: 0}, {1: 5, 2: 1, 3: 2})

    def test_closure_sets(self):
        t = self.tree()
        assert t.closure([2]) == frozenset({0, 1, 2})
        assert t.closure([3]) == frozenset({0, 3})
        assert t.closure([]) == frozenset({0})

    def test_costs_are_closure_sums(self):
        t = self.tree()
        assert t.eval([]) == 0
        assert t.eval([2]) == 6      # pays for 1 on the way
        assert t.eval([1, 2]) == 6
        assert t.eval([2, 3]) == 8

    def test_cycle_rejected(self):
        with pytest.raises(DomainError, match="cycle"):
            TreeClosureCost({1: 2, 2: 1}, {})
        # box 1 reaches the root first; the walk from 2 must still find 2 -> 3 -> 2
        with pytest.raises(DomainError, match="cycle through node 2"):
            TreeClosureCost({1: 0, 2: 3, 3: 2}, {})
        with pytest.raises(DomainError, match="cycle through node 2"):
            TreeClosureCost({1: 2, 2: 3, 3: 2}, {})

    def test_dangling_parent_rejected(self):
        with pytest.raises(DomainError, match="node 7 is disconnected from the root"):
            TreeClosureCost({1: 7}, {})
        with pytest.raises(DomainError, match="node 9 is disconnected"):
            TreeClosureCost({1: 0, 2: 1, 3: 2, 4: 9}, {})

    def test_long_chain_is_validated_in_one_pass(self):
        # each walk stops at a node known to reach the root, so a 100,000-node
        # chain is linear work; in a subprocess so that a regression times out
        import os
        import subprocess
        import sys
        from pathlib import Path

        import pandora

        code = ("from pandora import TreeClosureCost\n"
                "chain = TreeClosureCost({b: b - 1 for b in range(1, 100_001)}, {100_000: 1})\n"
                "assert chain.arity == 100_000\n")
        src = str(Path(pandora.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=10, env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr

    def test_root_cost_must_vanish(self):
        with pytest.raises(DomainError, match="root"):
            TreeClosureCost({1: 0}, {0: 1, 1: 1})


class TestHardnessCost:
    def test_baseline_closed_form(self):
        c = HardnessCost(5, 3)
        for size, want in [(0, 0), (1, 1), (2, 2), (3, 3), (4, 3), (5, 3)]:
            assert c.eval(range(1, size + 1)) == want

    def test_planted_discount(self):
        c = HardnessCost(6, 4, 1, R={1, 2, 3, 4})
        assert c.eval({1, 2, 3}) == 1       # beta + 0 outside R
        assert c.eval({1, 5}) == 2          # |S| wins
        assert c.eval({1, 2, 5, 6}) == 3    # beta + 2 outside R
        assert c.eval(range(1, 7)) == 3     # beta + |{5,6}|

    def test_agreement_condition(self):
        n, alpha, beta = 6, 3, 1
        R = frozenset({1, 2, 3})
        c0 = HardnessCost(n, alpha)
        cR = HardnessCost(n, alpha, beta, R)
        import itertools
        for r in range(n + 1):
            for S in itertools.combinations(range(1, n + 1), r):
                S = frozenset(S)
                agree = c0.eval(S) == cR.eval(S)
                expect = len(S & R) <= beta or len(S - R) >= alpha - beta
                assert agree == expect, sorted(S)

    def test_oracles_on_n_boxes_share_one_ground(self):
        c0 = HardnessCost(40, 4)
        cR = HardnessCost(40, 4, 1, R={1, 2, 3, 4})
        assert c0.ground == tuple(range(1, 41))
        assert c0.ground is cR.ground and c0._members is cR._members
        with pytest.raises(TypeError):
            HardnessCost(40.0, 4)                # a float n is not served from the cache

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            HardnessCost(3, 5)
        with pytest.raises(DomainError):
            HardnessCost(5, 3, 3)
        with pytest.raises(DomainError):
            HardnessCost(5, 3, R={1, 2, 3})      # R needs beta
        with pytest.raises(DomainError):
            HardnessCost(5, 3, 1, R={1, 2})      # |R| != alpha


def test_projection_restriction_and_free_copies():
    inner = AdditiveCost({1: 2, 2: 3})
    # labels 10, 11 both project to inner box 1: the second copy is free
    c = ProjectionCost([10, 11, 12], {10: 1, 11: 1, 12: 2}, inner)
    assert c.eval([10]) == 2
    assert c.eval([10, 11]) == 2
    assert c.eval([10, 12]) == 5
    assert c.ground == (10, 11, 12)


def test_projection_of_a_projection_is_composed():
    inner = CoverageCost([1, 2, 3], [(4, [1, 2]), (1, [3]), ("1/2", [2, 3])])
    middle = ProjectionCost([5, 7, 9, 11], {5: 3, 7: 1, 9: 3, 11: 2}, inner)
    outer_map = {20: 5, 21: 7, 22: 9, 23: 11, 24: 7}
    outer = ProjectionCost(outer_map, outer_map, middle)
    assert outer.inner is inner
    assert outer.label_map == {20: 3, 21: 1, 22: 3, 23: 2, 24: 1}
    table = outer.table()
    for mask in range(1 << outer.arity):
        S = [b for i, b in enumerate(outer.ground) if mask >> i & 1]
        assert table[mask] == middle.eval({outer_map[b] for b in S}), S


def test_query_counter_counts_every_eval():
    counted = QueryCountingOracle(AdditiveCost([1, 1]))
    assert counted.count == 0
    counted.eval([1])
    counted.eval([1])
    counted.eval([1, 2])
    assert counted.count == 3        # no caching in the wrapper


def test_memoized_oracle_still_correct():
    c = CoverageCost([1, 2], [(1, [1, 2])])
    assert c.eval([1]) == c.eval([1]) == 1


def test_xos_lift_marginal_is_original():
    f = ExplicitCost({(): 0, (1,): 1, (2,): 1, (1, 2): 3})
    g = xos_lift(f)
    assert g.ground == (0, 1, 2)
    big = 2 * f.eval((1, 2))
    assert g.eval([0]) == big
    for S in [(), (1,), (2,), (1, 2)]:
        assert g.eval(set(S) | {0}) - g.eval([0]) == f.eval(S)
    with pytest.raises(DomainError):
        xos_lift(g)                   # label 0 already taken


def test_labels_must_be_ints():
    with pytest.raises(DomainError):
        AdditiveCost({True: 1})
    with pytest.raises(DomainError):
        CoverageCost([1, 1], [])


def _subsets(labels):
    for r in range(len(labels) + 1):
        yield from itertools.combinations(labels, r)


def _every_kind():
    coverage = CoverageCost([1, 2, 3], [(4, [1, 2]), (1, [3]), ("1/2", [2, 3])])
    explicit = ExplicitCost({(): 0, (1,): 1, (2,): 1, (1, 2): "3/2"})
    return {
        "additive": AdditiveCost(["1/2", 2, "3/4"]),
        "budget_additive": BudgetAdditiveCost([1, 2, 1], 3),
        "coverage": coverage,
        "explicit": explicit,
        "xos": XosCost([1, 2, 3], [{1: 3}, {1: 1, 2: 2, 3: 1}]),
        "tree": TreeClosureCost({1: 0, 2: 1, 3: 0}, {1: 5, 2: 1, 3: 2}),
        "hardness": HardnessCost(5, 3),
        "hardness_planted": HardnessCost(6, 4, 1, R={1, 2, 3, 4}),
        "projection": ProjectionCost([10, 11, 12], {10: 1, 11: 1, 12: 2}, explicit),
        "restriction": ProjectionCost([1, 3], {1: 1, 3: 3}, coverage),
        # an inner ground above the table bound: filled through eval
        "restriction_of_large_ground": ProjectionCost([1, 2, 3, 4], {1: 1, 2: 7, 3: 13, 4: 20},
                                                      HardnessCost(20, 5)),
        "counting": QueryCountingOracle(coverage),
        "xos_lift": xos_lift(explicit),
        # the cases an integer kernel can get wrong
        "budget_foreign_denominator": BudgetAdditiveCost([1, "1/2", 4, "3/4"], "7/3"),
        "coverage_idle_element": CoverageCost([2, 4, 6], [("5/2", []), ("1/3", [4]),
                                                          (2, [2, 6]), ("1/6", [2, 4, 6])]),
        "coverage_no_boxes": CoverageCost([], [(3, [])]),
        "projection_many_to_one": ProjectionCost([5, 7, 9, 11, 13],
                                                 {5: 3, 7: 1, 9: 3, 11: 2, 13: 1}, coverage),
        "tree_deep_chain": TreeClosureCost({1: 0, 2: 1, 3: 2, 4: 3, 5: 4, 6: 5, 7: 2, 8: 0},
                                           {1: "1/2", 2: 3, 3: 0, 4: "2/3", 5: 1, 6: "1/4",
                                            7: 2, 8: 5}),
        "xos_sparse_clauses": XosCost([1, 2, 3, 4], [{}, {4: "5/3"}, {1: "1/2", 3: 1},
                                                     {2: 1, 4: "1/3"}]),
    }


def test_every_kind_is_listed():
    # a kind missing here would escape the table and JSON round-trip tests
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    listed = {type(cost) for cost in _every_kind().values()}
    assert {cls for cls in subclasses(CostOracle) if cls.__module__ == "pandora.costs"} <= listed


def _assert_ints_are_eval(cost, table):
    ints, D = table.ints, table.D
    assert len(ints) == len(table) == 1 << cost.arity
    assert all(type(v) is int for v in ints) and type(D) is int and D >= 1
    for mask, value in enumerate(ints):
        S = [b for i, b in enumerate(cost.ground) if mask >> i & 1]
        assert Fraction(value, D) == table[mask] == cost.eval(S), S


@pytest.mark.parametrize("kind", sorted(_every_kind()))
def test_table_is_eval_by_bitmask(kind):
    cost = _every_kind()[kind]
    table = cost.table()
    assert len(table) == 1 << cost.arity
    for S in _subsets(cost.ground):
        mask = sum(1 << cost.ground.index(b) for b in S)
        assert table[mask] == cost.eval(S), S
    _assert_ints_are_eval(cost, table)
    assert cost.table() is table          # cached on the oracle


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_table_is_eval_on_random_families(family):
    for seed in range(3):
        cost = random_instance(family, 5, seed).cost
        table = cost.table()
        for mask, value in enumerate(table):
            S = [b for i, b in enumerate(cost.ground) if mask >> i & 1]
            assert value == cost.eval(S)
        _assert_ints_are_eval(cost, table)


def test_tabulating_makes_no_fraction_per_subset():
    # the kernels build ints directly: Fractions only for the weights
    import cProfile
    import pstats

    from pandora import validate_class

    cost = random_instance("general_coverage", 12, 3).cost
    profile = cProfile.Profile()
    profile.runcall(validate_class, cost, "submodular")
    made = sum(stat[1] for (path, _, name), stat in pstats.Stats(profile).stats.items()
               if name == "__new__" and path.endswith("fractions.py"))
    assert made <= 4 * cost.arity


def test_table_above_the_validator_bound_is_refused():
    with pytest.raises(CapabilityError):
        AdditiveCost([1] * 15).table()
    with pytest.raises(CapabilityError):
        HardnessCost(4096, 107).table()
    with pytest.raises(CapabilityError):
        ProjectionCost(range(1, 16), dict.fromkeys(range(1, 16), 1), AdditiveCost([1])).table()


def test_counting_table_counts_each_subset_once():
    counted = QueryCountingOracle(CoverageCost([1, 2, 3], [(1, [1, 2]), (2, [3])]))
    assert counted.table() is counted.inner.table()       # shared, not refilled
    assert counted.count == 8
    counted.table()
    assert counted.count == 8             # served from the cache
    counted.eval([1])
    assert counted.count == 9             # single queries still count


def test_wrappers_share_the_validated_ground():
    inner = HardnessCost(4096, 107)
    counted = QueryCountingOracle(inner)
    assert counted.ground is inner.ground
    with pytest.raises(DomainError, match="outside ground"):
        counted.eval([0])


def test_fast_constructors_keep_their_checks():
    with pytest.raises(DomainError, match="outside 1..n"):
        HardnessCost(10, 3, 1, R={8, 9, 11})
    with pytest.raises(DomainError, match="exactly alpha"):
        HardnessCost(10, 3, 1, R={1, 2})
