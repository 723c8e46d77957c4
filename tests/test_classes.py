import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from pandora import (
    AdditiveCost,
    BudgetAdditiveCost,
    CapabilityError,
    CostOracle,
    CoverageCost,
    DomainError,
    ExplicitCost,
    HardnessCost,
    TreeClosureCost,
    VALIDATORS,
    example1,
    random_instance,
    subadditive4,
    validate_class,
    xos_lift,
)

from pandora.classes import _check_gross_substitutes, _check_submodular, _pack
from pandora.costs import _check_monotone_normalized

from oracles import (_subsets, is_subadditive, is_submodular, scan_gross_substitutes, scan_monotone_normalized,
                     scan_submodular)
from test_costs import _every_kind


class TableCost(CostOracle):
    """Any table at all, unchecked -- ExplicitCost refuses the broken ones."""

    def __init__(self, table):
        self.values = {frozenset(key): Fraction(v) for key, v in table.items()}
        super().__init__({b for key in self.values for b in key})

    def _value(self, S):
        return self.values[S]


def test_validator_names():
    assert set(VALIDATORS) == {
        "monotone_normalized", "submodular", "subadditive",
        "matroid_rank", "gross_substitutes",
    }


def test_unknown_class():
    with pytest.raises(DomainError):
        validate_class(AdditiveCost([1]), "supermodular")


@pytest.mark.parametrize("cls", sorted(VALIDATORS))
def test_additive_passes_everything_integral(cls):
    c = AdditiveCost([1, 1, 1])
    rep = validate_class(c, cls)
    assert rep.passed, rep.witness
    assert bool(rep) is True


def test_coverage_is_submodular():
    c = CoverageCost([1, 2, 3], [("1/2", [1, 2]), (2, [2, 3]), (1, [1, 3])])
    assert validate_class(c, "submodular").passed
    assert validate_class(c, "subadditive").passed


def test_budget_additive_is_submodular():
    c = BudgetAdditiveCost(["1/2", "1/2", 1], budget="5/4")
    assert validate_class(c, "submodular").passed


def test_hardness_cost_is_matroid_rank():
    for cost in (HardnessCost(5, 3), HardnessCost(5, 3, 1, R={2, 4, 5})):
        rep = validate_class(cost, "matroid_rank")
        assert rep.passed, rep.witness
        assert validate_class(cost, "gross_substitutes").passed


def test_tree_closure_is_gross_substitutes():
    c = TreeClosureCost({1: 0, 2: 1, 3: 1, 4: 0}, {1: 2, 2: 1, 3: "1/2", 4: 3})
    assert validate_class(c, "submodular").passed
    assert validate_class(c, "gross_substitutes").passed


def test_example1_cost_is_complementary():
    """The all-or-nothing table: marginals grow, so submodularity fails,
    and the witness pins the violating pair down exactly."""
    cost = example1().cost
    rep = validate_class(cost, "submodular")
    assert not rep.passed
    w = rep.witness
    assert w["reason"] == "marginal grows"
    # replay the witness against the oracle
    x, A, B = w["x"], frozenset(w["A"]), frozenset(w["B"])
    assert cost.eval(A | {x}) - cost.eval(A) < cost.eval(B | {x}) - cost.eval(B)
    # ... and the gap is not even subadditive-breaking: {2},{3} vs {2,3}
    assert not validate_class(cost, "subadditive").passed


def test_subadditive4_separates_the_classes():
    cost = subadditive4().cost
    assert validate_class(cost, "subadditive").passed
    rep = validate_class(cost, "submodular")
    assert not rep.passed
    x, A, B = rep.witness["x"], frozenset(rep.witness["A"]), frozenset(rep.witness["B"])
    assert cost.eval(A | {x}) - cost.eval(A) < cost.eval(B | {x}) - cost.eval(B)


def test_matroid_rank_rejects_fractional():
    c = ExplicitCost({(): 0, (1,): "1/2", (2,): 1, (1, 2): 1})
    rep = validate_class(c, "matroid_rank")
    assert not rep.passed
    assert rep.witness["reason"] == "not integral"


def test_matroid_rank_rejects_supercardinal():
    c = ExplicitCost({(): 0, (1,): 2, (2,): 1, (1, 2): 2})
    rep = validate_class(c, "matroid_rank")
    assert not rep.passed
    assert rep.witness["reason"] == "exceeds cardinality"


def test_gross_substitutes_counterexample():
    # submodular but not GS: the pair {2,3} is priced too far above the
    # other pairs, so the triple condition finds a unique maximum
    table = {
        (): 0, (1,): 2, (2,): 2, (3,): 2,
        (1, 2): 3, (1, 3): 3, (2, 3): 4, (1, 2, 3): 4,
    }
    c = ExplicitCost(table)
    assert validate_class(c, "submodular").passed
    rep = validate_class(c, "gross_substitutes")
    assert not rep.passed
    assert rep.witness["reason"] == "unique max in triple"


def test_capability_guard():
    with pytest.raises(CapabilityError):
        validate_class(AdditiveCost([1] * 15), "submodular")
    with pytest.raises(CapabilityError):
        validate_class(AdditiveCost([1] * 11), "gross_substitutes")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 4))
def test_random_coverage_always_submodular(seed, n):
    from pandora import random_instance

    inst = random_instance("general_coverage", n, seed)
    assert validate_class(inst.cost, "submodular").passed


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 4))
def test_random_tree_always_gross_substitutes(seed, n):
    from pandora import random_instance

    inst = random_instance("bernoulli_tree", n, seed)
    assert validate_class(inst.cost, "gross_substitutes").passed


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 4))
def test_random_capped_xos_always_subadditive(seed, n):
    from pandora import random_instance

    inst = random_instance("explicit_subadditive", n, seed)
    assert validate_class(inst.cost, "subadditive").passed


def test_witnesses_always_replay():
    """Any failed report's witness must name a genuine violation."""
    candidates = [
        example1().cost,
        subadditive4().cost,
        ExplicitCost({(): 0, (1,): 2, (2,): 1, (1, 2): 2}),
    ]
    for cost in candidates:
        for cls in ("submodular", "subadditive", "matroid_rank"):
            rep = validate_class(cost, cls)
            if rep.passed:
                continue
            w = rep.witness
            if cls == "subadditive":
                A, B = frozenset(w["A"]), frozenset(w["B"])
                assert cost.eval(A | B) > cost.eval(A) + cost.eval(B)
            elif w.get("reason") == "marginal grows":
                x, A, B = w["x"], frozenset(w["A"]), frozenset(w["B"])
                assert cost.eval(A | {x}) - cost.eval(A) < cost.eval(B | {x}) - cost.eval(B)


# submodular, but the pair {2,3} is priced above the others: not GS
_PAIR_23_TOO_DEAR = {(): 0, (1,): "2/3", (2,): "2/3", (3,): "2/3", (1, 2): 1, (1, 3): 1,
                     (2, 3): "4/3", (1, 2, 3): "4/3"}

# every failure reason with its exact payload; values are Fractions rendered
# back from the scaled integers, so fractional tables pin the rendering too
WITNESSES = [
    (TableCost({(): "1/2", (1,): 1, (2,): 1, (1, 2): 2}), "monotone_normalized",
     {"reason": "not normalized", "c_empty": "1/2"}),
    (TableCost({(): 0, (1,): "3/2", (2,): 1, (1, 2): "4/3"}), "monotone_normalized",
     {"reason": "not monotone", "S": [1], "x": 2, "c_S": "3/2", "c_Sx": "4/3"}),
    (example1().cost, "submodular",
     {"reason": "marginal grows", "x": 2, "A": [], "B": [3],
      "c_x_given_A": "0", "c_x_given_B": "20"}),
    (TableCost({(): 0, (1,): "1/3", (2,): "1/4", (1, 2): "2/3"}), "submodular",
     {"reason": "marginal grows", "x": 1, "A": [], "B": [2],
      "c_x_given_A": "1/3", "c_x_given_B": "5/12"}),
    (subadditive4().cost, "gross_substitutes",
     {"reason": "not submodular: marginal grows", "x": 2, "A": [4], "B": [3, 4],
      "c_x_given_A": "0", "c_x_given_B": "1"}),
    (TableCost({(): 0, (1,): "1/3", (2,): "1/2", (1, 2): "6/7"}), "subadditive",
     {"A": [1], "B": [2], "c_AB": "6/7", "c_A": "1/3", "c_B": "1/2"}),
    (ExplicitCost({(): 0, (1,): "1/2", (2,): 1, (1, 2): 1}), "matroid_rank",
     {"reason": "not integral", "S": [1], "c_S": "1/2"}),
    (ExplicitCost({(): 0, (1,): 2, (2,): 1, (1, 2): 2}), "matroid_rank",
     {"reason": "exceeds cardinality", "S": [1], "c_S": "2"}),
    (ExplicitCost(_PAIR_23_TOO_DEAR), "gross_substitutes",
     {"reason": "unique max in triple", "S": [], "triple": [1, 2, 3],
      "values": ["5/3", "2", "5/3"]}),
    # c(S) = g(|S|)/4, strictly concave, with c({1,2,3,4}) one unit of 1/4 up:
    # the least violation is at S = {1,2} (mask 3), on the three highest bits
    (ExplicitCost({S: Fraction([0, 12, 21, 27, 30, 31][len(S)] + (S == {1, 2, 3, 4}), 4)
                   for S in _subsets(range(1, 6))}), "gross_substitutes",
     {"reason": "unique max in triple", "S": [1, 2], "triple": [3, 4, 5],
      "values": ["4", "15/4", "15/4"]}),
    # _PAIR_23_TOO_DEAR's witness with every value times (2^64 + 1)/(2^64 + 3):
    # D = 3(2^64 + 3), so its fields are too wide to pack
    (ExplicitCost({S: Fraction(v) * Fraction(2 ** 64 + 1, 2 ** 64 + 3)
                   for S, v in _PAIR_23_TOO_DEAR.items()}), "gross_substitutes",
     {"reason": "unique max in triple", "S": [], "triple": [1, 2, 3],
      "values": ["92233720368547758085/55340232221128654857",
                 "36893488147419103234/18446744073709551619",
                 "92233720368547758085/55340232221128654857"]}),
]


@pytest.mark.parametrize("cost, cls, witness", WITNESSES)
def test_witness_payloads_are_pinned(cost, cls, witness):
    rep = validate_class(cost, cls)
    assert not rep.passed
    assert rep.witness == witness


@pytest.mark.parametrize("cost, witness", [(cost, w) for cost, _, w in WITNESSES[:2]])
def test_xos_lift_refuses_with_the_validator_witness(cost, witness):
    with pytest.raises(DomainError, match="lifted function fails monotone_normalized") as err:
        xos_lift(cost)
    assert str(witness) in str(err.value)


FAMILIES = ("bernoulli_coverage", "bernoulli_tree", "bernoulli_hardness",
            "general_coverage", "additive", "explicit_subadditive")


def _max_table(n, seed):
    """c(S) = max of random fractional weights on the subsets of S: monotone
    and normalized, and often neither submodular nor subadditive."""
    rng = random.Random(seed)
    subsets = _subsets(range(1, n + 1))
    weight = {S: Fraction(rng.randint(0, 12), rng.randint(1, 4)) if S else 0 for S in subsets}
    return ExplicitCost({S: max(weight[T] for T in subsets if T <= S) for S in subsets})


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FAMILIES + ("max_table",)), st.integers(1, 4), st.integers(0, 2 ** 31 - 1))
def test_verdicts_match_the_definitions(family, n, seed):
    if family == "max_table":
        cost = _max_table(n, seed)
    else:
        assume(family != "bernoulli_hardness" or n > 1)
        cost = random_instance(family, n, seed).cost
    assert validate_class(cost, "submodular").passed == is_submodular(cost)
    assert validate_class(cost, "subadditive").passed == is_subadditive(cost)


# the table kernels -- halves, packed fields, or lists for wide fields --
# against the scalar scans in tests/oracles.py: the same witness, byte for
# byte, or None
KERNELS = ((_check_monotone_normalized, scan_monotone_normalized),
           (_check_submodular, scan_submodular),
           (_check_gross_substitutes, scan_gross_substitutes))


def _same_verdicts(labels, vals, D) -> list:
    """Assert every kernel agrees with its scan; return their witnesses."""
    witnesses = []
    for check, scan in KERNELS:
        witness = check(labels, vals, D)
        assert json.dumps(witness) == json.dumps(scan(labels, vals, D)), check.__name__
        witnesses.append(witness)
    return witnesses


@pytest.mark.parametrize("kind", sorted(_every_kind()))
def test_half_scans_match_the_scalar_scans_on_every_kind(kind):
    cost = _every_kind()[kind]
    table = cost.table()
    _same_verdicts(cost.ground, table.ints, table.D)


def _concave_sums(n: int, rng) -> list[int]:
    """c(S) = the sum over one or two blocks B of g_B(|S & B|), each g_B
    increasing with increments that fall by at least 3: gross substitutes
    with slack in every submodular inequality inside a block, and a tie in
    every triple inside a block."""
    blocks = rng.randint(1, 2)
    part = [rng.randrange(blocks) for _ in range(n)]
    gains = []
    for _ in range(blocks):
        gain, step = [0], 4 * n + rng.randint(1, 3)
        for _ in range(n):
            gain.append(gain[-1] + step)
            step -= rng.randint(3, 4)
        gains.append(gain)
    return [sum(gain[sum(1 for i in range(n) if mask >> i & 1 and part[i] == b)]
                for b, gain in enumerate(gains))
            for mask in range(1 << n)]


def _random_table(style: str, n: int, seed: int):
    """(labels, ints, D) on n bits: arbitrary small ints; a monotone table
    with a few entries moved; a family's table with a few entries moved by up
    to one unit of cost; a gross-substitutes table (`_concave_sums`) with one
    or two entries moved by 1, which breaks ties in triples at masks S with
    up to |S| + 2 = |moved entry| bits, so that S is often nonempty; or
    (`wide`) a family or near-GS table shifted so that its range has 62
    bits, the most a 64-bit packed field holds, 63 bits or 200 bits, plus an
    offset and maybe a move in the low bit."""
    rng = random.Random(seed)
    labels, D = tuple(range(1, n + 1)), 1
    if style == "arbitrary":
        vals = [rng.randint(-2, 3) for _ in range(1 << n)]
        vals[0] = 0 if rng.random() < 0.8 else vals[0]
        return labels, vals, rng.randint(1, 3)
    if style == "wide":
        labels, vals, D = _random_table(("family", "near_gs")[seed % 2], n, seed)
        bits = (62, 63, 200)[seed // 2 % 3]
        shift = max(0, bits - (max(vals) - min(vals)).bit_length())
        offset = rng.choice((0, 1 << 100, -(1 << 70)))
        vals = [(v << shift) + offset for v in vals]
        if rng.random() < 0.5:
            vals[rng.randrange(len(vals))] += rng.choice((-1, 1))
        return labels, vals, D
    if style == "near_gs":
        vals, D = _concave_sums(n, rng), rng.randint(1, 3)
        for _ in range(rng.randint(1, 2) if n > 2 else 0):
            vals[rng.randrange(1, len(vals))] += rng.choice((-1, 1))
        return labels, vals, D
    if style == "near_monotone":
        vals = [0] * (1 << n)
        for mask in range(1, 1 << n):
            vals[mask] = rng.randint(0, 2) + max(vals[mask & ~(1 << i)]
                                                 for i in range(n) if mask >> i & 1)
    else:
        cost = random_instance(FAMILIES[seed % len(FAMILIES)], max(n, 2), seed).cost
        table = cost.table()
        labels, vals, D = cost.ground, list(table.ints), table.D
    for _ in range(rng.randint(1, 3) if len(vals) > 1 else 0):
        vals[rng.randrange(1, len(vals))] += rng.choice((-1, 1)) * rng.randint(1, D + 1)
    return labels, vals, D


@pytest.mark.parametrize("style", ("arbitrary", "near_monotone", "family", "near_gs", "wide"))
def test_half_scans_match_the_scalar_scans_on_random_tables(style):
    trials = 270
    witnesses = [w for seed in range(trials) for w in _same_verdicts(*_random_table(style, seed % 9, seed))]
    if style == "near_gs":
        # triple failures at S != {}, where a slip in the field-to-mask map
        # would show, and passing tables, which the triple scans cover whole
        gs = witnesses[2::3]
        assert sum(1 for w in gs if w and w["reason"] == "unique max in triple" and w["S"]) > trials // 10
        assert None in gs
    else:
        assert sum(w is not None for w in witnesses) > 3 * trials // 2   # most verdicts are failures


def test_packing_holds_ranges_of_at_most_62_bits():
    # a field holds the range, a carry bit and a guard bit, in whole bytes
    assert _pack([0, 1 << 6], 1)[1] == 16
    assert _pack([3, 3 + (1 << 62) - 1], 1)[1] == 64
    assert _pack([-(1 << 90), -(1 << 90) + (1 << 62) - 1], 1)[1] == 64
    assert _pack([3, 3 + (1 << 62)], 1) is None


def test_gross_substitutes_packs_the_table_once(monkeypatch):
    # the submodular pair scan and the triple scan share one packed table
    import pandora.classes as classes

    calls = []
    monkeypatch.setattr(classes, "_pack", lambda vals, n: calls.append(n) or _pack(vals, n))
    assert validate_class(AdditiveCost([1, 2, 3, 4, 5]), "gross_substitutes").passed
    assert calls == [5]
