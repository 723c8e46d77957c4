import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pandora import (
    CapabilityError,
    DomainError,
    FixedOrderThresholds,
    ImpulsiveStrategy,
    INF,
    ParseError,
    PolicyTree,
    bernoullify,
    digest_instance,
    dumps_instance,
    example1,
    hardness_instance,
    instance_from_json,
    instance_to_json,
    load_instance,
    loads_instance,
    random_instance,
    save_instance,
    strategy_from_json,
    strategy_to_json,
    subadditive4,
    unit_demand_pair,
    xos_lift_of,
)
from pandora.serialize import cost_from_json, cost_to_json
from test_costs import _every_kind

seeds = st.integers(0, 2 ** 31 - 1)


def roundtrip(instance):
    return loads_instance(dumps_instance(instance))


class TestCostRoundTrips:
    @pytest.mark.parametrize("kind", sorted(_every_kind()))
    def test_all_kinds(self, kind):
        cost = _every_kind()[kind]
        if kind == "counting":
            with pytest.raises(NotImplementedError, match="QueryCountingOracle has no serial form"):
                cost_to_json(cost)
            return
        again = cost_from_json(json.loads(json.dumps(cost_to_json(cost))))
        assert type(again) is type(cost)
        assert again.ground == cost.ground
        assert again.table().ints == cost.table().ints
        assert again.table().D == cost.table().D

    def test_explicit_and_projection(self):
        inst = subadditive4()
        again = cost_from_json(cost_to_json(inst.cost))
        for S in _all_subsets(inst.cost.ground):
            assert again.eval(S) == inst.cost.eval(S)
        lifted, _ = bernoullify(unit_demand_pair())
        proj = cost_from_json(cost_to_json(lifted.cost))
        for S in _all_subsets(lifted.cost.ground):
            assert proj.eval(S) == lifted.cost.eval(S)

    def test_written_json_is_pinned(self):
        # key order too: no sort_keys
        import hashlib

        kinds = _every_kind()
        doc = json.dumps([cost_to_json(kinds[k]) for k in sorted(kinds) if k != "counting"])
        assert hashlib.sha256(doc.encode()).hexdigest() == (
            "ff3d9222b30856ef47f99df3e074b1e1e602dc55b0f3d852be60ba254b69c5a4")

    def test_unknown_kind(self):
        with pytest.raises(ParseError, match="unknown cost kind"):
            cost_from_json({"kind": "mystery"})
        with pytest.raises(ParseError, match="missing field"):
            cost_from_json({"table": {}})
        with pytest.raises(ParseError, match="object"):
            cost_from_json([1, 2])

    def test_projection_nesting_is_capped_before_building(self, monkeypatch):
        from pandora import serialize

        def chain(depth):
            cost = {"kind": "additive", "per_box": {"1": "1"}}
            for _ in range(depth):
                cost = {"kind": "projection", "ground": [1], "label_map": {"1": 1}, "inner": cost}
            return cost

        assert cost_from_json(chain(serialize.MAX_NESTING)).eval([1]) == 1
        built = []
        monkeypatch.setattr(serialize, "AdditiveCost", lambda *a: built.append(a))
        with pytest.raises(ParseError, match="nested deeper than"):
            cost_from_json(chain(serialize.MAX_NESTING + 1))
        assert built == []

    def test_malformed_numbers(self):
        with pytest.raises(ParseError, match="malformed additive"):
            cost_from_json({"kind": "additive", "per_box": {"1": "not-a-number"}})
        with pytest.raises(ParseError, match="malformed coverage"):
            cost_from_json({"kind": "coverage", "ground": [float("inf")], "elements": []})
        with pytest.raises(ParseError, match="malformed tree"):    # a node outside the tree too
            cost_from_json({"kind": "tree", "parent": {"1": 0}, "node_costs": {"1": "2", "5": "x"}})


def _all_subsets(ground):
    import itertools

    for r in range(len(ground) + 1):
        yield from itertools.combinations(ground, r)


class TestInstanceRoundTrips:
    @pytest.mark.parametrize("build", [example1, unit_demand_pair, subadditive4],
                             ids=["example1", "unit_demand_pair", "subadditive4"])
    def test_corpus(self, build):
        inst = build()
        again = roundtrip(inst)
        assert instance_to_json(again) == instance_to_json(inst)

    def test_lifted_and_hardness(self):
        for inst in (xos_lift_of(example1()),
                     hardness_instance(6, "planted", alpha=4, beta=1)):
            assert instance_to_json(roundtrip(inst)) == instance_to_json(inst)

    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_random_instances_bit_for_bit(self, seed):
        family = ("general_coverage", "additive", "explicit_subadditive",
                  "bernoulli_tree", "bernoulli_hardness")[seed % 5]
        inst = random_instance(family, (seed % 4) + 2, seed)
        text = dumps_instance(inst)
        assert dumps_instance(loads_instance(text)) == text

    def test_numbers_travel_as_strings(self):
        data = instance_to_json(unit_demand_pair())
        atoms = data["boxes"][0]["atoms"]
        assert atoms == [["0", "2/3"], ["2", "1/3"]]
        assert data["format"] == "pandora-instance"
        assert data["version"] == 1

    def test_constant_zero_boxes_dropped_with_warning(self):
        data = instance_to_json(unit_demand_pair())
        data["boxes"][0]["atoms"] = [["0", "1"]]
        with pytest.warns(UserWarning, match="dropping constant-zero boxes"):
            inst = instance_from_json(data)
        assert inst.labels == (2,)
        assert inst.cost.eval({2}) == 1

    def test_declared_class_is_rechecked(self):
        data = instance_to_json(subadditive4())
        data["cost_class"] = "submodular"        # the table is only subadditive
        with pytest.raises(ParseError, match="fails validation"):
            instance_from_json(data)

    def test_unchecked_class_warns_above_the_bound(self, monkeypatch):
        monkeypatch.setenv("PANDORA_MAX_N", "1")
        data = instance_to_json(unit_demand_pair())
        with pytest.warns(UserWarning, match="left unchecked"):
            inst = instance_from_json(data)
        assert inst.cost_class == "submodular"

    def test_label_ground_mismatch(self):
        data = instance_to_json(unit_demand_pair())
        data["boxes"][0]["label"] = 7
        with pytest.raises(ParseError, match="do not match cost ground"):
            instance_from_json(data)

    def test_wrong_format_marker(self):
        data = instance_to_json(unit_demand_pair())
        data["format"] = "something-else"
        with pytest.raises(ParseError, match="not a pandora-instance"):
            instance_from_json(data)

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            loads_instance('{\n  "format": oops\n}')
        assert err.value.line == 2
        assert err.value.column >= 1

    def test_bad_atom_strings(self):
        data = instance_to_json(unit_demand_pair())
        data["boxes"][0]["atoms"] = [["half", "1"]]
        with pytest.raises(ParseError, match="box 1"):
            instance_from_json(data)


class TestFiles:
    def test_save_and_load(self, tmp_path):
        path = tmp_path / "inst.json"
        save_instance(subadditive4(), path)
        assert load_instance(path).cost.eval({2, 3}) == Fraction(21, 10)
        with open(path) as fh:
            assert load_instance(fh).cost_class == "subadditive"


class TestDigest:
    def test_stable_and_sensitive(self):
        a = digest_instance(example1())
        assert a == digest_instance(example1())
        assert len(a) == 16
        assert int(a, 16) >= 0                    # hex
        assert a != digest_instance(unit_demand_pair())

    def test_ignores_json_key_order(self):
        data = instance_to_json(example1())
        shuffled = json.loads(json.dumps(data, sort_keys=True))
        assert digest_instance(instance_from_json(shuffled)) == digest_instance(example1())


class TestStrategyRoundTrips:
    def test_impulsive(self):
        s = ImpulsiveStrategy((3, 1, 2))
        assert strategy_to_json(s) == {"kind": "impulsive", "order": [3, 1, 2]}
        assert strategy_from_json(strategy_to_json(s)) == s
        # every slot opened is no dummy at all
        assert strategy_to_json(ImpulsiveStrategy((3, 1, 2), {1, 2, 3})) == strategy_to_json(s)

    def test_impulsive_with_dummies(self):
        s = ImpulsiveStrategy((3, 1, 2), {1, 3})
        data = strategy_to_json(s)
        assert data == {"kind": "impulsive_with_dummies", "order": [3, 1, 2], "opened": [1, 3]}
        assert strategy_from_json(data) == s

    def test_fixed_order_with_infinities(self):
        s = FixedOrderThresholds((2, 1), (INF, Fraction(-1, 2)))
        data = strategy_to_json(s)
        assert data["thresholds"] == ["inf", "-1/2"]
        assert strategy_from_json(data) == s

    def test_policy_tree(self):
        halt = PolicyTree.halt()
        tree = PolicyTree.open(1, {
            10: PolicyTree.open(2, {12: halt, 0: halt}),
            0: PolicyTree.open(3, {10: halt}),
        })
        again = strategy_from_json(json.loads(json.dumps(strategy_to_json(tree))))
        assert again == tree

    def test_unknown_kind(self):
        with pytest.raises(ParseError, match="unknown strategy kind"):
            strategy_from_json({"kind": "psychic"})
        with pytest.raises(ParseError, match="not a serializable strategy"):
            strategy_to_json("just a string")


# numeric strings as instance files write them: integers, p/q, decimals and
# decimal exponents, small ones and ones too large for any kernel (those in
# between are valid but slow to expand, so they are left out)
numeric_strings = (
    st.fractions().map(str)
    | st.decimals().map(str)
    | st.builds("{}e{}".format, st.integers(-99, 99),
                st.integers(-12, 12) | st.integers(10 ** 9, 10 ** 30).map(lambda k: k * (-1) ** k))
)
# arbitrary JSON documents, including the non-finite floats json.loads accepts
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | numeric_strings,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                 max_size=4),
    max_leaves=12,
)
TYPED = (ParseError, DomainError, CapabilityError)


def _mutated(doc, data):
    """A deep copy of `doc` with one node, drawn by `data`, replaced by an
    arbitrary JSON value or (in an object) deleted."""
    doc = json.loads(json.dumps(doc))
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and data.draw(st.booleans()):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, data.draw(st.sampled_from(keys))
        node = node[key]
    if isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[key]
        return doc
    value = data.draw(json_values)
    if parent is None:
        return value
    parent[key] = value
    return doc


def _parses_or_refuses(parse, value):
    try:
        parse(value)
    except TYPED:
        pass


class TestMalformedInputs:
    """Every input ends in a value or a typed error, never a bare exception."""

    @pytest.mark.parametrize("data", [
        5, [], {"kind": "impulsive", "order": ["x"]}, {"kind": "policy_tree", "root": 5},
        {"kind": "fixed_order", "sigma": [1], "thresholds": [None]},
        {"kind": "impulsive", "order": [1, 1]}, {"kind": "impulsive", "order": [float("inf")]},
    ])
    def test_malformed_strategies_are_parse_errors(self, data):
        with pytest.raises(ParseError):
            strategy_from_json(data)

    @settings(max_examples=150, deadline=None)
    @given(json_values)
    def test_arbitrary_json(self, value):
        _parses_or_refuses(loads_instance, json.dumps(value))
        _parses_or_refuses(strategy_from_json, value)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([unit_demand_pair, example1, subadditive4]), st.data())
    def test_mutated_instances(self, build, data):
        _parses_or_refuses(loads_instance, json.dumps(_mutated(instance_to_json(build()), data)))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_mutated_strategies(self, data):
        halt = PolicyTree.halt()
        valid = [
            strategy_to_json(PolicyTree.open(1, {10: PolicyTree.open(2, {0: halt}), 0: halt})),
            strategy_to_json(FixedOrderThresholds((2, 1), (INF, Fraction(1, 2)))),
            strategy_to_json(ImpulsiveStrategy((3, 1, 2), {1, 3})),
        ]
        _parses_or_refuses(strategy_from_json, _mutated(data.draw(st.sampled_from(valid)), data))
