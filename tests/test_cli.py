import json
from fractions import Fraction

import pytest

from pandora import (
    CoverageCost,
    Instance,
    bernoulli,
    dumps_instance,
    eval_impulsive,
    example1,
    random_instance,
    rat,
    save_instance,
    subadditive4,
    unit_demand_pair,
)
from pandora.cli import main


@pytest.fixture
def example1_path(tmp_path):
    path = tmp_path / "example1.json"
    save_instance(example1(), path)
    return str(path)


@pytest.fixture
def unit_demand_path(tmp_path):
    path = tmp_path / "unit_demand.json"
    save_instance(unit_demand_pair(), path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestSolve:
    def test_adaptive_default(self, capsys, example1_path):
        code, data = run_json(capsys, "solve", "-i", example1_path)
        assert code == 0
        assert data["command"] == "solve"
        assert data["solver"] == "adaptive"
        assert data["utility"] == "21/2"
        assert data["strategy"]["kind"] == "policy_tree"
        assert data["strategy"]["root"]["open"] == 1
        assert data["query_count"] > 0
        assert data["wall_time_ms"] >= 0
        assert len(data["instance_digest"]) == 16

    def test_each_solver_class(self, capsys, example1_path):
        for cls, utility in [("fixed_order", "10"), ("impulsive", "10")]:
            code, data = run_json(capsys, "solve", "-i", example1_path,
                                  "--class", cls)
            assert code == 0
            assert data["utility"] == utility

    def test_weitzman_needs_additive(self, capsys, example1_path):
        code, data = run_json(capsys, "solve", "-i", example1_path,
                              "--class", "weitzman")
        assert code == 2
        assert data["error"]["type"] == "domain"
        assert "additive" in data["error"]["message"]

    def test_weitzman_on_1500_boxes(self, capsys, tmp_path):
        # identical boxes (10 w.p. 1/2, cost 1 each): Weitzman opens until the
        # first 10, so every one of the 1500 rounds is reached; the utility is
        # sum_i 2^-i * (5 - 1) = 8 - 2^(3 - n)
        n = 1500
        path = tmp_path / "additive.json"
        path.write_text(json.dumps({
            "boxes": [{"label": b, "atoms": [["0", "1/2"], ["10", "1/2"]]} for b in range(1, n + 1)],
            "cost": {"kind": "additive", "per_box": {str(b): "1" for b in range(1, n + 1)}}}))
        code, data = run_json(capsys, "solve", "--class", "weitzman", "-i", str(path))
        assert code == 0
        assert rat(data["utility"]) == 8 - Fraction(8, 2 ** n)

    def test_stdin_instance(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(dumps_instance(example1())))
        code, data = run_json(capsys, "solve", "-i", "-")
        assert code == 0
        assert data["utility"] == "21/2"

    def test_query_count_is_distinct_subsets(self, capsys, tmp_path):
        # every exhaustive solver reads the cost table: 2^6 subsets, each once
        path = tmp_path / "bernoulli6.json"
        save_instance(random_instance("bernoulli_coverage", 6, 3), path)
        for cls in ("adaptive", "fixed_order", "impulsive"):
            code, data = run_json(capsys, "solve", "-i", str(path), "--class", cls)
            assert code == 0
            assert data["query_count"] == 64

    def test_impulsive_answers_fourteen_boxes(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("PANDORA_MAX_N", raising=False)
        path = tmp_path / "bernoulli14.json"
        inst = random_instance("bernoulli_hardness", 14, 1)
        save_instance(inst, path)
        code, data = run_json(capsys, "solve", "-i", str(path), "--class", "impulsive")
        assert code == 0
        assert data["query_count"] == 1 << 14
        assert len(data["strategy"]["order"]) == 7
        assert rat(data["utility"]) == eval_impulsive(inst, data["strategy"]["order"]) > 0

    @pytest.mark.parametrize("cost_class", ["[]", "{}"])
    def test_non_string_cost_class_is_a_parse_error(self, capsys, tmp_path, cost_class):
        path = tmp_path / "bad_class.json"
        path.write_text('{"boxes": [{"label": 1, "atoms": [["1", "1"]]}], "cost": {"kind": '
                        '"additive", "per_box": {"1": "1"}}, "cost_class": ' + cost_class + "}")
        code, data = run_json(capsys, "solve", "-i", str(path))
        assert code == 2
        assert data["error"]["type"] == "parse"

    def test_huge_decimal_exponent_is_a_parse_error(self, tmp_path):
        # an 11-character literal implying a 332-million-bit integer is refused
        # before it is expanded; in a subprocess so that a regression times out
        import os
        import subprocess
        import sys
        from pathlib import Path

        import pandora

        path = tmp_path / "huge.json"
        path.write_text('{"boxes": [{"label": 1, "atoms": [["1", "1"]]}], "cost": {"kind": '
                        '"additive", "per_box": {"1": "1e100000000"}}}')
        src = str(Path(pandora.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-m", "pandora.cli", "solve", "-i", str(path)],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 2, done.stderr
        error = json.loads(done.stdout)["error"]
        assert error["type"] == "parse"
        assert "exponent above the budget" in error["message"]

    def test_non_utf8_file_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{}")
        code, data = run_json(capsys, "solve", "-i", str(path))
        assert code == 2
        assert data["error"]["type"] == "parse"

    def test_missing_file(self, capsys, tmp_path):
        code, data = run_json(capsys, "solve", "-i", str(tmp_path / "nope.json"))
        assert code == 2
        assert data["error"]["type"] == "io"

    def test_parse_error_has_position(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n  "format": oops\n}\n')
        code, data = run_json(capsys, "solve", "-i", str(bad))
        assert code == 2
        assert data["error"]["type"] == "parse"
        assert data["error"]["line"] == 2

    def test_hardness_n_must_match_the_boxes(self, capsys, tmp_path):
        # refused before the cost is built: nothing sized by n is allocated
        tiny = tmp_path / "huge_n.json"
        tiny.write_text('{"boxes": [], "cost": {"kind": "hardness", "n": 1000000000, "alpha": 1}}')
        assert tiny.stat().st_size < 80
        code, data = run_json(capsys, "solve", "-i", str(tiny))
        assert code == 2
        assert data["error"]["type"] == "parse"
        assert "n = 1000000000" in data["error"]["message"]
        assert "0 boxes" in data["error"]["message"]

    def test_nested_hardness_n_is_bounded(self, capsys, tmp_path):
        # the inner cost of a projection has no box count to match, so a
        # named limit refuses its n before the ground 1..n is built
        tiny = tmp_path / "nested_huge_n.json"
        tiny.write_text('{"boxes": [], "cost": {"kind": "projection", "ground": [], "label_map": {},'
                        ' "inner": {"kind": "hardness", "n": 100000000, "alpha": 1}}}')
        assert tiny.stat().st_size < 160
        code, data = run_json(capsys, "solve", "-i", str(tiny))
        assert code == 2
        assert data["error"]["type"] == "parse"
        assert "n = 100000000" in data["error"]["message"]
        assert "limit 65536" in data["error"]["message"]
        assert len(data["error"]["message"]) < 200

    def test_overlong_integer_is_a_parse_error(self, capsys, tmp_path):
        # json.loads refuses integer literals past 4300 digits with a plain ValueError
        path = tmp_path / "long_int.json"
        path.write_text('{"boxes": [{"label": 1, "atoms": [["1", "1"]]}], '
                        '"cost": {"kind": "additive", "per_box": {"1": ' + "9" * 5001 + "}}}")
        code, data = run_json(capsys, "solve", "-i", str(path))
        assert code == 2
        assert data["error"]["type"] == "parse"

    def test_deeply_nested_json_is_a_parse_error(self, capsys, tmp_path):
        # the decoder recurses per level and gives up with RecursionError
        path = tmp_path / "deep.json"
        path.write_text('{"boxes": [], "cost": ' + '{"inner": ' * 3000 + "{}" + "}" * 3001)
        code, data = run_json(capsys, "solve", "-i", str(path))
        assert code == 2
        assert data["error"] == {"type": "parse", "message": "invalid JSON: nested too deeply",
                                 "line": None, "column": None}

    def test_projection_nesting_is_capped(self, capsys, tmp_path):
        # 600 levels load as JSON but would overflow the stack on evaluation
        cost = {"kind": "additive", "per_box": {"1": "1"}}
        for _ in range(600):
            cost = {"kind": "projection", "ground": [1], "label_map": {"1": 1}, "inner": cost}
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({"boxes": [{"label": 1, "atoms": [["1", "1"]]}], "cost": cost}))
        code, data = run_json(capsys, "solve", "-i", str(path))
        assert code == 2
        assert data["error"]["type"] == "parse"
        assert "nested deeper than 64" in data["error"]["message"]

    @pytest.mark.parametrize("boxes", [
        '[{"label": "abc", "atoms": [["1", "1"]]}]',
        '5',
        '[5]',
        '[{"label": 1.5, "atoms": [["1", "1"]]}]',
        '[{"label": true, "atoms": [["1", "1"]]}]',
    ], ids=["string_label", "boxes_not_a_list", "box_not_an_object", "float_label", "bool_label"])
    def test_malformed_box_entry_is_a_parse_error(self, capsys, tmp_path, boxes):
        path = tmp_path / "bad_box.json"
        path.write_text('{"boxes": ' + boxes + ', "cost": {"kind": "additive", "per_box": {"1": "1"}}}')
        code, data = run_json(capsys, "solve", "-i", str(path))
        assert code == 2
        assert data["error"]["type"] == "parse"

    def test_label_mismatch_message_is_truncated(self, capsys, tmp_path):
        boxes = [{"label": 100 + b, "atoms": [["1", "1"]]} for b in range(1, 2001)]
        doc = {"boxes": boxes, "cost": {"kind": "hardness", "n": 2000, "alpha": 3}}
        path = tmp_path / "shifted.json"
        path.write_text(json.dumps(doc))
        # weitzman has no size guard, so the whole file reaches the label check
        code, data = run_json(capsys, "solve", "--class", "weitzman", "-i", str(path))
        assert code == 2
        message = data["error"]["message"]
        assert "do not match cost ground" in message
        assert "..." in message and "(2000 labels)" in message
        assert len(message) < 400

    def test_capability_exit(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PANDORA_MAX_N", "2")
        path = tmp_path / "e1.json"
        save_instance(example1(), path)
        code, data = run_json(capsys, "solve", "-i", str(path))
        assert code == 3
        assert data["error"]["type"] == "capability"


class TestSizeCapsAtLoad:
    """solve, gap and validate stop building boxes once the file has more
    than their own size guard allows."""

    @staticmethod
    def write(tmp_path, boxes):
        labels = range(1, len(boxes) + 1)
        path = tmp_path / "boxes.json"
        path.write_text(json.dumps({
            "boxes": [{"label": b, **box} for b, box in zip(labels, boxes)],
            "cost": {"kind": "additive", "per_box": {str(b): "1" for b in labels}}}))
        return str(path)

    @pytest.fixture
    def built(self, monkeypatch):
        import pandora.serialize

        count = []

        class Counted(pandora.serialize.FiniteDistribution):
            __slots__ = ()

            def __init__(self, atoms):
                count.append(1)
                super().__init__(atoms)

        monkeypatch.delenv("PANDORA_MAX_N", raising=False)
        monkeypatch.setattr(pandora.serialize, "FiniteDistribution", Counted)
        return count

    ONE = {"atoms": [["1", "1"]]}
    ZERO = {"atoms": [["0", "1"]]}

    # gap stops at the least of its two caps but applies them in its own order
    @pytest.mark.parametrize("argv, boxes, kind, cap, stop", [
        (("solve",), 1000, "adaptive", 14, 15),
        (("solve", "--class", "fixed_order"), 1000, "order_enum", 8, 9),
        (("gap",), 1000, "adaptive", 14, 9),
        (("gap",), 10, "order_enum", 8, 9),
        (("validate", "--class", "submodular"), 1000, "validator", 14, 15),
        (("validate", "--class", "gross_substitutes"), 1000, "gross_substitutes", 10, 11),
        (("solve", "--class", "impulsive"), 1000, "adaptive", 14, 15),
    ])
    def test_refused_after_one_box_past_the_cap(self, capsys, tmp_path, built,
                                                 argv, boxes, kind, cap, stop):
        code, data = run_json(capsys, *argv, "-i", self.write(tmp_path, [self.ONE] * boxes))
        assert code == 3
        assert data["error"]["message"].startswith(
            f"{kind} enumeration is capped at n <= {cap} (got n = {boxes})")
        assert len(built) == stop

    def test_weitzman_builds_every_box(self, capsys, tmp_path, built):
        code, data = run_json(capsys, "solve", "--class", "weitzman",
                              "-i", self.write(tmp_path, [self.ONE] * 1000))
        assert code == 0
        assert len(built) == 1000

    def test_constant_zero_boxes_are_not_counted(self, capsys, tmp_path, built, monkeypatch):
        monkeypatch.setenv("PANDORA_MAX_N", "3")
        boxes = [self.ZERO, self.ONE, self.ZERO, self.ONE, self.ZERO, self.ONE]
        with pytest.warns(UserWarning, match="dropping constant-zero boxes"):
            code, data = run_json(capsys, "solve", "-i", self.write(tmp_path, boxes))
        assert code == 0
        assert data["utility"] == "0"
        with pytest.warns(UserWarning, match="dropping constant-zero boxes"):
            code, data = run_json(capsys, "gap", "-i", self.write(tmp_path, boxes))
        assert code == 0
        code, data = run_json(capsys, "solve", "-i", self.write(tmp_path, boxes + [self.ONE]))
        assert code == 3
        assert "(got n = 4)" in data["error"]["message"]

    @pytest.fixture
    def costs_built(self, monkeypatch):
        import pandora.serialize

        calls = []
        original = pandora.serialize.cost_from_json

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(pandora.serialize, "cost_from_json", counted)
        return calls

    def test_refused_file_builds_no_cost(self, capsys, tmp_path, built, costs_built):
        code, data = run_json(capsys, "solve", "-i", self.write(tmp_path, [self.ONE] * 1000))
        assert code == 3
        assert costs_built == []
        code, data = run_json(capsys, "solve", "-i", self.write(tmp_path, [self.ONE] * 3))
        assert code == 0
        assert costs_built == [1]

    def test_label_mismatch_past_the_cap_is_refused(self, capsys, tmp_path, built, costs_built):
        path = tmp_path / "shifted.json"
        path.write_text(json.dumps({
            "boxes": [{"label": 100 + b, **self.ONE} for b in range(1, 21)],
            "cost": {"kind": "hardness", "n": 20, "alpha": 3}}))
        code, data = run_json(capsys, "solve", "-i", str(path))
        assert code == 3
        assert data["error"]["type"] == "capability"
        assert costs_built == []

    def test_past_the_cap_only_labels_are_read(self, capsys, tmp_path, built):
        boxes = [self.ONE] * 20
        code, data = run_json(capsys, "solve", "-i", self.write(
            tmp_path, boxes[:-1] + [{"atoms": [["1", "2"]]}]))
        assert code == 3
        code, data = run_json(capsys, "solve", "-i", self.write(
            tmp_path, boxes[:-1] + [{"label": "abc", "atoms": [["1", "1"]]}]))
        assert code == 2
        assert "box label must be an integer" in data["error"]["message"]


class TestGap:
    def test_example1(self, capsys, example1_path):
        code, data = run_json(capsys, "gap", "-i", example1_path)
        assert code == 0
        assert data["opt_adaptive"] == "21/2"
        assert data["opt_fixed_order"] == "10"
        assert data["opt_impulsive"] == "10"
        assert data["strict_gap"]["adaptive_vs_fixed"] is True
        assert data["witnesses"]["adaptive"]["kind"] == "policy_tree"
        assert data["witnesses"]["impulsive"]["order"] == [1, 3]

    def test_off_bernoulli(self, capsys, tmp_path):
        path = tmp_path / "sub4.json"
        save_instance(subadditive4(), path)
        code, data = run_json(capsys, "gap", "-i", str(path))
        assert code == 0
        assert data["opt_impulsive"] is None
        assert data["witnesses"]["impulsive"] is None
        assert data["opt_adaptive"] == "4253/120"


class TestValidate:
    def test_pass(self, capsys, unit_demand_path):
        code, data = run_json(capsys, "validate", "--class", "submodular",
                              "-i", unit_demand_path)
        assert code == 0
        assert data["passed"] is True
        assert data["witness"] is None

    def test_fail_carries_witness(self, capsys, tmp_path):
        path = tmp_path / "sub4.json"
        save_instance(subadditive4(), path)
        code, data = run_json(capsys, "validate", "--class", "submodular",
                              "-i", str(path))
        assert code == 1
        assert data["passed"] is False
        assert data["witness"]["reason"] == "marginal grows"
        assert set(data["witness"]) == {
            "reason", "x", "A", "B", "c_x_given_A", "c_x_given_B"}
        assert isinstance(data["witness"]["A"], list)

    def test_scaling_bit_budget_refuses_before_allocating(self, tmp_path):
        # every entry of a 14-box table gets its own prime denominator; the
        # common denominator would make each scaled entry about 260k bits, or
        # over 500 MB in all, which the address-space limit below forbids
        import os
        import subprocess
        import sys
        from fractions import Fraction
        from pathlib import Path

        import pandora

        n, limit = 14, 200_000
        sieve = bytearray([1]) * limit
        for k in range(2, int(limit ** 0.5) + 1):
            if sieve[k]:
                sieve[k * k::k] = bytearray(len(range(k * k, limit, k)))
        primes = [k for k in range(2, limit) if sieve[k]]
        table = {"": "0"}
        for mask in range(1, 1 << n):
            S = [b + 1 for b in range(n) if mask >> b & 1]
            table[",".join(map(str, S))] = str(len(S) + Fraction(1, primes[mask]))
        path = tmp_path / "primes.json"
        path.write_text(json.dumps({
            "boxes": [{"label": b, "atoms": [["1", "1"]]} for b in range(1, n + 1)],
            "cost": {"kind": "explicit", "table": table}}))
        src = str(Path(pandora.__file__).resolve().parents[1])
        done = subprocess.run(
            ["sh", "-c", 'ulimit -v 400000 && exec "$0" -m pandora.cli validate '
                         '--class submodular -i "$1"', sys.executable, str(path)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"})
        assert done.returncode == 3, done.stderr
        error = json.loads(done.stdout)["error"]
        assert error["type"] == "capability"
        assert "budget" in error["message"]

    @pytest.mark.parametrize("bits, code", [(1000, 3), (100, 0)])
    def test_packed_scan_copies_count_against_the_bit_budget(self, capsys, tmp_path, bits, code):
        # one element weighs 2^bits: the pair scan would hold 2n + 6 = 34
        # packed copies of 2^14 fields, 1008 bits wide, which is past the
        # budget and refused before packing; 104-bit fields fit
        n = 14
        cost = CoverageCost(range(1, n + 1), [(2 ** bits, {1})] + [(1, {b}) for b in range(2, n + 1)])
        path = tmp_path / f"wide{bits}.json"
        save_instance(Instance([bernoulli(1, "1/2")] * n, cost), path)
        got, data = run_json(capsys, "validate", "--class", "submodular", "-i", str(path))
        assert got == code
        if code:
            assert data["error"]["type"] == "capability"
            assert "budget" in data["error"]["message"]
        else:
            assert data["passed"] is True

    def test_unknown_class_is_usage_error(self, capsys, unit_demand_path):
        code, out = run(capsys, "validate", "--class", "psychic",
                        "-i", unit_demand_path)
        assert code == 2


class TestTransform:
    def test_discretize_needs_epsilon(self, capsys, example1_path):
        code, data = run_json(capsys, "transform", "discretize",
                              "-i", example1_path)
        assert code == 2
        assert "epsilon" in data["error"]["message"]

    @pytest.mark.parametrize("epsilon", ["abc", "1/0", "1e100000000"])
    def test_unparsable_epsilon_is_a_parse_error(self, capsys, example1_path, epsilon):
        code, data = run_json(capsys, "transform", "discretize",
                              "--epsilon", epsilon, "-i", example1_path)
        assert code == 2
        assert data["error"]["type"] == "parse"
        assert "--epsilon" in data["error"]["message"]

    def test_discretize(self, capsys, example1_path):
        code, data = run_json(capsys, "transform", "discretize",
                              "--epsilon", "5", "-i", example1_path)
        assert code == 0
        assert data["params"] == {"epsilon": "5", "kappa": "8"}
        assert data["map"] is None
        assert data["instance"]["format"] == "pandora-instance"
        assert data["instance_digest"] != data["instance_digest_in"]

    def test_pipeline_discretize_then_bernoullify(self, capsys, example1_path):
        code, data = run_json(capsys, "transform", "discretize", "bernoullify",
                              "--epsilon", "5", "-i", example1_path)
        assert code == 0
        assert data["steps"] == ["discretize", "bernoullify"]
        assert data["params"]["kappa"] == "8"
        assert data["map"]["pairs"]          # nonempty copy bookkeeping
        boxes = data["instance"]["boxes"]
        assert all(len(b["atoms"]) <= 2 for b in boxes)

    def test_bernoullify_alone(self, capsys, tmp_path):
        path = tmp_path / "sub4.json"
        save_instance(subadditive4(), path)
        code, data = run_json(capsys, "transform", "bernoullify", "-i", str(path))
        assert code == 0
        assert data["params"] is None
        assert [p[:2] for p in data["map"]["pairs"]] == [
            [1, 2], [1, 3], [2, 1], [3, 2], [4, 2]]
        assert data["instance"]["cost"]["kind"] == "projection"

    @pytest.mark.parametrize("steps", [70, 1200])
    def test_repeated_bernoullify_stays_one_projection(self, capsys, tmp_path, unit_demand_path, steps):
        code, data = run_json(capsys, "transform", *["bernoullify"] * steps, "-i", unit_demand_path)
        assert code == 0
        cost = data["instance"]["cost"]
        assert cost["kind"] == "projection" and cost["inner"]["kind"] == "coverage"
        path = tmp_path / "lifted.json"
        path.write_text(json.dumps(data["instance"]))
        code, data = run_json(capsys, "solve", "-i", str(path))
        assert code == 0
        assert data["utility"] == "1/9"


class TestHardness:
    def test_params(self, capsys):
        code, data = run_json(capsys, "hardness", "params", "--n", "100000")
        assert code == 0
        assert (data["alpha"], data["beta"], data["M"]) == (729, 27, 135)
        assert data["p"] == "1/729"

    def test_verify_small_n_fails(self, capsys):
        code, data = run_json(capsys, "hardness", "verify", "--n", "6",
                              "--alpha", "4", "--beta", "1")
        assert code == 1
        assert data["verdict"] == "regime not reached"

    def test_verify_large_n_passes(self, capsys):
        code, data = run_json(capsys, "hardness", "verify", "--n", "100000")
        assert code == 0
        assert data["verdict"] == "pass"
        assert "banner" in data

    def test_distinguish(self, capsys):
        code, data = run_json(capsys, "hardness", "distinguish", "--n", "64",
                              "--trials", "50", "--budget", "5", "--seed", "1")
        assert code == 0
        assert data["mode"] == "distinguish"
        assert data["trials"] == 50
        assert data["query_count_ok"] is True

    def test_domain_error_exit(self, capsys):
        code, data = run_json(capsys, "hardness", "params", "--n", "2")
        assert code == 2
        assert data["error"]["type"] == "domain"

    @pytest.mark.parametrize("mode", ["verify", "distinguish"])
    def test_n_is_capped_before_anything_is_built(self, capsys, mode):
        code, data = run_json(capsys, "hardness", mode, "--n", "1000000001")
        assert code == 2
        assert data["error"] == {"type": "domain",
                                 "message": "n must be at most 1000000, got 1000000001"}

    def test_params_are_not_capped(self, capsys):
        code, data = run_json(capsys, "hardness", "params", "--n", "1000000001")
        assert code == 0
        assert data["n"] == 1000000001

    def test_params_past_double_precision(self, capsys):
        code, data = run_json(capsys, "hardness", "params", "--n", str(10 ** 30))
        assert code == 0
        assert (data["alpha"], data["beta"]) == (13815510557964275, 955)

    def test_query_draw_is_bounded_before_anything_is_drawn(self, capsys, monkeypatch):
        import types

        import pandora.hardness

        def no_draws(*args):
            raise AssertionError("the experiment started drawing")

        monkeypatch.setattr(pandora.hardness, "random", types.SimpleNamespace(Random=no_draws))
        code, data = run_json(capsys, "hardness", "distinguish", "--n", "1000000",
                              "--alpha", "500000", "--beta", "1", "--budget", "1000",
                              "--trials", "1")
        assert code == 2
        assert data["error"]["type"] == "domain"
        assert "budget * alpha" in data["error"]["message"]


class TestCorpusAndVerify:
    def test_corpus_run(self, capsys):
        code, data = run_json(capsys, "corpus")
        assert code == 0
        assert data["passed"] is True
        assert len(data["results"]) == 15

    def test_verify_suite(self, capsys):
        code, data = run_json(capsys, "verify", "--theorem", "cancellation",
                              "--trials", "30", "--seed", "4")
        assert code == 0
        assert data["theorem"] == "cancellation"
        assert data["passed"] is True

    def test_verify_unknown_theorem_is_usage(self, capsys):
        code, out = run(capsys, "verify", "--theorem", "T99")
        assert code == 2

    @pytest.mark.parametrize("trials", ["0", "100001", str(10 ** 12)])
    def test_verify_trials_are_bounded(self, capsys, trials):
        code, data = run_json(capsys, "verify", "--theorem", "cancellation", "--trials", trials)
        assert code == 2
        assert data["error"] == {"type": "domain", "message":
                                 f"need at least one trial and at most 100000, got {trials}"}


class TestPlumbing:
    def test_no_command_is_usage(self, capsys, example1_path):
        assert main([]) == 2
        assert main(["solve", "-i", example1_path, "--jobs", "2"]) == 2

    def test_import_starts_no_process_pool(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import pandora

        program = ("import sys, pandora.cli\n"
                   "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))\n")
        src = str(Path(pandora.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_hardness_lab_imports_no_numpy(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import pandora

        program = ("import sys, pandora\n"
                   "pandora.verify_family(1000)\n"
                   "pandora.distinguish_experiment(8, budget=3, trials=50, seed=5, alpha=4, beta=2)\n"
                   "print(sorted({'numpy', 'mpmath'} & set(sys.modules)))\n")
        src = str(Path(pandora.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_parser_is_built_once(self, capsys, monkeypatch, example1_path):
        import pandora.cli as cli

        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        assert run_json(capsys, "solve", "-i", example1_path)[1]["utility"] == "21/2"
        assert main(["solve", "--class", "nope", "-i", example1_path]) == 2
        assert main([]) == 2
        code, data = run_json(capsys, "solve", "--class", "fixed_order", "-i", example1_path)
        assert (code, data["utility"]) == (0, "10")
        assert built == [1]

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_human_rendering(self, capsys, example1_path):
        code, out = run(capsys, "solve", "-i", example1_path, "--human")
        assert code == 0
        assert "utility: 21/2" in out
        assert "solver: adaptive" in out
        assert "{" not in out.splitlines()[0]

    def test_human_booleans_and_nulls(self, capsys, unit_demand_path):
        code, out = run(capsys, "validate", "--class", "submodular",
                        "-i", unit_demand_path, "--human")
        assert code == 0
        assert "passed: yes" in out
        assert "witness: -" in out
