"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import hostspeed                  # noqa: E402
import run                        # noqa: E402
import tracer                     # noqa: E402
from workloads import WORKLOADS   # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
LAYERS = tracer.LAYERS


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_pass_reports_every_end_to_end_metric(name):
    result = run.run(name, 5, 0.01, 0, tiny=True)
    assert result["correct"], result["failures"]
    assert result["failed"] == 0
    assert result["attempted"] >= run.MIN_OPS
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert result["metrics"]["ok_ratio"]["value"] == 1.0
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_traced_pass_reports_every_layer(name):
    result = run.run(name, 5, 0.01, 1, tiny=True)
    assert result["correct"], result["failures"]
    assert result["missing"] == []
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    # every op's time is split among the layers, and no more than that
    assert sum(metrics[f"{layer}.share"] for layer in LAYERS) == pytest.approx(1.0)
    assert all(metrics[f"{layer}.self_ms"] >= -1e-6 for layer in LAYERS)
    assert metrics["cli.calls"] == 1.0
    if name == "exact_solve":
        assert metrics["hardness.calls"] == 0
        assert metrics["solvers.adaptive_states_bound"] > 0
        assert metrics["costs.repeat_ratio"] > 0
    if name == "hardness_lab":
        assert metrics["solvers.calls"] == 0
        assert metrics["hardness.trials_per_s"] > 0
    if name == "theorem_verify":
        assert metrics["hardness.calls"] > 0     # corpus run uses hardness_params
        assert metrics["corpus.T31.trial_ms"] > 0


def test_a_tampered_utility_counts_as_failed(monkeypatch):
    cli = run.import_cli()
    solve = cli.optimal_adaptive

    def off_by_a_thousandth(instance):
        utility, tree = solve(instance)
        return utility + Fraction(1, 1000), tree

    monkeypatch.setattr(cli, "optimal_adaptive", off_by_a_thousandth)
    result = run.run("exact_solve", 5, 0.01, 0, tiny=True)
    adaptive = sum(key.startswith("solve.adaptive/") for key, _ in result["failures"])
    assert adaptive > 0 and not result["correct"]
    assert result["metrics"]["ok_ratio"]["value"] < 1.0
    assert all("witness evaluates to" in why for _, why in result["failures"])


def _span(sid, parent, layer, start, end, eval_s=0.0, eval_n=0):
    return (1, sid, parent, layer, f"f{sid}", start, end, eval_s, eval_n, None)


def test_self_time_on_a_hand_built_span_tree():
    spans = [
        _span(3, 2, "strategies", 2.0, 4.0),
        _span(2, 1, "solvers", 1.0, 7.0, eval_s=1.5, eval_n=30),
        _span(4, 1, "serialize", 7.0, 9.0),
        _span(1, None, "cli", 0.0, 10.0, eval_s=0.5, eval_n=2),
    ]
    selfs = tracer.self_times(spans)
    assert selfs["cli"] == pytest.approx(10 - 6 - 2 - 0.5)
    assert selfs["solvers"] == pytest.approx(6 - 2 - 1.5)
    assert selfs["strategies"] == pytest.approx(2)
    assert selfs["serialize"] == pytest.approx(2)
    assert selfs["costs"] == pytest.approx(2)
    assert sum(selfs.values()) == pytest.approx(10)
    metrics = tracer.layer_metrics(spans, distinct_sets=8, overhead_ratio=1.0)
    assert metrics["costs.queries"][0] == 32
    assert metrics["costs.repeat_ratio"][0] == pytest.approx(1 - 8 / 32)


def test_a_removed_name_is_reported_missing(monkeypatch):
    run.import_cli()
    import pandora.hardness

    monkeypatch.delattr(pandora.hardness, "hypergeometric_tail")
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert "pandora.hardness.hypergeometric_tail" in t.missing


def test_a_host_slowdown_seen_by_the_probes_is_divided_out():
    ref = hostspeed.REF_PROBE_S
    # the same op, run at reference speed and then on a host half as fast
    seconds = [0.1] * 20 + [0.2] * 20
    probes = [ref] * 20 + [2 * ref] * 20
    scaled = hostspeed.scaled(seconds, probes)
    assert scaled[:10] == pytest.approx([0.1] * 10)
    assert scaled[-10:] == pytest.approx([0.1] * 10)
    # a program twice as slow still reads twice as slow
    assert hostspeed.scaled([0.2] * 40, [ref] * 40) == pytest.approx([0.2] * 40)
    # one probe hit by a spike moves no op's scale
    spiky = [ref] * 40
    spiky[7] = 10 * ref
    assert hostspeed.scaled([0.1] * 40, spiky) == pytest.approx([0.1] * 40)


def test_pandora_max_n_is_refused(monkeypatch):
    monkeypatch.setenv("PANDORA_MAX_N", "20")
    with pytest.raises(run.SetupError):
        run.run("hardness_lab", 5, 0.01, 0, tiny=True)
