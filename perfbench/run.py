"""pandora's benchmark: three CLI workloads as closed loops with one client.

Run from the repository root:

    python3 perfbench/run.py --workload exact_solve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each op is one in-process `pandora.cli.main(argv)` call with stdout
captured; there is one process and no threads.  A run sets up (imports the
package from `src/`, writes the workload's inputs, warms up each command
kind), then runs the whole cycles of the workload's ops whose op time comes
nearest to `--seconds` seconds, at least 100 ops, and checks every answer
outside the timed region.

With `--trace 0` the result holds the end-to-end metrics: ops_per_s,
op_ms.p50, op_ms.p90, setup_s, ok_ratio and rss_peak_mb.  The four time
metrics are scaled to a reference host speed: a fixed probe of pure-Python
work runs before every op, and each op's wall time is scaled by how much
slower than the reference the probes around it ran (see hostspeed.py), so
the shared host's drift does not read as a change in the program.  The
unscaled wall times are printed above the result line and kept in the
result file.  With `--trace 1`
half the time runs untraced, then the same ops run again under the tracer
(see tracer.py) and the result holds the per-layer metrics, including
trace.overhead_ratio.  `--workload all` runs every workload in a fresh
interpreter, one after another.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Spans and results are written under
perfbench/out/.
"""
# set-up time counts from here, so the clock starts before any import
from time import perf_counter

STARTED = perf_counter()

import argparse
import contextlib
import gc
import hashlib
import importlib.metadata
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import checks
import hostspeed
from tracer import Tracer, layer_metrics
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# set-ups per run; setup_s reports their median
SETUPS = 5
# host-speed probes before each set-up; setup_s is scaled by their median
SETUP_PROBES = 3
# at least ten samples beyond the 90th percentile
MIN_OPS = 100
# fresh interpreters under --workload all get this long each
CHILD_TIMEOUT_S = 900


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_cli():
    """Import the package from this checkout's src/, never from elsewhere."""
    package = SRC / "pandora"
    if not (package / "__init__.py").is_file():
        raise SetupError(f"no package source at {package}")
    sys.path.insert(0, str(SRC))
    import pandora.cli

    if Path(pandora.__file__).resolve().parent != package.resolve():
        raise SetupError(f"imported pandora from {pandora.__file__}, not {package}")
    return pandora.cli


def run_op(cli, op, call=None):
    """One op: returns (seconds, exit code, stdout, error).  Only the CLI
    call itself is inside the timed region."""
    buf = io.StringIO()
    error = None
    start = perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            code = call(cli.main, list(op.argv)) if call else cli.main(list(op.argv))
        except Exception as exc:   # an op that raises is a failed op, not a failed run
            code, error = None, f"{type(exc).__name__}: {exc}"
    return perf_counter() - start, code, buf.getvalue(), error


def judge(op, code, text, error, golden):
    """None if the op's answer passes its checks, else the reason."""
    if error is not None:
        return error
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        return f"output is not JSON: {text[:200]!r}"
    try:
        return checks.check(op, code, payload, golden)
    except Exception as exc:   # a malformed answer fails its op, it must not stop the run
        return f"check raised {type(exc).__name__}: {exc}"


def timed(cli, op, golden, call=None):
    """Run and check one op: (op, seconds, failure or None)."""
    elapsed, code, text, error = run_op(cli, op, call)
    return op, elapsed, judge(op, code, text, error, golden)


def set_up(cli, build, seed, inputs, tiny):
    """Write the inputs and warm up each command kind, SETUPS times.
    Returns the plan, the median set-up seconds, the median probe seconds
    around the set-ups and the warm-up failures."""
    times, probes = [], []
    for _ in range(SETUPS):
        gc.collect()
        probes += [hostspeed.probe() for _ in range(SETUP_PROBES)]
        start = perf_counter()
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir(parents=True)
        plan = build(seed, inputs, tiny)
        warm = [timed(cli, op, None) for op in plan.warmups]
        times.append(perf_counter() - start)
    failures = [(op.key, why) for op, _, why in warm if why is not None]
    return plan, statistics.median(times), statistics.median(probes), failures


def loop(cli, plan, golden, seconds, min_ops=MIN_OPS):
    """Whole cycles, as many as bring the op time nearest to `seconds`, and
    at least `min_ops` ops.  Before each op the garbage of the ones before
    it is collected and the host-speed probe runs, both outside the timed
    region.  Returns the records and, for each, its probe's seconds."""
    records, probes, total = [], [], 0.0
    for done, cycle in enumerate(itertools.cycle(plan.cycles)):
        if len(records) >= min_ops and total + total / done / 2 >= seconds:
            return records, probes
        for op in cycle:
            gc.collect()
            probes.append(hostspeed.probe())
            records.append(timed(cli, op, golden))
            total += records[-1][1]


def time_metrics(times, setup_s):
    return {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_ms.p50": (statistics.median(times) * 1000, "ms"),
        "op_ms.p90": (statistics.quantiles(times, n=10)[8] * 1000, "ms"),
        "setup_s": (setup_s, "s"),
    }


def end_to_end(records, probes, setup_s, setup_probe_s):
    """The end-to-end metrics, times scaled to the reference host speed
    (see hostspeed.py), and the same time metrics unscaled."""
    raw = [r[1] for r in records]
    failed = sum(r[2] is not None for r in records)
    metrics = time_metrics(hostspeed.scaled(raw, probes),
                           setup_s * hostspeed.REF_PROBE_S / setup_probe_s)
    metrics["ok_ratio"] = ((len(raw) - failed) / len(raw), "ratio")
    metrics["rss_peak_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    unscaled = time_metrics(raw, setup_s)
    unscaled["probe_ms.p50"] = (statistics.median(probes) * 1000, "ms")
    return metrics, unscaled


def _git_state():
    if not (ROOT / ".git").exists():
        return "unknown", None
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30, check=True).stdout.strip()
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain", "--", "src"],
                                capture_output=True, text=True, timeout=30, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return "unknown", None
    return rev, bool(status.strip())


def stamp(workload, seed, seconds, trace):
    """What the numbers depend on besides the code under test."""
    rev, dirty = _git_state()
    sources = hashlib.sha256()
    for path in sorted((SRC / "pandora").glob("*.py")):
        sources.update(path.read_bytes())
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": importlib.metadata.version("numpy"),
        "mpmath": importlib.metadata.version("mpmath"),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "git_rev": rev, "git_dirty": dirty,
        "src_sha256": sources.hexdigest()[:16],
    }


def traced_run(cli, plan, golden, seconds, spans_file):
    """Half the time untraced, then the same ops under the tracer.
    Returns the records of both passes and the per-layer metrics."""
    untraced, _ = loop(cli, plan, golden, seconds / 2, min_ops=1)
    tracer = Tracer()
    tracer.install()
    try:
        traced = []
        for op, _, _ in untraced:
            gc.collect()
            traced.append(timed(cli, op, golden, tracer.op))
    finally:
        tracer.uninstall()
    tracer.write(spans_file)
    overhead = sum(r[1] for r in traced) / sum(r[1] for r in untraced)
    metrics = layer_metrics(tracer.spans, tracer.distinct_sets, overhead)
    return untraced + traced, metrics, tracer.missing


def run(name, seed, seconds, trace, *, tiny=False):
    """One run of one workload; returns the result object plus details."""
    if "PANDORA_MAX_N" in os.environ:
        raise SetupError("PANDORA_MAX_N rewrites every enumeration cap and so the work; unset it")
    cli = import_cli()
    imported = perf_counter()
    inputs = OUT / f"inputs-{name}-{seed}-{os.getpid()}"
    spans_file = OUT / f"spans-{name}-seed{seed}.jsonl" if trace else None
    missing, unscaled, probes = [], {}, []
    try:
        plan, setup_median, setup_probe_s, warm_failures = set_up(
            cli, WORKLOADS[name], seed, inputs, tiny)
        golden = checks.load_golden(name) if seed == DEFAULT_SEED and not tiny else None
        if trace:
            records, metrics, missing = traced_run(cli, plan, golden, seconds, spans_file)
        else:
            records, probes = loop(cli, plan, golden, seconds)
            metrics, unscaled = end_to_end(records, probes, imported - STARTED + setup_median,
                                           setup_probe_s)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    failures = [(r[0].key, r[2]) for r in records if r[2] is not None]
    return {
        "correct": not failures and not warm_failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "unscaled": {k: {"value": v, "unit": u} for k, (v, u) in unscaled.items()},
        "failures": warm_failures + failures,
        "op_seconds": [(r[0].key, r[1]) for r in records],
        "op_probe_s": probes,
        "missing": missing,
        "spans_file": spans_file and str(spans_file.relative_to(ROOT)),
        "stamp": stamp(name, seed, seconds, trace),
    }


def report(result):
    """Print the details, then the result object as the last line."""
    print(json.dumps({"stamp": result["stamp"]}))
    print(f"samples: {result['attempted']} ops")
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    for name, m in result["unscaled"].items():
        print(f"{'unscaled ' + name:40s} {m['value']:>16.6g} {m['unit']}")
    for key, why in result["failures"][:20]:
        print(f"FAILED {key}: {why}", file=sys.stderr)
    for name in result["missing"]:
        print(f"missing from the package: {name}", file=sys.stderr)
    if result["spans_file"]:
        print(f"spans written to {result['spans_file']}")
    OUT.mkdir(exist_ok=True)
    s = result["stamp"]
    (OUT / f"result-{s['workload']}-seed{s['seed']}-trace{s['trace']}.json").write_text(
        json.dumps(result, indent=1))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


def run_all(args):
    """Every workload in a fresh interpreter, one after another."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            raise SetupError(f"{name} exited with {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, result in results.items():
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:38s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(results))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        if args.workload == "all":
            run_all(args)
        else:
            report(run(args.workload, args.seed, args.seconds, args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
