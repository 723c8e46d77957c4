"""Answer checks behind `ok_ratio`.  They run outside the timed region.

`check(op, code, payload)` returns None when the op's answer is right and a
one-line reason otherwise.  Utilities are re-derived with the package's own
evaluators on the reloaded instance and compared exactly; validator
witnesses are recomputed from `cost.eval`; the suites and the hardness lab
must report their own checks as passed.  On the default seed the answer
fields must also match the digests recorded in `golden.json`.
"""
from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden.json"

# fields that a faster program may legitimately change
VOLATILE = ("wall_time_ms", "query_count")


def answer_digest(payload: dict) -> str:
    """Digest of the answer fields: volatile fields dropped, floats to 12
    significant digits so that last-bit differences between libm builds do
    not count as wrong answers."""
    def canon(v):
        if isinstance(v, float):
            return format(v, ".12g")
        if isinstance(v, dict):
            return {k: canon(x) for k, x in v.items()}
        if isinstance(v, list):
            return [canon(x) for x in v]
        return v

    kept = {k: canon(v) for k, v in payload.items() if k not in VOLATILE}
    text = json.dumps(kept, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_golden(workload: str) -> dict:
    if not GOLDEN.exists():
        return {}
    return json.loads(GOLDEN.read_text()).get(workload, {})


def check(op, code, payload, golden: dict | None = None) -> str | None:
    """None if the op succeeded, else why it failed."""
    if code not in op.expect:
        return f"exit code {code}, expected {sorted(op.expect)}"
    if not isinstance(payload, dict) or "error" in payload:
        return f"no answer: {payload!r:.200}"
    kind = op.kind.split(".", 1)[0]
    reason = CHECKS[kind](op, code, payload)
    if reason is None and golden is not None:
        want = golden.get(op.key)
        if want is None:
            reason = "no recorded answer for this op"
        elif answer_digest(payload) != want:
            reason = "answer differs from the recorded one"
    return reason


def _instance(op):
    """The op's input, reloaded without re-validating its declared class."""
    from pandora.instances import Instance
    from pandora.serialize import instance_from_json

    data = json.loads(Path(op.meta["path"]).read_text())
    bare = instance_from_json({**data, "cost_class": None})
    return Instance(bare.boxes, bare.cost, data["cost_class"])


def _eval_witness(instance, strategy_json):
    from pandora.serialize import strategy_from_json
    from pandora.strategies import (FixedOrderThresholds, ImpulsiveStrategy,
                                    eval_fixed_order, eval_impulsive, eval_policy)

    strategy = strategy_from_json(strategy_json)
    if isinstance(strategy, FixedOrderThresholds):
        return eval_fixed_order(instance, strategy)
    if isinstance(strategy, ImpulsiveStrategy):
        return eval_impulsive(instance, strategy)
    return eval_policy(instance, strategy)


def _check_solve(op, code, p):
    from pandora.serialize import digest_instance

    instance = _instance(op)
    if p.get("solver") != op.meta["cls"]:
        return f"solver {p.get('solver')!r} echoed for {op.meta['cls']!r}"
    if p["instance_digest"] != digest_instance(instance):
        return "instance digest differs from the input's"
    got = _eval_witness(instance, p["strategy"])
    if got != Fraction(p["utility"]):
        return f"witness evaluates to {got}, reported utility {p['utility']}"
    return None


def _check_gap(op, code, p):
    instance = _instance(op)
    opt = {k: Fraction(p[f"opt_{k}"]) for k in ("adaptive", "fixed_order", "impulsive")}
    if not opt["adaptive"] >= opt["fixed_order"] >= opt["impulsive"] >= 0:
        return f"chain adaptive >= fixed >= impulsive broken: {opt}"
    for k, want in opt.items():
        got = _eval_witness(instance, p["witnesses"][k])
        if got != want:
            return f"{k} witness evaluates to {got}, reported {want}"
    strict = {"adaptive_vs_fixed": opt["adaptive"] > opt["fixed_order"],
              "fixed_vs_impulsive": opt["fixed_order"] > opt["impulsive"],
              "adaptive_vs_impulsive": opt["adaptive"] > opt["impulsive"]}
    if p["strict_gap"] != strict:
        return f"strict_gap {p['strict_gap']} does not match the optima"
    return None


def _marginal(cost, x, A):
    A = frozenset(A)
    return cost.eval(A | {x}) - cost.eval(A)


def _witness_holds(cost, w) -> bool:
    """Recompute a failing validator's witness from cost.eval."""
    if "triple" in w:     # gross substitutes: unique maximum in a triple
        S = frozenset(w["S"])
        i, j, k = w["triple"]
        base = 2 * cost.eval(S)
        exprs = [cost.eval(S | {i, j}) + cost.eval(S | {k}) - base,
                 cost.eval(S | {i}) + cost.eval(S | {j, k}) - base,
                 cost.eval(S | {j}) + cost.eval(S | {i, k}) - base]
        return ([str(e) for e in exprs] == w["values"]
                and exprs.count(max(exprs)) == 1)
    if "x" in w and "B" in w:   # submodularity: the marginal of x grows
        a, b = _marginal(cost, w["x"], w["A"]), _marginal(cost, w["x"], w["B"])
        return (set(w["A"]) < set(w["B"]) and w["x"] not in w["B"]
                and str(a) == w["c_x_given_A"] and str(b) == w["c_x_given_B"] and b > a)
    if "c_AB" in w:   # subadditivity: c(A u B) > c(A) + c(B), A and B disjoint
        A, B = frozenset(w["A"]), frozenset(w["B"])
        ab, a, b = cost.eval(A | B), cost.eval(A), cost.eval(B)
        return (not A & B and [str(ab), str(a), str(b)] == [w["c_AB"], w["c_A"], w["c_B"]]
                and ab > a + b)
    return False


def _check_validate(op, code, p):
    if p.get("class") != op.meta["cls"]:
        return f"class {p.get('class')!r} echoed for {op.meta['cls']!r}"
    if p["passed"] != (code == 0):
        return f"verdict {p['passed']} with exit code {code}"
    if not p["passed"] and not _witness_holds(_instance(op).cost, p["witness"]):
        return f"witness does not recompute: {p['witness']}"
    return None


def _check_transform(op, code, p):
    from pandora.serialize import digest_instance, instance_from_json

    out = instance_from_json(p["instance"])
    if p["instance_digest"] != digest_instance(out):
        return "output digest differs from the output instance"
    if p["instance_digest_in"] != digest_instance(_instance(op)):
        return "input digest differs from the input's"
    if not out.is_bernoulli():
        return "bernoullify produced a non-Bernoulli instance"
    if p["params"]["epsilon"] != "1/4":
        return f"epsilon {p['params']['epsilon']} echoed for 1/4"
    return None


def _check_verify(op, code, p):
    echo = {k: p.get(k) for k in ("theorem", "trials", "seed")}
    want = {k: op.meta[k] for k in ("theorem", "trials", "seed")}
    if echo != want:
        return f"suite echoed {echo} for {want}"
    if p["passed"] is not True or p["failures"]:
        return f"suite failed: {p['failures'][:1]}"
    return None


def _check_corpus(op, code, p):
    if p["passed"] is not True or not all(r["passed"] for r in p["results"]):
        return "corpus check failed"
    return None


def _check_hardness(op, code, p):
    if p["mode"] == "verify":
        if p["verdict"] != "pass" or p["n"] != op.meta["n"]:
            return f"family verdict {p['verdict']!r} on n = {p['n']}"
        return None
    echo = {k: p[k] for k in ("n", "budget", "trials")}
    if echo != {k: op.meta[k] for k in echo}:
        return f"experiment echoed {echo}"
    if p["query_count_ok"] is not True:
        return "query counts disagree with the budget"
    if not p["fixed_set_stats"] or not all(s["within"] for s in p["fixed_set_stats"]):
        return "empirical tail outside three standard errors"
    return None


CHECKS = {
    "solve": _check_solve,
    "gap": _check_gap,
    "validate": _check_validate,
    "transform": _check_transform,
    "verify": _check_verify,
    "corpus": _check_corpus,
    "distinguish": _check_hardness,
    "verify_family": _check_hardness,
}
