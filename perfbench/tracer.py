"""Per-layer tracing installed from outside the package.

The layers are the package's modules.  `Tracer.install()` replaces every
public function of a layer module, wherever a module of the package binds
it, with a wrapper that records a span; callers look these names up at call
time, so `optimal_adaptive` as seen from `pandora.cli` and from
`pandora.corpus` are both traced.  Cost oracles are traced on the class:
each outermost `__init__` is a span (an oracle build), and each outermost
`CostOracle.eval` is timed and counted into the enclosing span rather than
recorded as a span of its own, so forwarding oracles are not counted twice.

All spans of one op share a trace id; each span's parent is the span that
called it.  Spans stay in memory and are written out at the end of a run.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import json
import math
import sys
from collections import defaultdict
from time import perf_counter

from workloads import THEOREMS

LAYERS = ("cli", "serialize", "instances", "costs", "classes", "solvers",
          "strategies", "transforms", "hardness", "corpus")
VALIDATOR_CLASSES = ("monotone_normalized", "submodular", "subadditive",
                     "matroid_rank", "gross_substitutes")

# named inclusive timings: metric -> (layer, function names).  A span counts
# only when no enclosing span belongs to the same group.
TIMED = {
    "serialize.load_ms": ("serialize", ("load_instance", "loads_instance")),
    "serialize.digest_ms": ("serialize", ("digest_instance",)),
    "serialize.dump_ms": ("serialize", ("instance_to_json", "strategy_to_json",
                                        "dumps_instance", "cost_to_json")),
    "instances.generate_ms": ("instances", ("random_instance",)),
    "solvers.adaptive_ms": ("solvers", ("optimal_adaptive",)),
    "solvers.fixed_order_ms": ("solvers", ("optimal_fixed_order",)),
    "solvers.impulsive_ms": ("solvers", ("optimal_impulsive",)),
    "solvers.gap_ms": ("solvers", ("adaptivity_gap",)),
    "strategies.eval_ms": ("strategies", ("eval_policy", "eval_fixed_order", "eval_impulsive")),
    "strategies.marginal_utility_ms": ("strategies", ("marginal_utility",)),
    "transforms.bernoullify_ms": ("transforms", ("bernoullify",)),
    "transforms.discretize_ms": ("transforms", ("discretize",)),
    "transforms.check_preservation_ms": ("transforms", ("check_preservation",)),
    "hardness.params_ms": ("hardness", ("hardness_params",)),
    "hardness.tail_ms": ("hardness", ("hypergeometric_tail",)),
    "hardness.verify_family_ms": ("hardness", ("verify_family",)),
}

# names the metrics depend on, as seen by their callers; a refactor that
# removes one is reported as missing
EXPECTED = (
    ("cli", "optimal_adaptive"), ("cli", "validate_class"), ("cli", "load_instance"),
    ("corpus", "optimal_adaptive"), ("corpus", "run_theorem_suite"),
    ("corpus", "random_instance"), ("hardness", "HardnessCost"),
    ("hardness", "QueryCountingOracle"), ("hardness", "hypergeometric_tail"),
    ("hardness", "distinguish_experiment"), ("costs", "CostOracle"),
) + tuple((layer, name) for layer, names in TIMED.values() for name in names)


def _n_of(instance):
    return {"n": instance.n}


def _adaptive_attrs(instance):
    # the DP's running max ranges over the support values and 0
    grid = {0}
    for box in instance.boxes:
        grid.update(box.support)
    return {"n": instance.n, "grid": len(grid)}


# span attributes that computed counts need, by function name
ATTRS = {
    "validate_class": lambda oracle, cls: {"cls": cls, "n": oracle.arity},
    "optimal_adaptive": _adaptive_attrs,
    "optimal_fixed_order": lambda instance, jobs=1: _n_of(instance),
    "optimal_impulsive": _n_of,
    "run_theorem_suite": lambda theorem, trials, seed: {"theorem": theorem, "trials": trials},
    "distinguish_experiment": lambda n, algorithm=None, budget=100, trials=1000, seed=0, **kw:
        {"trials": trials, "budget": budget},
}


class Tracer:
    """Collects spans and eval counters for the ops run while installed.

    A span is the tuple (trace, id, parent, layer, name, start, end, eval_s,
    eval_n, attrs): eval_s and eval_n are the time and number of outermost
    oracle evaluations made directly inside it.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self.distinct_sets = 0
        self._stack: list[list] = []
        self._trace = 0
        self._ids = 0
        self._in_eval = False
        self._in_build = False
        self._builds = itertools.count()
        self._serial: dict[int, int] = {}
        self._seen: set = set()
        self._restore: list[tuple] = []

    # -- spans -----------------------------------------------------------

    def _open(self, layer, name, attrs):
        self._ids += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([self._ids, parent, layer, name, attrs, 0.0, 0, perf_counter()])

    def _close(self):
        end = perf_counter()
        sid, parent, layer, name, attrs, eval_s, eval_n, start = self._stack.pop()
        self.spans.append((self._trace, sid, parent, layer, name, start, end,
                           eval_s, eval_n, attrs))

    def op(self, fn, *args):
        """Run one op as the root span "cli.main" of a fresh trace."""
        self._trace += 1
        self._seen.clear()
        self._open("cli", "main", None)
        try:
            return fn(*args)
        finally:
            self._close()
            self.distinct_sets += len(self._seen)

    # -- wrappers --------------------------------------------------------

    def _wrap_function(self, fn, layer, name):
        tracer = self
        attrs_of = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._in_eval or not tracer._stack:
                return fn(*args, **kwargs)
            attrs = None
            if attrs_of is not None:
                try:
                    attrs = attrs_of(*args, **kwargs)
                except (TypeError, AttributeError):   # the signature changed
                    note = f"attributes of pandora.{layer}.{name}"
                    if note not in tracer.missing:
                        tracer.missing.append(note)
            tracer._open(layer, name, attrs)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close()
        return traced

    def _wrap_init(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced_init(oracle, *args, **kwargs):
            if not tracer._stack:
                return fn(oracle, *args, **kwargs)
            # a new serial per object, so distinct-set counts survive id reuse
            tracer._serial[id(oracle)] = next(tracer._builds)
            if tracer._in_eval or tracer._in_build:
                return fn(oracle, *args, **kwargs)
            tracer._in_build = True
            tracer._open("costs", name, None)
            try:
                return fn(oracle, *args, **kwargs)
            finally:
                tracer._close()
                tracer._in_build = False
        return traced_init

    def _wrap_eval(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced_eval(oracle, boxes):
            if tracer._in_eval or not tracer._stack:
                return fn(oracle, boxes)
            tracer._in_eval = True
            start = perf_counter()
            try:
                if not isinstance(boxes, frozenset):
                    boxes = frozenset(boxes)
                return fn(oracle, boxes)
            finally:
                elapsed = perf_counter() - start
                tracer._in_eval = False
                frame = tracer._stack[-1]
                frame[5] += elapsed
                frame[6] += 1
                tracer._seen.add((tracer._serial.get(id(oracle), id(oracle)), hash(boxes)))
        return traced_eval

    # -- installation ----------------------------------------------------

    def _patch(self, owner, name, value):
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self):
        """Wrap the package's public functions and its cost oracles."""
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "pandora" or name.startswith("pandora."))}
        wrappers = {}
        for layer in LAYERS[1:]:
            mod = modules.get(f"pandora.{layer}")
            if mod is None:
                self.missing.append(f"pandora.{layer}")
                continue
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap_function(obj, layer, name)
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, name, wrappers[obj])

        costs = modules.get("pandora.costs")
        base = getattr(costs, "CostOracle", None)
        classes = [base] if base is not None else []
        for cls in classes:
            classes.extend(cls.__subclasses__())
        for cls in dict.fromkeys(classes):
            if "__init__" in cls.__dict__:
                self._patch(cls, "__init__", self._wrap_init(cls.__dict__["__init__"],
                                                             f"{cls.__name__}.__init__"))
            if "eval" in cls.__dict__:
                self._patch(cls, "eval", self._wrap_eval(cls.__dict__["eval"]))

        for layer, name in EXPECTED:
            if not hasattr(modules.get(f"pandora.{layer}"), name):
                self.missing.append(f"pandora.{layer}.{name}")

    def uninstall(self):
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    def write(self, path):
        """Write the spans, one JSON array per line, oldest first."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["trace", "id", "parent", "layer", "name", "start",
                                            "end", "eval_s", "eval_n", "attrs"],
                                 "missing": self.missing}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# metrics from spans
# ---------------------------------------------------------------------------

def self_times(spans) -> dict[str, float]:
    """Self seconds per layer: each span's duration minus its children's
    durations and the oracle evaluations made directly inside it; the
    evaluations themselves are self time of the costs layer."""
    child = defaultdict(float)
    for span in spans:
        if span[2] is not None:
            child[(span[0], span[2])] += span[6] - span[5]
    out = dict.fromkeys(LAYERS, 0.0)
    for trace, sid, parent, layer, name, start, end, eval_s, eval_n, attrs in spans:
        out[layer] += (end - start) - child[(trace, sid)] - eval_s
        out["costs"] += eval_s
    return out


def _outermost(spans, by_id, layer, names):
    """Spans of `layer` named in `names` with no enclosing span that is too."""
    out = []
    for s in spans:
        if s[3] != layer or s[4] not in names:
            continue
        parent = s[2]
        while parent is not None:
            p = by_id[(s[0], parent)]
            if p[3] == layer and p[4] in names:
                break
            parent = p[2]
        else:
            out.append(s)
    return out


def layer_metrics(spans, distinct_sets: int, overhead_ratio: float) -> dict[str, tuple]:
    """Every per-layer metric as name -> (value, unit), normalised per op."""
    by_id = {(s[0], s[1]): s for s in spans}
    roots = [s for s in spans if s[2] is None]
    ops = max(len(roots), 1)
    op_s = sum(s[6] - s[5] for s in roots) or 1.0
    m = {}
    selfs = self_times(spans)
    calls = defaultdict(int)
    for s in spans:
        calls[s[3]] += 1
    queries = sum(s[8] for s in spans)
    calls["costs"] += queries
    for layer in LAYERS:
        m[f"{layer}.calls"] = (calls[layer] / ops, "1/op")
        m[f"{layer}.self_ms"] = (selfs[layer] * 1000 / ops, "ms/op")
        m[f"{layer}.share"] = (selfs[layer] / op_s, "ratio")

    def dur(sel):
        return sum(s[6] - s[5] for s in sel)

    for metric, (layer, names) in TIMED.items():
        m[metric] = (dur(_outermost(spans, by_id, layer, set(names))) * 1000 / ops, "ms/op")

    builds = [s for s in spans if s[3] == "costs" and s[4].endswith(".__init__")]
    m["costs.queries"] = (queries / ops, "1/op")
    m["costs.distinct_sets"] = (distinct_sets / ops, "1/op")
    m["costs.repeat_ratio"] = (1 - distinct_sets / queries if queries else 0.0, "ratio")
    m["costs.eval_ms"] = (sum(s[7] for s in spans) * 1000 / ops, "ms/op")
    m["costs.oracles_built"] = (len(builds) / ops, "1/op")
    m["costs.build_ms"] = (dur(builds) * 1000 / ops, "ms/op")

    validations = _outermost(spans, by_id, "classes", {"validate_class"})
    for cls in VALIDATOR_CLASSES:
        sel = [s for s in validations if s[9] and s[9]["cls"] == cls]
        m[f"classes.{cls}_ms"] = (dur(sel) * 1000 / ops, "ms/op")
    tabulated = sum(2 ** s[9]["n"] for s in validations if s[9])
    m["classes.tabulated_subsets"] = (tabulated / ops, "1/op")

    def per_s(count, sel):
        seconds = dur(sel)
        return count / seconds if seconds else 0.0

    adaptive = [s for s in _outermost(spans, by_id, "solvers", {"optimal_adaptive"}) if s[9]]
    states = sum(2 ** s[9]["n"] * s[9]["grid"] for s in adaptive)
    m["solvers.adaptive_states_bound"] = (states / ops, "1/op")
    m["solvers.adaptive_states_per_s"] = (per_s(states, adaptive), "1/s")
    fixed = [s for s in _outermost(spans, by_id, "solvers", {"optimal_fixed_order"}) if s[9]]
    perms = sum(math.factorial(s[9]["n"]) for s in fixed)
    m["solvers.permutations"] = (perms / ops, "1/op")
    m["solvers.permutations_per_s"] = (per_s(perms, fixed), "1/s")
    impulsive = [s for s in _outermost(spans, by_id, "solvers", {"optimal_impulsive"}) if s[9]]
    ordered = sum(math.perm(s[9]["n"], k) for s in impulsive for k in range(1, s[9]["n"] + 1))
    m["solvers.ordered_subsets"] = (ordered / ops, "1/op")

    experiments = [s for s in _outermost(spans, by_id, "hardness", {"distinguish_experiment"})
                   if s[9]]
    trials = sum(s[9]["trials"] for s in experiments)
    m["hardness.trials_per_s"] = (per_s(trials, experiments), "1/s")
    m["hardness.queries_per_s"] = (per_s(sum(s[8] for s in experiments), experiments), "1/s")

    suites = [s for s in _outermost(spans, by_id, "corpus", {"run_theorem_suite"}) if s[9]]
    for th in THEOREMS:
        sel = [s for s in suites if s[9]["theorem"] == th]
        trials = sum(s[9]["trials"] for s in sel)
        m[f"corpus.{th}.trial_ms"] = (dur(sel) * 1000 / trials if trials else 0.0, "ms/trial")
    m["corpus.trials_per_s"] = (per_s(sum(s[9]["trials"] for s in suites), suites), "1/s")
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return m
