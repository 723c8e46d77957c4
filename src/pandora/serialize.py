"""JSON round-tripping for instances, costs, strategies, and policy trees.

This module holds both directions of the cost format: `cost_to_json` and
`cost_from_json` take the kinds in the same order and write and read the
same keys.  Numbers travel as exact "p/q" strings (never floats), so a
round trip is bit-for-bit.  The loader normalizes: boxes that are constantly
zero are dropped with a warning (the cost is restricted accordingly), and a
declared cost class that the validators can check is re-checked on load -- a
file claiming submodularity for a non-submodular table is rejected, not
trusted.
"""
from __future__ import annotations

import hashlib
import json
import warnings
from fractions import Fraction
from typing import IO

from .classes import VALIDATORS, guard_kind, validate_class
from .costs import (
    AdditiveCost,
    BudgetAdditiveCost,
    CostOracle,
    CoverageCost,
    ExplicitCost,
    HardnessCost,
    ProjectionCost,
    TreeClosureCost,
    XosCost,
    _labels_of,
    _masks_by_size,
)
from .errors import ParseError
from .instances import FiniteDistribution, Instance
from .limits import bound, guard
from .rationals import fmt, parse_extended, rat
from .strategies import (
    FixedOrderThresholds,
    ImpulsiveStrategy,
    PolicyTree,
)

FORMAT = "pandora-instance"
VERSION = 1

# A hardness cost builds its ground 1..n.  Nested in a projection (a restricted
# or lifted instance) it has more labels than boxes, so this bounds its n.
MAX_NESTED_HARDNESS_N = 1 << 16
# Projections nested deeper than this are refused before any cost is built:
# the reader recurses once per level.  A built projection of a projection is
# composed into one, so nothing this package writes nests.
MAX_NESTING = 64


# ---------------------------------------------------------------------------
# costs
# ---------------------------------------------------------------------------

def _by_label(values: dict, ground: tuple[int, ...]) -> dict:
    return {str(b): str(values[b]) for b in ground}


def cost_to_json(oracle: CostOracle) -> dict:
    """JSON-ready description ({"kind": ..., ...}) of a cost of one of the
    eight kinds; any other oracle raises NotImplementedError."""
    if isinstance(oracle, ExplicitCost):
        # the table built at construction: no size guard, unlike `table()`
        table = oracle._table
        return {"kind": "explicit",
                "table": {",".join(map(str, _labels_of(mask, oracle.ground))): str(table[mask])
                          for mask in _masks_by_size(oracle.arity)}}
    if isinstance(oracle, AdditiveCost):
        return {"kind": "additive", "per_box": _by_label(oracle.per_box, oracle.ground)}
    if isinstance(oracle, BudgetAdditiveCost):
        return {"kind": "budget_additive", "per_box": _by_label(oracle.per_box, oracle.ground),
                "budget": str(oracle.budget)}
    if isinstance(oracle, CoverageCost):
        return {"kind": "coverage", "ground": list(oracle.ground),
                "elements": [[str(w), sorted(g)] for w, g in oracle.elements]}
    if isinstance(oracle, XosCost):
        return {"kind": "xos", "ground": list(oracle.ground),
                "clauses": [{str(b): str(w) for b, w in sorted(c.items())} for c in oracle.clauses]}
    if isinstance(oracle, TreeClosureCost):
        return {"kind": "tree", "parent": {str(b): oracle.parent[b] for b in oracle.ground},
                "node_costs": _by_label(oracle.node_costs, oracle.ground)}
    if isinstance(oracle, HardnessCost):
        out = {"kind": "hardness", "n": oracle.n, "alpha": oracle.alpha}
        if oracle.beta is not None:
            out["beta"] = oracle.beta
        if oracle.R is not None:
            out["R"] = sorted(oracle.R)
        return out
    if isinstance(oracle, ProjectionCost):
        return {"kind": "projection", "ground": list(oracle.ground),
                "label_map": {str(b): oracle.label_map[b] for b in oracle.ground},
                "inner": cost_to_json(oracle.inner)}
    raise NotImplementedError(f"{type(oracle).__name__} has no serial form")


def _require(data: dict, key: str, context: str):
    if key not in data:
        raise ParseError(f"{context}: missing field {key!r}")
    return data[key]


def cost_from_json(data: dict, *, boxes: int | None = None) -> CostOracle:
    """`boxes` is the box count when `data` is an instance's top-level cost."""
    if not isinstance(data, dict):
        raise ParseError(f"cost must be an object, got {type(data).__name__}")
    kind = _require(data, "kind", "cost")
    try:
        if kind == "explicit":
            table = {}
            for key, value in _require(data, "table", "explicit cost").items():
                labels = tuple(int(part) for part in key.split(",") if part)
                table[labels] = value
            ground = sorted({b for key in table for b in key})
            return ExplicitCost(table, ground=ground)
        if kind == "additive":
            return AdditiveCost({int(b): c for b, c in _require(data, "per_box", kind).items()})
        if kind == "budget_additive":
            per_box = {int(b): c for b, c in _require(data, "per_box", kind).items()}
            return BudgetAdditiveCost(per_box, _require(data, "budget", kind))
        if kind == "coverage":
            elements = [(w, [int(b) for b in group])
                        for w, group in _require(data, "elements", kind)]
            return CoverageCost([int(b) for b in _require(data, "ground", kind)], elements)
        if kind == "xos":
            clauses = [{int(b): w for b, w in clause.items()}
                       for clause in _require(data, "clauses", kind)]
            return XosCost([int(b) for b in _require(data, "ground", kind)], clauses)
        if kind == "tree":
            parent = {int(b): int(p) for b, p in _require(data, "parent", kind).items()}
            node_costs = {int(b): c for b, c in _require(data, "node_costs", kind).items()}
            return TreeClosureCost(parent, node_costs)
        if kind == "hardness":
            n = _require(data, "n", kind)
            if boxes is not None and n != boxes:
                raise ParseError(f"hardness cost declares n = {n!r:.40} "
                                 f"but the instance has {boxes} boxes")
            if boxes is None and int(n) > MAX_NESTED_HARDNESS_N:
                raise ParseError(f"hardness cost declares n = {n!r:.40} above the "
                                 f"limit {MAX_NESTED_HARDNESS_N} for a nested cost")
            return HardnessCost(
                int(n),
                int(_require(data, "alpha", kind)),
                beta=int(data["beta"]) if "beta" in data else None,
                R=[int(b) for b in data["R"]] if "R" in data else None,
            )
        if kind == "projection":
            inner, depth = data, 0
            while isinstance(inner, dict) and inner.get("kind") == "projection":
                inner, depth = inner.get("inner"), depth + 1
                if depth > MAX_NESTING:
                    raise ParseError(f"projection costs nested deeper than {MAX_NESTING}")
            return ProjectionCost(
                [int(b) for b in _require(data, "ground", kind)],
                {int(b): int(i) for b, i in _require(data, "label_map", kind).items()},
                cost_from_json(_require(data, "inner", kind)),
            )
    except ParseError:
        raise
    except (ValueError, TypeError, AttributeError, OverflowError) as exc:
        raise ParseError(f"malformed {kind} cost: {exc}") from exc
    raise ParseError(f"unknown cost kind {kind!r}")


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------

def instance_to_json(instance: Instance) -> dict:
    return {
        "format": FORMAT,
        "version": VERSION,
        "boxes": [
            {"label": label, "atoms": [[str(v), str(p)] for v, p in box.atoms]}
            for label, box in zip(instance.labels, instance.boxes)
        ],
        "cost": cost_to_json(instance.cost),
        "cost_class": instance.cost_class,
    }


def _preview(labels: list) -> str:
    """A label list cut to its two ends, for messages."""
    return str(labels) if len(labels) <= 16 else f"{labels[:8]}...{labels[-8:]} ({len(labels)} labels)"


def _box_label(item) -> int:
    if not isinstance(item, dict):
        raise ParseError(f"box must be an object, got {type(item).__name__}")
    label = _require(item, "label", "box")
    if not isinstance(label, int) or isinstance(label, bool):
        raise ParseError(f"box label must be an integer, got {label!r:.40}")
    return label


def instance_from_json(data: dict, *, guards: tuple[str, ...] = ()) -> Instance:
    """`guards` are the `limits.guard` kinds the caller applies to the box
    count.  Once more boxes than the least of their bounds are built, not
    counting constant-zero ones (dropped below), the rest are only checked
    for their labels and the guards run, in order, on the file's box count
    less the constant-zero boxes seen.  The cost is built only after the
    guards pass."""
    if not isinstance(data, dict):
        raise ParseError(f"instance must be an object, got {type(data).__name__}")
    if data.get("format", FORMAT) != FORMAT:
        raise ParseError(f"not a {FORMAT} document: format = {data.get('format')!r}")
    cost_data = _require(data, "cost", "instance")
    items = _require(data, "boxes", "instance")
    if not isinstance(items, list):
        raise ParseError(f"instance: boxes must be a list, got {type(items).__name__}")
    cap = min(map(bound, guards), default=len(items))
    entries, zeros = [], 0
    for item in items:
        label = _box_label(item)
        try:
            box = FiniteDistribution([(rat(v), rat(p))
                                      for v, p in _require(item, "atoms", "box")])
        except (ValueError, TypeError) as exc:
            raise ParseError(f"box {label}: {exc}") from exc
        entries.append((label, box))
        zeros += box.is_constant_zero()
        if len(entries) - zeros > cap:
            break
    labels = sorted([label for label, _ in entries]
                    + [_box_label(item) for item in items[len(entries):]])
    if len(entries) - zeros > cap:
        for kind in guards:
            guard(kind, len(items) - zeros)
    cost = cost_from_json(cost_data, boxes=len(items))
    if labels != list(cost.ground):
        raise ParseError(f"box labels {_preview(labels)} do not match "
                         f"cost ground {_preview(list(cost.ground))}")

    entries.sort(key=lambda pair: pair[0])
    kept = [(label, box) for label, box in entries if not box.is_constant_zero()]
    if len(kept) < len(entries):
        dropped = sorted(set(labels) - {label for label, _ in kept})
        warnings.warn(f"dropping constant-zero boxes {dropped}", stacklevel=2)
        survivors = [label for label, _ in kept]
        cost = ProjectionCost(survivors, {b: b for b in survivors}, cost)

    cls = data.get("cost_class")
    if cls is not None and not isinstance(cls, str):
        raise ParseError(f"cost_class must be a string, got {type(cls).__name__}")
    if cls in VALIDATORS:
        limit = bound(guard_kind(cls))
        if cost.arity <= limit:
            report = validate_class(cost, cls)
            if not report.passed:
                raise ParseError(
                    f"declared cost class {cls!r} fails validation: {report.witness}"
                )
        else:
            warnings.warn(
                f"declared class {cls!r} left unchecked (arity {cost.arity} "
                f"exceeds the validator bound {limit})",
                stacklevel=2,
            )
    return Instance([box for _, box in kept], cost, cost_class=cls)


def dumps_instance(instance: Instance, *, indent: int | None = 2) -> str:
    return json.dumps(instance_to_json(instance), indent=indent)


def loads_instance(text: str, *, guards: tuple[str, ...] = ()) -> Instance:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno,
                         column=exc.colno) from exc
    except ValueError as exc:       # an integer literal past the digit limit
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    return instance_from_json(data, guards=guards)


def save_instance(instance: Instance, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_instance(instance))
        fh.write("\n")


def load_instance(source, *, guards: tuple[str, ...] = ()) -> Instance:
    """Load from a path or an open text file; undecodable bytes are a ParseError."""
    try:
        if hasattr(source, "read"):
            text = source.read()
        else:
            with open(source) as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"invalid {exc.encoding} text: {exc.reason} at byte {exc.start}") from exc
    return loads_instance(text, guards=guards)


def digest_instance(instance: Instance) -> str:
    canonical = json.dumps(instance_to_json(instance), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

def strategy_to_json(strategy) -> dict:
    if isinstance(strategy, ImpulsiveStrategy):
        if len(strategy.opened) == len(strategy.order):
            return {"kind": "impulsive", "order": list(strategy.order)}
        return {
            "kind": "impulsive_with_dummies",
            "order": list(strategy.order),
            "opened": sorted(strategy.opened),
        }
    if isinstance(strategy, FixedOrderThresholds):
        return {
            "kind": "fixed_order",
            "sigma": list(strategy.sigma),
            "thresholds": [fmt(t) for t in strategy.thresholds],
        }
    if isinstance(strategy, PolicyTree):
        return {"kind": "policy_tree", "root": _tree_to_json(strategy)}
    raise ParseError(f"not a serializable strategy: {type(strategy).__name__}")


def _tree_to_json(node: PolicyTree) -> dict:
    if node.is_halt:
        return {"halt": True}
    return {
        "open": node.box,
        "children": [[str(v), _tree_to_json(sub)] for v, sub in node.children],
    }


def strategy_from_json(data: dict):
    if not isinstance(data, dict):
        raise ParseError(f"strategy must be an object, got {type(data).__name__}")
    kind = _require(data, "kind", "strategy")
    try:
        if kind == "impulsive":
            return ImpulsiveStrategy(tuple(int(b) for b in _require(data, "order", kind)))
        if kind == "impulsive_with_dummies":
            return ImpulsiveStrategy(tuple(int(b) for b in _require(data, "order", kind)),
                                     frozenset(int(b) for b in _require(data, "opened", kind)))
        if kind == "fixed_order":
            return FixedOrderThresholds(
                tuple(int(b) for b in _require(data, "sigma", kind)),
                tuple(parse_extended(t) for t in _require(data, "thresholds", kind)),
            )
        if kind == "policy_tree":
            return _tree_from_json(_require(data, "root", kind))
    except ParseError:
        raise
    except (ValueError, TypeError, AttributeError, OverflowError, RecursionError) as exc:
        raise ParseError(f"malformed {kind} strategy: {exc}") from exc
    raise ParseError(f"unknown strategy kind {kind!r}")


def _tree_from_json(data: dict) -> PolicyTree:
    if data.get("halt"):
        return PolicyTree.halt()
    children = {rat(v): _tree_from_json(sub)
                for v, sub in _require(data, "children", "policy tree node")}
    return PolicyTree.open(int(_require(data, "open", "policy tree node")), children)
