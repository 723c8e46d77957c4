"""Instance transformations: cap-and-floor discretization and Bernoullification.

`discretize` squeezes every value onto the grid eps*Z below a cap chosen so
the truncation error is at most eps in expectation; `bernoullify` splits each
box into one weighted-Bernoulli copy per support value, with the cost lifted
by projection back to original boxes.  Both come with exact correspondences:
optimal values move by at most 2*eps under discretization and not at all
under Bernoullification, and `check_preservation` verifies that cost classes
survive the lift (all of them do except budget-additive).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .classes import VALIDATORS, ClassReport, validate_class
from .costs import (
    BudgetAdditiveCost,
    CostOracle,
    CoverageCost,
    ProjectionCost,
    XosCost,
)
from .errors import DomainError
from .instances import FiniteDistribution, Instance, WeightedBernoulli
from .rationals import rat
from .solvers import _tail_root, _threshold_dp
from .strategies import FixedOrderThresholds, ImpulsiveStrategy, eval_fixed_order, eval_impulsive

ZERO = Fraction(0)


@dataclass(frozen=True)
class DiscretizationParams:
    """The (eps, kappa) pair behind one cap-and-floor discretization."""

    epsilon: Fraction
    kappa: Fraction

    @classmethod
    def compute(cls, instance: Instance, epsilon) -> "DiscretizationParams":
        eps = rat(epsilon)
        return cls(eps, kappa_epsilon(instance, eps))


def kappa_epsilon(instance: Instance, epsilon) -> Fraction:
    """Least kappa >= 0 with sum_i E[(V_i - kappa)^+] <= eps, solved exactly.

    For kappa >= 0 only the positive atoms enter the tail sum, so kappa is
    the tail root over all boxes' positive atoms pooled, clamped at 0; no
    numeric root-finding involved.
    """
    eps = rat(epsilon)
    if eps <= 0:
        raise DomainError(f"epsilon must be positive, got {eps}")
    atoms = [(v, p) for box in instance.boxes for v, p in box.atoms if v > 0]
    return max(ZERO, _tail_root(atoms, eps)) if atoms else ZERO


def discretize(instance: Instance, epsilon) -> Instance:
    """Cap values at kappa_eps and floor them to the grid eps*Z.

    Merged atoms get summed probabilities; the cost is unchanged (restricted
    by an identity projection when a box collapses to constant zero and is
    dropped).  The declared cost class survives, since every class here is
    closed under restriction to a sub-ground-set.
    """
    params = DiscretizationParams.compute(instance, epsilon)
    eps, kappa = params.epsilon, params.kappa
    survivors = []
    boxes = []
    for label, box in zip(instance.labels, instance.boxes):
        merged: dict[Fraction, Fraction] = {}
        for v, p in box.atoms:
            capped = v if v < kappa else kappa
            snapped = eps * (capped // eps)
            merged[snapped] = merged.get(snapped, ZERO) + p
        squeezed = FiniteDistribution(merged)
        if squeezed.is_constant_zero():
            continue
        survivors.append(label)
        boxes.append(squeezed)
    if len(survivors) == len(instance.labels):
        cost: CostOracle = instance.cost
    else:
        cost = ProjectionCost(survivors, {b: b for b in survivors}, instance.cost)
    return Instance(boxes, cost, cost_class=instance.cost_class)


# classes closed under the Bernoullification lift (budget-additive is not)
_LIFT_PRESERVED = {
    "monotone_normalized", "submodular", "subadditive",
    "matroid_rank", "gross_substitutes", "coverage", "xos",
}


@dataclass(frozen=True)
class BernoullificationMap:
    """Bookkeeping for one Bernoullification: which lifted label is which copy.

    Lifted label k (1-based) is copy `pairs[k-1] = (i, j)`: original box i,
    j-th smallest support value of that box (1-based over the box's actual
    support).  Copies at value 0 -- including the conceptual probability-0
    zero atom, whose weight is 0/0 := 0 -- are vacuous and dropped, so they
    never receive a label.
    """

    original: Instance
    lifted: Instance
    pairs: tuple[tuple[int, int], ...]
    values: tuple[Fraction, ...]
    weights: tuple[Fraction, ...]

    def label_for(self, pair: tuple[int, int]) -> int:
        try:
            return self.pairs.index(tuple(pair)) + 1
        except ValueError:
            raise DomainError(
                f"copy {tuple(pair)} was dropped or never existed; "
                f"surviving copies: {list(self.pairs)}"
            ) from None

    def original_box(self, label: int) -> int:
        if not 1 <= label <= len(self.pairs):
            raise DomainError(f"no lifted box labelled {label}")
        return self.pairs[label - 1][0]

    def to_json(self) -> dict:
        return {
            "pairs": [
                [i, j, str(v), str(w)]
                for (i, j), v, w in zip(self.pairs, self.values, self.weights)
            ]
        }


def bernoullify(instance: Instance) -> tuple[Instance, BernoullificationMap]:
    """Split each box into weighted-Bernoulli copies, one per support value.

    Copy (i, j) carries value v_j with weight P(V_i = v_j) / P(V_i <= v_j);
    the max of box i's independent copies reproduces V_i's law exactly.  The
    lifted cost answers c'(S) = c({i : some copy of i in S}) by projection,
    so re-opening a second copy of a box is free.
    """
    pairs: list[tuple[int, int]] = []
    values: list[Fraction] = []
    weights: list[Fraction] = []
    boxes: list[FiniteDistribution] = []
    label_map: dict[int, int] = {}
    for i, box in zip(instance.labels, instance.boxes):
        below = ZERO
        for j, (v, p) in enumerate(box.atoms, start=1):
            below += p
            if v == 0:
                continue
            pairs.append((i, j))
            values.append(v)
            weights.append(p / below)
            boxes.append(WeightedBernoulli(v, p / below).distribution())
            label_map[len(pairs)] = i
    lifted_ground = tuple(range(1, len(pairs) + 1))
    cost = ProjectionCost(lifted_ground, label_map, instance.cost)
    cls = instance.cost_class if instance.cost_class in _LIFT_PRESERVED else None
    lifted = Instance(boxes, cost, cost_class=cls)
    bmap = BernoullificationMap(
        original=instance,
        lifted=lifted,
        pairs=tuple(pairs),
        values=tuple(values),
        weights=tuple(weights),
    )
    return lifted, bmap


def pull_back_strategy(bmap: BernoullificationMap,
                       pi_prime) -> FixedOrderThresholds:
    """Turn an impulsive strategy on the lifted instance into a fixed-order
    strategy on the original that does at least as well.

    `pi_prime` lists lifted boxes either as integer labels or as (i, j)
    copy pairs; referencing a dropped copy is a domain error.  The original
    order opens each box at the position of its first copy; thresholds are
    then chosen optimally for that (truncated) order by the backward
    recursion, which dominates any halting rule on the same order -- in
    particular the coupling construction behind the correspondence -- so the
    utility inequality is guaranteed, and checked on every call.  Boxes
    absent from `pi_prime` are appended with threshold 0 (never reached).
    """
    labels = []
    for item in pi_prime:
        if isinstance(item, (tuple, list)):
            labels.append(bmap.label_for(tuple(item)))
        else:
            labels.append(int(item))
    original = bmap.original
    prefix: list[int] = []
    for lab in labels:
        i = bmap.original_box(lab)
        if i not in prefix:
            prefix.append(i)
    rest = [b for b in original.labels if b not in prefix]
    prefix_thresholds, _ = _threshold_dp(original, tuple(prefix))
    sigma = tuple(prefix) + tuple(rest)
    thresholds = tuple(prefix_thresholds) + (ZERO,) * len(rest)
    strategy = FixedOrderThresholds(sigma, thresholds)
    pulled = eval_fixed_order(original, strategy)
    lifted_u = eval_impulsive(bmap.lifted, ImpulsiveStrategy(tuple(labels)))
    if pulled < lifted_u:
        raise AssertionError(f"pull-back lost utility: {pulled} < {lifted_u} for {pi_prime!r}")
    return strategy


def _lifted_coverage_certificate(bmap: BernoullificationMap) -> CoverageCost:
    cost = bmap.original.cost
    assert isinstance(cost, CoverageCost)
    lifted_labels = bmap.lifted.labels
    elements = []
    for w, group in cost.elements:
        lifted_group = [lab for lab in lifted_labels
                        if bmap.original_box(lab) in group]
        elements.append((w, lifted_group))
    return CoverageCost(lifted_labels, elements)


def _lifted_xos_certificate(bmap: BernoullificationMap) -> XosCost:
    cost = bmap.original.cost
    assert isinstance(cost, XosCost)
    copies: dict[int, list[int]] = {}
    for lab in bmap.lifted.labels:
        copies.setdefault(bmap.original_box(lab), []).append(lab)
    clauses = []
    for clause in cost.clauses:
        support = sorted(clause)
        # one lifted clause per way of charging each box to one of its copies
        for choice in itertools.product(*(copies[i] for i in support)):
            clauses.append({lab: clause[i] for i, lab in zip(support, choice)})
    if not clauses:
        clauses = [{}]
    return XosCost(bmap.lifted.labels, clauses)


def _budget_additive_decision(cost: CostOracle) -> ClassReport:
    """Exact decision: is `cost` of the form min(B, sum of item weights)?

    If it is, then B = c(ground) and w_i = c({i}) reproduce it (any weight
    exceeding the budget can be clipped to it without changing the function),
    so checking that canonical candidate on every subset is a complete test,
    not a heuristic.
    """
    table = cost.table()
    canonical = BudgetAdditiveCost({b: table[1 << i] for i, b in enumerate(cost.ground)},
                                   table[-1])
    ok, S = cost.matches(canonical.eval)
    if ok:
        return ClassReport("budget_additive", True, None)
    combo = sorted(S)
    return ClassReport("budget_additive", False, {
        "S": combo,
        "budget": str(canonical.budget),
        "weights": {str(b): str(canonical.per_box[b]) for b in combo},
        "min(B, sum w)": str(canonical.eval(S)),
        "cost": str(cost.eval(S)),
    })


def check_preservation(instance: Instance, cls: str) -> ClassReport:
    """Does `cls` survive Bernoullification of this instance?

    For table-checkable classes the lifted cost goes straight to
    validate_class.  Coverage and XOS instead get an explicit lifted
    certificate (groups crossed with all copies; clauses split over copy
    choices) checked for consistency against the lifted cost.  For
    budget-additive the answer is an exact representability decision --
    and it comes back negative already for c(S) = min(|S|, 2) on three
    two-valued boxes.
    """
    lifted, bmap = bernoullify(instance)
    if cls in VALIDATORS:
        return validate_class(lifted.cost, cls)
    if cls == "coverage":
        if not isinstance(instance.cost, CoverageCost):
            raise DomainError("coverage preservation needs a CoverageCost instance")
        cert = _lifted_coverage_certificate(bmap)
        ok, witness = cert.matches(lifted.cost.eval)
        if not ok:
            return ClassReport("coverage", False, {
                "S": sorted(witness),
                "certificate": str(cert.eval(witness)),
                "lifted": str(lifted.cost.eval(witness)),
            })
        return ClassReport("coverage", True, {"certificate": cert.spec()})
    if cls == "xos":
        if not isinstance(instance.cost, XosCost):
            raise DomainError("xos preservation needs an XosCost instance")
        cert = _lifted_xos_certificate(bmap)
        ok, witness = cert.matches(lifted.cost.eval)
        if not ok:
            return ClassReport("xos", False, {"S": sorted(witness)})
        return ClassReport("xos", True, {"certificate": cert.spec()})
    if cls == "budget_additive":
        if not isinstance(instance.cost, BudgetAdditiveCost):
            raise DomainError("budget_additive preservation needs a BudgetAdditiveCost instance")
        return _budget_additive_decision(lifted.cost)
    raise DomainError(f"no preservation check for class {cls!r}")
