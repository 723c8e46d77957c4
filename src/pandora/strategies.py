"""Strategy objects and their exact evaluation.

Three nested classes: impulsive tuples (Bernoulli instances; halt on the
first non-zero value), fixed orders with halting thresholds, and fully
adaptive policy trees.  On top of the impulsive layer sit the marginal
utilities u_N / u_Y / u_M and dummy slots -- the combinatorial machinery
behind the impulsive-optimality argument for submodular costs.  The four
impulsive functions share one slot walk, which checks the instance and the
boxes once and reads each box's (v, p) in place.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from .costs import marginal_cost
from .errors import DomainError
from .instances import Instance
from .rationals import Extended, rat

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class ImpulsiveStrategy:
    """An ordered tuple of distinct boxes; empty means "halt immediately".

    Only the boxes in `opened` (by default every slot) are inspected.  A slot
    outside `opened` is a dummy: the strategy halts there with the box's
    probability but never opens the box (so it pays nothing and cannot
    collect the value).  Dummies turn one tuple into a distribution over
    plain impulsive prefixes -- see `dummy_mixture`.
    """

    order: tuple[int, ...]
    opened: frozenset[int] | None = None

    def __post_init__(self):
        order = tuple(self.order)
        members = frozenset(order)
        if len(members) != len(order):
            raise DomainError(f"repeated box in impulsive order {order}")
        opened = members if self.opened is None else frozenset(self.opened)
        if not opened <= members:
            raise DomainError(f"opened set {sorted(opened)} is not a subset of the order {order}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "opened", opened)

    def __len__(self) -> int:
        return len(self.order)

    def __iter__(self):
        return iter(self.order)


def _as_impulsive(strategy) -> ImpulsiveStrategy:
    if isinstance(strategy, ImpulsiveStrategy):
        return strategy
    if isinstance(strategy, (tuple, list)):
        return ImpulsiveStrategy(tuple(strategy))
    raise DomainError(f"not an impulsive strategy: {strategy!r}")


@dataclass(frozen=True)
class FixedOrderThresholds:
    """Open boxes in order sigma, halting at round i iff the best value so far
    is at least t_i (checked before opening round i's box; the running best
    starts at 0, so t_i = 0 halts on the spot and t_i = inf never halts)."""

    sigma: tuple[int, ...]
    thresholds: tuple[Extended, ...]

    def __post_init__(self):
        object.__setattr__(self, "sigma", tuple(self.sigma))
        object.__setattr__(self, "thresholds", tuple(self.thresholds))
        if len(set(self.sigma)) != len(self.sigma):
            raise DomainError(f"repeated box in sigma {self.sigma}")
        if len(self.thresholds) != len(self.sigma):
            raise DomainError("need exactly one threshold per round")


@dataclass(frozen=True)
class PolicyTree:
    """Halt, or open a box and continue per observed value.

    `children` pairs each atom value of the opened box's distribution with a
    subtree, kept sorted by value for a canonical layout.  box None = Halt.
    """

    box: int | None = None
    children: tuple[tuple[Fraction, "PolicyTree"], ...] = field(default=())

    @staticmethod
    def halt() -> "PolicyTree":
        return PolicyTree()

    @staticmethod
    def open(box: int, children: Mapping) -> "PolicyTree":
        kids = tuple(sorted((rat(v), sub) for v, sub in dict(children).items()))
        return PolicyTree(box, kids)

    @property
    def is_halt(self) -> bool:
        return self.box is None

    def child(self, value: Fraction) -> "PolicyTree":
        for v, sub in self.children:
            if v == value:
                return sub
        raise DomainError(f"no child for observed value {value} under box {self.box}")


def _slots(instance: Instance, strategy) -> list[tuple[int, bool, Fraction, Fraction]]:
    """(box, opened, v, p) per slot of an impulsive strategy, in order.

    Refuses non-Bernoulli instances and slots naming unknown boxes; a plain
    strategy has every slot opened.
    """
    if not instance.is_bernoulli():
        raise DomainError("this operation needs a weighted-Bernoulli instance")
    s = _as_impulsive(strategy)
    boxes = dict(zip(instance.labels, instance.boxes))
    slots = []
    for b in s.order:
        box = boxes.get(b)
        if box is None:
            raise DomainError(f"strategy mentions unknown box {b}")
        v, p = box.atoms[-1]
        slots.append((b, b in s.opened, v, p))
    return slots


def pq_of(strategy, instance: Instance) -> tuple[Fraction, Fraction]:
    """(p, q) of an impulsive strategy, dummies included.

    p is the probability that some *opened* slot triggers the halt with a
    non-zero value: sum over opened slots j of (prod of q over all earlier
    slots) * p_j.  q is the probability every slot passes: prod of q_i over
    all slots.  Without dummies p + q = 1 (checked); with dummies p can
    fall short of 1 - q because a dummy may halt the run first.
    """
    slots = _slots(instance, strategy)
    p = ZERO
    q = ONE
    for _, is_open, _, p_j in slots:
        if is_open:
            p += q * p_j
        q *= 1 - p_j
    if p + q != 1 and all(is_open for _, is_open, _, _ in slots):
        raise AssertionError("p/q cross-check failed on a dummy-free strategy")
    return p, q


_KINDS = ("N", "Y", "M")


def marginal_utility(kind: str, strategy, root: int, instance: Instance,
                     T: Iterable[int] = frozenset()) -> Fraction:
    """u_N / u_Y / u_M of an impulsive strategy given (root r, conditioning T).

    The scenario: the Bernoulli root box r was already opened (its cost is
    sunk), and the boxes in T count as already opened for cost purposes.

    Per-slot expansion: an opened slot j contributes
        (prod of q over all earlier slots) * (p_j * g(v_j) - c(j | {r} u T u P_j))
    where P_j collects the opened boxes before slot j and g is the identity
    (N), (v - v_r)^+ (Y), or v - v_r (M).  Dummy slots only contribute their
    q factor to later prefixes.  The root's own cost is sunk and never
    appears; T may overlap dummy slots (they are never actually opened) but
    not the opened set.
    """
    if kind not in _KINDS:
        raise DomainError(f"kind must be one of {_KINDS}, got {kind!r}")
    slots = _slots(instance, strategy)
    if any(box == root for box, _, _, _ in slots):
        raise DomainError(f"root box {root} appears in the strategy")
    T = frozenset(T)
    overlap = T & {box for box, is_open, _, _ in slots if is_open}
    if overlap:
        raise DomainError(f"conditioning set overlaps opened boxes on {sorted(overlap)}")
    v_r, _ = instance.bernoulli(root)
    base = {root} | T
    prefix = ONE
    total = ZERO
    opened_before: set[int] = set()
    for box, is_open, v, p in slots:
        if is_open:
            if kind == "N":
                gain = v
            elif kind == "Y":
                gain = max(v - v_r, ZERO)
            else:
                gain = v - v_r
            cost = marginal_cost(instance.cost, {box}, base | opened_before)
            total += prefix * (p * gain - cost)
            opened_before.add(box)
        prefix *= 1 - p
    return total


def dummy_mixture(strategy, instance: Instance) -> list[tuple[ImpulsiveStrategy, Fraction]]:
    """Resolve dummy slots into a distribution over plain impulsive prefixes.

    Flipping all dummy coins up front: the realized strategy is the opened
    boxes before the first dummy that halts (with that joint probability),
    or all opened boxes when no dummy fires.  Equal prefixes are merged, so
    the result is a bona fide distribution (probabilities sum to 1).
    """
    outcomes: dict[tuple[int, ...], Fraction] = {}

    def put(prefix_boxes: tuple[int, ...], prob: Fraction) -> None:
        if prob != 0:
            outcomes[prefix_boxes] = outcomes.get(prefix_boxes, ZERO) + prob

    dummy_pass = ONE
    opened: list[int] = []
    for box, is_open, _, p in _slots(instance, strategy):
        if is_open:
            opened.append(box)
        else:
            put(tuple(opened), dummy_pass * p)
            dummy_pass *= 1 - p
    put(tuple(opened), dummy_pass)
    return [(ImpulsiveStrategy(t), prob) for t, prob in outcomes.items()]


def eval_impulsive(instance: Instance, strategy) -> Fraction:
    """Expected utility of a plain impulsive strategy on a Bernoulli instance.

    Outcome expansion: halting at slot j (prob q_1..q_{j-1} * p_j) collects
    v_j and pays c(first j boxes); the all-zeros outcome pays for the whole
    tuple and collects nothing.
    """
    s = _as_impulsive(strategy)
    if len(s.opened) < len(s.order):
        raise DomainError("resolve dummies via dummy_mixture before evaluating")
    cost = instance.cost
    prefix = ONE
    total = ZERO
    opened: list[int] = []
    for box, _, v, p in _slots(instance, s):
        opened.append(box)
        total += prefix * p * (v - cost.eval(opened))
        prefix *= 1 - p
    total -= prefix * cost.eval(opened)
    return total


def eval_fixed_order(instance: Instance, s: FixedOrderThresholds) -> Fraction:
    """Exact utility of a fixed-order threshold strategy on any finite instance.

    One forward pass over the rounds carries the law of the running max on
    reaching round i, {best: probability}.  States with best >= t_i halt
    and collect best; the rest pay the round's marginal cost and fold in
    the box's atoms.  The prefix cost is read once per round reached (costs
    are normalized, so the empty prefix costs 0).
    """
    if set(s.sigma) != set(instance.labels):
        raise DomainError(f"sigma {s.sigma} is not a permutation of {instance.labels}")
    cost = instance.cost
    law = {ZERO: ONE}
    total = ZERO
    spent = ZERO
    for i, (box, t) in enumerate(zip(s.sigma, s.thresholds)):
        live = {}
        for best, p in law.items():
            if best >= t:
                total += best * p
            else:
                live[best] = p
        if not live:
            return total
        prefix = cost.eval(s.sigma[: i + 1])
        total -= (prefix - spent) * sum(live.values())
        spent = prefix
        atoms = instance.box(box).atoms
        law = {}
        for best, p in live.items():
            for v, q in atoms:
                m = max(best, v)
                law[m] = law.get(m, ZERO) + p * q
    return total + sum(best * p for best, p in law.items())


def eval_policy(instance: Instance, tree: PolicyTree) -> Fraction:
    """Exact utility of a policy tree: weight each root-to-leaf path by its
    probability; value is the running max at the leaf, costs accrue as
    marginals when boxes open.  Malformed trees (missing a child for some
    atom, reopening a box) raise DomainError."""

    cost = instance.cost

    def go(node: PolicyTree, opened: frozenset[int], best: Fraction) -> Fraction:
        if node.is_halt:
            return best
        box = node.box
        if box in opened:
            raise DomainError(f"tree reopens box {box}")
        atoms = instance.box(box).atoms  # raises DomainError on unknown labels
        keyed = dict(node.children)
        if set(keyed) != {v for v, _ in atoms}:
            raise DomainError(
                f"children of box {box} cover {sorted(keyed)} but its atoms are "
                f"{[v for v, _ in atoms]}"
            )
        now = frozenset(opened | {box})
        out = -(cost.eval(now) - cost.eval(opened))
        for v, p in atoms:
            out += p * go(keyed[v], now, max(best, v))
        return out

    return go(tree, frozenset(), ZERO)
