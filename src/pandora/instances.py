"""Finite-support value distributions, instances, and instance generators.

An instance bundles n boxes (independent finite-support distributions) with
one cost oracle; box *labels* are the oracle's ground set, 1..n by default.
Everything is exact rationals.  The canonical corpus instances live here so
solvers and tests can ask for them by name.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .costs import (
    AdditiveCost,
    CostOracle,
    CoverageCost,
    ExplicitCost,
    HardnessCost,
    TreeClosureCost,
    XosCost,
    _labels_of,
    xos_lift,
)
from .errors import DomainError
from .limits import guard
from .rationals import rat

ZERO = Fraction(0)
ONE = Fraction(1)


class FiniteDistribution:
    """A finite-support distribution on Q>=0: sorted distinct atoms, probs sum to 1."""

    __slots__ = ("atoms",)

    def __init__(self, atoms: Iterable[tuple[object, object]] | Mapping[object, object]):
        if isinstance(atoms, Mapping):
            atoms = atoms.items()
        pairs = sorted((rat(v), rat(p)) for v, p in atoms)
        if not pairs:
            raise DomainError("a distribution needs at least one atom")
        total = ZERO
        last = None
        for v, p in pairs:
            if v < 0:
                raise DomainError(f"negative value {v}")
            if p <= 0:
                raise DomainError(f"atom {v} has non-positive probability {p}")
            if v == last:
                raise DomainError(f"duplicate atom value {v}")
            last = v
            total += p
        if total != 1:
            raise DomainError(f"probabilities sum to {total}, not 1")
        self.atoms: tuple[tuple[Fraction, Fraction], ...] = tuple(pairs)

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteDistribution) and self.atoms == other.atoms

    def __hash__(self) -> int:
        return hash(self.atoms)

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}: {p}" for v, p in self.atoms)
        return f"FiniteDistribution({{{inner}}})"

    @property
    def support(self) -> tuple[Fraction, ...]:
        return tuple(v for v, _ in self.atoms)

    def expectation(self) -> Fraction:
        return sum((v * p for v, p in self.atoms), ZERO)

    def expected_excess(self, z) -> Fraction:
        """E[(V - z)^+] -- the tail mass above z, the quantity kappa and z solve against."""
        z = rat(z)
        return sum((p * (v - z) for v, p in self.atoms if v > z), ZERO)

    def cdf(self, v) -> Fraction:
        v = rat(v)
        return sum((p for a, p in self.atoms if a <= v), ZERO)

    def prob_of(self, v) -> Fraction:
        v = rat(v)
        for a, p in self.atoms:
            if a == v:
                return p
        return ZERO

    def is_constant_zero(self) -> bool:
        return self.atoms == ((ZERO, ONE),)

    def bernoulli_form(self) -> "WeightedBernoulli | None":
        """The (v, p) view when this is {v w.p. p, 0 w.p. 1-p} with v > 0; else None."""
        if len(self.atoms) == 1:
            v, _ = self.atoms[0]
            return WeightedBernoulli(v, ONE) if v > 0 else None
        if len(self.atoms) == 2 and self.atoms[0][0] == 0:
            v, p = self.atoms[1]
            return WeightedBernoulli(v, p)
        return None


@dataclass(frozen=True)
class WeightedBernoulli:
    """Value v > 0 with probability p in (0, 1], zero otherwise."""

    value: Fraction
    prob: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", rat(self.value))
        object.__setattr__(self, "prob", rat(self.prob))
        if self.value <= 0:
            raise DomainError(f"weighted Bernoulli needs v > 0, got {self.value}")
        if not 0 < self.prob <= 1:
            raise DomainError(f"weighted Bernoulli needs p in (0,1], got {self.prob}")

    @property
    def q(self) -> Fraction:
        return 1 - self.prob

    def distribution(self) -> FiniteDistribution:
        if self.prob == 1:
            return FiniteDistribution([(self.value, ONE)])
        return FiniteDistribution([(ZERO, 1 - self.prob), (self.value, self.prob)])


def bernoulli(value, prob) -> FiniteDistribution:
    return WeightedBernoulli(rat(value), rat(prob)).distribution()


def deterministic(value) -> FiniteDistribution:
    return FiniteDistribution([(rat(value), ONE)])


class Instance:
    """n boxes plus a cost oracle; labels come from the oracle's ground set.

    Degenerate (constant-zero) boxes are rejected outright -- the whole
    pipeline assumes v_i > 0 atoms exist, and the JSON loader drops such
    boxes with a warning before constructing.  `cost_class` is an optional
    declared label ("submodular", ...) that loaders re-validate when small
    enough; in-memory constructors just carry it.
    """

    __slots__ = ("boxes", "cost", "cost_class", "_by_label")

    def __init__(self, boxes: Sequence[FiniteDistribution], cost: CostOracle,
                 cost_class: str | None = None):
        boxes = tuple(boxes)
        if len(boxes) != cost.arity:
            raise DomainError(f"{len(boxes)} boxes but cost arity {cost.arity}")
        for k, box in enumerate(boxes):
            if not isinstance(box, FiniteDistribution):
                raise DomainError(f"box {k} is not a FiniteDistribution")
            if box.is_constant_zero():
                raise DomainError(
                    f"box labelled {cost.ground[k]} is constant zero; drop it first"
                )
        self.boxes = boxes
        self.cost = cost
        self.cost_class = cost_class
        self._by_label = dict(zip(cost.ground, boxes))

    @property
    def n(self) -> int:
        return len(self.boxes)

    @property
    def labels(self) -> tuple[int, ...]:
        return self.cost.ground

    def box(self, label: int) -> FiniteDistribution:
        try:
            return self._by_label[label]
        except KeyError:
            raise DomainError(f"no box labelled {label}; labels are {self.labels}") from None

    def is_bernoulli(self) -> bool:
        return all(b.bernoulli_form() is not None for b in self.boxes)

    def bernoulli(self, label: int) -> WeightedBernoulli:
        wb = self.box(label).bernoulli_form()
        if wb is None:
            raise DomainError(f"box {label} is not weighted Bernoulli")
        return wb

    def __repr__(self) -> str:
        return f"Instance(n={self.n}, cost={type(self.cost).__name__}, class={self.cost_class})"


def support_union(instance: Instance) -> tuple[Fraction, ...]:
    """Sorted distinct values across all boxes, with 0 prepended if absent.

    The 0 matters: it is the initial "best value seen" state of every
    dynamic program downstream.
    """
    values = {ZERO}
    for box in instance.boxes:
        values.update(box.support)
    return tuple(sorted(values))


def max_distribution(boxes: Sequence[FiniteDistribution]) -> FiniteDistribution:
    """Exact law of the max of independent draws, via CDF products."""
    if not boxes:
        raise DomainError("need at least one distribution")
    values = sorted({v for box in boxes for v in box.support})
    atoms = []
    prev_cdf = ZERO
    for v in values:
        here = ONE
        for box in boxes:
            here *= box.cdf(v)
        if here > prev_cdf:
            atoms.append((v, here - prev_cdf))
        prev_cdf = here
    return FiniteDistribution(atoms)


# ---------------------------------------------------------------------------
# canonical corpus instances
# ---------------------------------------------------------------------------

def example1() -> Instance:
    """Three boxes; opening both 2 and 3 costs 20, everything else is free.

    The unique optimal strategy is adaptive ("open box 1; on 10 open box 2,
    otherwise box 3"), which is what makes this the standard witness that
    optimal exploration order can depend on observed values.
    """
    boxes = [bernoulli(10, "1/2"), bernoulli(12, "1/2"), deterministic(10)]
    table = {}
    for r in range(4):
        for S in itertools.combinations((1, 2, 3), r):
            table[S] = 20 if {2, 3} <= set(S) else 0
    return Instance(boxes, ExplicitCost(table, ground=(1, 2, 3)), cost_class=None)


def unit_demand_pair() -> Instance:
    """Two identical boxes (2 w.p. 1/3) under a symmetric unit-demand cost.

    Any nonempty set costs exactly 1.  Both reservation values are negative,
    so index-based reasoning opens nothing, yet opening both boxes nets
    2*(5/9) - 1 = 1/9 > 0.
    """
    boxes = [bernoulli(2, "1/3"), bernoulli(2, "1/3")]
    cost = CoverageCost((1, 2), [(1, (1, 2))])
    return Instance(boxes, cost, cost_class="submodular")


def subadditive4() -> Instance:
    """Four boxes with a subadditive, non-submodular cost and no optimal fixed order.

    Box 1 has zero marginal cost given anything; the base costs on {2,3,4}
    encode a complementarity (box 3 gets cheaper once 4 is open but pricier
    once 2 joins) that forces the optimal exploration order to adapt.
    """
    boxes = [
        FiniteDistribution([(100, "1/3"), ("5/2", "1/3"), (0, "1/3")]),
        deterministic(2),
        bernoulli(3, "1/2"),
        bernoulli(6, "1/2"),
    ]
    base = {
        (): 0,
        (2,): 1,
        (3,): "11/10",
        (4,): 1,
        (2, 3): "21/10",
        (2, 4): 1,
        (3, 4): "11/10",
        (2, 3, 4): "21/10",
    }
    base = {frozenset(k): rat(v) for k, v in base.items()}
    table = {}
    for r in range(5):
        for S in itertools.combinations((1, 2, 3, 4), r):
            table[S] = base[frozenset(S) - {1}]
    return Instance(boxes, ExplicitCost(table, ground=(1, 2, 3, 4)), cost_class="subadditive")


def hardness_instance(n: int, variant: str = "baseline", *,
                      alpha: int | None = None, beta: int | None = None,
                      R: Iterable[int] | None = None) -> Instance:
    """The query-complexity family: n symmetric boxes worth M = 5*beta w.p. 1/alpha.

    With derived parameters (alpha, beta from n) the baseline instance admits
    no positive-utility strategy while each planted variant does; alpha/beta
    can be overridden for small-n exhaustive testing.
    """
    from .hardness import hardness_params  # local import; hardness depends on costs too

    params = hardness_params(n, alpha=alpha, beta=beta)
    a, b = params.alpha, params.beta
    if variant == "baseline":
        cost: CostOracle = HardnessCost(n, a, b)
    elif variant == "planted":
        planted = frozenset(range(1, a + 1)) if R is None else frozenset(R)
        cost = HardnessCost(n, a, b, planted)
    else:
        raise DomainError(f"variant must be baseline or planted, got {variant!r}")
    box = bernoulli(params.M, Fraction(1, a))
    return Instance([box] * n, cost, cost_class="matroid_rank")


def xos_lift_of(instance: Instance) -> Instance:
    """Adjoin a box 0 whose value dwarfs all costs, under the lifted XOS cost.

    V0 = 2 * b * (1 + n*c(X) + max_i s_i) where b is a fair coin and the s_i
    are fresh samples of the V_i; we take the exact law of that expression
    (max via CDF products, then the affine map, then the coin).  The lifted
    cost's marginal at {0} is the original cost, so the original instance
    embeds after opening box 0 -- which is always worthwhile, making any
    strict adaptivity gap downstairs survive the lift.
    """
    if 0 in instance.labels:
        raise DomainError("instance already uses label 0")
    g = xos_lift(instance.cost)
    cX = instance.cost.eval(instance.labels)
    shift = 1 + instance.n * cX
    top = max_distribution(instance.boxes)
    atoms = [(ZERO, Fraction(1, 2))]
    for v, p in top.atoms:
        atoms.append((2 * (shift + v), p / 2))
    v0 = FiniteDistribution(atoms)
    return Instance([v0, *instance.boxes], g, cost_class="xos")


_CANONICAL = {
    "example1": example1,
    "unit_demand_pair": unit_demand_pair,
    "subadditive4": subadditive4,
    "hardness": hardness_instance,
    "xos_lift_of": xos_lift_of,
}


def canonical(name: str, **params) -> Instance:
    """Fetch a corpus instance by name.

    Plain names: example1, unit_demand_pair, subadditive4.  Parameterized:
    canonical("hardness", n=..., variant="baseline"|"planted", ...) and
    canonical("xos_lift_of", instance=...).
    """
    builder = _CANONICAL.get(name)
    if builder is None:
        raise DomainError(f"unknown canonical instance {name!r}; choose from {sorted(_CANONICAL)}")
    return builder(**params)


# ---------------------------------------------------------------------------
# random generators (all class-guaranteed by construction)
# ---------------------------------------------------------------------------

def _rand_frac(rng: random.Random, num_hi: int = 12, den_hi: int = 4) -> Fraction:
    return Fraction(rng.randint(1, num_hi), rng.randint(1, den_hi))


def _rand_prob(rng: random.Random, allow_one: bool = True) -> Fraction:
    den = rng.randint(2, 6)
    num = rng.randint(1, den if allow_one else den - 1)
    return Fraction(num, den)


def _rand_bernoulli_boxes(rng: random.Random, n: int) -> list[FiniteDistribution]:
    return [bernoulli(_rand_frac(rng), _rand_prob(rng)) for _ in range(n)]


def _rand_general_boxes(rng: random.Random, n: int, max_atoms: int = 3) -> list[FiniteDistribution]:
    boxes = []
    for _ in range(n):
        k = rng.randint(1, max_atoms)
        values = {ZERO} if k > 1 and rng.random() < 0.8 else set()
        while len(values) < k:
            values.add(_rand_frac(rng))
        if all(v == 0 for v in values):
            values.add(_rand_frac(rng))
        weights = [rng.randint(1, 5) for _ in values]
        total = sum(weights)
        boxes.append(FiniteDistribution(
            [(v, Fraction(w, total)) for v, w in zip(sorted(values), weights)]
        ))
    return boxes


def _rand_coverage(rng: random.Random, n: int) -> CoverageCost:
    ground = range(1, n + 1)
    elements = []
    for _ in range(rng.randint(1, n + 2)):
        size = rng.randint(1, n)
        group = rng.sample(list(ground), size)
        elements.append((_rand_frac(rng, 6, 3), group))
    return CoverageCost(ground, elements)


def _rand_tree(rng: random.Random, n: int) -> TreeClosureCost:
    parent = {}
    for b in range(1, n + 1):
        parent[b] = rng.choice([0] + list(range(1, b)))
    node_costs = {b: _rand_frac(rng, 6, 3) for b in parent}
    return TreeClosureCost(parent, node_costs)


def _rand_hardness(rng: random.Random, n: int) -> HardnessCost:
    if n < 2:
        raise DomainError("the hardness family needs n >= 2 (beta < alpha <= n)")
    alpha = rng.randint(2, n)
    beta = rng.randint(1, alpha - 1)
    if rng.random() < 0.5:
        return HardnessCost(n, alpha, beta)
    R = frozenset(rng.sample(range(1, n + 1), alpha))
    return HardnessCost(n, alpha, beta, R)


def _rand_capped_xos_table(rng: random.Random, n: int) -> ExplicitCost:
    # max of additive clauses (XOS -- subadditive), then min with a cap:
    # capping preserves subadditivity and monotonicity but usually breaks
    # submodularity, so the family exercises the outer class properly.
    ground = tuple(range(1, n + 1))
    clauses = []
    for _ in range(rng.randint(2, 4)):
        clauses.append({b: _rand_frac(rng, 6, 2) for b in ground if rng.random() < 0.8})
    singles = [sum(c.get(b, ZERO) for c in clauses) for b in ground]
    cap = max(max(singles, default=ONE), ONE) * Fraction(rng.randint(2, 4), 2)
    xos = XosCost(ground, clauses).table()
    return ExplicitCost({tuple(_labels_of(m, ground)): min(xos[m], cap) for m in range(1 << n)},
                        ground=ground)


_FAMILIES = {
    "bernoulli_coverage": ("submodular", _rand_bernoulli_boxes, _rand_coverage),
    "bernoulli_tree": ("gross_substitutes", _rand_bernoulli_boxes, _rand_tree),
    "bernoulli_hardness": ("matroid_rank", _rand_bernoulli_boxes, _rand_hardness),
    "general_coverage": ("submodular", _rand_general_boxes, _rand_coverage),
    "additive": ("additive", _rand_general_boxes,
                 lambda rng, n: AdditiveCost([_rand_frac(rng, 4, 3) for _ in range(n)])),
    "explicit_subadditive": ("subadditive", _rand_general_boxes, _rand_capped_xos_table),
}


def random_instance(family: str, n: int, seed: int, params: Mapping | None = None) -> Instance:
    """Seed-deterministic instance with its cost class guaranteed by construction.

    params (all optional): max_atoms for the general families; bernoulli=True
    to force weighted-Bernoulli boxes in any family.
    """
    spec = _FAMILIES.get(family)
    if spec is None:
        raise DomainError(f"unknown family {family!r}; choose from {sorted(_FAMILIES)}")
    guard("random_instance", n)
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    params = dict(params or {})
    cls, make_boxes, make_cost = spec
    rng = random.Random(seed)
    if params.get("bernoulli"):
        boxes = _rand_bernoulli_boxes(rng, n)
    elif make_boxes is _rand_general_boxes:
        boxes = _rand_general_boxes(rng, n, params.get("max_atoms", 3))
    else:
        boxes = make_boxes(rng, n)
    cost = make_cost(rng, n)
    return Instance(boxes, cost, cost_class=cls)
