"""Cost oracles: set functions c : 2^ground -> Q>=0 queried by evaluation.

Every concrete family is normalized (c(empty) = 0) and monotone, either by
construction (additive, coverage, ...) or by eager table validation
(ExplicitCost).  Oracles are immutable after construction.  Every 2^n layer
reads `CostOracle.table()`: c(S) for all S as one tuple indexed by bitmask
(bit i <-> ground[i]), filled once and cached.  It is the only cache: `eval`
recomputes, and a QueryCountingOracle shares its inner oracle's table.  Only
grounds given by the caller are validated; wrappers reuse their inner's, and
every `HardnessCost` on n boxes shares one cached 1..n ground (tuple and
frozenset), so construction is O(1) once that ground exists.
"""
from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .errors import DomainError
from .limits import guard
from .rationals import rat

BoxSet = frozenset[int]

ZERO = Fraction(0)


def _masks_by_size(n: int):
    """Every bitmask over n bits: by size, then in lexicographic order of the
    set bits (the order itertools.combinations visits subsets in)."""
    bits = [1 << i for i in range(n)]
    for r in range(n + 1):
        for combo in itertools.combinations(bits, r):
            yield sum(combo)


def _labels_of(mask: int, labels: tuple[int, ...]) -> list[int]:
    return [b for i, b in enumerate(labels) if mask >> i & 1]


def _check_monotone_normalized(labels, vals, D) -> dict | None:
    """None if the bitmask table `vals` (values times D) is normalized and
    monotone, else a witness: c(empty), or the first S and x by mask, then
    bit, with c(S + x) < c(S)."""
    n = len(labels)
    if vals[0] != 0:
        return {"reason": "not normalized", "c_empty": str(Fraction(vals[0], D))}
    for mask in range(1 << n):
        for i in range(n):
            if mask >> i & 1:
                continue
            if vals[mask | 1 << i] < vals[mask]:
                return {
                    "reason": "not monotone",
                    "S": _labels_of(mask, labels),
                    "x": labels[i],
                    "c_S": str(Fraction(vals[mask], D)),
                    "c_Sx": str(Fraction(vals[mask | 1 << i], D)),
                }
    return None


def _power_set(labels: Sequence[int]) -> list[BoxSet]:
    """Every subset of `labels` as a frozenset, indexed by bitmask."""
    sets = [frozenset()]
    for b in labels:
        sets += [S | {b} for S in sets]
    return sets


class CostOracle:
    """Base class for all cost functions.

    `ground` is the sorted tuple of box labels the oracle is defined on.  The
    default labelling of an n-box instance is 1..n, but transformed oracles may
    use other labels (the XOS lift adds a box 0, the Bernoullification
    relabels copies).  Subclasses implement `_value(S)`; `eval` checks the
    set against the ground and never caches, `table()` is the one cache.
    """

    def __init__(self, ground: Iterable[int]):
        labels = tuple(sorted(ground))
        if len(set(labels)) != len(labels):
            raise DomainError(f"duplicate box labels: {labels}")
        if any(not isinstance(b, int) or isinstance(b, bool) for b in labels):
            raise DomainError(f"box labels must be ints: {labels}")
        self._adopt(labels, frozenset(labels))

    def _adopt(self, labels: tuple[int, ...], members: BoxSet) -> None:
        """Install a ground already known to be sorted, distinct ints."""
        self.ground = labels
        self._members = members
        self._table: tuple[Fraction, ...] | None = None

    @property
    def arity(self) -> int:
        return len(self.ground)

    def eval(self, boxes: Iterable[int]) -> Fraction:
        S = frozenset(boxes)
        if not S <= self._members:
            raise DomainError(
                f"boxes {sorted(S - self._members)} outside ground set {self.ground}"
            )
        return self._value(S)

    def _value(self, S: BoxSet) -> Fraction:
        raise NotImplementedError

    def table(self) -> tuple[Fraction, ...]:
        """c(S) for every S <= ground, indexed by bitmask (bit i <-> ground[i]).

        Filled once through `_value` and cached; raises CapabilityError above
        the validator bound.
        """
        if self._table is None:
            guard("validator", self.arity)
            # two half-size power sets: the fill itself holds about 2^(n/2) sets
            half = self.arity // 2
            low = _power_set(self.ground[:half])
            self._table = tuple(self._value(L | H) for H in _power_set(self.ground[half:])
                                for L in low)
        return self._table

    def matches(self, reference: Callable[[BoxSet], Fraction]) -> tuple[bool, BoxSet | None]:
        """Certificate check: does this oracle agree with `reference` on every
        subset?  (True, None) or (False, the first disagreeing subset by size,
        then lexicographically); guarded like `table()`."""
        mine = self.table()
        for mask in _masks_by_size(self.arity):
            S = frozenset(_labels_of(mask, self.ground))
            if mine[mask] != reference(S):
                return False, S
        return True, None

    def spec(self) -> dict:
        """JSON-ready description ({"kind": ..., ...}); see serialize module."""
        raise NotImplementedError(f"{type(self).__name__} has no serial form")


def marginal_cost(oracle: CostOracle, S: Iterable[int], T: Iterable[int]) -> Fraction:
    """c(S | T) = c(S u T) - c(T); S and T must be disjoint."""
    S, T = frozenset(S), frozenset(T)
    if S & T:
        raise DomainError(f"marginal sets overlap on {sorted(S & T)}")
    return oracle.eval(S | T) - oracle.eval(T)


class ExplicitCost(CostOracle):
    """A full 2^n table.  Construction rejects bad tables immediately.

    `table` maps subsets (any iterable of labels; hashability not required) to
    rational costs and must contain every one of the 2^n subsets of the
    inferred ground set.  Normalization and monotonicity are checked eagerly
    rather than at query time, so a constructed ExplicitCost is trustworthy
    (and nonnegative: monotone from c(empty) = 0).
    """

    def __init__(self, table: Mapping, ground: Iterable[int] | None = None):
        entries: dict[BoxSet, Fraction] = {}
        for key, cost in table.items():
            entries[frozenset(key)] = rat(cost)
        if ground is None:
            ground = frozenset().union(*entries)
        super().__init__(ground)
        n = self.arity
        if len(entries) != 1 << n:
            raise DomainError(
                f"table has {len(entries)} entries, need 2^{n} = {1 << n}"
            )
        bit = {b: 1 << i for i, b in enumerate(self.ground)}
        vals = [ZERO] * (1 << n)
        for key, cost in entries.items():
            if not key <= self._members:
                raise DomainError(f"table key {sorted(key)} outside ground set {self.ground}")
            vals[sum(bit[b] for b in key)] = cost
        bad = _check_monotone_normalized(self.ground, vals, 1)
        if bad:
            raise DomainError(f"explicit cost table fails monotone_normalized: {bad}")
        self._entries = entries

    def _value(self, S: BoxSet) -> Fraction:
        return self._entries[S]

    def spec(self) -> dict:
        keys = sorted(self._entries, key=lambda k: (len(k), sorted(k)))
        return {
            "kind": "explicit",
            "table": {",".join(str(b) for b in sorted(k)): str(self._entries[k]) for k in keys},
        }


def _per_box_weights(per_box: Mapping[int, object] | Sequence[object]) -> dict[int, Fraction]:
    """Nonnegative weights by label; a sequence labels its entries 1..n."""
    if isinstance(per_box, Mapping):
        weights = {b: rat(c) for b, c in per_box.items()}
    else:
        weights = {i + 1: rat(c) for i, c in enumerate(per_box)}
    for b, c in weights.items():
        if c < 0:
            raise DomainError(f"negative cost {c} for box {b}")
    return weights


class AdditiveCost(CostOracle):
    """c(S) = sum of per-box costs."""

    def __init__(self, per_box: Mapping[int, object] | Sequence[object]):
        weights = _per_box_weights(per_box)
        super().__init__(weights)
        self.per_box = weights

    def _value(self, S: BoxSet) -> Fraction:
        return sum((self.per_box[b] for b in S), ZERO)

    def spec(self) -> dict:
        return {"kind": "additive", "per_box": {str(b): str(self.per_box[b]) for b in self.ground}}


class BudgetAdditiveCost(CostOracle):
    """c(S) = min(budget, sum of per-box costs)."""

    def __init__(self, per_box: Mapping[int, object] | Sequence[object], budget: object):
        weights = _per_box_weights(per_box)
        B = rat(budget)
        if B < 0:
            raise DomainError(f"negative budget {B}")
        super().__init__(weights)
        self.per_box = weights
        self.budget = B

    def _value(self, S: BoxSet) -> Fraction:
        return min(self.budget, sum((self.per_box[b] for b in S), ZERO))

    def spec(self) -> dict:
        return {
            "kind": "budget_additive",
            "per_box": {str(b): str(self.per_box[b]) for b in self.ground},
            "budget": str(self.budget),
        }


class CoverageCost(CostOracle):
    """c(S) = sum over elements e of w(e) * 1{S covers e}.

    An element is a (weight, group) pair; S covers e when it intersects e's
    group.  Weighted coverage functions are submodular, which is what the
    random-instance generators lean on.
    """

    def __init__(self, ground: Iterable[int], elements: Iterable[tuple[object, Iterable[int]]]):
        super().__init__(ground)
        elems = []
        for w, group in elements:
            weight = rat(w)
            if weight < 0:
                raise DomainError(f"negative element weight {weight}")
            g = frozenset(group)
            if not g <= self._members:
                raise DomainError(f"cover group {sorted(g)} outside ground {self.ground}")
            elems.append((weight, g))
        self.elements = tuple(elems)

    def _value(self, S: BoxSet) -> Fraction:
        return sum((w for w, g in self.elements if S & g), ZERO)

    def spec(self) -> dict:
        return {
            "kind": "coverage",
            "ground": list(self.ground),
            "elements": [[str(w), sorted(g)] for w, g in self.elements],
        }


class XosCost(CostOracle):
    """Max over additive clauses: c(S) = max_t sum_{i in S} a_t(i).

    Requires at least one clause; all clause weights must be >= 0, which
    makes the max monotone and normalized for free.  There is no validator
    that discovers XOS structure from a bare table -- the clause list IS the
    certificate, and `matches()` checks it against a reference function.
    """

    def __init__(self, ground: Iterable[int], clauses: Sequence[Mapping[int, object]]):
        super().__init__(ground)
        if not clauses:
            raise DomainError("an XOS cost needs at least one clause")
        store = []
        for t, clause in enumerate(clauses):
            weights = {}
            for b, w in clause.items():
                if b not in self._members:
                    raise DomainError(f"clause {t} mentions unknown box {b}")
                weight = rat(w)
                if weight < 0:
                    raise DomainError(f"clause {t} has negative weight {weight} on box {b}")
                if weight:
                    weights[b] = weight
            store.append(weights)
        self.clauses = tuple(store)

    def _value(self, S: BoxSet) -> Fraction:
        best = ZERO
        for clause in self.clauses:
            total = sum((w for b, w in clause.items() if b in S), ZERO)
            if total > best:
                best = total
        return best

    def spec(self) -> dict:
        return {
            "kind": "xos",
            "ground": list(self.ground),
            "clauses": [{str(b): str(w) for b, w in sorted(c.items())} for c in self.clauses],
        }


class TreeClosureCost(CostOracle):
    """Cost of the minimal root-connected superset in a precedence tree.

    The tree lives on nodes {0} u ground with root 0 (cost 0): opening a box
    means paying for every node on its path to the root that has not been
    paid for yet, so c(S) = sum of node costs over closure(S).
    """

    def __init__(self, parent: Mapping[int, int], node_costs: Mapping[int, object]):
        nodes = set(parent)
        if 0 in nodes:
            raise DomainError("the root 0 must not have a parent entry")
        super().__init__(nodes)
        self.parent = dict(parent)
        costs = {0: ZERO}
        for b in nodes:
            costs[b] = rat(node_costs.get(b, 0))
            if costs[b] < 0:
                raise DomainError(f"negative node cost at {b}")
        if rat(node_costs.get(0, 0)) != 0:
            raise DomainError("the root's cost must be 0")
        self.node_costs = costs
        # reject cycles / dangling parents by walking every node to the root
        for b in nodes:
            seen = set()
            cur = b
            while cur != 0:
                if cur in seen:
                    raise DomainError(f"cycle through node {cur}")
                seen.add(cur)
                if cur not in self.parent:
                    raise DomainError(f"node {cur} is disconnected from the root")
                cur = self.parent[cur]

    def closure(self, S: Iterable[int]) -> BoxSet:
        """Union of root paths of the nodes in S; always contains the root."""
        S = frozenset(S)
        if not S <= self._members:
            raise DomainError(f"nodes {sorted(S - self._members)} not in the tree")
        out = {0}
        for b in S:
            cur = b
            while cur not in out:
                out.add(cur)
                cur = self.parent[cur]
        return frozenset(out)

    def _value(self, S: BoxSet) -> Fraction:
        return sum((self.node_costs[b] for b in self.closure(S)), ZERO)

    def spec(self) -> dict:
        return {
            "kind": "tree",
            "parent": {str(b): self.parent[b] for b in self.ground},
            "node_costs": {str(b): str(self.node_costs[b]) for b in self.ground},
        }


@functools.lru_cache(maxsize=4, typed=True)
def _range_ground(n: int) -> tuple[tuple[int, ...], BoxSet]:
    """The ground 1..n as a tuple and a frozenset, shared by every HardnessCost
    on n boxes (the experiments build two oracles per trial)."""
    labels = tuple(range(1, n + 1))
    return labels, frozenset(labels)


class HardnessCost(CostOracle):
    """The query-complexity family: capped cardinality with an optional planted set.

    Baseline:  c0(S)  = min(|S|, alpha).
    Planted:   c_R(S) = min(|S|, alpha, beta + |S - R|)  for |R| = alpha.

    Both are matroid rank functions.  They agree on every S intersecting R
    in at most beta boxes, which is what makes the planted set hard to find
    by cost queries.  Evaluation is a closed form (the experiment harness
    queries millions of large random sets).
    """

    def __init__(self, n: int, alpha: int, beta: int | None = None, R: Iterable[int] | None = None):
        if n < 1:
            raise DomainError(f"need n >= 1, got {n}")
        if not 1 <= alpha <= n:
            raise DomainError(f"need 1 <= alpha <= n, got alpha = {alpha}")
        if beta is not None and not 0 < beta < alpha:
            raise DomainError(f"need 0 < beta < alpha, got beta = {beta}")
        self._adopt(*_range_ground(n))
        self.n = n
        self.alpha = alpha
        self.beta = beta
        if R is None:
            self.R = None
        else:
            if beta is None:
                raise DomainError("a planted set needs beta")
            R = frozenset(R)
            if not R <= self._members:
                raise DomainError("planted set outside 1..n")
            if len(R) != alpha:
                raise DomainError(f"planted set must have exactly alpha = {alpha} boxes, got {len(R)}")
            self.R = R

    def _value(self, S: BoxSet) -> Fraction:
        cap = min(len(S), self.alpha)
        if self.R is not None:
            cap = min(cap, self.beta + len(S - self.R))
        return Fraction(cap)

    def spec(self) -> dict:
        out: dict = {"kind": "hardness", "n": self.n, "alpha": self.alpha}
        if self.beta is not None:
            out["beta"] = self.beta
        if self.R is not None:
            out["R"] = sorted(self.R)
        return out


class MarginalOracle(CostOracle):
    """c(. | T) as an oracle on ground(inner) - T; normalized and monotone."""

    def __init__(self, inner: CostOracle, T: Iterable[int]):
        T = frozenset(T)
        if not T <= inner._members:
            raise DomainError(f"conditioning set {sorted(T)} outside {inner.ground}")
        self._adopt(tuple(b for b in inner.ground if b not in T), inner._members - T)
        self.inner = inner
        self.T = T
        self._base = inner.eval(T)

    def _value(self, S: BoxSet) -> Fraction:
        return self.inner.eval(S | self.T) - self._base


class ProjectionCost(CostOracle):
    """Pull a cost back through a relabelling: c'(S) = inner(image of S).

    `label_map` sends each new label to an inner label and may be
    many-to-one, in which case a second copy of an already-present box is
    free -- exactly the lifted-cost behavior the Bernoulli transformation
    needs.  With an injective map this is a plain restriction/renumbering.
    """

    def __init__(self, ground: Iterable[int], label_map: Mapping[int, int], inner: CostOracle):
        super().__init__(ground)
        missing = self._members - set(label_map)
        if missing:
            raise DomainError(f"label map misses {sorted(missing)}")
        image = {label_map[b] for b in self._members}
        if not image <= inner._members:
            raise DomainError("label map leaves the inner ground set")
        self.label_map = {b: label_map[b] for b in self.ground}
        self.inner = inner

    def _value(self, S: BoxSet) -> Fraction:
        return self.inner.eval({self.label_map[b] for b in S})

    def table(self) -> tuple[Fraction, ...]:
        # a subset costs what its image does: map bitmasks into the inner
        # table (when it is no bigger) rather than evaluate 2^n images
        if self._table is None and self.inner.arity <= self.arity:
            guard("validator", self.arity)
            inner = self.inner.table()
            bit = {b: 1 << i for i, b in enumerate(self.inner.ground)}
            image = [0]
            for b in self.ground:
                image += [m | bit[self.label_map[b]] for m in image]
            self._table = tuple(inner[m] for m in image)
        return super().table()

    def spec(self) -> dict:
        return {
            "kind": "projection",
            "ground": list(self.ground),
            "label_map": {str(b): self.label_map[b] for b in self.ground},
            "inner": self.inner.spec(),
        }


class QueryCountingOracle(CostOracle):
    """Forwarding wrapper that tallies every eval call.

    `table()` is the inner oracle's cached table, counted as 2^n queries
    once: a tabulation asks for each subset exactly once.
    """

    def __init__(self, inner: CostOracle):
        self._adopt(inner.ground, inner._members)
        self.inner = inner
        self.count = 0

    def _value(self, S: BoxSet) -> Fraction:
        self.count += 1
        return self.inner.eval(S)

    def table(self) -> tuple[Fraction, ...]:
        if self._table is None:
            self._table = self.inner.table()
            self.count += len(self._table)
        return self._table


def xos_lift(f: CostOracle) -> XosCost:
    """Lift a monotone normalized f on X to an XOS g on {0} u X.

    g(S) = |X| * f(X) * 1{S nonempty} + f(S & X), realized by one clause per
    nonempty S <= X putting (|X|*f(X) + f(S)) / |S| on each box of S, plus a
    clause putting |X|*f(X) on the fresh box 0.  The marginal of g at {0} is
    exactly f, so any instance-level properties of f survive the lift while
    g itself stops being submodular in interesting cases.

    Reads f's table, so it shares the validator size guard.  Raises if f
    turns out not to be normalized and monotone, which the lift's
    correctness rests on.
    """
    n = f.arity
    guard("xos_lift", n)
    if 0 in f._members:
        raise DomainError("lift needs the label 0 to be free")
    values = f.table()
    bad = _check_monotone_normalized(f.ground, values, 1)
    if bad:
        raise DomainError(f"lifted function fails monotone_normalized: {bad}")
    big = n * values[-1]
    clauses: list[dict[int, Fraction]] = [{0: big}]
    for mask in _masks_by_size(n):
        if mask:
            S = _labels_of(mask, f.ground)
            share = (big + values[mask]) / len(S)
            clauses.append({b: share for b in S})
    g = XosCost(sorted(f._members | {0}), clauses)
    if n <= 6:
        # the clause construction provably reproduces the formula; keep the
        # self-check where it costs nothing (it is quadratic in the 2^n
        # clause count, so only at toy sizes)
        ok, witness = g.matches(lambda S: (big if S else ZERO) + f.eval(S - {0}))
        if not ok:
            raise AssertionError(f"XOS lift certificate broken at {sorted(witness)}")
    return g
