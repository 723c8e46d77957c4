"""Cost oracles: set functions c : 2^ground -> Q>=0 queried by evaluation.

Every concrete family is normalized (c(empty) = 0) and monotone, either by
construction (additive, coverage, ...) or by eager table validation
(ExplicitCost).  Oracles are immutable after construction.  Every 2^n layer
reads `CostOracle.table()`, the one cache: the `Table` (ints, D), ints[S] =
c(S) * D by bitmask S (bit i <-> ground[i]) with D the lcm of the cost's own
denominators.  Each kind builds its ints with no Fraction per subset (see
`_ints`); `eval` recomputes, and a QueryCountingOracle shares its inner
oracle's table, counted as 2^n queries once.  Only grounds given by the
caller are validated; wrappers reuse their inner's, and every `HardnessCost`
on n boxes shares one cached 1..n ground (tuple and frozenset), so
construction is O(1) once that ground exists.  The JSON form of each kind
is written and read in `serialize`.
"""
from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from operator import gt
from typing import Callable, Iterable, Mapping, Sequence

from .errors import DomainError
from .limits import bound, guard, guard_bits
from .rationals import rat, scaled

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


def _halves(vals: Sequence[int], i: int) -> tuple[list, list]:
    """The entries of a bitmask table at the masks without bit i and at those
    with it, each in mask order: entry k of both belongs to the mask
    `_insert_bit(k, i)`, without and with bit i.  Copied by slices, strided
    while bit i is low and block by block once it is high."""
    step = 1 << i
    blocks = len(vals) >> i + 1
    without, with_i = [0] * (blocks * step), [0] * (blocks * step)
    if step <= blocks:
        for r in range(step):
            without[r::step] = vals[r::2 * step]
            with_i[r::step] = vals[r + step::2 * step]
    else:
        for b in range(0, blocks * step, step):
            without[b:b + step] = vals[2 * b:2 * b + step]
            with_i[b:b + step] = vals[2 * b + step:2 * b + 2 * step]
    return without, with_i


def _insert_bit(k: int, i: int) -> int:
    """The mask whose bits other than i read k, with bit i clear."""
    return (k >> i) << (i + 1) | k & ((1 << i) - 1)


def _check_monotone_normalized(labels, vals, D) -> dict | None:
    """None if the bitmask table `vals` (values times D) is normalized and
    monotone, else a witness: c(empty), or the first S and x by mask, then
    bit, with c(S + x) < c(S).  Each bit compares the two halves of the
    table at once; the least violation over the bits is the witness."""
    n = len(labels)
    if vals[0] != 0:
        return {"reason": "not normalized", "c_empty": str(Fraction(vals[0], D))}
    first = None
    for i in range(n):
        drops = list(map(gt, *_halves(vals, i)))
        if True in drops:
            here = _insert_bit(drops.index(True), i), i
            if first is None or here < first:
                first = here
    if first is None:
        return None
    mask, i = first
    return {
        "reason": "not monotone",
        "S": _labels_of(mask, labels),
        "x": labels[i],
        "c_S": str(Fraction(vals[mask], D)),
        "c_Sx": str(Fraction(vals[mask | 1 << i], D)),
    }


def _cover_ints(weights: Sequence[int], cover: Sequence[int] | None = None) -> list[int]:
    """By bitmask S: the total integer weight of the elements S covers, box i
    covering the element bits set in cover[i] (by default element i alone:
    an additive sum).  One doubling pass, after checking the bit budget: S
    plus box i adds the weight of the elements box i newly covers."""
    if cover is None:
        cover = [1 << i for i in range(len(weights))]
    guard_bits(1 << len(cover), sum(weights).bit_length())
    gain = {0: 0}                   # total weight of an element bitmask
    covered, vals = [0], [0]
    for box in cover:
        fresh = [box & ~c for c in covered]
        for e in set(fresh).difference(gain):
            gain[e] = sum(w for k, w in enumerate(weights) if e >> k & 1)
        vals += [v + gain[e] for v, e in zip(vals, fresh)]
        covered += [c | box for c in covered]
    return vals


class Table:
    """c(S) for every S <= ground by bitmask, held as ints[S] = c(S) * D: the
    kernels read `ints` and `D`; indexing makes the Fraction c(S) on access."""

    __slots__ = ("ints", "D")

    def __init__(self, ints: list[int], D: int):
        self.ints = ints
        self.D = D

    def __len__(self) -> int:
        return len(self.ints)

    def __getitem__(self, mask: int) -> Fraction:
        return Fraction(self.ints[mask], self.D)


class CostOracle:
    """Base class for all cost functions.

    `ground` is the sorted tuple of box labels the oracle is defined on.  The
    default labelling of an n-box instance is 1..n, but transformed oracles may
    use other labels (the XOS lift adds a box 0, the Bernoullification
    relabels copies).  Subclasses implement `_value(S)` and, to tabulate
    without a Fraction per subset, `_ints()`; `eval` checks the set against
    the ground and never caches, `table()` is the one cache.
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
        self._table: Table | None = None

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

    def table(self) -> Table:
        """c(S) for every S <= ground as the `Table` (ints, D), built by `_ints`
        once; raises CapabilityError above the validator bound, or before
        building ints past the bit budget of `limits.guard_bits`."""
        guard("validator", self.arity)
        if self._table is None:
            self._table = Table(*self._ints())
        return self._table

    def _ints(self) -> tuple[list[int], int]:
        # the generic fill, for an oracle with no kernel: one `_value` per subset
        return scaled([self._value(frozenset(_labels_of(m, self.ground)))
                       for m in range(1 << self.arity)])

    def matches(self, reference: Callable[[BoxSet], Fraction]) -> tuple[bool, BoxSet | None]:
        """Certificate check: does this oracle agree with `reference` on every
        subset?  (True, None) or (False, the first disagreeing subset by size,
        then lexicographically); guarded like `table()`."""
        mine = self.table()
        for mask in _masks_by_size(self.arity):
            S = frozenset(_labels_of(mask, self.ground))
            want = reference(S)
            if mine.ints[mask] * want.denominator != want.numerator * mine.D:
                return False, S
        return True, None


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
    (and nonnegative: monotone from c(empty) = 0).  The entries are scaled
    to ints by bitmask once, here: that is the table, and `eval` reads it.
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
        self._bit = {b: 1 << i for i, b in enumerate(self.ground)}
        vals = [ZERO] * (1 << n)
        for key, cost in entries.items():
            if not key <= self._members:
                raise DomainError(f"table key {sorted(key)} outside ground set {self.ground}")
            vals[sum(self._bit[b] for b in key)] = cost
        self._table = Table(*scaled(vals))
        bad = _check_monotone_normalized(self.ground, self._table.ints, self._table.D)
        if bad:
            raise DomainError(f"explicit cost table fails monotone_normalized: {bad}")

    def _value(self, S: BoxSet) -> Fraction:
        return self._table[sum(self._bit[b] for b in S)]


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
    """c(S) = sum of per-box costs.

    The weights are also held as ints at one denominator D, the table's
    scale, so `_value` sums ints and makes one Fraction per query."""

    def __init__(self, per_box: Mapping[int, object] | Sequence[object]):
        weights = _per_box_weights(per_box)
        super().__init__(weights)
        self.per_box = weights
        ints, self._D = scaled([weights[b] for b in self.ground])
        self._scaled = dict(zip(self.ground, ints))

    def _value(self, S: BoxSet) -> Fraction:
        return Fraction(sum(self._scaled[b] for b in S), self._D)

    def _ints(self) -> tuple[list[int], int]:
        return _cover_ints(list(self._scaled.values())), self._D


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

    def _ints(self) -> tuple[list[int], int]:
        # the sum capped at B * D; a weight above the cap caps any sum it enters
        ints, D = scaled([self.per_box[b] for b in self.ground] + [self.budget])
        cap = ints.pop()
        return [min(v, cap) for v in _cover_ints([min(w, cap) for w in ints])], D


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

    def _ints(self) -> tuple[list[int], int]:
        ints, D = scaled([w for w, _ in self.elements])
        return _cover_ints(ints, [sum(1 << e for e, (_, g) in enumerate(self.elements) if b in g)
                                  for b in self.ground]), D


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

    def _ints(self) -> tuple[list[int], int]:
        # each clause's additive sum, then their max
        ints, D = scaled([w for clause in self.clauses for w in clause.values()])
        ints, best = iter(ints), [0] * (1 << self.arity)
        for clause in self.clauses:
            weights = dict(zip(clause, ints))
            best = list(map(max, best, _cover_ints([weights.get(b, 0) for b in self.ground])))
        return best, D


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
        given = {b: rat(c) for b, c in node_costs.items()}
        costs = {0: ZERO}
        for b in nodes:
            costs[b] = given.get(b, ZERO)
            if costs[b] < 0:
                raise DomainError(f"negative node cost at {b}")
        if given.get(0, ZERO) != 0:
            raise DomainError("the root's cost must be 0")
        self.node_costs = costs
        # reject cycles / dangling parents by walking every node towards the
        # root; a walk stops at the first node already known to reach it
        reaches_root = {0}
        for b in nodes:
            seen = set()
            cur = b
            while cur not in reaches_root:
                if cur in seen:
                    raise DomainError(f"cycle through node {cur}")
                seen.add(cur)
                if cur not in self.parent:
                    raise DomainError(f"node {cur} is disconnected from the root")
                cur = self.parent[cur]
            reaches_root |= seen

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

    def _ints(self) -> tuple[list[int], int]:
        # coverage of the nodes: a box covers its closure (the root costs 0)
        ints, D = scaled([self.node_costs[b] for b in self.ground])
        bit = {b: 1 << i for i, b in enumerate(self.ground)}
        return _cover_ints(ints, [sum(bit.get(v, 0) for v in self.closure({b}))
                                  for b in self.ground]), D


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

    def _ints(self) -> tuple[list[int], int]:
        # by popcount; the baseline is the planted form with beta = alpha, R empty
        beta, R = (self.alpha, ()) if self.R is None else (self.beta, self.R)
        out = sum(1 << (b - 1) for b in self._members.difference(R))   # bit i <-> box i + 1
        return [min(m.bit_count(), self.alpha, beta + (m & out).bit_count())
                for m in range(1 << self.n)], 1


class ProjectionCost(CostOracle):
    """Pull a cost back through a relabelling: c'(S) = inner(image of S).

    `label_map` sends each new label to an inner label and may be
    many-to-one, in which case a second copy of an already-present box is
    free -- exactly the lifted-cost behavior the Bernoulli transformation
    needs.  With an injective map this is a plain restriction/renumbering.
    A projection of a projection is composed into one, so `inner` is never
    itself a projection.
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
        if isinstance(inner, ProjectionCost):
            self.label_map = {b: inner.label_map[a] for b, a in self.label_map.items()}
            inner = inner.inner
        self.inner = inner

    def _value(self, S: BoxSet) -> Fraction:
        return self.inner.eval({self.label_map[b] for b in S})

    def _ints(self) -> tuple[list[int], int]:
        # a subset costs what its image does: map bitmasks into the inner ints
        # rather than evaluate 2^n images, unless that table is both larger
        # and above the bound on tables
        if self.inner.arity > max(self.arity, bound("validator")):
            return super()._ints()
        inner = self.inner.table()
        bit = {b: 1 << i for i, b in enumerate(self.inner.ground)}
        image = [0]
        for b in self.ground:
            image += [m | bit[self.label_map[b]] for m in image]
        return [inner.ints[m] for m in image], inner.D


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

    def table(self) -> Table:
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
    table = f.table()
    values, D = table.ints, table.D
    bad = _check_monotone_normalized(f.ground, values, D)
    if bad:
        raise DomainError(f"lifted function fails monotone_normalized: {bad}")
    big = n * values[-1]            # |X| * f(X), times D
    clauses: list[dict[int, Fraction]] = [{0: Fraction(big, D)}]
    for mask in _masks_by_size(n):
        if mask:
            S = _labels_of(mask, f.ground)
            share = Fraction(big + values[mask], D * len(S))
            clauses.append({b: share for b in S})
    g = XosCost(sorted(f._members | {0}), clauses)
    if n <= 6:
        # the clause construction provably reproduces the formula; keep the
        # self-check where it costs nothing (it is quadratic in the 2^n
        # clause count, so only at toy sizes)
        ok, witness = g.matches(lambda S: (Fraction(big, D) if S else ZERO) + f.eval(S - {0}))
        if not ok:
            raise AssertionError(f"XOS lift certificate broken at {sorted(witness)}")
    return g
