"""Exact optimal solvers per strategy class, plus the adaptivity-gap report.

Every solver returns (utility, strategy).  All are exhaustive and exact:

* adaptive: subset/running-max dynamic program, bottom-up over subsets,
  evaluated only at the live states: running maxima that can occur once the
  subset is open (0 or an atom of an opened box), below the top atom of the
  boxes still closed (at most 2^n * |support| states);
* fixed order with thresholds: depth-first search over ordered suffixes,
  sharing the threshold recursion between orders with a common tail;
* impulsive: subset dynamic program over the boxes already opened, all of
  which came up 0 (Bernoulli instances);
* weitzman: the classical descending reservation-value rule, additive costs
  only, used as an independent cross-check of the DP.

Instances come in and utilities, thresholds and witnesses go out as
Fractions.  In between, the exhaustive kernels run on Python ints: values and
costs scaled to one common denominator and probabilities to another (see
`_integer_view`), which keeps every comparison exact -- "strictly positive
utility" still means an exact comparison -- at a fraction of the cost of
Fraction arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .costs import AdditiveCost, Table
from .errors import DomainError
from .instances import FiniteDistribution, Instance, support_union
from .limits import guard, guard_bits
from .rationals import INF, Extended, rat, scaled
from .strategies import (
    FixedOrderThresholds,
    ImpulsiveStrategy,
    PolicyTree,
    eval_fixed_order,
)

ZERO = Fraction(0)


def _integer_view(instance: Instance, costs: Table, vectors: int, width: int | None = None):
    """The instance on integers, for the exhaustive kernels below.

    `costs` holds monotone costs as ints at scale D (a `CostOracle.table()`).
    Returns (grid, boxes, costs, Dv, Dp).  `grid` is `support_union`; a
    running max x is an index into it.  Values and costs are scaled to Dv,
    the lcm of D and the values' denominators, and probabilities by Dp, the
    lcm over every box.  Per box, in label order: its atoms as
    (grid index, p * Dp), then over the grid E[(V - x)^+] * Dv * Dp and
    P(V <= x) * Dp.

    A quantity with k boxes still to open is held at scale Dv * Dp^k, so
    numbers compared with one another share one scale.  Raises
    CapabilityError first if the rescaled costs or `vectors` vectors of
    `width` such quantities (default: one per grid point) would exceed the
    bit budget.
    """
    grid = support_union(instance)
    values, Dv = scaled(grid, costs.D)
    costs, up = costs.ints, Dv // costs.D
    if up > 1:
        guard_bits(len(costs), costs[-1].bit_length() + up.bit_length())
        costs = [c * up for c in costs]
    probs, Dp = scaled([p for box in instance.boxes for _, p in box.atoms])
    guard_bits(vectors * (width or len(grid)),
               values[-1].bit_length() + instance.n * Dp.bit_length())
    index = {v: k for k, v in enumerate(grid)}
    probs = iter(probs)
    boxes = []
    for box in instance.boxes:
        atoms = [(index[v], next(probs)) for v, _ in box.atoms]
        excess = [sum(p * (values[v] - y) for v, p in atoms if v > x) for x, y in enumerate(values)]
        low = [sum(p for v, p in atoms if v <= x) for x in range(len(grid))]
        boxes.append((atoms, excess, low))
    return grid, boxes, costs, Dv, Dp


def optimal_adaptive(instance: Instance) -> tuple[Fraction, PolicyTree]:
    """Optimum over all deterministic adaptive strategies, with a witness tree.

    State: (opened set, running max x).  Accounting is incremental -- the
    final collected value equals the sum of the increments (v - x)^+ observed
    along the way, since the running max telescopes from 0 to its final
    value.  Hence

        W(S, x) = max(0, max_{i not in S} [ -c(i|S)
                    + sum_v p_v ((v - x)^+ + W(S u {i}, max(x, v))) ])

    and the utility is W(empty, 0).  x only ever takes support values (plus
    0), so the state space is finite and the recursion exact.  W(S, .) is a
    row over the grid, filled from the full set down by one `_fold` per box
    outside S, at scale Dv * Dp^(n - |S|) (`_integer_view`).

    Only live states are evaluated: x is 0 or an atom of a box in S (no other
    running max can occur once S is open), and x lies below the top atom of
    the boxes outside S.  At or above that atom W(S, x) = 0, since no excess
    is left and costs are nonnegative, which is what the row already holds.
    The recursion and the witness read W only at live states, so the rest of
    the row is never consulted.  Witness tree tie-breaks: Halt whenever W =
    0; otherwise the smallest-labelled maximizing box.
    """
    guard("adaptive", instance.n)
    labels = instance.labels
    n = instance.n
    grid, boxes, costs, Dv, Dp = _integer_view(instance, instance.cost.table(), 1 << n)
    lift = [Dp ** k for k in range(n + 1)]
    full = (1 << n) - 1
    tops = [atoms[-1][0] for atoms, _, _ in boxes]     # grid index of each top atom
    # by mask, as bits: the grid indices the running max can take once it is open
    reach = [1] * (full + 1)
    for mask in range(1, full + 1):
        i = (mask & -mask).bit_length() - 1
        reach[mask] = reach[mask & mask - 1] | sum(1 << v for v, _ in boxes[i][0])
    W = [None] * full + [[0] * len(grid)]

    def opening(mask: int, i: int, row: list[int], xs) -> list[int]:
        # raise row[x], for x in xs, to the value of opening box i in state
        # (mask, x) and then playing optimally
        k = n - mask.bit_count()
        nxt = mask | 1 << i
        _fold(row, boxes[i], (costs[nxt] - costs[mask]) * lift[k], lift[k - 1], W[nxt], xs)
        return row

    for mask in range(full - 1, -1, -1):
        closed = [i for i in range(n) if not mask >> i & 1]
        live = reach[mask]
        xs = [x for x in range(max(tops[i] for i in closed)) if live >> x & 1]
        row = W[mask] = [0] * len(grid)
        # `opening` each closed box, with the factors shared by the mask hoisted
        here, up, down = costs[mask], lift[len(closed)], lift[len(closed) - 1]
        for i in closed:
            nxt = mask | 1 << i
            _fold(row, boxes[i], (costs[nxt] - here) * up, down, W[nxt], xs)

    @cache          # one node per state, shared by every history reaching it
    def build(mask: int, x: int) -> PolicyTree:
        target = W[mask][x]
        if target == 0:
            return PolicyTree.halt()
        i = next(i for i in range(n)
                 if not mask >> i & 1 and opening(mask, i, [0] * len(grid), (x,))[x] == target)
        children = {
            grid[v]: build(mask | 1 << i, v if v > x else x)
            for v, _ in boxes[i][0]
        }
        return PolicyTree.open(labels[i], children)

    return Fraction(W[0][0], Dv * lift[n]), build(0, 0)


def _fold(row: list[int], box, cut: int, lift: int, nxt: list[int], xs) -> None:
    """Raise row[x] to f(x) = sum_v p_v [ (v-x)^+ + nxt(max(v,x)) ] - marg, for
    each grid index x in `xs` (ascending): the value of opening box sigma_i
    (as in `_integer_view`) at running max x and continuing with `nxt`,
    where marg = c(sigma_i | the boxes opened before it).  With k boxes from
    sigma_i on, `nxt` is at scale Dv * Dp^(k-1), `lift` = Dp^(k-1), `cut` =
    marg * Dv * Dp^k, and row comes back at scale Dv * Dp^k.  A row of zeros
    folded once over the whole grid is max(0, f), the threshold recursion's
    f_i; several boxes folded into one row give the max over them.
    """
    atoms, excess, low = box
    above = 0                       # sum of p_v nxt(v) over atoms v > x
    pending = reversed(atoms)       # the atoms not yet in `above`, top first
    v, p = next(pending)
    for x in reversed(xs):
        while v > x:
            above += p * nxt[v]
            v, p = next(pending, (-1, 0))
        val = excess[x] * lift + above + low[x] * nxt[x] - cut
        if val > row[x]:
            row[x] = val


def _backward_step(box, cut: int, lift: int, nxt: list[int]) -> tuple[list[int], int]:
    """f_i = max(0, f) of `_fold` over the whole grid, and t_i, the grid
    index of its first zero.

    On-grid thresholds lose nothing: the running max only takes grid values,
    so "best >= t" behaves identically to "best >= (least grid value >= t)".
    f_i is non-increasing and 1-Lipschitz in x, which the property tests
    exercise, and f_i(max grid) = 0 (no excess above the top value, and costs
    are nonnegative, by downward induction on i), so its first zero is the
    least x with f_i(x) = 0.
    """
    here = [0] * len(nxt)
    _fold(here, box, cut, lift, nxt, range(len(nxt)))
    return here, here.index(0)


def _threshold_dp(instance: Instance,
                  sigma: tuple[int, ...]) -> tuple[tuple[Extended, ...], Fraction]:
    """Thresholds and utility of one (possibly partial) order: f_{n+1} = 0,
    then one `_backward_step` per box from the back."""
    n = len(sigma)
    prefix = Table(*scaled([instance.cost.eval(sigma[:i]) for i in range(n + 1)]))
    grid, boxes, prefix, Dv, Dp = _integer_view(instance, prefix, 2)
    position = {b: i for i, b in enumerate(instance.labels)}
    f = [0] * len(grid)
    thresholds: list[Extended] = [INF] * n
    lift = 1
    for i in range(n - 1, -1, -1):
        f, t_i = _backward_step(boxes[position[sigma[i]]],
                                (prefix[i + 1] - prefix[i]) * lift * Dp, lift, f)
        thresholds[i] = grid[t_i]
        lift *= Dp
    return tuple(thresholds), Fraction(f[0], Dv * lift)


def optimal_thresholds(instance: Instance,
                       sigma) -> tuple[Fraction, FixedOrderThresholds]:
    """Best thresholds for a given permutation, via the f_i backward recursion."""
    sigma = tuple(sigma)
    if set(sigma) != set(instance.labels) or len(sigma) != instance.n:
        raise DomainError(f"sigma {sigma} is not a permutation of {instance.labels}")
    thresholds, utility = _threshold_dp(instance, sigma)
    return utility, FixedOrderThresholds(sigma, thresholds)


def optimal_fixed_order(instance: Instance) -> tuple[Fraction, FixedOrderThresholds]:
    """Best fixed order with thresholds, by a depth-first search over suffixes.

    f_i depends only on the ordered suffix sigma_i..sigma_n, whose complement
    is the set in front of sigma_i, so each node prepends one box and applies
    one `_backward_step` to its parent's f, reading the marginal cost from
    `cost.table()`.  Orders that share a suffix share its work: about e * n!
    steps, against n * n! for a scan per order.  Every complete order ends at
    scale Dv * Dp^n, where ties go to the lexicographically least sigma.
    """
    guard("order_enum", instance.n)
    n = instance.n
    grid, boxes, costs, Dv, Dp = _integer_view(instance, instance.cost.table(), n + 1)
    lift = [Dp ** k for k in range(n + 2)]
    full = (1 << n) - 1
    best = None                     # (-utility, sigma, thresholds), least wins

    def grow(mask: int, k: int, f: list[int], sigma: tuple, thresholds: tuple) -> None:
        nonlocal best
        if mask == full and (best is None or (-f[0], sigma) < best[:2]):
            best = (-f[0], sigma, thresholds)
        head = full ^ mask          # the boxes in front of the suffix
        for i, b in enumerate(instance.labels):
            if head >> i & 1:
                here, t_i = _backward_step(boxes[i], (costs[head] - costs[head ^ 1 << i])
                                           * lift[k + 1], lift[k], f)
                grow(mask | 1 << i, k + 1, here, (b,) + sigma, (grid[t_i],) + thresholds)

    grow(0, 0, [0] * len(grid), (), ())
    neg_utility, sigma, thresholds = best
    return Fraction(-neg_utility, Dv * lift[n]), FixedOrderThresholds(sigma, thresholds)


def optimal_impulsive(instance: Instance) -> tuple[Fraction, ImpulsiveStrategy]:
    """Best impulsive strategy, by a dynamic program over opened sets.

    Bernoulli instances only.  A tuple halting at its first non-zero value
    earns sum_j q_1..q_{j-1} (p_j v_j - c(sigma_j | sigma_1..sigma_{j-1})), so
    the best continuation once every box in P came up 0 depends on P alone:

        G(P) = max(0, max_{b not in P} [p_b v_b - c(b|P) + q_b G(P u b)])

    and the utility is G(empty).  G is filled from the full set down, as in
    `optimal_adaptive`, at scale Dv * Dp^(n - |P|).  Witness: from the empty
    set, halt once G = 0 or right after a box with p = 1 (no later slot is
    reached), otherwise append the least label attaining G -- the least
    optimal tuple, with a prefix before its extensions.
    """
    guard("adaptive", instance.n)
    if not instance.is_bernoulli():
        raise DomainError("impulsive strategies need a weighted-Bernoulli instance")
    n = instance.n
    _, boxes, costs, Dv, Dp = _integer_view(instance, instance.cost.table(), 1 << n, 1)
    # per box (p_b v_b * Dv * Dp, q_b * Dp), read off the view: q_b = P(V <= 0)
    boxes = [(excess[0], low[0]) for _, excess, low in boxes]
    lift = [Dp ** k for k in range(n + 1)]
    full = (1 << n) - 1
    G = [0] * (full + 1)

    def opening(mask: int, i: int) -> int:
        k = n - mask.bit_count()
        nxt = mask | 1 << i
        pv, qb = boxes[i]
        return pv * lift[k - 1] - (costs[nxt] - costs[mask]) * lift[k] + qb * G[nxt]

    for mask in range(full - 1, -1, -1):
        G[mask] = max(0, *(opening(mask, i) for i in range(n) if not mask >> i & 1))

    order, mask = [], 0
    while G[mask] > 0:
        i = next(i for i in range(n) if not mask >> i & 1 and opening(mask, i) == G[mask])
        order.append(instance.labels[i])
        if boxes[i][1] == 0:
            break
        mask |= 1 << i
    return Fraction(G[0], Dv * lift[n]), ImpulsiveStrategy(tuple(order))


def _tail_root(atoms, c: Fraction) -> Fraction:
    """The least z with sum p * (v - z)^+ <= c over the (v, p) `atoms`, for
    c > 0 and at least one atom of positive probability.

    The tail sum is piecewise linear and decreasing with breakpoints at the
    atoms, so walking them top-down finds the one segment it crosses c on;
    below the least atom it continues with slope -sum p.
    """
    acc = ZERO          # the tail sum at `prev`
    mass = ZERO         # its slope just below `prev`: the probability at or above it
    prev = None
    for v, p in sorted(atoms, reverse=True):
        if prev is not None:
            at_v = acc + mass * (prev - v)
            if at_v > c:
                break
            acc = at_v
        mass += p
        prev = v
    return prev - (c - acc) / mass


def reservation_value(box: FiniteDistribution, c_i) -> Fraction:
    """The z solving sum_{v > 0} p_v (v - z)^+ = c_i, exactly.

    Only the positive prizes enter the tail sum (the hypothetical "pay c,
    collect the prize if it beats z" trade), so below the least positive
    atom the function keeps slope -P(V > 0) and the solution extends to
    negative z -- a negative reservation value is precisely the "never worth
    opening in isolation" flag (it happens iff c_i exceeds E[V]).  For
    c_i = 0 the solution set is [v_max, inf); we return v_max.
    """
    c = rat(c_i)
    if c < 0:
        raise DomainError(f"need a nonnegative cost, got {c}")
    if c == 0:
        return box.support[-1]
    positives = [(v, p) for v, p in box.atoms if v > 0]
    if not positives:
        raise DomainError("a constant-zero box has no reservation value for c > 0")
    return _tail_root(positives, c)


def weitzman(instance: Instance) -> tuple[Fraction, FixedOrderThresholds]:
    """The classical index rule: open in descending reservation-value order,
    halting once the best observed value reaches the next box's reservation
    value.  Rejects non-additive costs outright -- with combinatorial costs
    the index logic gives wrong answers (two boxes can be worth opening
    jointly while each alone is not), and silently running it would bury
    that fact."""
    if not isinstance(instance.cost, AdditiveCost):
        raise DomainError(
            "weitzman needs an additive cost; combinatorial costs have no "
            "per-box reservation value (use optimal_adaptive instead)"
        )
    z = {
        b: reservation_value(instance.box(b), instance.cost.per_box[b])
        for b in instance.labels
    }
    sigma = tuple(sorted(instance.labels, key=lambda b: (-z[b], b)))
    thresholds = tuple(max(z[b], ZERO) for b in sigma)
    strategy = FixedOrderThresholds(sigma, thresholds)
    return eval_fixed_order(instance, strategy), strategy


@dataclass(frozen=True)
class GapReport:
    """Exact utilities of the three strategy classes plus strict-gap flags.

    opt_impulsive / witness_impulsive are None off the Bernoulli domain.
    The class chain opt_adaptive >= opt_fixed_order >= opt_impulsive >= 0 is
    checked during construction (AssertionError if broken, also under -O).
    """

    opt_adaptive: Fraction
    opt_fixed_order: Fraction
    opt_impulsive: Fraction | None
    witness_adaptive: PolicyTree
    witness_fixed_order: FixedOrderThresholds
    witness_impulsive: ImpulsiveStrategy | None
    strict_gap: dict

    def __post_init__(self):
        chain = [u for u in (self.opt_adaptive, self.opt_fixed_order,
                             self.opt_impulsive, ZERO) if u is not None]
        if any(a < b for a, b in zip(chain, chain[1:])):
            raise AssertionError(f"class chain broken: {[str(u) for u in chain]}")


def adaptivity_gap(instance: Instance) -> GapReport:
    """Run every applicable solver and compare the optima exactly.

    Both enumeration caps are checked before the adaptive DP runs."""
    guard("adaptive", instance.n)
    guard("order_enum", instance.n)
    utility_a, tree = optimal_adaptive(instance)
    utility_f, fixed = optimal_fixed_order(instance)
    if instance.is_bernoulli():
        utility_i, imp = optimal_impulsive(instance)
        gaps = {
            "adaptive_vs_fixed": utility_a > utility_f,
            "fixed_vs_impulsive": utility_f > utility_i,
            "adaptive_vs_impulsive": utility_a > utility_i,
        }
    else:
        utility_i, imp = None, None
        gaps = {"adaptive_vs_fixed": utility_a > utility_f}
    return GapReport(
        opt_adaptive=utility_a,
        opt_fixed_order=utility_f,
        opt_impulsive=utility_i,
        witness_adaptive=tree,
        witness_fixed_order=fixed,
        witness_impulsive=imp,
        strict_gap=gaps,
    )
