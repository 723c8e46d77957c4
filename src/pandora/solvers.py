"""Exact optimal solvers per strategy class, plus the adaptivity-gap report.

All solvers are exhaustive and exact:

* adaptive: subset/running-max dynamic program (2^n * |support| states);
* fixed order with thresholds: depth-first search over ordered suffixes,
  sharing the threshold recursion between orders with a common tail;
* impulsive: depth-first search over ordered prefixes (Bernoulli instances);
* weitzman: the classical descending reservation-value rule, additive costs
  only, used as an independent cross-check of the DP.

Utilities are Fractions end to end; "strictly positive utility" always means
an exact comparison.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .costs import AdditiveCost
from .errors import DomainError
from .instances import ONE, FiniteDistribution, Instance, support_union
from .limits import guard
from .rationals import INF, Extended, rat
from .strategies import (
    FixedOrderThresholds,
    ImpulsiveStrategy,
    PolicyTree,
    eval_fixed_order,
)

ZERO = Fraction(0)


def optimal_adaptive(instance: Instance) -> tuple[Fraction, PolicyTree]:
    """Optimum over all deterministic adaptive strategies, with a witness tree.

    State: (opened set, running max x).  Accounting is incremental -- the
    final collected value equals the sum of the increments (v - x)^+ observed
    along the way, since the running max telescopes from 0 to its final
    value.  Hence

        W(S, x) = max(0, max_{i not in S} [ -c(i|S)
                    + sum_v p_v ((v - x)^+ + W(S u {i}, max(x, v))) ])

    and the utility is W(empty, 0).  x only ever takes support values (plus
    0), so the state space is finite and the recursion exact.  Witness tree
    tie-breaks: Halt whenever W = 0; otherwise the smallest-labelled
    maximizing box.
    """
    guard("adaptive", instance.n)
    labels = instance.labels
    n = instance.n
    atoms = [instance.box(b).atoms for b in labels]
    table = instance.cost.table()
    memo: dict[tuple[int, Fraction], Fraction] = {}

    def opening(mask: int, x: Fraction, i: int) -> Fraction:
        # value of opening box i in state (mask, x), then playing optimally
        nxt = mask | 1 << i
        val = table[mask] - table[nxt]  # == -marginal cost of box i
        for v, p in atoms[i]:
            gain = v - x if v > x else ZERO
            val += p * (gain + W(nxt, v if v > x else x))
        return val

    def W(mask: int, x: Fraction) -> Fraction:
        key = (mask, x)
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = max([ZERO] + [opening(mask, x, i) for i in range(n)
                                            if not mask >> i & 1])
        return hit

    def build(mask: int, x: Fraction) -> PolicyTree:
        target = W(mask, x)
        if target == 0:
            return PolicyTree.halt()
        chosen = next(i for i in range(n)
                      if not mask >> i & 1 and opening(mask, x, i) == target)
        children = {
            v: build(mask | 1 << chosen, v if v > x else x)
            for v, _ in atoms[chosen]
        }
        return PolicyTree.open(labels[chosen], children)

    utility = W(0, ZERO)
    return utility, build(0, ZERO)


def _backward_step(atoms, marg: Fraction, grid: tuple[Fraction, ...],
                   nxt: dict[Fraction, Fraction]) -> tuple[dict[Fraction, Fraction], Fraction]:
    """f_i(x) = max(0, sum_v p_v [ (v-x)^+ + f_{i+1}(max(v,x)) ] - marg) over
    the support grid, for box sigma_i with `atoms` and marginal cost `marg` =
    c(sigma_i | sigma_1..sigma_{i-1}); and t_i, the least grid x with f_i(x) = 0.

    On-grid thresholds lose nothing: the running max only takes grid values,
    so "best >= t" behaves identically to "best >= (least grid value >= t)",
    and a least grid zero of f_i always exists because f_i(max grid) = 0 (no
    excess above the top value, and costs are nonnegative, by downward
    induction on i).  f_i is non-increasing and 1-Lipschitz in x, which the
    property tests exercise.
    """
    here: dict[Fraction, Fraction] = {}
    t_i: Extended = INF
    for x in reversed(grid):
        val = -marg
        for v, p in atoms:
            big = v if v > x else x
            gain = v - x if v > x else ZERO
            val += p * (gain + nxt[big])
        if val <= 0:
            here[x] = ZERO
            t_i = x
        else:
            here[x] = val
    assert t_i is not INF, "f_i must vanish at the top of the grid"
    return here, t_i


def _threshold_dp(instance: Instance,
                  sigma: tuple[int, ...]) -> tuple[tuple[Extended, ...], Fraction]:
    """Thresholds and utility of one (possibly partial) order: f_{n+1} = 0,
    then one `_backward_step` per box from the back."""
    n = len(sigma)
    grid = support_union(instance)
    prefix = [instance.cost.eval(sigma[:i]) for i in range(n + 1)]
    f: dict[Fraction, Fraction] = {x: ZERO for x in grid}
    thresholds: list[Extended] = [INF] * n
    for i in range(n - 1, -1, -1):
        f, thresholds[i] = _backward_step(instance.box(sigma[i]).atoms,
                                          prefix[i + 1] - prefix[i], grid, f)
    return tuple(thresholds), f[ZERO]


def optimal_thresholds(instance: Instance,
                       sigma) -> tuple[FixedOrderThresholds, Fraction]:
    """Best thresholds for a given permutation, via the f_i backward recursion."""
    sigma = tuple(sigma)
    if set(sigma) != set(instance.labels) or len(sigma) != instance.n:
        raise DomainError(f"sigma {sigma} is not a permutation of {instance.labels}")
    thresholds, utility = _threshold_dp(instance, sigma)
    return FixedOrderThresholds(sigma, thresholds), utility


def optimal_fixed_order(instance: Instance) -> tuple[FixedOrderThresholds, Fraction]:
    """Best fixed order with thresholds, by a depth-first search over suffixes.

    f_i depends only on the ordered suffix sigma_i..sigma_n, whose complement
    is the set in front of sigma_i, so each node prepends one box and applies
    one `_backward_step` to its parent's f, reading the marginal cost from
    `cost.table()`.  Orders that share a suffix share its work: about e * n!
    steps, against n * n! for a scan per order.  Ties go to the
    lexicographically least sigma.
    """
    guard("order_enum", instance.n)
    grid = support_union(instance)
    table = instance.cost.table()
    atoms = [instance.box(b).atoms for b in instance.labels]
    full = (1 << instance.n) - 1
    best = None                     # (-utility, sigma, thresholds), least wins

    def grow(mask: int, f: dict[Fraction, Fraction], sigma: tuple, thresholds: tuple) -> None:
        nonlocal best
        if mask == full and (best is None or (-f[ZERO], sigma) < best[:2]):
            best = (-f[ZERO], sigma, thresholds)
        head = full ^ mask          # the boxes in front of the suffix
        for i, b in enumerate(instance.labels):
            if head >> i & 1:
                here, t_i = _backward_step(atoms[i], table[head] - table[head ^ 1 << i], grid, f)
                grow(mask | 1 << i, here, (b,) + sigma, (t_i,) + thresholds)

    grow(0, {x: ZERO for x in grid}, (), ())
    neg_utility, sigma, thresholds = best
    return FixedOrderThresholds(sigma, thresholds), -neg_utility


def optimal_impulsive(instance: Instance) -> tuple[ImpulsiveStrategy, Fraction]:
    """Best impulsive strategy, by a depth-first search over ordered prefixes.

    Bernoulli instances only.  Appending box b to an order that opened P
    updates eval_impulsive's sum in O(1) from `cost.table()`: A += Q p_b (v_b
    - c(P u b)), Q *= q_b, utility A - Q c(P u b).  Orders are visited in
    lexicographic order after the empty one (utility 0), and only a strictly
    better one replaces the best, so ties go to the least tuple.
    """
    if not instance.is_bernoulli():
        raise DomainError("impulsive strategies need a weighted-Bernoulli instance")
    guard("order_enum", instance.n)
    table = instance.cost.table()
    boxes = [(b, instance.bernoulli(b)) for b in instance.labels]
    best: tuple[tuple[int, ...], Fraction] = ((), ZERO)

    def grow(mask: int, order: tuple, A: Fraction, Q: Fraction) -> None:
        nonlocal best
        for i, (b, wb) in enumerate(boxes):
            if not mask >> i & 1:
                c = table[mask | 1 << i]
                a, q = A + Q * wb.prob * (wb.value - c), Q * wb.q
                if a - q * c > best[1]:
                    best = (order + (b,), a - q * c)
                grow(mask | 1 << i, order + (b,), a, q)

    grow(0, (), ZERO, ONE)
    return ImpulsiveStrategy(best[0]), best[1]


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
    top = box.support[-1]
    if c == 0:
        return top
    positives = [(v, p) for v, p in box.atoms if v > 0]
    if not positives:
        raise DomainError("a constant-zero box has no reservation value for c > 0")
    values = [v for v, _ in positives]
    probs = [p for _, p in positives]
    # h at each positive atom, built top-down: moving the evaluation point
    # from v_prev down to v adds tail * (v_prev - v) with tail = P(V > v_prev)
    h_at = {}
    acc = ZERO
    tail = ZERO
    prev = None
    for v, p in zip(reversed(values), reversed(probs)):
        if prev is not None:
            acc += tail * (prev - v)
        h_at[v] = acc
        tail += p
        prev = v
    for j in range(len(values) - 1, -1, -1):
        v = values[j]
        if h_at[v] >= c:
            mass = sum(probs[j + 1:], ZERO)
            return v + (h_at[v] - c) / mass
    bottom = values[0]
    return bottom - (c - h_at[bottom]) / tail


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
    """Run every applicable solver and compare the optima exactly."""
    utility_a, tree = optimal_adaptive(instance)
    fixed, utility_f = optimal_fixed_order(instance)
    if instance.is_bernoulli():
        imp, utility_i = optimal_impulsive(instance)
        gaps = {
            "adaptive_vs_fixed": utility_a > utility_f,
            "fixed_vs_impulsive": utility_f > utility_i,
            "adaptive_vs_impulsive": utility_a > utility_i,
        }
    else:
        imp, utility_i = None, None
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
