"""Brute-force reference computations, independent of the library's solvers.

Everything here enumerates full value profiles (the product of all box
supports) or full observation histories, in exact rational arithmetic.
Deliberately slow and deliberately structured differently from the library:
no incremental-max accounting, no support-grid recursion, no assumption
that the running maximum is a sufficient statistic.
"""
from fractions import Fraction
from itertools import combinations, permutations, product

ZERO = Fraction(0)


def profiles(instance):
    """Yield (values: label -> value, probability) over every realization."""
    labels = instance.labels
    supports = [instance.box(b).atoms for b in labels]
    for combo in product(*supports):
        prob = Fraction(1)
        values = {}
        for b, (v, p) in zip(labels, combo):
            values[b] = v
            prob *= p
        yield values, prob


def replay_tree(tree, values):
    """(opened boxes in order, final best value) for one realization."""
    opened = []
    best = ZERO
    node = tree
    while not node.is_halt:
        opened.append(node.box)
        v = values[node.box]
        best = max(best, v)
        node = node.child(v)
    return opened, best


def tree_utility(instance, tree):
    total = ZERO
    for values, prob in profiles(instance):
        opened, best = replay_tree(tree, values)
        total += prob * (best - instance.cost.eval(opened))
    return total


def fixed_order_utility(instance, strategy):
    """Replay a fixed order with thresholds: halt at round i iff the best
    value so far is at least t_i, checked before opening round i's box."""
    total = ZERO
    for values, prob in profiles(instance):
        best = ZERO
        opened = []
        for box, t in zip(strategy.sigma, strategy.thresholds):
            if best >= t:
                break
            opened.append(box)
            best = max(best, values[box])
        total += prob * (best - instance.cost.eval(opened))
    return total


def impulsive_utility(instance, order):
    """Replay an impulsive order: halt at the first non-zero value."""
    total = ZERO
    for values, prob in profiles(instance):
        best = ZERO
        opened = []
        for box in order:
            opened.append(box)
            if values[box] > 0:
                best = values[box]
                break
        total += prob * (best - instance.cost.eval(opened))
    return total


def best_adaptive_utility(instance):
    """Optimal adaptive utility by recursion over full observation histories.

    The decision state is the entire history -- which boxes were opened and
    exactly what each showed -- so nothing here relies on summarizing the
    past by its maximum.
    """
    cost = instance.cost
    labels = instance.labels

    def go(history):
        opened = [b for b, _ in history]
        best = max([v for _, v in history], default=ZERO)
        out = best - cost.eval(opened)
        seen = set(opened)
        for b in labels:
            if b in seen:
                continue
            cont = ZERO
            for v, p in instance.box(b).atoms:
                cont += p * go(history + ((b, v),))
            if cont > out:
                out = cont
        return out

    return go(())


def fixed_order_free_halting(instance, sigma):
    """Best utility on the order `sigma` when the halting decision may use
    the entire history.  Agreeing with the threshold recursion shows that
    thresholds on the running maximum lose nothing."""
    cost = instance.cost

    def go(i, history):
        best = max([v for _, v in history], default=ZERO)
        halt = best - cost.eval([b for b, _ in history])
        if i == len(sigma):
            return halt
        cont = ZERO
        for v, p in instance.box(sigma[i]).atoms:
            cont += p * go(i + 1, history + ((sigma[i], v),))
        return max(halt, cont)

    return go(0, ())


def best_fixed_order_utility(instance):
    return max(fixed_order_free_halting(instance, sigma)
               for sigma in permutations(instance.labels))


def best_impulsive_utility(instance):
    best = ZERO
    for k in range(1, instance.n + 1):
        for order in permutations(instance.labels, k):
            u = impulsive_utility(instance, order)
            if u > best:
                best = u
    return best


def _subsets(labels):
    return [frozenset(c) for k in range(len(labels) + 1) for c in combinations(labels, k)]


def is_submodular(cost):
    """The definition itself: c(x | A) >= c(x | B) for all A <= B and x outside B."""
    subsets = _subsets(cost.ground)
    for B in subsets:
        for A in subsets:
            if not A <= B:
                continue
            for x in cost.ground:
                if x not in B and (cost.eval(A | {x}) - cost.eval(A)
                                   < cost.eval(B | {x}) - cost.eval(B)):
                    return False
    return True


def is_subadditive(cost):
    """The definition itself: c(A u B) <= c(A) + c(B) for every pair A, B."""
    subsets = _subsets(cost.ground)
    return all(cost.eval(A | B) <= cost.eval(A) + cost.eval(B)
               for A in subsets for B in subsets)


def _labels_of(mask, labels):
    return [b for i, b in enumerate(labels) if mask >> i & 1]


def scan_monotone_normalized(labels, vals, D):
    """Scalar reference for `costs._check_monotone_normalized` on a bitmask
    table: c(empty), then one comparison per (mask, bit outside it) in that
    order, returning the first violation's witness dict, or None."""
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


def scan_submodular(labels, vals, D):
    """Scalar reference for `classes._check_submodular` on a bitmask table:
    c(x|A) >= c(x|A u {j}) tried once per (A, x < j), by mask, then x, then
    j, returning the first violation's witness dict, or None."""
    n = len(labels)
    for mask in range(1 << n):
        free = [i for i in range(n) if not mask >> i & 1]
        for a, i in enumerate(free):
            with_i = vals[mask | 1 << i]
            for j in free[a + 1:]:
                bigger = mask | 1 << j
                if vals[bigger | 1 << i] + vals[mask] > with_i + vals[bigger]:
                    return {
                        "reason": "marginal grows",
                        "x": labels[i],
                        "A": _labels_of(mask, labels),
                        "B": _labels_of(bigger, labels),
                        "c_x_given_A": str(Fraction(with_i - vals[mask], D)),
                        "c_x_given_B": str(Fraction(vals[bigger | 1 << i] - vals[bigger], D)),
                    }
    return None


def scan_gross_substitutes(labels, vals, D):
    """Scalar reference for `classes._check_gross_substitutes` on a bitmask
    table: `scan_submodular` first, then the triple condition tried once per
    (S, i < j < k outside S), by mask, then i, j, k.  The three sums
    f(ij|S)+f(k|S), f(i|S)+f(jk|S), f(j|S)+f(ik|S) must not have a unique
    maximum; returns the first violation's witness dict, or None."""
    bad = scan_submodular(labels, vals, D)
    if bad:
        bad["reason"] = "not submodular: " + bad["reason"]
        return bad
    n = len(labels)
    for mask in range(1 << n):
        base = vals[mask]
        free = [i for i in range(n) if not mask >> i & 1]
        for a in range(len(free)):
            for b in range(a + 1, len(free)):
                for c in range(b + 1, len(free)):
                    i, j, k = free[a], free[b], free[c]
                    bi, bj, bk = 1 << i, 1 << j, 1 << k
                    exprs = [
                        vals[mask | bi | bj] + vals[mask | bk] - 2 * base,
                        vals[mask | bi] + vals[mask | bj | bk] - 2 * base,
                        vals[mask | bj] + vals[mask | bi | bk] - 2 * base,
                    ]
                    top = max(exprs)
                    if exprs.count(top) == 1:
                        return {
                            "reason": "unique max in triple",
                            "S": _labels_of(mask, labels),
                            "triple": [labels[i], labels[j], labels[k]],
                            "values": [str(Fraction(e, D)) for e in exprs],
                        }
    return None
