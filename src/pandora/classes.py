"""Exhaustive validators for the cost-function hierarchy.

Everything here decides membership by brute force over all subsets, which is
exactly what makes a failed check trustworthy: each `fail` comes with the
violating tuple.  XOS is deliberately absent -- recognizing XOS structure
from value queries is intractable, so XOS claims are always backed by an
explicit clause certificate (see `XosCost.matches`).

The checks compare integers: they read the cost's one cached table,
`CostOracle.table()`, as its pair (ints, D) -- every c(S) times D, the lcm of
the cost's own denominators, built by the cost's own integer kernel -- and
render witness values back as the Fractions x / D, so a witness reads as it
would in exact rationals.  No Fraction is made per subset.

The pair and triple scans run on the packed table of `costs._pack` (see
the `costs` docstring), at any field width.  They compare sums of two
entries, so the packing's offset changes nothing.  Each pair or triple costs
a handful of whole-table int operations; the least set guard bit, among the
masks without its bits, is its least violating mask.  The witness is the
least violating tuple, the first a scan by mask would meet; one at mask 0
ends the scan.  The pair scan holds 2n + 6 packed ints at once, the triple
scan n(n-1)/2 + 2n + 16.  The 3^n subadditive scan goes one pair of
disjoint sets at a time.

The hierarchy being checked:  additive < gross substitutes < submodular <
XOS < subadditive, with matroid rank functions sitting inside gross
substitutes.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .costs import CostOracle, _check_monotone_normalized, _guards_without, _labels_of, _pack
from .errors import DomainError
from .limits import guard

__all__ = ["ClassReport", "validate_class", "VALIDATORS"]


@dataclass(frozen=True)
class ClassReport:
    cls: str
    passed: bool
    witness: dict | None = field(default=None)

    def __bool__(self) -> bool:
        return self.passed


def _per_bit(P, W, n):
    """Per bit i: the guard bits of the masks without i, and P >> W*2^i."""
    return [_guards_without(W, i, n) for i in range(n)], [P >> (W << i) for i in range(n)]


def _packed_pairs(P, W, K, n):
    guards, shifted = _per_bit(P, W, n)
    first = None
    for i in range(n):
        base, gi = P + K - shifted[i], guards[i]
        for j in range(i + 1, n):
            grows = (base + (shifted[i] >> (W << j)) - shifted[j]) & gi & guards[j]
            if grows:
                here = (grows & -grows).bit_length() // W - 1, i, j
                if first is None or here < first:
                    first = here
                    if not here[0]:
                        return first
    return first


def _check_submodular(labels, vals, D) -> dict | None:
    # the pair scan holds P, K, the per-bit lists and four temporaries
    n = len(labels)
    return _submodular_witness(labels, vals, D, _pack(vals, n, 2 * n + 6))


def _submodular_witness(labels, vals, D, packed) -> dict | None:
    # Local characterization: c(x|A) >= c(x|A u {j}) for every A and distinct
    # x, j outside A.  Equivalent to the definitional "c(x|B) <= c(x|A) for
    # all A <= B, x outside B" (chain the one-step drops along B - A), and
    # quadratic instead of exponential in the number of set pairs.  The
    # condition is symmetric in x and j, so each pair is tried once, x < j:
    # a violation is c(A+x+j) + c(A) > c(A+x) + c(A+j).  The witness is the
    # least violating (A, x, j), the first a scan by mask, then x, then j
    # would meet.  `packed` is `_pack(vals, n, copies)`.
    first = _packed_pairs(*packed, len(labels))
    if first is None:
        return None
    mask, i, j = first
    bigger = mask | 1 << j
    return {
        "reason": "marginal grows",
        "x": labels[i],
        "A": _labels_of(mask, labels),
        "B": _labels_of(bigger, labels),
        "c_x_given_A": str(Fraction(vals[mask | 1 << i] - vals[mask], D)),
        "c_x_given_B": str(Fraction(vals[bigger | 1 << i] - vals[bigger], D)),
    }


def _check_subadditive(labels, vals, D) -> dict | None:
    # Disjoint pairs suffice: for overlapping A, B monotonicity gives
    # c(A u B) <= c(A) + c(B \ A) <= c(A) + c(B).  3^n submask pairs.
    n = len(labels)
    for mask in range(1 << n):
        sub = (mask - 1) & mask
        while sub:
            rest = mask ^ sub
            if sub < rest and vals[mask] > vals[sub] + vals[rest]:
                return {
                    "A": _labels_of(sub, labels),
                    "B": _labels_of(rest, labels),
                    "c_AB": str(Fraction(vals[mask], D)),
                    "c_A": str(Fraction(vals[sub], D)),
                    "c_B": str(Fraction(vals[rest], D)),
                }
            sub = (sub - 1) & mask
    return None


def _check_matroid_rank(labels, vals, D) -> dict | None:
    n = len(labels)
    bad = _check_monotone_normalized(labels, vals, D)
    if bad:
        return bad
    for mask in range(1 << n):
        v = vals[mask]
        if v % D:
            return {"reason": "not integral", "S": _labels_of(mask, labels),
                    "c_S": str(Fraction(v, D))}
        if v > mask.bit_count() * D:
            return {"reason": "exceeds cardinality", "S": _labels_of(mask, labels),
                    "c_S": str(Fraction(v, D))}
    return _check_submodular(labels, vals, D)


def _packed_triples(P, W, K, n):
    # the guard bit of a field of xk - y is set where x > y; a field where
    # one of x, y, z exceeds both others has a unique maximum
    guards, one = _per_bit(P, W, n)
    two = {(i, j): one[i] >> (W << j) for i, j in combinations(range(n), 2)}
    first = None
    for i in range(n):
        for j in range(i + 1, n):
            ij, gij = two[i, j], guards[i] & guards[j]
            for k in range(j + 1, n):
                x, y, z = ij + one[k], one[i] + two[j, k], one[j] + two[i, k]
                xk, yk, zk = x + K, y + K, z + K
                unique = ((xk - y) & (xk - z) | (yk - x) & (yk - z) | (zk - x) & (zk - y)) \
                    & gij & guards[k]
                if unique:
                    here = (unique & -unique).bit_length() // W - 1, i, j, k
                    if first is None or here < first:
                        first = here
                        if not here[0]:
                            return first
    return first


def _triple_sums(vals, mask, i, j, k):
    base, bi, bj, bk = vals[mask], 1 << i, 1 << j, 1 << k
    return [
        vals[mask | bi | bj] + vals[mask | bk] - 2 * base,
        vals[mask | bi] + vals[mask | bj | bk] - 2 * base,
        vals[mask | bj] + vals[mask | bi | bk] - 2 * base,
    ]


def _check_gross_substitutes(labels, vals, D) -> dict | None:
    # Submodularity plus the triple condition: for every S and distinct
    # i, j, k outside S the multiset
    #   { f(ij|S)+f(k|S),  f(i|S)+f(jk|S),  f(j|S)+f(ik|S) }
    # must not have a unique maximum.  The -2c(S) in each term is common to
    # all three, so the packed scan compares c(S+ij)+c(S+k), c(S+i)+c(S+jk)
    # and c(S+j)+c(S+ik).  The witness is the least violating (S, i, j, k).
    n = len(labels)
    # the triple scan holds P, K, the per-bit lists, `two`, x, y, z and
    # their sums with K, and eight temporaries
    packed = _pack(vals, n, n * (n - 1) // 2 + 2 * n + 16)
    bad = _submodular_witness(labels, vals, D, packed)
    if bad:
        bad["reason"] = "not submodular: " + bad["reason"]
        return bad
    first = _packed_triples(*packed, n)
    if first is None:
        return None
    mask, i, j, k = first
    return {
        "reason": "unique max in triple",
        "S": _labels_of(mask, labels),
        "triple": [labels[i], labels[j], labels[k]],
        "values": [str(Fraction(e, D)) for e in _triple_sums(vals, mask, i, j, k)],
    }


VALIDATORS = {
    "monotone_normalized": _check_monotone_normalized,
    "submodular": _check_submodular,
    "subadditive": _check_subadditive,
    "matroid_rank": _check_matroid_rank,
    "gross_substitutes": _check_gross_substitutes,
}


def guard_kind(cls: str) -> str:
    """The `limits.guard` kind that caps validating `cls`."""
    return "gross_substitutes" if cls == "gross_substitutes" else "validator"


def validate_class(oracle: CostOracle, cls: str) -> ClassReport:
    """Decide class membership exhaustively.

    cls is one of monotone_normalized / submodular / subadditive /
    matroid_rank / gross_substitutes.  Fails with the violating tuple in
    `witness`.  Raises CapabilityError above the exhaustive-checking bound
    (n <= 14, or n <= 10 for gross substitutes).
    """
    check = VALIDATORS.get(cls)
    if check is None:
        raise DomainError(f"unknown cost class {cls!r}; choose from {sorted(VALIDATORS)}")
    guard(guard_kind(cls), oracle.arity)
    table = oracle.table()
    witness = check(oracle.ground, table.ints, table.D)
    return ClassReport(cls=cls, passed=witness is None, witness=witness)
