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

The submodular pair scan and the gross-substitutes triple scan run on the
table packed into one int (SWAR, SIMD within a register): field m, W bits
wide at bit W*m, holds c(m) - min c, and W is the range's bit length plus a
carry bit and a guard bit, rounded up to whole bytes.  Both conditions
compare sums of two entries, so the common offset changes nothing.
Shifting the packed table right by W*2^i lines c(S + i) up with c(S), and
with K holding 2^(W-1) - 1 in every field, the guard bit of each field of
X + K - Y is set exactly where x > y, no borrow crossing a field.  So each
pair or triple costs a handful of whole-table int operations, and the least
set guard bit, among the masks without its bits, is its least violating
mask.  The witness is the least violating tuple, the first a scan by mask
would meet; a pair or triple whose least mask is 0 ends the scan, as nothing
after it can precede it.  Tables whose fields would exceed 64 bits keep the
list kernels -- table halves for pairs, one tuple at a time for triples:
such fields no longer fit the 8-byte cells the packing goes through, and
packing stops paying near 128-bit fields anyway.  The 3^n subadditive scan
goes one pair of disjoint sets at a time.

The hierarchy being checked:  additive < gross substitutes < submodular <
XOS < subadditive, with matroid rank functions sitting inside gross
substitutes.
"""
from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, repeat
from operator import gt, sub

from .costs import CostOracle, _check_monotone_normalized, _halves, _insert_bit, _labels_of
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


def _repeat(bits, width, total):
    """`bits`, a pattern `width` bits wide, repeated to `total` bits by
    doubling: linear in `total`, where dividing by a geometric sum is not."""
    while width < total:
        bits |= bits << width
        width <<= 1
    return bits


def _pack(vals, n):
    """(P, W, K, guards, shifted): the packed table, its field width, K, and
    per bit i the guard bits of the masks without bit i and P shifted right
    by W*2^i (see the module docstring).  None when W exceeds 64: wider
    fields do not fit the 8-byte cells packed here, packing them by hand
    costs more than the scan saves from about 128 bits on, and at the bit
    budget the packed table and its shifted copies would outgrow what
    `limits.SCALED_BITS` allows one kernel."""
    lo = min(vals)
    size = ((max(vals) - lo).bit_length() + 9) // 8
    if size > 8:
        return None
    cells = array("Q", map(sub, vals, repeat(lo)) if lo else vals)
    if sys.byteorder == "big":
        cells.byteswap()
    raw, packed = cells.tobytes(), bytearray(size << n)
    for b in range(size):
        packed[b::size] = raw[b::cells.itemsize]
    W = 8 * size
    H = _repeat(1 << (W - 1), W, W << n)
    guards = [_repeat(H & ((1 << (W << i)) - 1), W << (i + 1), W << n) for i in range(n)]
    P = int.from_bytes(packed, "little")
    return P, W, H - (H >> (W - 1)), guards, [P >> (W << i) for i in range(n)]


def _packed_pairs(P, W, K, guards, shifted):
    n = len(guards)
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


def _halves_pairs(vals, n):
    # Per x: its marginals over the masks without x, in mask order; per j:
    # the halves of that list without and with j, compared at once.
    first = None
    for i in range(n):
        without_i, with_i = _halves(vals, i)
        margin = list(map(sub, with_i, without_i))
        for j in range(i + 1, n):
            without_j, with_j = _halves(margin, j - 1)
            grows = list(map(gt, with_j, without_j))
            if True in grows:
                here = _insert_bit(_insert_bit(grows.index(True), j - 1), i), i, j
                if first is None or here < first:
                    first = here
    return first


def _check_submodular(labels, vals, D) -> dict | None:
    return _submodular_witness(labels, vals, D, _pack(vals, len(labels)))


def _submodular_witness(labels, vals, D, packed) -> dict | None:
    # Local characterization: c(x|A) >= c(x|A u {j}) for every A and distinct
    # x, j outside A.  Equivalent to the definitional "c(x|B) <= c(x|A) for
    # all A <= B, x outside B" (chain the one-step drops along B - A), and
    # quadratic instead of exponential in the number of set pairs.  The
    # condition is symmetric in x and j, so each pair is tried once, x < j:
    # a violation is c(A+x+j) + c(A) > c(A+x) + c(A+j).  The witness is the
    # least violating (A, x, j), the first a scan by mask, then x, then j
    # would meet.  `packed` is `_pack(vals, n)`.
    n = len(labels)
    first = _packed_pairs(*packed) if packed else _halves_pairs(vals, n)
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


def _packed_triples(P, W, K, guards, one):
    # the guard bit of a field of xk - y is set where x > y; a field where
    # one of x, y, z exceeds both others has a unique maximum
    n = len(guards)
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


def _scalar_triples(vals, n):
    for mask in range(1 << n):
        free = [i for i in range(n) if not mask >> i & 1]
        for i, j, k in combinations(free, 3):
            sums = _triple_sums(vals, mask, i, j, k)
            if sums.count(max(sums)) == 1:
                return mask, i, j, k
    return None


def _check_gross_substitutes(labels, vals, D) -> dict | None:
    # Submodularity plus the triple condition: for every S and distinct
    # i, j, k outside S the multiset
    #   { f(ij|S)+f(k|S),  f(i|S)+f(jk|S),  f(j|S)+f(ik|S) }
    # must not have a unique maximum.  The -2c(S) in each term is common to
    # all three, so the packed scan compares c(S+ij)+c(S+k), c(S+i)+c(S+jk)
    # and c(S+j)+c(S+ik).  The witness is the least violating (S, i, j, k).
    n = len(labels)
    packed = _pack(vals, n)
    bad = _submodular_witness(labels, vals, D, packed)
    if bad:
        bad["reason"] = "not submodular: " + bad["reason"]
        return bad
    first = _packed_triples(*packed) if packed else _scalar_triples(vals, n)
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
