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

The hierarchy being checked:  additive < gross substitutes < submodular <
XOS < subadditive, with matroid rank functions sitting inside gross
substitutes.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .costs import CostOracle, _check_monotone_normalized, _labels_of
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


def _check_submodular(labels, vals, D) -> dict | None:
    # Local characterization: c(x|A) >= c(x|A u {j}) for every A and distinct
    # x, j outside A.  Equivalent to the definitional "c(x|B) <= c(x|A) for
    # all A <= B, x outside B" (chain the one-step drops along B - A), and
    # quadratic instead of exponential in the number of set pairs.  The
    # condition is symmetric in x and j, so each pair is tried once, x < j:
    # the least x in a violating pair, with its least partner, is still the
    # first violation in (x, j) order.
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


def _check_gross_substitutes(labels, vals, D) -> dict | None:
    # Submodularity plus the triple condition: for every S and distinct
    # i, j, k outside S the multiset
    #   { f(ij|S)+f(k|S),  f(i|S)+f(jk|S),  f(j|S)+f(ik|S) }
    # must not have a unique maximum.
    bad = _check_submodular(labels, vals, D)
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


VALIDATORS = {
    "monotone_normalized": _check_monotone_normalized,
    "submodular": _check_submodular,
    "subadditive": _check_subadditive,
    "matroid_rank": _check_matroid_rank,
    "gross_substitutes": _check_gross_substitutes,
}


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
    guard("gross_substitutes" if cls == "gross_substitutes" else "validator", oracle.arity)
    table = oracle.table()
    witness = check(oracle.ground, table.ints, table.D)
    return ClassReport(cls=cls, passed=witness is None, witness=witness)
