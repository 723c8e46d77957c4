"""Exact rational plumbing: coercion, formatting, scaling, and the +inf sentinel.

All probabilities, values, costs and utilities that enter or leave this
package are `fractions.Fraction`.  Inside, the exhaustive kernels (the
validators and the solvers) run on plain ints, just as exact and much
cheaper: a cost's one table is already (ints, D), built by the cost's own
kernel from its `scaled` weights, and the solvers scale values and
probabilities with `scaled`.  The single exception is the hardness lab, which
works in floats at n = 10^5 with a documented tolerance.  Thresholds
additionally admit `math.inf` ("never halt"), which is why a couple of
helpers here speak of *extended* rationals.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, Union

from .limits import SCALED_BITS, guard_bits

INF = math.inf

#: A Fraction, or +/-inf (only thresholds ever carry the infinities).
Extended = Union[Fraction, float]


def rat(x: object) -> Fraction:
    """Coerce ints, "p/q" strings and Fractions to Fraction.

    Floats are rejected on purpose: a silent float slipping in is the usual
    way exact pipelines stop being exact.  A decimal literal such as "1e9"
    expands to an integer of about 3.32 bits per unit of exponent, so one
    whose exponent alone implies more than `limits.SCALED_BITS` bits (no
    kernel could hold it) is refused before it is expanded.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        _, e, exponent = x.lower().partition("e")
        try:
            digits = abs(int(exponent)) if e else 0
        except ValueError:          # no integer exponent: Fraction refuses the literal
            digits = 0
        try:
            # 10 / 3 bits per decimal digit: a slight overestimate of log2(10)
            if digits * 10 > 3 * SCALED_BITS:
                raise ValueError(f"decimal exponent above the budget of {SCALED_BITS} bits")
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational literal: {x!r} ({exc})") from None
    raise TypeError(f"expected an exact rational, got {type(x).__name__}: {x!r}")


def fmt(x: Extended) -> str:
    """Canonical string form: "3", "-1/2", "inf"."""
    if x == INF:
        return "inf"
    if x == -INF:
        return "-inf"
    return str(rat(x))


def scaled(values: Sequence[Fraction], D: int = 1) -> tuple[list[int], int]:
    """(ints, D) with ints[k] = values[k] * D and D the lcm of the denominators
    and of the given D.

    Raises CapabilityError before building the ints when they would exceed
    the bit budget of `limits.guard_bits`: distinct denominators multiply
    into D, so the ints can be far larger than the Fractions they replace.
    D is checked as it grows, so a refusal costs no more than an acceptance.
    """
    top = max((x.numerator.bit_length() for x in values), default=0)
    dens = {x.denominator for x in values}
    for d in dens:
        D = math.lcm(D, d)
        guard_bits(len(values), D.bit_length() + top)
    factor = {d: D // d for d in dens}
    return [x.numerator * factor[x.denominator] for x in values], D


def parse_extended(s: str) -> Extended:
    if s in ("inf", "+inf"):
        return INF
    if s == "-inf":
        return -INF
    return rat(s)


def is_finite(x: Extended) -> bool:
    return not (x == INF or x == -INF)
