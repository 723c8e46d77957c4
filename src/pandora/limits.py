"""Size guards for the exact enumerations.

Every solver and validator in this package is exhaustive, so box counts are
capped.  The caps are deliberate defaults, not hard truths: setting the
``PANDORA_MAX_N`` environment variable replaces all of them at once (use at
your own risk -- runtimes are exponential).

The kernels run on integers scaled to common denominators, whose size
depends on the denominators in the input, not on n alone.  `SCALED_BITS`
caps them; it is a fixed memory bound, so ``PANDORA_MAX_N`` leaves it alone.
"""
from __future__ import annotations

import os

from .errors import CapabilityError

DEFAULT_BOUNDS = {
    "adaptive": 14,        # 2^n * |support| DP states
    "order_enum": 8,       # n! permutations
    "validator": 14,       # 2^n tabulation + pairwise scans
    "gross_substitutes": 10,  # 2^n * n^3 triple checks
    "xos_lift": 14,        # 2^n clauses
    "random_instance": 14,
}

# the bits of scaled integers one kernel may hold (32 MiB)
SCALED_BITS = 1 << 28


def bound(kind: str) -> int:
    override = os.environ.get("PANDORA_MAX_N")
    if override is not None:
        try:
            return int(override)
        except ValueError:
            raise CapabilityError(f"PANDORA_MAX_N must be an integer, got {override!r}") from None
    return DEFAULT_BOUNDS[kind]


def guard(kind: str, n: int) -> None:
    """Raise CapabilityError if n exceeds the enumeration bound for `kind`."""
    b = bound(kind)
    if n > b:
        raise CapabilityError(
            f"{kind} enumeration is capped at n <= {b} (got n = {n}); "
            f"set PANDORA_MAX_N to override"
        )


def guard_bits(count: int, bits: int) -> None:
    """Raise CapabilityError if `count` integers of `bits` bits each exceed
    SCALED_BITS; checked before the integers are built."""
    if count * bits > SCALED_BITS:
        raise CapabilityError(
            f"exact integer scaling would hold {count} numbers of up to {bits} bits, "
            f"above the budget of {SCALED_BITS} bits"
        )
