"""Coercion and formatting of exact rationals and the +/-inf sentinel."""
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pandora.errors import CapabilityError
from pandora.limits import SCALED_BITS
from pandora.rationals import INF, fmt, is_finite, parse_extended, rat, scaled


class TestRat:
    def test_int(self):
        assert rat(3) == Fraction(3)
        assert rat(-7) == Fraction(-7)

    def test_fraction_passthrough(self):
        x = Fraction(5, 9)
        assert rat(x) is x

    def test_quotient_string(self):
        assert rat("21/2") == Fraction(21, 2)
        assert rat("-1/3") == Fraction(-1, 3)

    def test_decimal_string(self):
        # Fraction's own parser handles these; no reason to forbid them.
        assert rat("0.5") == Fraction(1, 2)
        assert rat("2.25") == Fraction(9, 4)

    def test_float_rejected(self):
        with pytest.raises(TypeError, match="expected an exact rational"):
            rat(0.5)

    def test_bool_rejected(self):
        # bool is an int subclass, but a True sneaking in as 1 is a bug.
        with pytest.raises(TypeError):
            rat(True)

    @pytest.mark.parametrize("junk", [None, [1, 2], {"p": 1}, object()])
    def test_other_types_rejected(self, junk):
        with pytest.raises(TypeError):
            rat(junk)

    def test_bad_string(self):
        with pytest.raises(ValueError, match="not a rational literal"):
            rat("half")

    def test_zero_denominator_string(self):
        with pytest.raises(ValueError, match="not a rational literal"):
            rat("1/0")

    def test_decimal_exponents(self):
        assert rat("1e3") == 1000
        assert rat("2.5E-2") == Fraction(1, 40)
        assert rat("1e1_0") == 10 ** 10

    @pytest.mark.parametrize("literal", ["1e100000000", "-3.5E-100000000", "1e+9_000_000_000"])
    def test_exponent_above_the_bit_budget_is_refused_unexpanded(self, literal):
        # 10^k has about 3.32 k bits; these would need over SCALED_BITS
        with pytest.raises(ValueError, match="exponent above the budget"):
            rat(literal)

    def test_scaled_from_a_given_denominator(self):
        assert scaled([Fraction(1, 2), Fraction(1, 3)], 4) == ([6, 4], 12)


class TestFmtAndParse:
    @pytest.mark.parametrize("x, s", [
        (Fraction(3), "3"),
        (Fraction(-1, 2), "-1/2"),
        (Fraction(0), "0"),
        (INF, "inf"),
        (-INF, "-inf"),
    ])
    def test_fmt(self, x, s):
        assert fmt(x) == s

    def test_parse_extended(self):
        assert parse_extended("inf") == INF
        assert parse_extended("+inf") == INF
        assert parse_extended("-inf") == -INF
        assert parse_extended("21/2") == Fraction(21, 2)

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            parse_extended("infinity-ish")

    @given(st.fractions())
    def test_round_trip(self, x):
        assert parse_extended(fmt(x)) == x


def test_is_finite():
    assert is_finite(Fraction(0))
    assert is_finite(Fraction(-100, 7))
    assert not is_finite(INF)
    assert not is_finite(-INF)


class TestScaled:
    def test_common_denominator(self):
        assert scaled([Fraction(1, 2), Fraction(-1, 3), Fraction(2)]) == ([3, -2, 12], 6)
        assert scaled([]) == ([], 1)

    @given(st.lists(st.fractions(), max_size=20))
    def test_exact(self, xs):
        ints, D = scaled(xs)
        assert [Fraction(k, D) for k in ints] == xs
        assert all(D % x.denominator == 0 for x in xs)

    def test_refuses_above_the_bit_budget(self):
        # distinct prime denominators multiply: the 429 primes below 3000 make
        # D about 4k bits, so a long enough list of them is refused unbuilt
        primes = [p for p in range(3, 3000) if all(p % q for q in range(2, int(p ** 0.5) + 1))]
        xs = [Fraction(1, p) for p in primes] * (SCALED_BITS // 2 ** 20)
        with pytest.raises(CapabilityError, match="budget"):
            scaled(xs)
