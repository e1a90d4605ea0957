"""The matched-digit count: floor(-log10 diff), exact on the binary value
of the difference the verifier forms."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from binom3k.verifier import _matched_digits


def to_fraction(x):
    man, exp = x.man_exp
    return (-1 if x < 0 else 1) * Fraction(man) * Fraction(2) ** exp


def exact_digits(diff: Fraction, cap: int) -> int:
    """floor(-log10 diff) clamped to [0, cap], by exact comparisons."""
    if diff == 0:
        return cap
    digits = 0
    while digits < cap and diff * 10 ** (digits + 1) <= 1:
        digits += 1
    return digits


def test_binary_rounding_above_a_power_of_ten_loses_that_digit():
    with mp.workdps(50):
        diff = mpf(10) ** -2
        assert to_fraction(diff) > Fraction(1, 100)
        assert _matched_digits(diff, mpf(0), 100, mp.prec) == 1


@pytest.mark.parametrize("dps", [30, 50, 110])
@pytest.mark.parametrize("d", range(1, 8))
def test_powers_of_ten(dps, d):
    with mp.workdps(dps):
        diff = mpf(10) ** -d
        expected = d - 1 if to_fraction(diff) > Fraction(1, 10 ** d) else d
        assert _matched_digits(diff, mpf(0), 100, mp.prec) == expected
        assert _matched_digits(mpf(0), -diff, 100, mp.prec) == expected
        # relative: the exact difference 1 over 10^d, a quotient that is
        # rounded to the working precision as diff is
        rhs = mpf(10 ** d)
        assert _matched_digits(rhs + 1, rhs, 100, mp.prec) == expected


@settings(max_examples=400, deadline=None)
@given(dps=st.sampled_from([30, 50, 110]),
       rhs_man=st.integers(-10 ** 12, 10 ** 12), rhs_exp=st.integers(-60, 60),
       offset_exp=st.integers(0, 130), wiggle=st.integers(-3, 3),
       cap=st.integers(5, 120))
def test_digit_count_is_exact(dps, rhs_man, rhs_exp, offset_exp, wiggle, cap):
    with mp.workdps(dps):
        rhs = mp.ldexp(mpf(rhs_man), rhs_exp)
        # an offset at, or a few ulps around, a power of ten
        offset = mpf(10) ** -offset_exp
        offset += wiggle * mp.ldexp(offset, -mp.prec)
        lhs = rhs + offset
        diff = abs(lhs - rhs)
        if abs(rhs) >= 1:
            diff = diff / abs(rhs)
        assert _matched_digits(lhs, rhs, cap, mp.prec) == exact_digits(to_fraction(diff), cap)


def test_both_branches_are_covered():
    with mp.workdps(30):
        # relative: 3e-8 of 100 is 3e-10, 9 digits
        assert _matched_digits(mpf(100) + mpf("3e-8"), mpf(100), 30, mp.prec) == 9
        # absolute: |rhs| < 1
        assert _matched_digits(mpf("0.5") + mpf("3e-8"), mpf("0.5"), 30, mp.prec) == 7
        assert _matched_digits(mpf(2), mpf("0.5"), 30, mp.prec) == 0
        assert _matched_digits(mpf(7), mpf(7), 30, mp.prec) == 30
