"""The matched-digit count: floor(-log10 diff), diff = |lhs - rhs| /
max(1, |rhs|), exact on the binary values of the two sides."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from binom3k.verifier import _compare


def matched(lhs, rhs, cap):
    """The digit count of verifier._compare, with no tail."""
    return _compare(lhs, rhs, mpf(0), 0, cap)[1]


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
        assert matched(diff, mpf(0), 100) == 1


@pytest.mark.parametrize("dps", [30, 50, 110])
@pytest.mark.parametrize("d", range(1, 8))
def test_powers_of_ten(dps, d):
    with mp.workdps(dps):
        diff = mpf(10) ** -d
        expected = d - 1 if to_fraction(diff) > Fraction(1, 10 ** d) else d
        assert matched(diff, mpf(0), 100) == expected
        assert matched(mpf(0), -diff, 100) == expected
        # relative: the exact difference 1 over 10^d, counted exactly,
        # whichever way 10^-d rounds in binary
        rhs = mpf(10 ** d)
        assert matched(rhs + 1, rhs, 100) == d


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
    # the oracle: the exact quotient of the binary values, no mp rounding
    diff = (abs(to_fraction(lhs) - to_fraction(rhs))
            / max(1, abs(to_fraction(rhs))))
    assert matched(lhs, rhs, cap) == exact_digits(diff, cap)


def test_both_branches_are_covered():
    with mp.workdps(30):
        # relative: 3e-8 of 100 is 3e-10, 9 digits
        assert matched(mpf(100) + mpf("3e-8"), mpf(100), 30) == 9
        # absolute: |rhs| < 1
        assert matched(mpf("0.5") + mpf("3e-8"), mpf("0.5"), 30) == 7
        assert matched(mpf(2), mpf("0.5"), 30) == 0
        assert matched(mpf(7), mpf(7), 30) == 30
