"""sum_to_digits on the CRVZ path: z < 0, a = 1, 2 and the weight 1 or L(0),
once the kernel's cutoff estimate misses at 8 times the n CRVZ terms."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf

from binom3k.errors import MaxTermsExceeded
from binom3k.precision import make_context
from binom3k.registry import builtin_catalog, get_record
from binom3k.series import (SeriesSpec, UNIT_WEIGHT, Weight, _crvz_terms,
                            sum_to_digits)
from reference import kernel_bracket, kernel_cutoff, to_fraction

LUCAS_0 = Weight("lucas", 0)


@st.composite
def slow_alternating_specs(draw):
    """z = -p/q with 1/2 <= rho = 4|z|/27 < 1, a = 1, 2, weight 1 or L(0)."""
    q = draw(st.integers(1, 24))
    p = draw(st.integers(-(-27 * q // 8), -(-27 * q // 4) - 1))
    return SeriesSpec(Fraction(-p, q), draw(st.sampled_from([1, 2])),
                      draw(st.sampled_from([UNIT_WEIGHT, LUCAS_0])))


@settings(max_examples=40, deadline=None)
@given(spec=slow_alternating_specs(), digits=st.integers(20, 120))
def test_sum_agrees_with_the_kernel_alone(spec, digits):
    ctx = make_context(digits + 10)
    result = sum_to_digits(spec, digits, ctx)
    assert result.tail < mpf(10) ** -digits
    K = kernel_cutoff(spec, digits, 10 ** 6)
    centre, radius = kernel_bracket(spec, K, digits)
    gap = abs(to_fraction(result.value) - centre)
    assert gap <= to_fraction(result.tail) + radius


@pytest.mark.parametrize("spec", [
    SeriesSpec(Fraction(-20, 3), 2), SeriesSpec(Fraction(-77, 12), 1),
    SeriesSpec(Fraction(-20, 3), 1, LUCAS_0), SeriesSpec(Fraction(-6), 2)])
def test_routed_sums_use_the_crvz_terms(spec):
    assert sum_to_digits(spec, 30, make_context(40)).terms_used == _crvz_terms(30)


@pytest.mark.parametrize("spec", [
    SeriesSpec(Fraction(-20, 3), 0), SeriesSpec(Fraction(20, 3), 2),
    SeriesSpec(Fraction(-5, 2), 2, Weight("lucas", 2)),
    SeriesSpec(Fraction(-5, 2), 1, Weight("fib", -2))])
def test_other_sums_stay_on_the_kernel(spec):
    K = kernel_cutoff(spec, 30, 10 ** 6)
    assert K > 8 * _crvz_terms(30)
    assert sum_to_digits(spec, 30, make_context(40)).terms_used == K


@pytest.mark.parametrize("below, above", [
    (SeriesSpec(Fraction(-50, 9), 1), SeriesSpec(Fraction(-139, 25), 1)),
    (SeriesSpec(Fraction(-96, 17), 2), SeriesSpec(Fraction(-113, 20), 2))])
def test_the_crossover_is_at_eight_crvz_terms(below, above):
    ctx, n = make_context(40), _crvz_terms(30)
    assert kernel_cutoff(below, 30, 10 ** 6) == 8 * n
    assert sum_to_digits(below, 30, ctx).terms_used == 8 * n
    assert kernel_cutoff(above, 30, 10 ** 6) == 8 * n + 1
    assert sum_to_digits(above, 30, ctx).terms_used == n


def test_the_budget_bounds_the_method_used():
    spec = get_record(builtin_catalog(), "alt-20-3").lhs
    assert kernel_cutoff(spec, 30, 10 ** 6) > 4000
    assert kernel_cutoff(spec, 30, 200) == 201  # past the budget
    assert sum_to_digits(spec, 30, make_context(40, 200)).terms_used == 44
    with pytest.raises(MaxTermsExceeded):
        sum_to_digits(spec, 30, make_context(40, 43))
