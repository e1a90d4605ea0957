import math
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from binom3k import series
from binom3k.errors import MaxTermsExceeded, Unsupported
from binom3k.precision import make_context
from binom3k.series import (SeriesSpec, UNIT_WEIGHT, Weight, _carried,
                            _kernel, _roundoff_ulps, classify,
                            sum_boundary_detailed, sum_to_digits)
from reference import kernel_bracket, to_fraction, unit_series


def unit_spec(z, a=2):
    return SeriesSpec(Fraction(z) if not isinstance(z, Fraction) else z,
                      a, UNIT_WEIGHT)


@pytest.mark.parametrize("k,expected", [(1, 3), (2, 15), (3, 84), (4, 495)])
def test_binom_3k_k(k, expected):
    # term k of the kernel at z = 1, a = 0 is 2^64 / C(3k,k), floored
    term = _kernel(unit_spec(1, a=0), 64, k - 1, 1)[1][0]
    assert round(Fraction(1 << 64, term)) == expected


@pytest.mark.parametrize("a", [2.0, True, "2"])
def test_spec_rejects_an_exponent_that_is_not_an_int(a):
    with pytest.raises(ValueError, match="exponent a"):
        SeriesSpec(Fraction(8, 3), a)


@pytest.mark.parametrize("m", [2.0, "x", None])
def test_weight_rejects_an_index_that_is_not_an_int(m):
    with pytest.raises(TypeError, match="weight index m"):
        Weight("fib", m)


def test_classify_geometric(ctx30):
    cls = classify(unit_spec(Fraction(8, 3)), ctx30)
    assert cls.kind == "geometric"
    assert abs(cls.rho - mpf(32) / 81) < mpf(10) ** -12


def test_classify_boundaries(ctx30):
    assert classify(unit_spec(Fraction(27, 4)), ctx30).kind == "boundary_positive"
    assert (classify(unit_spec(Fraction(-27, 4)), ctx30).kind
            == "boundary_alternating")


def test_classify_divergent(ctx30):
    cls = classify(unit_spec(Fraction(-5832, 361)), ctx30)
    assert cls.kind == "divergent_formal"


def test_classify_weighted(ctx30):
    spec = SeriesSpec(Fraction(1, 10), 2, Weight("fib", 3))
    cls = classify(spec, ctx30)
    assert cls.kind == "geometric"
    with ctx30.workdps():
        alpha = (1 + mp.sqrt(5)) / 2
        assert abs(cls.rho - mpf(1) / 10 * alpha ** 3 * 4 / 27) < mpf(10) ** -12


def test_partial_sum_hand_values():
    spec, bits = unit_spec(Fraction(8, 3)), 120
    # 8/9, and 8/9 + (8/3)^2 / (4 * 15) = 136/135
    for K, exact in ((1, Fraction(8, 9)), (2, Fraction(136, 135))):
        head = _kernel(spec, bits, K)[0]
        bound = _roundoff_ulps(spec, K, _carried(spec))
        assert abs(head - exact * 2 ** bits) <= bound


def test_tail_bound_fast_and_slow():
    fast = kernel_bracket(unit_spec(Fraction(8, 3)), 50, 30)[1]
    slow = kernel_bracket(unit_spec(Fraction(20, 3)), 100, 30)[1]
    assert fast < Fraction(1, 10 ** 20)
    assert slow > Fraction(1, 100)


def test_tail_bound_zero_argument():
    assert kernel_bracket(unit_spec(Fraction(0)), 10, 30) == (0, 0)


def test_sum_to_digits_italy(ctx40):
    result = sum_to_digits(unit_spec(Fraction(8, 3)), 40, ctx40)
    with ctx40.workdps():
        reference = mp.pi ** 2 / 6 - mp.log(3) ** 2 / 2
        assert abs(result.value - reference) < mpf(10) ** -40
        assert abs(result.value - reference) <= 3 * result.tail + mpf(10) ** -45


def test_sum_to_digits_slow_case(ctx40):
    result = sum_to_digits(unit_spec(Fraction(20, 3)), 40, ctx40)
    assert result.terms_used <= 12000


def test_sum_to_digits_alternating(ctx30):
    ctx = make_context(30)
    result = sum_to_digits(unit_spec(Fraction(-1)), 20, ctx)
    with ctx.workdps():
        # brute-force oracle at raised precision
        with mp.workdps(60):
            reference = unit_series(mpf(-1), 2)
        assert abs(result.value - reference) < mpf(10) ** -20
        assert mp.nstr(result.value, 3) == "-0.318"


def test_sum_to_digits_respects_budget():
    ctx = make_context(40, 100)
    with pytest.raises(MaxTermsExceeded):
        sum_to_digits(unit_spec(Fraction(20, 3)), 40, ctx)


def test_bracket_is_sound(ctx30):
    # the certified tail must bracket the true remainder
    for z in (Fraction(8, 3), Fraction(20, 3), Fraction(-27, 5)):
        for a in (0, 1, 2):
            spec = unit_spec(z, a)
            result = sum_to_digits(spec, 25, ctx30)
            centre, radius = kernel_bracket(spec, result.terms_used + 400, 30)
            assert (abs(centre - to_fraction(result.value)) + radius
                    <= to_fraction(result.tail))


def test_sum_boundary_positive():
    ctx = make_context(25)
    value = sum_boundary_detailed(unit_spec(Fraction(27, 4)), 10, ctx).value
    with ctx.workdps():
        reference = 2 * mp.pi ** 2 / 3 - 2 * mp.log(2) ** 2
        assert abs(value - reference) < mpf(10) ** -10
        assert mp.nstr(reference, 10) == "5.61883024"


def test_sum_boundary_alternating():
    ctx = make_context(25)
    value = sum_boundary_detailed(unit_spec(Fraction(-27, 4)), 10, ctx).value
    with ctx.workdps():
        # surd closed form: 6 arctan^2(sqrt3/(2 cbrt(3+2sqrt2)+1)) ...
        u = mp.cbrt(3 + 2 * mp.sqrt(2))
        reference = (6 * mp.atan(mp.sqrt(3) / (2 * u + 1)) ** 2
                     - mp.log((2 + 2 * mp.sqrt(2)) / (u - 1) ** 3) ** 2 / 2)
        assert abs(value - reference) < mpf(10) ** -10


def test_sum_boundary_rejects_unsupported():
    ctx = make_context(25)
    with pytest.raises(Unsupported):
        sum_boundary_detailed(unit_spec(Fraction(27, 4), a=0), 10, ctx)
    with pytest.raises(Unsupported):
        sum_boundary_detailed(unit_spec(Fraction(8, 3)), 10, ctx)
    with pytest.raises(ValueError):
        sum_boundary_detailed(unit_spec(Fraction(27, 4)), 50, ctx)


def test_weighted_sum_matches_componentwise(ctx30):
    # Fibonacci-weight series equals the Binet combination of unit series
    z = Fraction(1, 5)
    m = 2
    spec = SeriesSpec(z, 2, Weight("fib", m))
    result = sum_to_digits(spec, 25, ctx30)
    with ctx30.workdps():
        alpha = (1 + mp.sqrt(5)) / 2
        beta = (1 - mp.sqrt(5)) / 2
        zf = mpf(z.numerator) / z.denominator
        reference = (unit_series(zf * alpha ** m, 2)
                     - unit_series(zf * beta ** m, 2)) / mp.sqrt(5)
        assert abs(result.value - reference) < mpf(10) ** -24


@pytest.mark.parametrize("z", [Fraction(1, 10 ** 400), Fraction(-3, 7 ** 500),
                               Fraction(27 * 10 ** 5, 4 * 10 ** 700 + 1)])
def test_an_argument_below_the_smallest_float_sums(z):
    # float(z) is 0, so ln|z| must come from the numerator and denominator
    spec = unit_spec(z)
    assert series._cutoff_seed(spec, 25, series._log_abs_z(spec)) == 0
    result = sum_to_digits(spec, 25, make_context(25))
    assert result.terms_used == 1
    with make_context(25).workdps():
        assert abs(result.value - mpf(z.numerator) / (3 * z.denominator)) \
            <= result.tail


def test_log_abs_z_reads_huge_numerators_and_denominators():
    assert series._log_abs_z(unit_spec(Fraction(10 ** 400 + 1, 10 ** 400))) \
        == pytest.approx(0.0, abs=1e-12)
    assert series._log_abs_z(unit_spec(Fraction(-1, 10 ** 400))) \
        == pytest.approx(-400 * math.log(10))


@pytest.mark.parametrize("z,a,weight", [
    (Fraction(-20, 3), 2, UNIT_WEIGHT),
    (Fraction(-20, 3), 1, Weight("lucas", 0)),
    (Fraction(-1, 2), 2, UNIT_WEIGHT), (Fraction(-20, 3), 0, UNIT_WEIGHT),
    (Fraction(20, 3), 2, UNIT_WEIGHT), (Fraction(-1, 2), 2, Weight("fib", 1))])
@pytest.mark.parametrize("digits", [30, 100, 1000])
def test_crvz_routing_is_what_sum_to_digits_uses(z, a, weight, digits):
    spec = SeriesSpec(z, a, weight)
    result = sum_to_digits(spec, digits, make_context(digits))
    planned = series.plan(spec, digits, 10 ** 6)
    assert result.terms_used == planned.terms
    assert (planned.method == "crvz") == (
        result.terms_used == series._crvz_terms(digits))
