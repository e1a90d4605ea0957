from fractions import Fraction

import pytest
from mpmath import mp, mpf

from binom3k.errors import MaxTermsExceeded, Unsupported
from binom3k.precision import make_context
from binom3k.series import (SeriesSpec, UNIT_WEIGHT, Weight, binom_3k_k,
                            classify, partial_sum, sum_boundary,
                            sum_to_digits, tail_bound)


def unit_spec(z, a=2):
    return SeriesSpec(Fraction(z) if not isinstance(z, Fraction) else z,
                      a, UNIT_WEIGHT)


@pytest.mark.parametrize("k,expected", [(1, 3), (2, 15), (3, 84), (4, 495)])
def test_binom_3k_k(k, expected):
    assert binom_3k_k(k) == expected


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


def test_partial_sum_hand_values(ctx30):
    spec = unit_spec(Fraction(8, 3))
    with ctx30.workdps():
        one = partial_sum(spec, 1, ctx30)
        two = partial_sum(spec, 2, ctx30)
        assert abs(one - mpf(8) / 9) < mpf(10) ** -35
        # 8/9 + (8/3)^2 / (4 * 15) = 136/135
        assert abs(two - mpf(136) / 135) < mpf(10) ** -35


def test_tail_bound_fast_and_slow(ctx30):
    assert tail_bound(unit_spec(Fraction(8, 3)), 50, ctx30) < mpf(10) ** -20
    assert tail_bound(unit_spec(Fraction(20, 3)), 100, ctx30) > mpf(10) ** -2


def test_tail_bound_zero_argument(ctx30):
    assert tail_bound(unit_spec(Fraction(0)), 10, ctx30) == 0


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
            reference = mp.nsum(
                lambda k: mpf(-1) ** k / (k ** 2 * binom_3k_k(int(k))),
                [1, mp.inf])
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
            deep = partial_sum(spec, result.terms_used + 400, ctx30)
            assert abs(deep - result.value) <= result.tail


def test_sum_boundary_positive():
    ctx = make_context(25)
    value = sum_boundary(unit_spec(Fraction(27, 4)), 10, ctx)
    with ctx.workdps():
        reference = 2 * mp.pi ** 2 / 3 - 2 * mp.log(2) ** 2
        assert abs(value - reference) < mpf(10) ** -10
        assert mp.nstr(reference, 10) == "5.61883024"


def test_sum_boundary_alternating():
    ctx = make_context(25)
    value = sum_boundary(unit_spec(Fraction(-27, 4)), 10, ctx)
    with ctx.workdps():
        # surd closed form: 6 arctan^2(sqrt3/(2 cbrt(3+2sqrt2)+1)) ...
        u = mp.cbrt(3 + 2 * mp.sqrt(2))
        reference = (6 * mp.atan(mp.sqrt(3) / (2 * u + 1)) ** 2
                     - mp.log((2 + 2 * mp.sqrt(2)) / (u - 1) ** 3) ** 2 / 2)
        assert abs(value - reference) < mpf(10) ** -10


def test_sum_boundary_rejects_unsupported():
    ctx = make_context(25)
    with pytest.raises(Unsupported):
        sum_boundary(unit_spec(Fraction(27, 4), a=0), 10, ctx)
    with pytest.raises(Unsupported):
        sum_boundary(unit_spec(Fraction(8, 3)), 10, ctx)
    with pytest.raises(ValueError):
        sum_boundary(unit_spec(Fraction(27, 4)), 50, ctx)


def test_weighted_sum_matches_componentwise(ctx30):
    # Fibonacci-weight series equals the Binet combination of unit series
    z = Fraction(1, 5)
    m = 2
    spec = SeriesSpec(z, 2, Weight("fib", m))
    result = sum_to_digits(spec, 25, ctx30)
    with ctx30.workdps():
        alpha = (1 + mp.sqrt(5)) / 2
        beta = (1 - mp.sqrt(5)) / 2
        def s(zz):
            return mp.nsum(lambda k: zz ** k / (k ** 2 * binom_3k_k(int(k))),
                           [1, mp.inf])
        zf = mpf(z.numerator) / z.denominator
        reference = (s(zf * alpha ** m) - s(zf * beta ** m)) / mp.sqrt(5)
        assert abs(result.value - reference) < mpf(10) ** -24
