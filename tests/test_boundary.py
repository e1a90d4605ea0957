"""The proved boundary sums at z = +-27/4: the telescoping certificate at
27/4, integer CRVZ at -27/4, and the classification on the radius."""

import math
import re
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from binom3k import expressions as ex
from binom3k import series
from binom3k.closed_forms import eval_expr
from binom3k.errors import MaxTermsExceeded, Unsupported
from binom3k.precision import make_context
from binom3k.series import (DIVERGES, SeriesSpec, Weight, _crvz, _telescope,
                            _telescope_coeffs, convergence_kind,
                            sum_boundary_detailed)

POSITIVE = SeriesSpec(Fraction(27, 4), 2)


def exact_term(k):
    return Fraction(27, 4) ** k / (k * k * math.comb(3 * k, k))


def positive_closed_form():
    return 2 * mp.pi ** 2 / 3 - 2 * mp.log(2) ** 2


def alternating_closed_form(a):
    u = mp.cbrt(3 + 2 * mp.sqrt(2))
    if a == 2:
        return (6 * mp.atan(mp.sqrt(3) / (2 * u + 1)) ** 2
                - mp.log((2 + 2 * mp.sqrt(2)) / (u - 1) ** 3) ** 2 / 2)
    # z = -27/4 is the pair (-(sqrt2+1)^2, 1) at the edge of the B window
    return eval_expr(ex.level(1, -3 - 2 * ex.sqrt(2), 1),
                     make_context(mp.dps))


def exact_remainder(K):
    """sum_{k>K} t_k at 80 digits: the closed form minus the exact head."""
    head = sum(exact_term(k) for k in range(1, K + 1))
    return positive_closed_form() - mpf(head.numerator) / head.denominator


def eps(b, F, k):
    """P(k)/r(k) - P(k+1) - 1 exactly, for the coefficients 2^F b_j."""
    def P(x):
        return sum(Fraction(c, 1 << F) * Fraction(x) ** (1 - j)
                   for j, c in enumerate(b))
    r = Fraction(9 * k * k * (2 * k + 1), 2 * (k + 1) * (3 * k + 1) * (3 * k + 2))
    return P(k) / r - P(k + 1) - 1


def assert_bracketed(K, factor, eta):
    centre = exact_term(K) * factor
    radius = eta * centre / (1 - eta)
    gap = exact_remainder(K) - mpf(centre.numerator) / centre.denominator
    assert abs(gap) <= mpf(radius.numerator) / radius.denominator


@pytest.mark.parametrize("z, a, kind", [
    (Fraction(27, 4), 0, "divergent_formal"),
    (Fraction(27, 4), 1, "divergent_formal"),
    (Fraction(27, 4), 2, "boundary_positive"),
    (Fraction(-27, 4), 0, "divergent_formal"),
    (Fraction(-27, 4), 1, "boundary_alternating"),
    (Fraction(-27, 4), 2, "boundary_alternating")])
def test_radius_pairs_are_classified_by_a(z, a, kind):
    # on the radius the terms behave like (+-1)^k k^(1/2 - a)
    assert convergence_kind(SeriesSpec(z, a)) == kind
    assert convergence_kind(SeriesSpec(z, a, Weight("lucas", 0))) == kind
    if kind == "divergent_formal":
        with pytest.raises(Unsupported, match=re.escape(DIVERGES)):
            sum_boundary_detailed(SeriesSpec(z, a), 10, make_context(20))


def test_telescope_starts_at_two():
    assert _telescope_coeffs(6, 40)[0] == 2 << 40


@pytest.mark.parametrize("K, J", [(64, 8), (16, 4), (200, 12), (32, 2)])
def test_telescope_brackets_the_exact_remainder(K, J):
    with mp.workdps(80):
        factor, eta = _telescope(K, J, 200)
        assert 0 <= eta < 1
        assert_bracketed(K, factor, eta)


@pytest.mark.parametrize("K, J", [(64, 8), (16, 4), (32, 2), (300, 40)])
def test_eta_bounds_eps_and_is_tight(K, J):
    F = 200
    b = _telescope_coeffs(J, F)
    factor, eta = _telescope(K, J, F)
    assert factor == sum(Fraction(c, 1 << F) * Fraction(K) ** (1 - j)
                         for j, c in enumerate(b))
    first = abs(eps(b, F, K))
    assert first <= eta <= Fraction(6, 5) * first
    for k in (K + 1, K + 3, 2 * K, 7 * K + 5, 100 * K):
        assert abs(eps(b, F, k)) <= eta


def test_eta_comes_from_the_coefficients_used(monkeypatch):
    K, J, F = 64, 8, 200
    factor, eta = _telescope(K, J, F)
    coeffs = _telescope_coeffs

    def perturbed(J, F):
        b = coeffs(J, F)
        b[3] += 1 << (F - 4)
        return b

    monkeypatch.setattr(series, "_telescope_coeffs", perturbed)
    wide_factor, wide_eta = _telescope(K, J, F)
    assert wide_eta > 1000 * eta
    assert wide_eta >= abs(eps(perturbed(J, F), F, K))
    with mp.workdps(80):
        assert_bracketed(K, wide_factor, wide_eta)
    # the sum refuses the wider bound instead of reporting a wrong value
    with pytest.raises(Unsupported, match="not below 10\\^-30"):
        sum_boundary_detailed(POSITIVE, 30, make_context(40))


def chebyshev_at_3(n):
    with mp.workdps(n + 20):
        return int(mp.nint(((3 + mp.sqrt(8)) ** n + (3 - mp.sqrt(8)) ** n) / 2))


@pytest.mark.parametrize("n", [1, 2, 5, 20, 135])
def test_crvz_error_meets_its_bound_on_extreme_measures(n):
    one = 1 << 60
    # delta at x = 0: the sum is a_0 and the error is exactly a_0 / T_n(3)
    s, d = _crvz([one] + [0] * (n - 1))
    assert d == chebyshev_at_3(n)
    assert abs(s - one * d) == one
    # delta at x = 1: the sum is a_0 / 2, the error a_0 / (2 T_n(3)); n - 1
    # terms would miss the n-term bound a_0 / T_n(3) by a factor near 3
    s, d = _crvz([one] * n)
    assert abs(2 * s - one * d) == one


def test_crvz_with_one_term_fewer_misses_the_bound():
    n, one = 40, 1 << 60
    d_n = chebyshev_at_3(n)
    s, d = _crvz([one] * (n - 1))
    assert abs(Fraction(s, d) - Fraction(one, 2)) > Fraction(one, d_n)


@pytest.mark.parametrize("n", [1, 7, 64, 300])
def test_crvz_weights_lie_inside_the_denominator(n):
    # c_k is the change of s when a_k is raised by one
    base, d = _crvz([0] * n)
    for k in range(n):
        s, _ = _crvz([0] * k + [1] + [0] * (n - k - 1))
        assert 0 < abs(s - base) < d
        assert (s > base) == (k % 2 == 0)


@pytest.mark.parametrize("digits", [30, 100, 300])
@pytest.mark.parametrize("z, a", [(Fraction(27, 4), 2), (Fraction(-27, 4), 1),
                                  (Fraction(-27, 4), 2)])
def test_boundary_sums_meet_their_closed_forms(z, a, digits):
    ctx = make_context(digits + 10)
    result = sum_boundary_detailed(SeriesSpec(z, a), digits, ctx)
    assert result.tail < mpf(10) ** -digits
    with ctx.workdps():
        reference = (positive_closed_form() if z > 0
                     else alternating_closed_form(a))
        assert abs(result.value - reference) <= result.tail


def test_lucas_zero_weight_doubles_the_boundary_sums():
    ctx = make_context(40)
    for z, a in ((Fraction(27, 4), 2), (Fraction(-27, 4), 1)):
        unit = sum_boundary_detailed(SeriesSpec(z, a), 30, ctx)
        double = sum_boundary_detailed(SeriesSpec(z, a, Weight("lucas", 0)),
                                       30, ctx)
        with ctx.workdps():
            gap = abs(double.value - 2 * unit.value)
        assert gap <= double.tail + 2 * unit.tail


def test_boundary_sums_honour_the_term_budget():
    ctx = make_context(110, 64)
    for z in (Fraction(27, 4), Fraction(-27, 4)):
        with pytest.raises(MaxTermsExceeded):
            sum_boundary_detailed(SeriesSpec(z, 2), 100, ctx)
