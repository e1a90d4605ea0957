"""The fixed-point level core against the mpf oracle of reference.py: the
same value within 10^-(working-5) max(1, |v|), and the same accept or
reject with the same message, on every pair the package evaluates."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import mp, mpf

import reference
from binom3k import closed_forms
from binom3k.closed_forms import (A_rhs, B_rhs, C_rhs, TheoremParams, XYPair,
                                  batir_rhs, theorem_rhs)
from binom3k.errors import Binom3kError, DomainError
from binom3k.precision import _unscale, make_context
from test_family_pairs import SWEEP_GRID

DIGITS = (25, 100, 1000)
LEVELS = {2: A_rhs, 1: B_rhs, 0: C_rhs}
LEVEL = closed_forms._level  # the core itself, not the spy below

# the (x, y) pairs of the catalog's xy-* records; (27, -8) is outside
XY_PAIRS = [(Fraction(8), Fraction(1)), (Fraction(8), Fraction(-1)),
            (Fraction(8), Fraction(1, 8)), (Fraction(8), Fraction(-1, 8)),
            (Fraction(1), Fraction(1, 27)), (Fraction(1), Fraction(-1, 27)),
            (Fraction(27), Fraction(8)), (Fraction(27), Fraction(-8))]


def outcome(level, a, x, y, *w):
    """The level's value, or the type and message of the error it raises."""
    try:
        return level(a, x, y, *w)
    except Binom3kError as exc:
        return type(exc), str(exc)


def core(a, x, y, w, prec):
    """The core at the integer pair (x, y), rounded to the working
    precision."""
    return _unscale(LEVEL(a, x, y, w, prec, {}), w, prec)


def front_door(ctx):
    """The level at an mpf pair as given, through A_rhs, B_rhs or C_rhs."""
    return lambda a, x, y: LEVELS[a](XYPair(x, y), ctx)


def assert_same(got, want):
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
    else:
        tol = mpf(10) ** -(mp.dps - 5)
        assert abs(got - want) <= tol * max(1, abs(want)), (got, want)


@pytest.fixture
def evaluations(monkeypatch):
    """Every (a, x, y, w, prec) the package hands the core while it is
    on."""
    seen = []

    def spy(a, x, y, w, prec, memo):
        seen.append((a, x, y, w, prec))
        return LEVEL(a, x, y, w, prec, memo)

    monkeypatch.setattr(closed_forms, "_level", spy)
    return seen


def check_against_oracle(seen, ctx):
    assert seen
    with ctx.workdps():
        for a, x, y, w, prec in seen:
            assert_same(outcome(core, a, x, y, w, prec),
                        outcome(reference.level, a, mpf(x), mpf(y)))


def attempt(fn, *args):
    """Call fn; an error the package raises passes, as the evaluator's part
    in it is compared with the oracle."""
    try:
        fn(*args)
    except Binom3kError:
        pass


@pytest.mark.parametrize("digits", DIGITS)
@pytest.mark.parametrize("family", sorted(SWEEP_GRID))
def test_sweep_grid_matches_the_oracle(family, digits, evaluations):
    ctx = make_context(digits)
    for point in SWEEP_GRID[family]:
        attempt(theorem_rhs, TheoremParams(family, **point), ctx)
    check_against_oracle(evaluations, ctx)


@pytest.mark.parametrize("digits", DIGITS)
def test_catalog_families_match_the_oracle(digits, catalog, evaluations):
    ctx = make_context(digits)
    for record in catalog:
        if reference.level_nodes(record.rhs):
            attempt(record.rhs_value, ctx)
    check_against_oracle(evaluations, ctx)


@pytest.mark.parametrize("digits", DIGITS)
def test_batir_trig_and_xy_forms_match_the_oracle(digits, evaluations):
    ctx = make_context(digits)
    for z in (Fraction(27, 4), Fraction(6), Fraction(8, 3), Fraction(1, 100),
              Fraction(-9, 4), Fraction(-27, 4)):
        attempt(batir_rhs, z, ctx)
    with ctx.workdps():
        angles = [mp.pi / 12, mp.pi / 8, mp.pi / 6, mp.pi / 5, mp.pi / 4]
    for variant in "DEF":
        for angle in angles:
            attempt(reference.trig_rhs, variant, angle, ctx)
    for x, y in XY_PAIRS:
        for level in LEVELS.values():
            attempt(level, XYPair(x, y), ctx)
    check_against_oracle(evaluations, ctx)


def test_the_lower_end_of_variant_e_is_inside(ctx30):
    with ctx30.workdps():
        x = -mp.cot(mp.pi / 8) ** 2
        assert_same(reference.trig_rhs("E", mp.pi / 8, ctx30),
                    reference.level(2, x, mpf(1)))


def window_pairs():
    """Pairs on either side of each end of the window, at 0 and beyond 1."""
    ulp = mpf(2) ** (1 - mp.prec)
    eps = mpf(10) ** (5 - mp.dps)
    floor = -3 - 2 * mp.sqrt(2)
    pairs = [(mpf(1), mpf(1)), (1 + ulp, mpf(1)), (mpf(1), 1 + ulp),
             (mpf(1), 1 - ulp / 2), (1 - ulp / 2, mpf(1)),
             (-1 - ulp, mpf(1)), (mpf(1), mpf(-1))]
    # t just below 1 with a full mantissa: B and C need 1 - t to the last bit
    pairs += [(mp.pi, mp.pi * (1 - gap)) for gap in (ulp * 512, mpf(2) ** -20)]
    pairs += [(floor * (1 + k * ulp), mpf(1)) for k in (-1, 0, 1)]
    pairs += [(floor * factor, mpf(1))
              for factor in (1 + eps, 1 - eps * mpf(0.999), 1 - eps * mpf(1.001),
                             1 - 2 * eps)]
    pairs += [(mpf(0), mpf(1)), (mpf(1), mpf(0)), (mpf(0), mpf(0)),
              (mpf(1), mpf(2)), (mpf(1), mpf(-2)), (mpf(-1), mpf(2)),
              (mpf(-2), mpf(1)), (mpf(1), mpf(10) ** 30)]
    return pairs


@pytest.mark.parametrize("digits", (10, 25, 100))
@pytest.mark.parametrize("a", (2, 1, 0))
def test_window_and_messages_match_the_oracle(a, digits):
    ctx = make_context(digits)
    with ctx.workdps():
        got = [outcome(front_door(ctx), a, x, y) for x, y in window_pairs()]
        for result, (x, y) in zip(got, window_pairs()):
            assert_same(result, outcome(reference.level, a, x, y))
    assert {isinstance(result, tuple) for result in got} == {True, False}


@pytest.mark.parametrize("a", (2, 1, 0))
def test_a_pair_that_is_not_finite_is_refused(a, ctx30):
    # the mpf formulas return nan here, so the oracle has no answer
    inf, nan = mpf("inf"), mpf("nan")
    with ctx30.workdps():
        for x, y in ((inf, mpf(1)), (-inf, mpf(1)), (nan, mpf(1)),
                     (mpf(1), inf), (mpf(1), nan)):
            with pytest.raises(DomainError, match="outside validity window"):
                LEVELS[a](XYPair(x, y), ctx30)


@pytest.mark.parametrize("a", (2, 1, 0))
def test_unswapped_pair_beyond_one_is_refused(a, ctx30):
    for x, y in ((1, 2), (1, -2), (-1, 5)):
        with pytest.raises(Binom3kError) as raised:
            LEVELS[a](XYPair(x, y), ctx30)
        with ctx30.workdps():
            assert (type(raised.value), str(raised.value)) == outcome(
                reference.level, a, mpf(x), mpf(y))


@settings(max_examples=150, deadline=None)
@given(t=st.fractions(min_value=Fraction(-17157, 100000), max_value=1,
                      max_denominator=10**9),
       a=st.sampled_from((2, 1, 0)), digits=st.sampled_from((10, 25, 60)))
def test_rational_ratio_in_the_window(t, a, digits):
    ctx = make_context(digits)
    pair = XYPair(t.denominator, t.numerator)
    try:
        got = LEVELS[a](pair, ctx)
    except Binom3kError as exc:
        got = type(exc), str(exc)
    with ctx.workdps():
        assert_same(got, outcome(reference.level, a, *pair.values(ctx)))


@settings(max_examples=150, deadline=None)
@given(t=st.fractions(min_value=Fraction(-17157, 100000), max_value=1,
                      max_denominator=10**9),
       a=st.sampled_from((2, 1, 0)), digits=st.sampled_from((10, 25, 60)))
def test_error_is_within_the_budget(t, a, digits):
    # the core's budget of 2^(12 - w) max(1, |v|), on its unrounded value
    assume(t != 0 and (a == 2 or t != 1))
    with make_context(digits).workdps():
        w = mp.prec + closed_forms._GUARD_BITS
        got = LEVEL(a, t.denominator, t.numerator, w, mp.prec, {})
        with mp.workdps(mp.dps + 20):
            want = reference.formulas(a, mpf(t.denominator), mpf(t.numerator))
            bound = mpf(2) ** (12 - w) * max(1, abs(want))
            assert abs(mpf(got) / 2 ** w - want) <= bound
