"""The fixed-point level core against the mpf oracle of reference.py: the
same value within 10^-(working-5) max(1, |v|), and the same accept or
reject with the same message, on every pair the package evaluates."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import mp, mpf
from mpmath.libmp import to_rational

import reference
from binom3k import closed_forms
from binom3k.closed_forms import (TheoremParams, XYPair, batir_rhs,
                                  eval_expr, theorem_point)
from binom3k.errors import Binom3kError, DomainError
from binom3k.expressions import level
from binom3k.precision import _unscale, make_context
from binom3k.verifier import differential_check
from test_family_pairs import SWEEP_GRID

DIGITS = (25, 100, 1000)
LEVEL = closed_forms._level  # the core itself, not the spy below
# the check whose closed side is the level a, which reads the pair as given
CHECKS = {1: "A_to_B", 0: "B_to_C"}

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
    """The core at a finite pair as given, read to mpf values at the
    working precision and scaled exactly to integers, as
    differential_check reads its pair."""
    w = ctx.prec + closed_forms._GUARD_BITS

    def at(a, x, y):
        xq, yq = (Fraction(*to_rational(v._mpf_))
                  for v in XYPair(x, y).values(ctx))
        scale = max(xq.denominator, yq.denominator)
        return core(a, int(xq * scale), int(yq * scale), w, ctx.prec)
    return at


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


def point_value(params, ctx):
    return eval_expr(theorem_point(params)[1], ctx)


def node_value(a, x, y, ctx):
    return eval_expr(level(a, x, y), ctx)


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
        attempt(point_value, TheoremParams(family, **point), ctx)
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
        for a in (2, 1, 0):
            attempt(node_value, a, x, y, ctx)
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
    # the mpf formulas return nan here, so the oracle has no answer; a
    # pair is read as given at a = 1 and 0, by differential_check, and an
    # mpf reaches the level a = 2 as Batir's z alone
    inf, nan = mpf("inf"), mpf("nan")
    with ctx30.workdps():
        if a == 2:
            for z in (inf, -inf, nan):
                with pytest.raises(DomainError, match="phi needs a finite z"):
                    batir_rhs(z, ctx30)
            return
        for x, y in ((inf, mpf(1)), (-inf, mpf(1)), (nan, mpf(1)),
                     (mpf(1), inf), (mpf(1), nan)):
            with pytest.raises(DomainError, match="outside validity window"):
                differential_check(CHECKS[a], XYPair(x, y), 30, ctx30)


@pytest.mark.parametrize("a", (2, 1, 0))
def test_unswapped_pair_beyond_one_is_refused(a, ctx30):
    # differential_check reads the pair as given at a = 1 and 0; no caller
    # reads an a = 2 pair so, and its node swaps the pair as documented
    for x, y in ((1, 2), (1, -2), (-1, 5)):
        if a == 2:
            swapped = outcome(node_value, a, y, x, ctx30)
            assert outcome(node_value, a, x, y, ctx30) == swapped
            with ctx30.workdps():
                assert_same(swapped, outcome(reference.level, a, mpf(y),
                                             mpf(x)))
            continue
        with pytest.raises(Binom3kError) as raised:
            differential_check(CHECKS[a], XYPair(x, y), 30, ctx30)
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
    got = outcome(front_door(ctx), a, pair.x, pair.y)
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
