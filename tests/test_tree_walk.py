"""The fixed-point tree walk of closed_forms.eval_expr against the mpf
oracle of reference.py: its error bound on every closed form the package
holds, the wider W that small values force, and the DomainError messages."""

from fractions import Fraction

import pytest
from mpmath import mp, mpf

import reference
from binom3k import closed_forms, precision
from binom3k.closed_forms import eval_expr, phi, theorem_point
from binom3k.errors import Binom3kError, DomainError, InvalidParams
from binom3k.expressions import (GOLDEN, arctan, cbrt, intlit, level, log,
                                 ratlit, sqrt)
from binom3k.precision import make_context
from test_family_pairs import _POINTS

# the rounded result is within 2^(C - prec) max(1, |v|) of the value v,
# and on the closed forms of the package the walk's integer, before that
# rounding, within 2^(UNITS - W) max(1, |v|)
C, UNITS = 1, 8


def family_trees():
    trees = []
    for params in _POINTS:
        try:
            trees.append(theorem_point(params)[1])
        except InvalidParams:
            pass
    return trees


def assert_within_bound(expr, ctx):
    got = eval_expr(expr, ctx)
    with ctx.workdps():
        bound = mpf(2) ** (C - mp.prec)
        with mp.workdps(mp.dps + 40):
            want = reference.tree_value(expr)
            assert abs(got - want) <= bound * max(1, abs(want)), (got, want)


@pytest.mark.parametrize("digits", (25, 100, 1000))
def test_every_closed_form_is_within_the_bound(digits, catalog):
    ctx = make_context(digits)
    trees = [record.rhs for record in catalog] + family_trees()
    assert len(trees) > 300
    for tree in trees:
        assert_within_bound(tree, ctx)
        with ctx.workdps():
            w = mp.prec + closed_forms._GUARD_BITS
            walked = closed_forms._walk(tree, w, w - closed_forms._SMALL_BITS,
                                        False, mp.prec, {})
            with mp.workdps(mp.dps + 40):
                want = reference.tree_value(tree)
                assert (abs(mpf(walked) / 2 ** w - want)
                        <= mpf(2) ** (UNITS - w) * max(1, abs(want)))


@pytest.fixture
def walks(monkeypatch):
    """The W of every walk eval_expr starts, the nested walks left out."""
    seen, depth = [], [0]
    walk = closed_forms._walk

    def spy(node, w, low, last, prec, memo):
        if not depth[0]:
            seen.append(w)
            # no tree here needs this many; a widening that stalls would
            # otherwise walk at one W for ever
            assert len(seen) <= 64, seen[-3:]
        depth[0] += 1
        try:
            return walk(node, w, low, last, prec, memo)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(closed_forms, "_walk", spy)
    return seen


TINY = [
    level(2, ratlit(1, 10 ** 60), ratlit(1, 10 ** 61)),
    level(0, ratlit(-10 ** 9, 10 ** 70), ratlit(1, 10 ** 70)),
    1 / sqrt(ratlit(1, 10 ** 80)),
    log(ratlit(1, 10 ** 100)),
    cbrt(ratlit(-1, 10 ** 90)) * 10 ** 30,
    ratlit(1, 10 ** 30) * 10 ** 30 - arctan(1 / ratlit(3, 10 ** 45)),
    # below 2^-(4 W) at the first W, so a value that reads 0 doubles W
    level(2, ratlit(1, 10 ** 240), ratlit(1, 10 ** 241)),
    level(1, ratlit(5, 10 ** 300), ratlit(-1, 10 ** 300) * (3 - 2 * sqrt(2))),
    ratlit(1, 10 ** 240) * 10 ** 240,
    GOLDEN * 10 ** 300 * ratlit(1, 10 ** 300),
    1 / ratlit(1, 10 ** 240),
    GOLDEN / ratlit(7, 10 ** 300),
    log(ratlit(3, 10 ** 240)),
    log(ratlit(1, 10 ** 300)),
]


@pytest.mark.parametrize("digits", (25, 100))
@pytest.mark.parametrize("expr", TINY, ids=range(len(TINY)))
def test_a_small_value_widens_w(expr, digits, walks):
    ctx = make_context(digits)
    assert_within_bound(expr, ctx)
    with ctx.workdps():
        base = mp.prec + closed_forms._GUARD_BITS
    assert walks[0] == base and len(walks) > 1 and walks[-1] > base
    # one walk at the base W, checking nothing, misses it
    with ctx.workdps():
        try:
            value = precision._unscale(
                closed_forms._walk(expr, base, 0, False, mp.prec, {}), base,
                mp.prec)
        except DomainError:
            return
        want = reference.tree_value(expr)
        assert abs(value - want) > mpf(2) ** (C - mp.prec) * max(1, abs(want))


def test_a_catalog_tree_takes_one_walk(catalog, walks):
    ctx = make_context(30)
    for record in catalog:
        walks.clear()
        eval_expr(record.rhs, ctx)
        assert len(walks) == 1, record.id


def test_a_divisor_that_stays_small_ends_the_widening(walks):
    # sqrt2^2 - 2 is a few units of 2^-W at every W
    expr = 1 / (sqrt(2) ** 2 - 2)
    with pytest.raises(DomainError, match="^precision lost: "):
        eval_expr(expr, make_context(25))
    assert walks == sorted(set(walks))
    # the widest W: twice the bits of the tree's leaves, and 2^-12 to spare
    assert walks[-1] == (walks[0] + closed_forms._SMALL_BITS
                         + 2 * closed_forms._size(expr))


@pytest.mark.parametrize("expr", [
    sqrt(intlit(0)), cbrt(intlit(2) - 2), level(2, 0, 0),
    level(1, intlit(3) - 3, GOLDEN - GOLDEN)])
def test_a_value_that_reads_0_at_the_widest_w_is_0(expr, walks, ctx30):
    assert eval_expr(expr, ctx30) == 0
    assert walks[-1] == (walks[0] + closed_forms._SMALL_BITS
                         + 2 * closed_forms._size(expr))


def test_a_large_exponent_widens_w(walks, ctx30):
    # the power multiplies its base's relative error by 5000 > 2^12
    assert_within_bound(GOLDEN ** 5000, ctx30)
    assert len(walks) == 2 and walks[1] == walks[0] + 1


def derivative_quotient(a, x, digits):
    """The difference quotient of check-derivatives at the pair (x, 1):
    x(x+y)/(y-x) (L_a(x+h, y) - L_a(x-h, y))/(2h), h = cbrt(10^-digits)."""
    x, y, h = ratlit(x), ratlit(1), cbrt(ratlit(1, 10 ** digits))
    return (x * (x + y) / (y - x)
            * ((level(a, x + h, y) - level(a, x - h, y)) / (2 * h)))


# Far from x/y = 1 the difference of the two levels cancels hundreds of
# digits, and the division by 2h leaves a small factor that the large
# x(x+y)/(y-x) then scales up.  The oracle runs wide enough to cover the
# cancellation, and agrees with itself wider still.
@pytest.mark.parametrize("a, x, digits", [
    (2, 10 ** 300, 300), (2, 10 ** 100, 100), (1, 10 ** 100, 100),
    (2, -10 ** 50, 30)], ids=["A-1e300-300", "A-1e100-100", "B-1e100-100",
                              "A-minus1e50-30"])
def test_a_large_factor_reads_the_other_to_relative_accuracy(a, x, digits,
                                                            walks):
    expr = derivative_quotient(a, x, digits)
    ctx = make_context(digits)
    got = eval_expr(expr, ctx)
    assert walks == sorted(set(walks))
    with ctx.workdps():
        bound = mpf(2) ** (C - mp.prec)
        with mp.workdps(mp.dps + 900):
            want = reference.tree_value(expr)
        with mp.workdps(mp.dps + 1400):
            wider = reference.tree_value(expr)
            assert abs(want - wider) <= bound * max(1, abs(wider)) / 2 ** 20
        assert abs(got - want) <= bound * max(1, abs(want)), (got, want)


def test_a_power_too_large_to_hold_is_refused(ctx30):
    for expr in (GOLDEN ** 10 ** 7, ratlit(1, 2) ** -(10 ** 9)):
        with pytest.raises(DomainError, match="power too large"):
            eval_expr(expr, ctx30)
    # the same exponents toward 0 are fine, and exactly 0 at W bits
    assert eval_expr(ratlit(1, 2) ** 10 ** 9, ctx30) == 0
    assert eval_expr(GOLDEN ** -(10 ** 7), ctx30) == 0
    assert eval_expr(GOLDEN ** -(10 ** 9), ctx30) == 0
    assert eval_expr(intlit(3) ** -(10 ** 9), ctx30) == 0
    with pytest.raises(DomainError, match="division by zero"):
        eval_expr(intlit(0) ** -(10 ** 4), ctx30)


def left_deep_sum(terms):
    """1/2 + 1/3 + ... + 1/(terms + 1), added left to right: a tree nested
    terms - 1 deep."""
    leaves = [ratlit(1, k) for k in range(2, terms + 2)]
    return sum(leaves[1:], leaves[0])


def test_a_tree_the_walk_can_follow_evaluates(ctx30):
    exact = sum(Fraction(1, k) for k in range(2, 902))
    got = eval_expr(left_deep_sum(900), ctx30)
    with ctx30.workdps():
        assert abs(got - mpf(exact.numerator) / exact.denominator) <= (
            mpf(2) ** (C - mp.prec) * exact)


@pytest.mark.parametrize("terms", [1200, 5000])
def test_a_tree_nested_too_deep_is_a_domain_error(terms, ctx30):
    with pytest.raises(DomainError, match="^expression tree nested deeper "
                                          "than the walk can follow$"):
        eval_expr(left_deep_sum(terms), ctx30)


def outcome(fn, *args):
    try:
        return fn(*args)
    except Binom3kError as exc:
        return type(exc), str(exc)


ERRORS = [
    sqrt(intlit(-2)), sqrt(1 - GOLDEN), sqrt(ratlit(-1, 10 ** 70)),
    log(intlit(0)), log(intlit(2) - 2), log(-GOLDEN), log(ratlit(-3, 7)),
    1 / intlit(0), GOLDEN / (intlit(3) - 3), 1 / (sqrt(5) - sqrt(5)),
    level(2, 3, -1), level(2, -1, 1), level(1, 2, 2), level(0, -5, 1),
    level(2, 1, ratlit(-1, 3)), level(2, GOLDEN ** 2, -GOLDEN),
]


@pytest.mark.parametrize("digits", (10, 25, 100))
@pytest.mark.parametrize("expr", ERRORS, ids=range(len(ERRORS)))
def test_error_messages_match_the_oracle(expr, digits):
    ctx = make_context(digits)
    got = outcome(eval_expr, expr, ctx)
    assert isinstance(got, tuple)
    with ctx.workdps():
        assert got == outcome(reference.tree_value, expr)


@pytest.mark.parametrize("z", (mpf("inf"), mpf("-inf"), mpf("nan")))
def test_phi_needs_a_finite_argument(z, ctx30):
    with pytest.raises(DomainError, match="phi needs a finite z"):
        phi(z, ctx30)


@pytest.mark.parametrize("z, exact", [
    (Fraction(27, 4), Fraction(27, 4)), (Fraction(-27, 4), Fraction(-27, 4)),
    (Fraction(20, 3), Fraction(20, 3)), (6, Fraction(6)), (0.5, Fraction(1, 2)),
    (mpf(2) / 3, reference.to_fraction(mpf(2) / 3)),
    (intlit(5) / 4, Fraction(5, 4))])
def test_phi_reads_its_argument_exactly(z, exact, ctx30):
    got = phi(z, ctx30)
    with ctx30.workdps():
        bound = mpf(2) ** (C - mp.prec)
        with mp.workdps(mp.dps + 40):
            zv = mpf(exact.numerator) / exact.denominator
            want = reference.real_cbrt((27 - 2 * zv + 3 * mp.sqrt(81 - 12 * zv))
                                       / (2 * zv))
            assert abs(got - want) <= bound * max(1, abs(want))
