import contextlib
import dataclasses
import io
import pickle
from fractions import Fraction

import pytest
from mpmath import mp, mpf
from mpmath.libmp import dps_to_prec

from binom3k import cli, series
from binom3k import expressions as ex
from binom3k.closed_forms import XYPair, batir_rhs, eval_expr, phi
from binom3k.errors import DomainError, MaxTermsExceeded
from binom3k.precision import (GUARD_DIGITS, PrecisionContext, context_for,
                               make_context)
from binom3k.series import sum_boundary_detailed, sum_to_digits
from binom3k.verifier import differential_check, sum_record, verify
from reference import golden_conjugate, golden_ratio, real_cbrt


@pytest.mark.parametrize("target,terms,expected", [
    (50, 100000, 76),   # 50 + 26 guard digits, whatever the budget
    (10, 10, 36),
    (30, 1, 56),
    (30, 64, 56),
    (30, 2000, 56),
    (30, 10 ** 6, 56),
])
def test_working_digits(target, terms, expected):
    assert make_context(target, terms).working_digits == expected
    assert expected == target + GUARD_DIGITS


def test_a_context_has_two_settable_fields():
    names = [f.name for f in dataclasses.fields(PrecisionContext)]
    assert names == ["target_digits", "max_terms"]
    with pytest.raises(TypeError):
        dataclasses.replace(make_context(30), working_digits=40)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        make_context(0)
    with pytest.raises(ValueError):
        make_context(10, 0)


def test_max_terms_recorded():
    assert make_context(10, 5000).max_terms == 5000


def test_context_for_builds_or_checks_the_request():
    assert context_for(40) == make_context(40)
    ctx = make_context(50, 64)
    assert context_for(40, ctx) is ctx
    assert context_for(50, ctx) is ctx
    with pytest.raises(ValueError, match="fewer than the 51 requested"):
        context_for(51, ctx)
    with pytest.raises(ValueError):
        context_for(0, ctx)


def test_real_cbrt_sign_preserving():
    ctx = make_context(30)
    with ctx.workdps():
        assert real_cbrt(mpf(-8)) == -2
        assert real_cbrt(mpf(27)) == 3
        assert real_cbrt(mpf(0)) == 0


def test_golden_ratio_value():
    ctx = make_context(30)
    with ctx.workdps():
        alpha = golden_ratio(ctx)
        assert mp.nstr(alpha, 30) == "1.61803398874989484820458683437"


def test_golden_pair_relations():
    ctx = make_context(40)
    with ctx.workdps():
        alpha = golden_ratio(ctx)
        beta = golden_conjugate(ctx)
        assert abs(alpha * beta + 1) < mpf(10) ** -40
        assert abs(alpha + beta - 1) < mpf(10) ** -40


def test_term_budget_is_a_field():
    ctx = make_context(40, 64)
    assert ctx.max_terms == 64
    assert "max_terms=64" in repr(ctx)
    assert ctx != make_context(40)
    kept = dataclasses.replace(ctx, target_digits=50)
    assert kept.max_terms == 64
    assert kept.working_digits == 50 + GUARD_DIGITS
    assert pickle.loads(pickle.dumps(ctx)) == ctx
    assert pickle.loads(pickle.dumps(ctx)).max_terms == 64


def test_prec_is_the_working_digits_in_bits():
    ctx = make_context(30)
    assert ctx.prec == dps_to_prec(ctx.working_digits)
    with ctx.workdps():
        assert mp.prec == ctx.prec and mp.dps == ctx.working_digits
    with pytest.raises(dataclasses.FrozenInstanceError):
        ctx.prec = 100


# -- the working precision as a value ----------------------------------------

def _holding(state: str, ctx: PrecisionContext):
    """The caller's precision: the context's working bits, mpmath's
    default dps, or one bit above the working bits (the same dps)."""
    bits = dps_to_prec(ctx.working_digits)
    return {"working": mp.workprec(bits), "default": mp.workdps(15),
            "one bit above": mp.workprec(bits + 1)}[state]


@pytest.fixture
def writes(monkeypatch):
    """A count of the writes to mp.prec and mp.dps, by setters patched on
    type(mp)."""
    count = [0]
    for name in ("prec", "dps"):
        original = getattr(type(mp), name)

        def counted(context, value, original=original):
            count[0] += 1
            original.fset(context, value)

        monkeypatch.setattr(type(mp), name,
                            property(original.fget, counted))
    return count


def _eval_output(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(argv) == 0
    return out.getvalue()


def _entries(record_of):
    """(name, call) pairs of the public entries that compute at the
    working precision, each returning the raw values it computes.  The
    closed forms of eq-17-12 and thm1-fib-r2, the check of B at the pair
    (1, -1/27) as given, and phi and Batir's form at z = 1/3 round
    otherwise one bit above."""
    ctx = make_context(30)
    surd, point = record_of("eq-17-12"), record_of("thm1-fib-r2")

    def summed(fn, record):
        result = fn(record.lhs, 30, ctx)
        return result.value._mpf_, result.tail._mpf_, result.terms_used

    def checked(pair):
        r = differential_check("A_to_B", pair, 30, ctx)
        return (r.status, r.matched_digits, r.lhs_value._mpf_,
                r.rhs_value._mpf_, r.detail)

    def verified(record):
        r = verify(record, 30, ctx)
        return (r.status, r.matched_digits, r.lhs_value._mpf_,
                r.rhs_value._mpf_, r.tail._mpf_, r.terms_used, r.detail)

    return ctx, [
        ("eval_expr surd", lambda: eval_expr(surd.rhs, ctx)._mpf_),
        ("eval_expr level", lambda: eval_expr(point.rhs, ctx)._mpf_),
        ("differential_check", lambda: checked(
            XYPair(Fraction(1), Fraction(-1, 27)))),
        ("phi", lambda: phi(Fraction(1, 3), ctx)._mpf_),
        ("batir_rhs", lambda: batir_rhs(Fraction(1, 3), ctx)._mpf_),
        ("sum_to_digits", lambda: summed(sum_to_digits, surd)),
        ("sum_boundary_detailed telescope",
         lambda: summed(sum_boundary_detailed, record_of("eq-27-4"))),
        ("sum_boundary_detailed crvz",
         lambda: summed(sum_boundary_detailed, record_of("alt-27-4"))),
        ("verify surd", lambda: verified(surd)),
        ("verify point", lambda: verified(point)),
        ("cli eval", lambda: _eval_output(
            ["eval", "--id", "eq-27-4", "--digits", "30"])),
    ]


def test_every_entry_gives_the_same_bits_whatever_the_caller_holds(
        record_of, writes):
    ctx, entries = _entries(record_of)
    for name, call in entries:
        values = {}
        for state in ("working", "default", "one bit above"):
            with _holding(state, ctx):
                held, written = mp.prec, writes[0]
                values[state] = call()
                assert writes[0] == written, (name, state)
                assert mp.prec == held, (name, state)
        assert len(set(values.values())) == 1, name


def test_no_entry_leaks_its_precision_when_it_raises(record_of, writes):
    ctx, tight = make_context(30), make_context(40, 100)
    bad_tree = ex.log(ex.intlit(-1))
    long_sum = record_of("eq-20-3")
    for state in ("working", "default", "one bit above"):
        with _holding(state, ctx):
            held, written = mp.prec, writes[0]
            with pytest.raises(DomainError):
                eval_expr(bad_tree, ctx)
            assert mp.prec == held
            with pytest.raises(MaxTermsExceeded):
                sum_to_digits(long_sum.lhs, 30, tight)
            assert mp.prec == held
            assert "MaxTermsExceeded" in verify(long_sum, 30, tight).detail
            assert mp.prec == held
            bad = dataclasses.replace(long_sum, rhs=bad_tree)
            assert "DomainError" in verify(bad, 30, ctx).detail
            assert mp.prec == held
            assert writes[0] == written, state


def test_a_sum_is_its_integer_rounded_once_to_the_working_precision(
        record_of, monkeypatch):
    seen = []
    certified = series._certified

    def spy(value, error, bits, terms, digits, prec):
        seen.append((value, bits, prec))
        return certified(value, error, bits, terms, digits, prec)

    monkeypatch.setattr(series, "_certified", spy)
    ctx = make_context(30)
    for record_id in ("eq-17-12", "eq-27-4", "alt-27-4"):
        result = sum_record(record_of(record_id), 30, ctx)
        value, bits, prec = seen.pop()
        assert prec == ctx.prec
        rounded = mpf(value, prec=prec, rounding="n")
        assert result.value._mpf_ == mp.ldexp(rounded, -bits)._mpf_, record_id
