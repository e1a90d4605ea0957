import dataclasses
import pickle

import pytest
from mpmath import mp, mpf

from binom3k.precision import (GUARD_DIGITS, PrecisionContext, context_for,
                               golden_ratio, make_context)
from reference import golden_conjugate, real_cbrt


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
