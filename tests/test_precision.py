import dataclasses
import pickle

import pytest
from mpmath import mp, mpf

from binom3k.precision import (golden_conjugate, golden_ratio, make_context,
                               max_terms, real_cbrt)


@pytest.mark.parametrize("target,terms,expected", [
    (50, 100000, 65),   # 50 + 10 guard + 5 for the term count
    (10, 10, 21),
    (30, 1, 40),
])
def test_working_digits(target, terms, expected):
    assert make_context(target, terms).working_digits == expected


def test_invalid_arguments():
    with pytest.raises(ValueError):
        make_context(0)
    with pytest.raises(ValueError):
        make_context(10, 0)


def test_max_terms_recorded():
    assert max_terms(make_context(10, 5000)) == 5000


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
    kept = dataclasses.replace(ctx, guard_digits=12)
    assert max_terms(kept) == 64
    assert pickle.loads(pickle.dumps(ctx)) == ctx
    assert max_terms(pickle.loads(pickle.dumps(ctx))) == 64
