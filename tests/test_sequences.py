import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binom3k.precision import make_context
from binom3k.sequences import (FIBONACCI_PARAMS, LUCAS_PARAMS, HoradamParams,
                               fib, horadam, lucas)
from reference import FL_IDENTITIES, check_fl_identity

CTX = make_context(30)


@pytest.mark.parametrize("n,expected", [
    (0, 0), (1, 1), (2, 1), (10, 55), (-2, -1), (-5, 5), (-1, 1), (-6, -8),
])
def test_fib_values(n, expected):
    assert fib(n) == expected


@pytest.mark.parametrize("n,expected", [
    (0, 2), (1, 1), (6, 18), (-3, -4), (-1, -1), (-4, 7),
])
def test_lucas_values(n, expected):
    assert lucas(n) == expected


@pytest.mark.parametrize("n,params,expected", [
    (5, FIBONACCI_PARAMS, 5),
    (4, LUCAS_PARAMS, 7),
    (3, HoradamParams(2, 1, 0, 1), 5),   # Pell numbers 0, 1, 2, 5
])
def test_horadam_values(n, params, expected):
    assert horadam(n, params) == expected


def test_horadam_reduces_to_named_sequences():
    for n in [*range(0, 16), 10 ** 4, 3 * 10 ** 4 + 7]:
        assert horadam(n, FIBONACCI_PARAMS) == fib(n)
        assert horadam(n, LUCAS_PARAMS) == lucas(n)


@given(p=st.integers(-4, 4), q=st.integers(-4, 4), a=st.integers(-5, 5),
       b=st.integers(-5, 5), n=st.integers(0, 40))
def test_horadam_matches_the_recurrence_stepped_term_by_term(p, q, a, b, n):
    if p * p + 4 * q <= 0:
        return
    w0, w1 = a, b
    for _ in range(n):
        w0, w1 = w1, p * w1 + q * w0
    assert horadam(n, HoradamParams(p, q, a, b)) == w0


def test_horadam_recurrence():
    params = HoradamParams(3, -2, 1, 4)
    for n in range(2, 20):
        assert (horadam(n, params)
                == 3 * horadam(n - 1, params) - 2 * horadam(n - 2, params))


@given(n=st.integers(-200, 200))
def test_fib_addition_law(n):
    # F_{n+1} = F_n + F_{n-1} holds for all integers under the extension rule
    assert fib(n + 1) == fib(n) + fib(n - 1)
    assert lucas(n + 1) == lucas(n) + lucas(n - 1)


@pytest.mark.parametrize("ident,n,m", [
    ("F3", 7, 3),
    ("F6", 4, 2),
])
def test_exact_identity_examples(ident, n, m):
    assert check_fl_identity(ident, n, m)


def test_f1_example():
    assert check_fl_identity("F1", 5, ctx=CTX)


@given(n=st.integers(-30, 30), m=st.integers(-30, 30))
@settings(max_examples=60)
def test_exact_identities_random(n, m):
    for ident in ("F3", "F4", "F5", "F6", "F7", "F8"):
        assert check_fl_identity(ident, n, m)


@given(r=st.integers(-25, 25))
@settings(max_examples=30)
def test_golden_identities_random(r):
    assert check_fl_identity("F1", r, ctx=CTX)
    assert check_fl_identity("F2", r, ctx=CTX)


@given(p=st.integers(-20, 20), q=st.integers(-20, 20))
@settings(max_examples=40)
def test_lemma_identities_random(p, q):
    assert check_fl_identity("LEMMA1", p, q, ctx=CTX)
    assert check_fl_identity("LEMMA2", p, q, ctx=CTX)


def test_unknown_identity_rejected():
    with pytest.raises(ValueError):
        check_fl_identity("F99", 1, 1, ctx=CTX)


def test_identity_names_exported():
    assert set(FL_IDENTITIES) == {"F1", "F2", "F3", "F4", "F5", "F6",
                                  "F7", "F8", "LEMMA1", "LEMMA2"}
