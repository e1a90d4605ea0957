"""The generator-free summation loop against the per-term reference
scaled_terms, and the exact convergence kind without rho."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binom3k import series
from binom3k.precision import make_context
from binom3k.registry import builtin_catalog, get_record
from binom3k.series import (SeriesSpec, UNIT_WEIGHT, Weight, _kernel,
                            classify, convergence_kind, sum_boundary_detailed,
                            sum_to_digits)
from reference import scaled_terms


def reference_kernel(spec, bits, K, window=0):
    """_kernel's result, term by term from scaled_terms."""
    terms = scaled_terms(spec, bits)
    head = sum(next(terms) for _ in range(K))
    return head, [next(terms) for _ in range(window)]


weights = st.one_of(
    st.just(UNIT_WEIGHT),
    st.builds(Weight, st.sampled_from(["fib", "lucas"]), st.integers(-4, 4)))


@st.composite
def loop_cases(draw):
    z = Fraction(draw(st.integers(-2000, 2000)),
                 draw(st.integers(1, 300)))
    spec = SeriesSpec(z, draw(st.sampled_from([0, 1, 2])), draw(weights))
    bits, K = draw(st.integers(0, 300)), draw(st.integers(0, 300))
    return spec, bits, K, draw(st.integers(0, 40))


@settings(max_examples=300, deadline=None)
@given(case=loop_cases())
def test_loop_is_bit_identical_to_the_reference(case):
    spec, bits, K, window = case
    head, terms = _kernel(spec, bits, K, window)
    ref_head, ref_terms = reference_kernel(spec, bits, K, window)
    assert head == ref_head
    assert len(terms) == window
    assert terms == ref_terms


@pytest.mark.parametrize("record_id", ["eq-27-4", "alt-27-4"])
def test_boundary_sums_match_the_reference(record_id, monkeypatch):
    spec = get_record(builtin_catalog(), record_id).lhs
    ctx = make_context(20)
    result = sum_boundary_detailed(spec, 10, ctx)
    monkeypatch.setattr(series, "_kernel", reference_kernel)
    assert sum_boundary_detailed(spec, 10, ctx) == result


@pytest.mark.parametrize("spec", [
    SeriesSpec(Fraction(20, 3), 2, UNIT_WEIGHT),
    SeriesSpec(Fraction(-17, 12), 0, UNIT_WEIGHT),
    SeriesSpec(Fraction(54, 25), 1, Weight("lucas", 1)),
    SeriesSpec(Fraction(-1, 10), 2, Weight("fib", -3))])
def test_geometric_sums_match_the_reference(spec, monkeypatch):
    ctx = make_context(40)
    result = sum_to_digits(spec, 30, ctx)
    monkeypatch.setattr(series, "_kernel", reference_kernel)
    assert sum_to_digits(spec, 30, ctx) == result


@pytest.mark.parametrize("record_id, digits", [
    ("eq-20-3", 30), ("eq-27-4", 10), ("alt-27-4", 10)])
def test_roundoff_bound_computed_once(record_id, digits, monkeypatch):
    calls = []
    bound = series._roundoff_ulps

    def counted(spec, K):
        calls.append(K)
        return bound(spec, K)

    monkeypatch.setattr(series, "_roundoff_ulps", counted)
    spec = get_record(builtin_catalog(), record_id).lhs
    ctx = make_context(digits + 10)
    if classify(spec, ctx).is_geometric:
        sum_to_digits(spec, digits, ctx)
    else:
        sum_boundary_detailed(spec, digits, ctx)
    assert len(calls) == 1


def test_convergence_kind_at_zero_and_the_radius():
    assert convergence_kind(SeriesSpec(Fraction(0), 2)) == "geometric"
    assert convergence_kind(SeriesSpec(Fraction(27, 4), 2)) == "boundary_positive"
    assert (convergence_kind(SeriesSpec(Fraction(-27, 4), 1))
            == "boundary_alternating")
    # phi^2 = (3 + sqrt5)/2 is irrational, so a weighted series is never
    # on the boundary; just below and above its radius 27/(4 phi^2)
    assert convergence_kind(SeriesSpec(Fraction(257, 100), 0,
                                       Weight("fib", 2))) == "geometric"
    assert convergence_kind(SeriesSpec(Fraction(258, 100), 0,
                                       Weight("lucas", -2))) == "divergent_formal"
