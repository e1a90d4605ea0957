"""The generator-free summation loop against the per-term reference
scaled_terms, the pass shared by series of one argument against the same
reference on a state that carries 1/k and against the loop, and the exact
convergence kind without rho."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binom3k import series
from binom3k.precision import make_context
from binom3k.registry import builtin_catalog, get_record
from binom3k.series import (_BITS_PER_DIGIT, Plan, SeriesSpec, UNIT_WEIGHT,
                            Weight, _kernel, _kernel_bits, _kernel_group,
                            _radius_side, _roundoff_ulps, classify,
                            convergence_kind, sum_boundary_detailed,
                            sum_to_digits)
from reference import exact_partial_sum, exact_term, scaled_terms


def reference_kernel(spec, bits, K, window=0, c=None):
    """_kernel's result, term by term from scaled_terms, whose state
    carries b_k / k^c (c = min(a, 1) by default, as _kernel's)."""
    terms = scaled_terms(spec, bits, c)
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


@st.composite
def group_cases(draw):
    """2-3 series of one geometric z and weight, a repeated or not, each
    with its own K: all equal, some apart, or 1."""
    weight = draw(weights)
    z = Fraction(draw(st.integers(-2000, 2000)), draw(st.integers(1, 300)))
    if z and _radius_side(SeriesSpec(z, 0, weight)) >= 0:
        z /= 1 + 8 * abs(z)  # onto the geometric side, keeping the sign
    size = draw(st.integers(2, 3))
    specs = [SeriesSpec(z, a, weight)
             for a in draw(st.lists(st.sampled_from([0, 1, 2]),
                                    min_size=size, max_size=size))]
    K = draw(st.integers(1, 60))
    cutoffs = draw(st.one_of(
        st.just([K] * size), st.just([1] * size),
        st.lists(st.sampled_from([1, K, K + draw(st.integers(1, 40))]),
                 min_size=size, max_size=size)))
    return specs, cutoffs, draw(st.integers(5, 60))


@settings(max_examples=300, deadline=None)
@given(case=group_cases())
def test_a_shared_pass_is_each_members_kernel_bit_for_bit(case):
    specs, cutoffs, digits = case
    plans = [Plan("kernel", K, 0) for K in cutoffs]
    shared = _kernel_group(specs, plans, digits)
    bits = max(_kernel_bits(_roundoff_ulps(spec, K + 1, 1),
                            -digits * _BITS_PER_DIGIT)
               for spec, K in zip(specs, cutoffs))
    for spec, chosen, K, member in zip(specs, plans, cutoffs, shared):
        assert (member.plan, member.bits, member.roundoff) == (
            chosen, bits, _roundoff_ulps(spec, K + 1, 1))
        # the reads x k, x and x // k of a state that carries c = 1, and
        # at a >= 1 the member's own kernel
        assert (member.head, [member.term]) == reference_kernel(
            spec, bits, K, 1, 1)
        if spec.a:
            assert (member.head, [member.term]) == _kernel(spec, bits, K, 1)
        # within the roundoff bound, which holds at the shared scale
        exact = exact_partial_sum(spec, K) * 2 ** bits
        assert abs(member.head - exact) <= _roundoff_ulps(spec, K, 1)
        exact += exact_term(spec, K + 1) * 2 ** bits
        assert (abs(member.head + member.term - exact)
                <= _roundoff_ulps(spec, K + 1, 1))


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

    def counted(spec, K, c):
        calls.append(K)
        return bound(spec, K, c)

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
