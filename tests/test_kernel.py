"""The exact integer summation kernel, its roundoff bound and the cutoff
chosen from it, checked against exact rational arithmetic."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binom3k import series
from binom3k.errors import (InvalidParams, MaxTermsExceeded, NotGeometric,
                            Unsupported)
from binom3k.precision import make_context
from binom3k.registry import builtin_catalog, get_record, record_from_json
from binom3k.sequences import fib, lucas
from binom3k.series import (SeriesSpec, UNIT_WEIGHT, Weight, _cutoff,
                            _cutoff_fits, _radius_side, _rise_end,
                            _roundoff_ulps, _tail_ulps, classify,
                            sum_to_digits)
from binom3k.verifier import verify, verify_all
from reference import (exact_partial_sum, exact_term, kernel_bracket,
                       rest_bound, scaled_terms, to_fraction)


weights = st.one_of(
    st.just(UNIT_WEIGHT),
    st.builds(Weight, st.sampled_from(["fib", "lucas"]), st.integers(-4, 4)))


@st.composite
def geometric_specs(draw):
    weight = draw(weights)
    z = Fraction(draw(st.integers(-2000, 2000)), draw(st.integers(1, 300)))
    spec = SeriesSpec(z, draw(st.sampled_from([0, 1, 2])), weight)
    if spec.z != 0 and _radius_side(spec) >= 0:
        # fold onto the geometric side, keeping the sign of z
        spec = SeriesSpec(z / (1 + 8 * abs(z)), spec.a, weight)
    return spec


@settings(max_examples=300, deadline=None)
@given(spec=geometric_specs(), K=st.integers(1, 40), bits=st.integers(0, 160))
def test_kernel_sum_within_its_roundoff_bound(spec, K, bits):
    assert classify(spec, make_context(20)).is_geometric
    terms = scaled_terms(spec, bits)
    kernel = sum(next(terms) for _ in range(K))
    exact = exact_partial_sum(spec, K) * 2 ** bits
    assert abs(kernel - exact) <= _roundoff_ulps(spec, K)


def test_roundoff_bound_near_the_radius():
    # the state magnitude rises for hundreds of steps before it falls
    for z in (Fraction(67, 10), Fraction(-67, 10)):
        spec = SeriesSpec(z, 0, UNIT_WEIGHT)
        K = 300
        terms = scaled_terms(spec, 20)
        kernel = sum(next(terms) for _ in range(K))
        exact = exact_partial_sum(spec, K) * 2 ** 20
        assert abs(kernel - exact) <= _roundoff_ulps(spec, K)


@pytest.mark.parametrize("z, digits", [
    (Fraction(8, 3), 25), (Fraction(20, 3), 6), (Fraction(-27, 5), 25)])
@pytest.mark.parametrize("a", [0, 1, 2])
def test_tail_brackets_the_exact_remainder(z, digits, a):
    spec = SeriesSpec(z, a, UNIT_WEIGHT)
    ctx = make_context(digits + 10)
    result = sum_to_digits(spec, digits, ctx)
    value, tail = to_fraction(result.value), to_fraction(result.tail)
    assert tail < Fraction(1, 10 ** digits)
    # the full sum lies within rest_bound(spec, N) of the exact head to N
    N = result.terms_used + 400
    head = exact_partial_sum(spec, N)
    assert abs(head - value) + rest_bound(spec, N) <= tail


@pytest.mark.parametrize("z, a, kind, m", [
    (Fraction(20, 3), 2, "unit", 0), (Fraction(-77, 12), 0, "unit", 0),
    (Fraction(54, 25), 1, "lucas", 1), (Fraction(-1, 10), 2, "fib", 3)])
def test_direct_cutoff_does_not_overshoot(z, a, kind, m):
    spec = SeriesSpec(z, a, UNIT_WEIGHT if kind == "unit" else Weight(kind, m))
    ctx = make_context(40)
    result = sum_to_digits(spec, 30, ctx)
    assert to_fraction(result.tail) < Fraction(1, 10 ** 30)
    # a sixteenth fewer terms would not have met the target
    fewer = result.terms_used - max(1, result.terms_used // 16)
    assert kernel_bracket(spec, fewer, 30)[1] >= Fraction(1, 10 ** 30)


def test_classification_is_exact_near_the_radius():
    spec = SeriesSpec(Fraction(27, 4) - Fraction(1, 10 ** 8), 2, UNIT_WEIGHT)
    ctx = make_context(30)
    assert classify(spec, ctx).kind == "geometric"
    with pytest.raises(MaxTermsExceeded):
        sum_to_digits(spec, 20, ctx)
    beyond = SeriesSpec(Fraction(27, 4) + Fraction(1, 10 ** 8), 2, UNIT_WEIGHT)
    assert classify(beyond, ctx).kind == "divergent_formal"


@pytest.mark.parametrize("kind", ["fib", "lucas"])
@pytest.mark.parametrize("m", [-3, 1, 2])
def test_weighted_classification_matches_phi(kind, m):
    # phi^|m| is irrational, so z = 27/(4 phi^|m|) rounded either way
    # lands strictly on one side
    phi_m = ((1 + 5 ** 0.5) / 2) ** abs(m)
    ctx = make_context(20)
    for scale, kind_expected in ((0.999999, "geometric"),
                                 (1.000001, "divergent_formal")):
        z = Fraction(27 * scale / (4 * phi_m)).limit_denominator(10 ** 9)
        assert classify(SeriesSpec(z, 2, Weight(kind, m)), ctx).kind == kind_expected


def test_weights_other_than_unit_fib_lucas_are_rejected():
    with pytest.raises(ValueError):
        Weight("horadam", 2)
    with pytest.raises(ValueError):
        Weight("unit", 3)
    with pytest.raises(TypeError):
        SeriesSpec(2.5, 2)


def test_expression_valued_z_is_rejected():
    one = {"kind": "int", "args": ["1"]}
    obj = {"id": "x", "note": "",
           "lhs": {"z": one, "a": 2, "weight": {"kind": "unit"}},
           "rhs": {"expr": one}, "validity": "", "convergence": "geometric",
           "tags": []}
    with pytest.raises(InvalidParams):
        record_from_json(obj)


def test_verify_rejects_a_context_below_the_target():
    record = get_record(builtin_catalog(), "eq-italy")
    with pytest.raises(ValueError):
        verify(record, 40, make_context(30))


def test_verify_all_honours_the_context_in_parallel(catalog):
    ctx = make_context(40, 64)
    serial = verify_all(catalog, 30, ctx, jobs=1)
    parallel = verify_all(catalog, 30, ctx, jobs=2)
    statuses = [(r.identity_id, r.status) for r in serial["reports"]]
    assert statuses == [(r.identity_id, r.status) for r in parallel["reports"]]
    assert any("MaxTermsExceeded" in r.detail for r in parallel["reports"])


# -- the cutoff search and the exact tail bound ------------------------------

CUTOFF_GRID = [
    (Fraction(8, 3), UNIT_WEIGHT), (Fraction(-8, 3), UNIT_WEIGHT),
    (Fraction(20, 3), UNIT_WEIGHT), (Fraction(-77, 12), UNIT_WEIGHT),
    (Fraction(54, 25), Weight("fib", 1)), (Fraction(-2), Weight("fib", 2)),
    (Fraction(54, 25), Weight("lucas", 1)), (Fraction(-1, 10), Weight("lucas", 3)),
]


def _scan_cutoff(spec, digits):
    """Smallest K >= rise - 1 that the cutoff estimate accepts, by a linear
    scan."""
    fits = _cutoff_fits(spec, digits)
    K = max(1, _rise_end(spec) - 1)
    while not fits(K):
        K += 1
    return K


@pytest.mark.parametrize("z, weight", CUTOFF_GRID)
@pytest.mark.parametrize("a", [0, 1, 2])
@pytest.mark.parametrize("digits", [10, 35, 60])
def test_cutoff_search_matches_a_linear_scan(z, weight, a, digits):
    spec = SeriesSpec(z, a, weight)
    K = _scan_cutoff(spec, digits)
    assert _cutoff(spec, digits, 10 ** 6) == K
    assert _cutoff(spec, digits, K) == K
    with pytest.raises(MaxTermsExceeded):
        _cutoff(spec, digits, K - 1)


# continued-fraction convergents: F(n+1)/F(n) > phi for even n, < for odd n
PHI_HI = Fraction(1346269, 832040)
PHI_LO = Fraction(832040, 514229)


def _weighted_rest_bound(spec, N):
    """Bound on sum_{k>N} |t_k| for any weight, derived apart from the
    package: |b_k| <= |b_{N+1}| r^(k-N-1) with r = r_{N+1} the largest unit
    ratio from N+1 on, k^a >= (N+1)^a, and |w(mk)| <= c (phi^(|m|k) + 1)
    with c = 1/sqrt5 for F and 1 for L; phi is replaced by rational bounds."""
    k, n = N + 1, abs(spec.weight.m)
    r = abs(spec.z) * Fraction(2 * (k + 1) * (2 * k + 1),
                               3 * (3 * k + 1) * (3 * k + 2))
    base = abs(spec.z) ** k / math.comb(3 * k, k) / k ** spec.a
    if spec.weight.kind == "unit":
        return base / (1 - r)
    if spec.weight.kind == "fib" and n == 0:
        return Fraction(0)  # every F(0 k) is 0
    c = 1 / (2 * PHI_LO - 1) if spec.weight.kind == "fib" else 1
    assert r * PHI_HI ** n < 1
    return base * c * (PHI_HI ** (n * k) / (1 - r * PHI_HI ** n) + 1 / (1 - r))


@pytest.mark.parametrize("z, weight", CUTOFF_GRID)
@pytest.mark.parametrize("a", [0, 2])
@pytest.mark.parametrize("K", [1, 40, 300])
def test_integer_certificate_matches_the_exact_rule(z, weight, a, K):
    spec = SeriesSpec(z, a, weight)
    term = exact_term(spec, K + 1)
    if weight.kind == "unit":
        # term K+1 exactly and no roundoff: the bound is rest_bound itself
        if abs(z) * Fraction(2 * (K + 2) * (2 * K + 3),
                             3 * (3 * K + 4) * (3 * K + 5)) >= 1:
            with pytest.raises(NotGeometric):
                _tail_ulps(spec, K, term, 0)
            return
        assert _tail_ulps(spec, K, term, 0) == rest_bound(spec, K)
        return
    bound = _tail_ulps(spec, K, term, 0)
    # sound: at least the exact sum of 300 more terms plus the rest after them
    N = K + 300
    rest = sum((abs(exact_term(spec, k)) for k in range(K + 1, N + 1)),
               Fraction(0))
    assert rest + _weighted_rest_bound(spec, N) <= bound
    # the same formula with phi replaced by bounds on it: at least its value
    # for phi known to 80 digits, at most its value for phi to 5 digits
    n, k = abs(weight.m), K + 1
    ratio = Fraction(2 * (k + 1) * (2 * k + 1), 3 * (3 * k + 1) * (3 * k + 2))

    def formula(phi_g, phi_eps):
        g, eps = abs(z) * phi_g ** n * ratio, phi_eps ** -(n * k)
        return abs(term) / (1 - g) * (1 + eps) / (1 - eps)

    fine_hi, fine_lo = Fraction(fib(201), fib(200)), Fraction(fib(200), fib(199))
    assert formula(fine_lo, fine_hi) <= bound
    assert bound <= formula(Fraction(16181, 10000), Fraction(1618, 1000))


def test_tail_bound_counts_the_roundoff_of_the_read_term():
    spec = SeriesSpec(Fraction(20, 3), 2, UNIT_WEIGHT)
    assert (_tail_ulps(spec, 300, 5, 3) == _tail_ulps(spec, 300, -8, 0)
            == 8 * _tail_ulps(spec, 300, 1, 0))


@pytest.mark.parametrize("z, a, kind, m", [
    (Fraction(20, 3), 2, "unit", 0), (Fraction(-77, 12), 0, "unit", 0),
    (Fraction(54, 25), 1, "lucas", 1), (Fraction(-1, 10), 2, "fib", 3)])
def test_a_cutoff_one_term_short_raises(z, a, kind, m, monkeypatch):
    spec = SeriesSpec(z, a, UNIT_WEIGHT if kind == "unit" else Weight(kind, m))
    ctx = make_context(40)
    K = sum_to_digits(spec, 30, ctx).terms_used
    monkeypatch.setattr(series, "_cutoff", lambda spec, digits, budget: K - 1)
    with pytest.raises(Unsupported, match=r"not below 10\^-30"):
        sum_to_digits(spec, 30, ctx)


def test_digits_beyond_the_context_target_fail_at_once():
    spec = SeriesSpec(Fraction(1, 2), 2)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="fewer than the 50 requested"):
        sum_to_digits(spec, 50, make_context(10, 10 ** 5))
    assert time.perf_counter() - start < 1


@st.composite
def weighted_geometric_z(draw):
    weight = draw(weights)
    n = abs(weight.m)
    # |z| < 6 (L(n) + 1)^-1 keeps rho = 4|z| phi^n / 27 below 8/9
    z = Fraction(draw(st.integers(-6000, 6000).filter(bool)),
                 draw(st.integers(1000, 1300)))
    return z / (lucas(n) + 1) if n else z, weight


@settings(max_examples=60, deadline=None)
@given(zw=weighted_geometric_z(), a=st.sampled_from([0, 1, 2]),
       digits=st.integers(5, 25))
def test_tail_brackets_the_exact_remainder_for_any_geometric_z(zw, a, digits):
    spec = SeriesSpec(zw[0], a, zw[1])
    ctx = make_context(digits + 10)
    result = sum_to_digits(spec, digits, ctx)
    value, tail = to_fraction(result.value), to_fraction(result.tail)
    assert tail < Fraction(1, 10 ** digits)
    K = _cutoff(spec, digits, 10 ** 6) if result.terms_used else 0
    if result.terms_used < K:
        # the CRVZ path: its n terms stop short of K, and its error bound
        # |t_1| / T_n(3) is above 10^-(digits+4)
        K = _cutoff(spec, digits + 6, 10 ** 6)
    N = K + 40
    head = exact_partial_sum(spec, N)
    assert abs(head - value) + _weighted_rest_bound(spec, N) <= tail


# -- the seeded cutoff and the integer radius test ---------------------------

SLOW_Z = [Fraction(20, 3), Fraction(77, 12), Fraction(27, 5)]


@pytest.mark.parametrize("z", SLOW_Z)
@pytest.mark.parametrize("a", [0, 1, 2])
@pytest.mark.parametrize("digits", [100, 300])
def test_seeded_cutoff_matches_a_linear_scan_on_long_sums(z, a, digits):
    spec = SeriesSpec(z, a, UNIT_WEIGHT)
    K = _scan_cutoff(spec, digits)
    assert _cutoff(spec, digits, 10 ** 6) == K
    assert _cutoff(spec, digits, K) == K
    with pytest.raises(MaxTermsExceeded, match=f"more than {K - 1} terms"):
        _cutoff(spec, digits, K - 1)


@pytest.mark.parametrize("z, weight",
                         CUTOFF_GRID + [(z, UNIT_WEIGHT) for z in SLOW_Z])
def test_cutoff_confirms_its_seed_in_few_probes(z, weight, monkeypatch):
    probes = []

    def counting_fits(spec, digits):
        fits = _cutoff_fits(spec, digits)
        return lambda K: probes.append(K) or fits(K)

    monkeypatch.setattr(series, "_cutoff_fits", counting_fits)
    for a in (0, 1, 2):
        for digits in range(10, 301):
            probes.clear()
            _cutoff(SeriesSpec(z, a, weight), digits, 10 ** 6)
            assert 1 <= len(probes) <= 5, (a, digits, probes)


def _fraction_radius_side(spec):
    """Sign of rho - 1 by the rational formula: c = 27/(2|z|) - L(|m|)
    against F(|m|) sqrt5."""
    n = abs(spec.weight.m)
    c = Fraction(27, 2) / abs(spec.z) - lucas(n)
    if c < 0:
        return 1
    lhs, rhs = 5 * fib(n) ** 2, c * c
    return (lhs > rhs) - (lhs < rhs)


def _near_radius_specs():
    """z within about 1e-12 of the radius 27/(4 phi^m), on both sides."""
    phi = (1 + math.sqrt(5)) / 2
    for m in range(7):
        q = 10 ** 13 + 7 * m
        centre = round(27 * q / (4 * phi ** m))
        for p in range(centre - 3, centre + 4):
            for sign in (1, -1):
                weight = Weight("lucas", m) if m else UNIT_WEIGHT
                yield SeriesSpec(Fraction(sign * p, q), 0, weight)


def test_integer_radius_test_matches_the_rational_formula():
    grid = [SeriesSpec(Fraction(p, q), 0, Weight(kind, m) if m else UNIT_WEIGHT)
            for p in range(-60, 61) if p for q in range(1, 21)
            for m in range(-4, 5) for kind in ("fib", "lucas")]
    boundary = [SeriesSpec(Fraction(s * 27, 4), a, w) for s in (1, -1)
                for a in (0, 1, 2) for w in (UNIT_WEIGHT, Weight("lucas", 0))]
    near = list(_near_radius_specs())
    for spec in grid + boundary + near:
        assert _radius_side(spec) == _fraction_radius_side(spec), spec
    assert {_radius_side(spec) for spec in boundary} == {0}
    sides = [_radius_side(spec) for spec in near]
    assert sides.count(1) > 10 and sides.count(-1) > 10
    # the near pairs do lie within 1e-12 of rho = 1
    phi = (1 + math.sqrt(5)) / 2
    assert all(abs(4 * abs(float(s.z)) * phi ** abs(s.weight.m) / 27 - 1) < 1e-12
               for s in near)
