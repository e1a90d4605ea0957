"""Summation of sum_{k>=1} z^k w(k) / (k^a C(3k,k)) with certified tails.

The binomial C(3k,k) grows like (27/4)^k sqrt(3/(4 pi k)), so the series
is geometric for |z| g < 27/4 (g the exponential growth rate of the
weight), sits on the convergence boundary at equality, and is divergent
beyond it; the comparison is made exactly on the rational z.

Every sum runs through one exact integer kernel, :func:`_kernel`: the
terms t_k 2^B as floored Python integers, summed in one generator-free loop
per weight kind, with a proven bound on the accumulated roundoff
(:func:`_roundoff_ulps`).  :func:`_scaled_terms` yields the same integers
one by one and is kept as the per-term reference the kernel is tested
against.  Geometric sums pick their
cutoff K directly from a float estimate of the term magnitudes, sum once,
and report a tail that is the window certificate plus that roundoff.  The
certificate works on the kernel's scaled integers: the worst ratio of the
window is found by exact cross-multiplication, and the only mpf arithmetic
between the kernel and the tail is one quotient and one shift by 2^-B.
Boundary sums go through Euler-Maclaurin (positive case) or CRVZ
alternating-series acceleration, both with an a-posteriori stability check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterator, Optional

from mpmath import mp, mpf

from .errors import MaxTermsExceeded, NotGeometric, Unsupported
from .precision import PrecisionContext, golden_ratio, max_terms
from .sequences import fib, lucas

BOUNDARY_DIGITS_BUDGET = 12
_RATIO_WINDOW = 32
_GUARD_BITS = 48
_GROW_DIVISOR = 16  # a cutoff that fails its certificate grows by K/16

_LOG_PHI = math.log((1 + math.sqrt(5)) / 2)
_BINET_CONJ = -((math.sqrt(5) - 1) / 2) ** 2  # (psi/phi), psi = -1/phi
_BITS_PER_DIGIT = math.log2(10)


@dataclass(frozen=True)
class Weight:
    """Per-term factor w(k): 1, F(mk) or L(mk)."""

    kind: str  # "unit" | "fib" | "lucas"
    m: int = 0

    def __post_init__(self):
        if self.kind not in ("unit", "fib", "lucas"):
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if self.kind == "unit" and self.m != 0:
            raise ValueError("unit weight takes no index")

    def growth_rate(self, ctx: PrecisionContext) -> mpf:
        """Limit of |w(k+1)/w(k)|: phi^|m| (1 for the unit weight)."""
        return golden_ratio(ctx) ** abs(self.m) if self.m else mpf(1)


UNIT_WEIGHT = Weight("unit")


@dataclass(frozen=True)
class SeriesSpec:
    """One left-hand series: term k is z^k w(k) / (k^a C(3k,k)), k >= 1."""

    z: Fraction
    a: int
    weight: Weight = UNIT_WEIGHT
    label: str = ""

    def __post_init__(self):
        if not isinstance(self.z, Fraction):
            raise TypeError("z must be a Fraction")
        if self.a not in (0, 1, 2):
            raise ValueError("exponent a must be 0, 1 or 2")


@dataclass(frozen=True)
class ConvergenceClass:
    kind: str  # "geometric" | "boundary_positive" | "boundary_alternating" | "divergent_formal"
    rho: Optional[mpf] = None

    @property
    def is_geometric(self) -> bool:
        return self.kind == "geometric"


@dataclass(frozen=True)
class SumResult:
    value: mpf
    terms_used: int
    tail: mpf


def binom_3k_k(k: int) -> int:
    """Exact C(3k, k)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return math.comb(3 * k, k)


def _vanishes(spec: SeriesSpec) -> bool:
    """Every term is exactly zero: z = 0, or the weight F(0 k)."""
    return spec.z == 0 or (spec.weight.kind == "fib" and spec.weight.m == 0)


def _radius_side(spec: SeriesSpec) -> int:
    """Sign of rho - 1 for rho = 4|z| phi^|m| / 27, decided exactly.

    rho < 1 iff phi^|m| = (L + F sqrt5)/2 < 27/(4|z|), L = L(|m|) and
    F = F(|m|), i.e. iff F sqrt5 < c = 27/(2|z|) - L.  The unit weight is
    |m| = 0 (F = 0, L = 2), which reduces this to 4|z| against 27.
    """
    n = abs(spec.weight.m)
    c = Fraction(27, 2) / abs(spec.z) - lucas(n)
    if c < 0:
        return 1
    lhs, rhs = 5 * fib(n) ** 2, c * c
    return (lhs > rhs) - (lhs < rhs)


def convergence_kind(spec: SeriesSpec) -> str:
    """The ConvergenceClass kind of the series, decided exactly on z."""
    side = _radius_side(spec) if spec.z else -1
    if side < 0:
        return "geometric"
    if side > 0:
        return "divergent_formal"
    return "boundary_positive" if spec.z > 0 else "boundary_alternating"


def classify(spec: SeriesSpec, ctx: PrecisionContext) -> ConvergenceClass:
    """The exact convergence_kind, with rho kept as an mpf."""
    kind = convergence_kind(spec)
    z = spec.z
    if z == 0:
        return ConvergenceClass(kind, mpf(0))
    with ctx.workdps():
        rho = (mpf(abs(z.numerator)) / z.denominator
               * spec.weight.growth_rate(ctx) * 4 / 27)
    return ConvergenceClass(kind, rho)


# -- the integer kernel ----------------------------------------------------

def _scaled_terms(spec: SeriesSpec, bits: int) -> Iterator[int]:
    """The terms t_k 2^bits, k = 1, 2, ..., as floored integers: the
    per-term reference that :func:`_kernel` is tested against.

    With z = p/q, b_k = z^k/C(3k,k) advances by its exact ratio
    2p(k+1)(2k+1) / (3q(3k+1)(3k+2)), one floor division per step.  A
    Fibonacci or Lucas weight rides along as the pair (b_k F(mk),
    b_k F(mk+1)), advanced by Q^m = [[F(m-1), F(m)], [F(m), F(m+1)]];
    L(mk) = 2 F(mk+1) - F(mk).
    """
    p, q = spec.z.numerator, spec.z.denominator
    p2, q3, a = 2 * p, 3 * q, spec.a
    k = 1
    if spec.weight.kind == "unit":
        t = (p << bits) // q3
        while True:
            yield t // k ** a if a else t
            t = t * (p2 * (k + 1) * (2 * k + 1)) // (q3 * (3 * k + 1) * (3 * k + 2))
            k += 1
    m = spec.weight.m
    f0, f1, f2 = fib(m - 1), fib(m), fib(m + 1)
    x, y = (f1 * p << bits) // q3, (f2 * p << bits) // q3
    want_lucas = spec.weight.kind == "lucas"
    while True:
        w = 2 * y - x if want_lucas else x
        yield w // k ** a if a else w
        num = p2 * (k + 1) * (2 * k + 1)
        den = q3 * (3 * k + 1) * (3 * k + 2)
        x, y = num * (f0 * x + f1 * y) // den, num * (f1 * x + f2 * y) // den
        k += 1


def _divisors(a: int, k: int, stop: int):
    """k^a for a = 1, 2 over k .. stop-1."""
    ks = range(k, stop)
    return ks if a == 1 else map(mul, ks, ks)


def _unit_run(state: tuple, k: int, stop: int, a: int) -> tuple[int, tuple]:
    """Sum of the unit-weight terms k .. stop-1 from the kernel state at k,
    and the state at stop.

    The state is (t, n, dn, n2, d, dd, d2): t = b_k 2^B floored, the
    ratio's numerator n and denominator d at k, their first differences dn
    and dd, and their constant second differences n2 and d2.
    """
    t, n, dn, n2, d, dd, d2 = state
    s = 0
    if a == 0:
        for _ in range(k, stop):
            s += t
            t = t * n // d
            n += dn
            dn += n2
            d += dd
            dd += d2
    else:
        for div in _divisors(a, k, stop):
            s += t // div
            t = t * n // d
            n += dn
            dn += n2
            d += dd
            dd += d2
    return s, (t, n, dn, n2, d, dd, d2)


def _pair_run(state: tuple, k: int, stop: int, a: int) -> tuple[int, tuple]:
    """_unit_run for a Fibonacci or Lucas weight: the state is
    (x, y, f0, f1, f2, lucas, n, dn, n2, d, dd, d2), with the pair
    (x, y) = (b_k F(mk), b_k F(mk+1)) 2^B and Q^m = [[f0, f1], [f1, f2]]."""
    x, y, f0, f1, f2, lucas, n, dn, n2, d, dd, d2 = state
    s = 0
    if a == 0:
        for _ in range(k, stop):
            s += 2 * y - x if lucas else x
            x, y = n * (f0 * x + f1 * y) // d, n * (f1 * x + f2 * y) // d
            n += dn
            dn += n2
            d += dd
            dd += d2
    else:
        for div in _divisors(a, k, stop):
            s += (2 * y - x if lucas else x) // div
            x, y = n * (f0 * x + f1 * y) // d, n * (f1 * x + f2 * y) // d
            n += dn
            dn += n2
            d += dd
            dd += d2
    return s, (x, y, f0, f1, f2, lucas, n, dn, n2, d, dd, d2)


def _kernel(spec: SeriesSpec, bits: int, K: int, window: int = 0,
            mark: int = 0) -> tuple[int, list[int], int]:
    """The sum of the scaled terms t_k 2^bits for k <= K, the next
    ``window`` terms one by one, and the sum for k <= mark (mark <= K).

    The integers are exactly those of :func:`_scaled_terms`, with no
    generator: the ratio's numerator 2p(k+1)(2k+1) and denominator
    3q(3k+1)(3k+2) are quadratics in k, advanced by their differences, so
    a step is one multiply and one floor division per state component.
    """
    p, q = spec.z.numerator, spec.z.denominator
    p2, q3 = 2 * p, 3 * q
    # (n, dn, n2, d, dd, d2) at k = 1
    ratio = (6 * p2, 9 * p2, 4 * p2, 20 * q3, 36 * q3, 18 * q3)
    if spec.weight.kind == "unit":
        run, state = _unit_run, ((p << bits) // q3,) + ratio
    else:
        m = spec.weight.m
        f0, f1, f2 = fib(m - 1), fib(m), fib(m + 1)
        run = _pair_run
        state = ((f1 * p << bits) // q3, (f2 * p << bits) // q3, f0, f1, f2,
                 spec.weight.kind == "lucas") + ratio
    marked, state = run(state, 1, mark + 1, spec.a)
    head, state = run(state, mark + 1, K + 1, spec.a)
    terms = []
    for k in range(K + 1, K + 1 + window):
        term, state = run(state, k, k + 1, spec.a)
        terms.append(term)
    return marked + head, terms, marked


def _growth_constant(spec: SeriesSpec) -> float:
    """c = 2|z| phi^|m| / 3, so that rho = 2c/9."""
    return 2 * abs(float(spec.z)) * math.exp(abs(spec.weight.m) * _LOG_PHI) / 3


def _step_growth(spec: SeriesSpec, k: int) -> float:
    """g_k = |b_{k+1}/b_k| phi^|m| = c (k+1)(2k+1) / ((3k+1)(3k+2)).

    The growth bound of the kernel state from step k to k+1; it decreases
    in k to rho."""
    return (_growth_constant(spec) * (k + 1) * (2 * k + 1)
            / ((3 * k + 1) * (3 * k + 2)))


def _rise_end(spec: SeriesSpec) -> float:
    """First k >= 1 with g_k <= 1 (math.inf when there is none).

    The state magnitudes rise up to this index and fall after it.  g_k <= 1
    is the quadratic (9-2c) k^2 + (9-3c) k + (2-c) >= 0; its root is
    rounded and then corrected against g itself.
    """
    c = _growth_constant(spec)
    if 2 * c >= 9:
        return math.inf
    qa, qb, qc = 9 - 2 * c, 9 - 3 * c, 2 - c
    disc = qb * qb - 4 * qa * qc
    k = 1 if disc < 0 else max(1, math.ceil((math.sqrt(disc) - qb) / (2 * qa)))
    while k > 1 and _step_growth(spec, k - 1) <= 1:
        k -= 1
    while _step_growth(spec, k) > 1:
        k += 1
    return k


def _log_base(spec: SeriesSpec, k: int) -> float:
    """ln |z^k / C(3k,k)|."""
    return (k * math.log(abs(spec.z)) - math.lgamma(3 * k + 1)
            + math.lgamma(k + 1) + math.lgamma(2 * k + 1))


def _log_term(spec: SeriesSpec, k: int) -> float:
    """ln |t_k|, the weight by Binet's formula."""
    n = abs(spec.weight.m) * k
    value = _log_base(spec, k) - spec.a * math.log(k)
    if spec.weight.kind == "fib":
        value += n * _LOG_PHI - math.log(5) / 2 + math.log1p(-_BINET_CONJ ** n)
    elif spec.weight.kind == "lucas":
        value += n * _LOG_PHI + math.log1p(_BINET_CONJ ** n)
    return value


def _roundoff_ulps(spec: SeriesSpec, K: int) -> int:
    """Bound on sum_{k<=K} |t_k 2^B - (term k of the kernel)|, any B.

    Each step floors every state component (error < 1 each, so < s in the
    2-norm: s = 1 unit, sqrt2 pair) and multiplies the inherited error by
    at most g_k = |b_{k+1}/b_k| phi^|m| (Q^m is symmetric with norm
    phi^|m|).  The g_k > 1 form a prefix, so the state error at step k is
    below s k G with G the product of that prefix, up to K.  Reading a
    term costs c = 1 (sqrt5 for L = 2y - x) times that over k^a, plus 1
    for the division by k^a.  G is evaluated in floats with a factor 2
    of slack.
    """
    if K < 1 or _vanishes(spec):
        return 0
    top = min(_rise_end(spec), K)
    log_growth = (_log_base(spec, top) - _log_base(spec, 1)
                  + (top - 1) * abs(spec.weight.m) * _LOG_PHI)
    s = 1.0 if spec.weight.kind == "unit" else math.sqrt(2)
    c = math.sqrt(5) if spec.weight.kind == "lucas" else 1.0
    spread = (K * (K + 1) / 2, K, 1 + math.log(K))[spec.a]  # sum k^(1-a)
    return math.ceil(2 * c * s * math.exp(log_growth) * spread) + K


def _log2_term(spec: SeriesSpec, k: int) -> float:
    return _log_term(spec, k) / math.log(2)


def _kernel_bits(roundoff: int, finest: float) -> int:
    """Scale B for a sum whose _roundoff_ulps bound is ``roundoff``: the
    bound sits _GUARD_BITS below 2^finest."""
    return max(0, math.ceil(-finest)) + roundoff.bit_length() + _GUARD_BITS


def _working_bits(spec: SeriesSpec, roundoff: int) -> int:
    """Scale B carrying working precision relative to the first term."""
    return _kernel_bits(roundoff, _log2_term(spec, 1) - mp.prec)


def _window_end(spec: SeriesSpec, K: int) -> float:
    """log2 of the last term of the window after K: every window term
    must be resolved for its ratios to mean anything."""
    return _log2_term(spec, K + _RATIO_WINDOW + 1)


def _unscale(n: int, bits: int) -> mpf:
    return mp.ldexp(mpf(n), -bits)


def partial_sum(spec: SeriesSpec, K: int, ctx: PrecisionContext) -> mpf:
    """Sum of the first K terms at working precision."""
    if K < 1:
        raise ValueError("K must be >= 1")
    with ctx.workdps():
        if _vanishes(spec):
            return mpf(0)
        bits = _working_bits(spec, _roundoff_ulps(spec, K))
        return _unscale(_kernel(spec, bits, K)[0], bits)


def _certified_tail(window: list[int], rho: mpf) -> mpf:
    """Upper bound on the omitted tail from a window of upcoming terms,
    given as the kernel's scaled integers t_k 2^B; the bound is returned in
    the same scale, for the caller to shift by 2^-B once.

    rho-hat = rho (1 + delta) is the limit ratio with a safety margin,
    checked against every ratio |t_{i+1}/t_i| of the window (zero terms
    skipped); the window maximum, times 1 + delta, takes over if the limit
    has not been reached yet.  The maximum is found by exact integer
    cross-multiplication; the mpf work is one quotient for it, the margin
    and the bound |t_{K+1}| / (1 - rho-hat).  Sound for unit weights
    because their ratios are monotone: they fall to rho for a = 0 (the
    first ratio of the window bounds every later one) and rise to it for
    a = 1, 2.  Weighted ratios converge to rho exponentially fast.
    """
    first = abs(window[0])
    if first == 0:
        return mpf(0)
    num, den = 0, 1  # the worst ratio so far, num/den
    prev = first
    for t in window[1:]:
        t = abs(t)
        if prev and t * den > num * prev:
            num, den = t, prev
        prev = t
    delta = min(mpf("1e-3"), (1 - rho) / 8)
    rho_hat = rho * (1 + delta)
    worst = mpf(num) / den
    if worst > rho_hat:
        rho_hat = worst * (1 + delta)
    if rho_hat >= 1:
        raise NotGeometric(f"term ratios reach {rho_hat}; no geometric tail")
    return mpf(first) / (1 - rho_hat)


def tail_bound(spec: SeriesSpec, K: int, ctx: PrecisionContext) -> mpf:
    """Certified bound on |sum of terms beyond K| for geometric series."""
    cls = classify(spec, ctx)
    if not cls.is_geometric:
        raise NotGeometric(f"series is {cls.kind}, tail bound needs geometric")
    with ctx.workdps():
        if _vanishes(spec):
            return mpf(0)
        bits = _kernel_bits(_roundoff_ulps(spec, K + _RATIO_WINDOW + 1),
                            _window_end(spec, K) - mp.prec)
        window = _kernel(spec, bits, K, _RATIO_WINDOW + 1)[1]
        return mp.ldexp(_certified_tail(window, cls.rho), -bits)


def _cutoff_fits(spec: SeriesSpec, digits: int, rho: float):
    """The cutoff estimate as a predicate of K: is the window certificate
    |t_{K+1}|/(1 - rho-hat) below 10^-digits, from float log-magnitudes of
    the terms?

    rho-hat mirrors _certified_tail: the larger of rho and g_{K+1} (which
    bounds every smooth term ratio from K+1 on), times 1 + delta.
    """
    delta = min(1e-3, (1 - rho) / 8)
    log_eps = -digits * math.log(10) + math.log1p(-2.0 ** -16)

    def fits(K: int) -> bool:
        rho_hat = max(rho, _step_growth(spec, K + 1)) * (1 + delta)
        return rho_hat < 1 and _log_term(spec, K + 1) - math.log1p(-rho_hat) < log_eps

    return fits


def _cutoff(spec: SeriesSpec, digits: int, rho: float, budget: int) -> int:
    """Smallest K >= rise - 1 that _cutoff_fits accepts; MaxTermsExceeded
    when that K is beyond the budget.

    Past the rise of the terms the estimate falls monotonically in K, so
    the search starts there, doubles K until the estimate fits (capped at
    the budget) and bisects the last doubling: about 2 log2(K / rise)
    probes, however large the budget.
    """
    fits = _cutoff_fits(spec, digits, rho)
    lo = max(1, _rise_end(spec) - 1)
    if lo <= budget and fits(lo):
        return lo
    hi = lo
    while True:
        if hi >= budget:
            raise MaxTermsExceeded(
                f"needed more than {budget} terms for {digits} digits")
        lo, hi = hi, min(2 * hi, budget)
        if fits(hi):
            break
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(mid):
            hi = mid
        else:
            lo = mid
    return hi


def sum_to_digits(spec: SeriesSpec, digits: int, ctx: PrecisionContext) -> SumResult:
    """Sum until the certified tail drops below 10^-digits.

    The cutoff K comes straight from the term-magnitude estimate of
    _cutoff; the kernel sums K terms once plus the window, and the tail is
    the window certificate plus the kernel's roundoff bound and the final
    rounding to working precision.  Should the certificate miss the target,
    K grows by K/16 and the sum is redone.  Raises MaxTermsExceeded as soon
    as K would pass the context's term budget.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    cls = classify(spec, ctx)
    if not cls.is_geometric:
        raise NotGeometric(f"series is {cls.kind}; use sum_boundary at the radius")
    budget = max_terms(ctx)
    with ctx.workdps():
        if _vanishes(spec):
            return SumResult(mpf(0), 0, mpf(0))
        threshold = mpf(10) ** (-digits)
        K = _cutoff(spec, digits, float(cls.rho), budget)
        while True:
            roundoff = _roundoff_ulps(spec, K)
            bits = _kernel_bits(roundoff, min(-digits * _BITS_PER_DIGIT,
                                              _window_end(spec, K)))
            head, window, _ = _kernel(spec, bits, K, _RATIO_WINDOW + 1)
            value = _unscale(head, bits)
            tail = (mp.ldexp(_certified_tail(window, cls.rho) + roundoff, -bits)
                    + abs(value) * mp.ldexp(1, 1 - mp.prec))
            if tail < threshold:
                return SumResult(value, K, tail)
            K += max(1, K // _GROW_DIVISOR)
            if K > budget:
                raise MaxTermsExceeded(
                    f"needed more than {budget} terms for {digits} digits")


# -- boundary summation -------------------------------------------------

# Stirling-series coefficients of E(k) in ln C(3k,k) =
# k ln(27/4) + ln sqrt(3/(4 pi k)) + E(k), E(k) = e1/k + e3/k^3 + e5/k^5 + ...
_E1 = Fraction(-7, 72)
_E3 = Fraction(235, 77760)
_E5 = Fraction(-7987, 9797760)


def _tail_series_coeffs() -> list[mpf]:
    """Coefficients c_j of exp(-E(k)) = sum_j c_j k^-j, j = 0..3."""
    e1, e3 = mpf(_E1.numerator) / _E1.denominator, mpf(_E3.numerator) / _E3.denominator
    return [mpf(1), -e1, e1 ** 2 / 2, -e3 - e1 ** 3 / 6]


def _euler_maclaurin_tail(K: int) -> mpf:
    """sum_{k>K} (27/4)^k / (k^2 C(3k,k)) via the asymptotic term expansion.

    Each term is sqrt(4 pi/3) k^(-3/2) exp(-E(k)); Euler-Maclaurin with
    three derivative corrections on the truncated power series.  The
    truncation error is O(K^(-9/2)), far below the 12-digit budget for
    the K used here.
    """
    a = mpf(K + 1)
    total = mpf(0)
    for j, c in enumerate(_tail_series_coeffs()):
        p = mpf(3) / 2 + j
        integral = c * a ** (1 - p) / (p - 1)
        f0 = c * a ** (-p)
        f1 = -c * p * a ** (-p - 1)
        f3 = -c * p * (p + 1) * (p + 2) * a ** (-p - 3)
        total += integral + f0 / 2 - f1 / 12 + f3 / 720
    return mp.sqrt(4 * mp.pi / 3) * total


def _boundary_positive(spec: SeriesSpec, digits: int, ctx: PrecisionContext,
                       K: int = 16384) -> SumResult:
    if spec.a != 2 or spec.weight.kind != "unit":
        raise Unsupported("boundary-positive summation supports a=2, unit weight only")
    roundoff = _roundoff_ulps(spec, K)
    bits = _working_bits(spec, roundoff)
    head, _, half = _kernel(spec, bits, K, mark=K // 2)
    value = _unscale(head, bits) + _euler_maclaurin_tail(K)
    # stability check: the half-depth evaluation must already agree
    alt = _unscale(half, bits) + _euler_maclaurin_tail(K // 2)
    stability = abs(value - alt)
    if stability > mpf(10) ** (-digits):
        raise Unsupported(
            f"boundary acceleration unstable: {stability} at {digits} digits")
    return SumResult(value, K, stability + _unscale(roundoff, bits))


def _crvz_alternating(abs_terms: list[mpf]) -> mpf:
    """CRVZ acceleration of sum_{j>=0} (-1)^j a_j from the first n |terms|."""
    n = len(abs_terms)
    d = (3 + mp.sqrt(8)) ** n
    d = (d + 1 / d) / 2
    b = mpf(-1)
    c = -d
    s = mpf(0)
    for k in range(n):
        c = b - c
        s += c * abs_terms[k]
        b *= (k + n) * (k - n) / ((k + mpf(1) / 2) * (k + 1))
    return s / d


def _boundary_alternating(spec: SeriesSpec, digits: int,
                          ctx: PrecisionContext) -> SumResult:
    if spec.a not in (1, 2):
        raise Unsupported("boundary-alternating summation needs a in {1, 2}")
    n = 4 * digits + 24
    roundoff = _roundoff_ulps(spec, n + 8)
    bits = _working_bits(spec, roundoff)
    scaled = _kernel(spec, bits, 0, n + 8)[1]
    if any(scaled[i] * scaled[i + 1] >= 0 for i in range(len(scaled) - 1)):
        raise Unsupported("terms do not alternate in sign")
    # series starts at k=1 with a negative term: sum = -sum_j (-1)^j |t_{j+1}|
    sign = 1 if scaled[0] > 0 else -1
    abs_terms = [_unscale(abs(t), bits) for t in scaled]
    low = sign * _crvz_alternating(abs_terms[:n])
    high = sign * _crvz_alternating(abs_terms)
    stability = abs(high - low)
    if stability > mpf(10) ** (-digits):
        raise Unsupported(
            f"alternating acceleration unstable: {stability} at {digits} digits")
    # the CRVZ weights are at most 1 in size, so the summed roundoff bounds theirs
    return SumResult(high, n + 8, stability + _unscale(roundoff, bits))


def sum_boundary_detailed(spec: SeriesSpec, digits: int,
                          ctx: PrecisionContext) -> SumResult:
    """Boundary summation with terms/stability attached (internal to verify)."""
    if digits > BOUNDARY_DIGITS_BUDGET:
        raise Unsupported(
            f"boundary summation is budgeted for {BOUNDARY_DIGITS_BUDGET} digits")
    cls = classify(spec, ctx)
    with ctx.workdps():
        if cls.kind == "boundary_positive":
            return _boundary_positive(spec, digits, ctx)
        if cls.kind == "boundary_alternating":
            return _boundary_alternating(spec, digits, ctx)
    raise Unsupported(f"series is {cls.kind}, not a boundary case")


def sum_boundary(spec: SeriesSpec, digits: int, ctx: PrecisionContext) -> mpf:
    """Value of a boundary series, correct to at least ``digits`` digits."""
    return sum_boundary_detailed(spec, digits, ctx).value
