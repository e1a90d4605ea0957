"""Summation of sum_{k>=1} z^k w(k) / (k^a C(3k,k)) with certified tails.

The binomial C(3k,k) grows like (27/4)^k sqrt(3/(4 pi k)), so the series
is geometric for |z| g < 27/4 (g the exponential growth rate of the
weight), sits on the convergence boundary at equality, and is divergent
beyond it; the comparison is made exactly on the rational z.

:func:`plan` alone chooses how a series is summed: the method (the
kernel, CRVZ or the telescope) and its terms.
:func:`sum_to_digits` (geometric) and :func:`sum_boundary_detailed` (on
the radius) go through :func:`_sum_planned`: it checks the series, plans
it unless handed a plan made beforehand, and runs the plan by
:func:`_execute`, one pass of the exact integer kernel, :func:`_kernel`.
Its state is b_k 2^B / k^c as a floored integer, b_k = z^k / C(3k,k),
the first of the pair (W(mk), W(mk+1)) b_k 2^B / k^c for a Fibonacci or
Lucas weight W, with c = min(a, 1): a sum at a = 1 reads its term t_k 2^B
off the state as it stands, one at a = 2 divides the state once by k,
and one at a = 0 reads b_k 2^B.  Carrying the 1/k costs no division, as
the factor k + 1 of the term ratio cancels it (:func:`_start`), and the
roundoff has a proven bound (:func:`_roundoff_ulps`).  Both round their
value and tail to the context's working precision ``prec``, passed down
as a value; they neither read nor set mpmath's global precision.  The one
other pass is :func:`_kernel_group`, for the verifier's batch: it runs
the kernel once for the kernel plans of series that share |z| and the
weight's recurrence (the unit weight, or Fibonacci and Lucas weights of
one m), on a state that carries 1/k (c = 1) whatever their a, keeping one
sum per exponent a (the state times k, the state, and the state divided
by k), and hands each series its :class:`Summed` share, which
:func:`_execute` certifies as it certifies a pass of its own.  Where the
group holds both signs or both kinds, the sums are split by the parity
of k into E and O: a series of z reads E + O, one of -z reads E - O, as
b_k(-z) = (-1)^k b_k(z), and a Lucas series reads 2y - x off the
Fibonacci pair, as L(n) = 2F(n+1) - F(n), within a roundoff bound sqrt5
times as wide in its state part.  Nothing else in the package sums.

The kernel method takes the first cutoff K at which a float estimate of
the tail bound meets the target (:func:`_cutoff_fits`).  The search starts
from Stirling's closed-form estimate of that K (:func:`_cutoff_seed`, a
few Newton steps in floats) and confirms it with the float estimate at
the seed and its neighbour, walking one term at a time where it misses.
The bound is then checked exactly in integers (:func:`_tail_ulps`):

    sum_{k>K} |t_k| <= |t_{K+1}| s / (1 - g_{K+1}).

g_k = |b_{k+1}/b_k| phi^|m| = 2|z| phi^|m| (k+1)(2k+1) / (3(3k+1)(3k+2)),
b_k = z^k / C(3k,k), decreases to rho = 4|z| phi^|m| / 27 for all k >= 0
(the k-derivative of the fraction has numerator -(9k^2 + 10k + 3)), so it
bounds every later step of b_k phi^|mk| / k^a.  The terms rise while
g_k > 1, a prefix of k: the estimate refuses every K before the end of
that rise (g_{K+1} >= 1), so the search needs no lower bound, and
:func:`_roundoff_ulps` walks the prefix.  By Binet, |F(n)| sqrt5 and
|L(n)| lie in [phi^n - 1, phi^n + 1], so every later |w(mk)| is at most
|w(m(K+1))| phi^(|m|(k-K-1)) times s = (1 + eps)/(1 - eps), eps =
phi^(-|m|(K+1)); s = 1 for the unit weight and L(0).  phi^|m| enters
through integer bounds on sqrt5 2^64 and the kernel's roundoff is added to
the read term, so a tail reported below 10^-d is proved.  Whether rho < 1
is decided in integers too (:func:`_radius_side`).

On the radius the terms behave like (+-1)^k k^(1/2 - a), so only z = 27/4
with a = 2 and z = -27/4 with a = 1, 2 converge;
:func:`sum_boundary_detailed` proves them to the requested digits.  At 27/4
the telescope method sums K terms and telescopes the tail after them by a
truncated asymptotic series P with J coefficients (:func:`_telescope`).

For z < 0, |z| <= 27/4 and a = 1, 2, 1/C(3k,k) = 2k B(k+1, 2k) gives
|z|^k / (k C(3k,k)) = 2 int_0^1 x(t)^k dt / (1-t), x(t) = |z| t (1-t)^2 in
[0, rho] within [0, 1], and 1/k = int_0^1 u^(k-1) du, so with the weight 1
or L(0) = 2 the |t_{j+1}| are moments of a positive measure on [0, 1]:
CRVZ acceleration (Cohen, Rodriguez Villegas and Zagier, Exp. Math. 2000,
Algorithm 1) with n terms is within |t_1| / T_n(3) (:func:`_crvz`).  It
sums z = -27/4, and every geometric such series whose kernel cutoff
would exceed 8n terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import count
from operator import add
from typing import Optional, Union

from mpmath import mp, mpf
from mpmath.libmp import (from_int, mpf_div, mpf_mul, mpf_phi, mpf_pow_int,
                          round_nearest, to_str)

from .errors import MaxTermsExceeded, NotGeometric, Unsupported
from .precision import PrecisionContext, _unscale, context_for
from .sequences import fib, lucas

_GUARD_BITS = 48
_SQRT5_FLOOR = math.isqrt(5 << 128)  # floor(sqrt5 2^64)

_LOG_PHI = math.log((1 + math.sqrt(5)) / 2)
_BINET_CONJ = -((math.sqrt(5) - 1) / 2) ** 2  # (psi/phi), psi = -1/phi
_BITS_PER_DIGIT = math.log2(10)
_LOG_STIRLING = math.log(4 * math.pi / 3) / 2  # C(3k,k) ~ (27/4)^k sqrt(3/(4 pi k))
_LOG_4_27 = math.log(4 / 27)  # rho = 4|z| phi^|m| / 27
_LOG10_CRVZ_RATE = math.log10(3 + math.sqrt(8))
# CRVZ replaces the kernel when the kernel needs more than this many terms
# per CRVZ term: an exact CRVZ step is one bignum product, about 7 kernel
# steps at 1000 digits (measured)
_CRVZ_CROSSOVER = 8
DIVERGES = "the series diverges (beyond or on the radius 27/4)"


@dataclass(frozen=True)
class Weight:
    """Per-term factor w(k): 1, F(mk) or L(mk)."""

    kind: str  # "unit" | "fib" | "lucas"
    m: int = 0

    def __post_init__(self):
        if self.kind not in ("unit", "fib", "lucas"):
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if type(self.m) is not int:
            raise TypeError(f"weight index m must be an int, got {self.m!r}")
        if self.kind == "unit" and self.m != 0:
            raise ValueError("unit weight takes no index")


UNIT_WEIGHT = Weight("unit")


@dataclass(frozen=True)
class SeriesSpec:
    """One left-hand series: term k is z^k w(k) / (k^a C(3k,k)), k >= 1."""

    z: Fraction
    a: int
    weight: Weight = UNIT_WEIGHT

    def __post_init__(self):
        if not isinstance(self.z, Fraction):
            raise TypeError("z must be a Fraction")
        if type(self.a) is not int or self.a not in (0, 1, 2):
            raise ValueError(f"exponent a must be 0, 1 or 2, got {self.a!r}")


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


@dataclass(frozen=True)
class Plan:
    """The method of a sum, its terms (K, or n for CRVZ) and the
    telescope's J (else 0)."""

    method: str  # "kernel" | "crvz" | "telescope"
    terms: int
    J: int


@dataclass(frozen=True)
class Summed:
    """A kernel plan that a pass shared with other series has run
    (:func:`_kernel_group`): the head and the term at K + 1 of its K,
    scaled by 2^bits, and their _roundoff_ulps bound."""

    plan: Plan
    bits: int
    head: int
    term: int
    roundoff: int


def _vanishes(spec: SeriesSpec) -> bool:
    """Every term is exactly zero: z = 0, or the weight F(0 k)."""
    return spec.z == 0 or (spec.weight.kind == "fib" and spec.weight.m == 0)


def _radius_side(spec: SeriesSpec) -> int:
    """Sign of rho - 1 for rho = 4|z| phi^|m| / 27, decided exactly in
    integers.

    rho < 1 iff phi^|m| = (L + F sqrt5)/2 < 27/(4|z|), L = L(|m|) and
    F = F(|m|); with z = p/q that is 2|p| F sqrt5 < u = 27q - 2|p| L, i.e.
    u >= 0 and 5 F^2 (2|p|)^2 < u^2.  The unit weight is |m| = 0 (F = 0,
    L = 2), which reduces this to 4|p| against 27q.
    """
    n = abs(spec.weight.m)
    p2, q = 2 * abs(spec.z.numerator), spec.z.denominator
    u = 27 * q - p2 * lucas(n)
    if u < 0:
        return 1
    lhs, rhs = 5 * (fib(n) * p2) ** 2, u * u
    return (lhs > rhs) - (lhs < rhs)


def convergence_kind(spec: SeriesSpec) -> str:
    """The ConvergenceClass kind of the series, decided exactly on z."""
    side = _radius_side(spec) if spec.z else -1
    if side < 0:
        return "geometric"
    # on the radius the terms behave like (+-1)^k k^(1/2 - a)
    if side > 0 or spec.a < (2 if spec.z > 0 else 1):
        return "divergent_formal"
    return "boundary_positive" if spec.z > 0 else "boundary_alternating"


def classify(spec: SeriesSpec, ctx: PrecisionContext) -> ConvergenceClass:
    """The exact convergence_kind, with rho rounded to ctx.prec by libmp.  No
    path of the package calls it; the benchmark reads its rho."""
    z, prec, rnd = spec.z, ctx.prec, round_nearest
    rho = mpf_div(from_int(abs(z.numerator), prec, rnd),
                  from_int(z.denominator), prec, rnd)
    power = mpf_pow_int(mpf_phi(prec, rnd), abs(spec.weight.m), prec, rnd)
    rho = mpf_mul(mpf_mul(rho, power, prec, rnd), from_int(4), prec, rnd)
    return ConvergenceClass(convergence_kind(spec), mp.make_mpf(
        mpf_div(rho, from_int(27), prec, rnd)))


# -- the integer kernel ----------------------------------------------------

def _unit_run(state: tuple, k: int, stop: int, a: int) -> tuple[int, tuple]:
    """Sum of the unit-weight terms k .. stop-1 from the kernel state at k,
    and the state at stop.

    The state is (t, n, dn, n2, d, dd, d2): t = b_k 2^B / k^c floored,
    with c = _carried(spec) as _kernel starts it, the ratio's numerator n
    and denominator d at k, their first differences dn and dd, and their
    constant second differences n2 and d2.  The term is t at a = 0 and 1,
    and t // k at a = 2.
    """
    t, n, dn, n2, d, dd, d2 = state
    s = 0
    if a == 2:
        for j in range(k, stop):
            s += t // j
            t = t * n // d
            n += dn
            dn += n2
            d += dd
            dd += d2
    else:
        for _ in range(k, stop):
            s += t
            t = t * n // d
            n += dn
            dn += n2
            d += dd
            dd += d2
    return s, (t, n, dn, n2, d, dd, d2)


def _pair_run(state: tuple, k: int, stop: int, a: int) -> tuple[int, tuple]:
    """_unit_run for a Fibonacci or Lucas weight W: the state is
    (x, y, f0, f1, f2, n, dn, n2, d, dd, d2), with the pair
    (x, y) = (b_k W(mk), b_k W(mk+1)) 2^B / k^c and
    Q^m = [[f0, f1], [f1, f2]]."""
    x, y, f0, f1, f2, n, dn, n2, d, dd, d2 = state
    s = 0
    if a == 2:
        for j in range(k, stop):
            s += x // j
            x, y = n * (f0 * x + f1 * y) // d, n * (f1 * x + f2 * y) // d
            n += dn
            dn += n2
            d += dd
            dd += d2
    else:
        for _ in range(k, stop):
            s += x
            x, y = n * (f0 * x + f1 * y) // d, n * (f1 * x + f2 * y) // d
            n += dn
            dn += n2
            d += dd
            dd += d2
    return s, (x, y, f0, f1, f2, n, dn, n2, d, dd, d2)


def _unit_runs(state: tuple, k: int, stop: int) -> tuple[tuple, tuple]:
    """_unit_run at a = 0, 1 and 2 at once from a state that carries
    c = 1, t = b_k 2^B / k: the three sums of t k, t and t // k, and the
    state at stop."""
    t, n, dn, n2, d, dd, d2 = state
    s0 = s1 = s2 = 0
    for j in range(k, stop):
        s0 += t * j
        s1 += t
        s2 += t // j
        t = t * n // d
        n += dn
        dn += n2
        d += dd
        dd += d2
    return (s0, s1, s2), (t, n, dn, n2, d, dd, d2)


def _pair_runs(state: tuple, k: int, stop: int) -> tuple[tuple, tuple]:
    """_pair_run at a = 0, 1 and 2 at once, as _unit_runs."""
    x, y, f0, f1, f2, n, dn, n2, d, dd, d2 = state
    s0 = s1 = s2 = 0
    for j in range(k, stop):
        s0 += x * j
        s1 += x
        s2 += x // j
        x, y = n * (f0 * x + f1 * y) // d, n * (f1 * x + f2 * y) // d
        n += dn
        dn += n2
        d += dd
        dd += d2
    return (s0, s1, s2), (x, y, f0, f1, f2, n, dn, n2, d, dd, d2)


def _unit_splits(state: tuple, k: int, stop: int) -> tuple[tuple, tuple]:
    """_unit_runs with each sum split by the parity of the index, for
    k < stop: the sums of t k, t and t // k over the even indices, then
    over the odd ones, and the state at stop.  A loop step advances two
    terms, so the split adds no work per term."""
    t, n, dn, n2, d, dd, d2 = state
    s0 = s1 = s2 = r0 = r1 = r2 = 0  # at k, k + 2, ... and k + 1, k + 3, ...
    for j in range(k, stop - 1, 2):
        s0 += t * j
        s1 += t
        s2 += t // j
        t = t * n // d
        n += dn
        dn += n2
        d += dd
        dd += d2
        j += 1
        r0 += t * j
        r1 += t
        r2 += t // j
        t = t * n // d
        n += dn
        dn += n2
        d += dd
        dd += d2
    first, second = (s0, s1, s2), (r0, r1, r2)
    state = (t, n, dn, n2, d, dd, d2)
    if (stop - k) & 1:
        last, state = _unit_runs(state, stop - 1, stop)
        first = tuple(map(add, first, last))
    return (second + first if k & 1 else first + second), state


def _pair_splits(state: tuple, k: int, stop: int,
                 ys: bool) -> tuple[tuple, tuple]:
    """_pair_runs with each sum split by the parity of the index, as
    _unit_splits; when ``ys``, the sums of y k, y and y // k follow those
    of x at each parity."""
    x, y, f0, f1, f2, n, dn, n2, d, dd, d2 = state
    s0 = s1 = s2 = s3 = s4 = s5 = r0 = r1 = r2 = r3 = r4 = r5 = 0
    for j in range(k, stop - 1, 2):
        s0 += x * j
        s1 += x
        s2 += x // j
        if ys:
            s3 += y * j
            s4 += y
            s5 += y // j
        x, y = n * (f0 * x + f1 * y) // d, n * (f1 * x + f2 * y) // d
        n += dn
        dn += n2
        d += dd
        dd += d2
        j += 1
        r0 += x * j
        r1 += x
        r2 += x // j
        if ys:
            r3 += y * j
            r4 += y
            r5 += y // j
        x, y = n * (f0 * x + f1 * y) // d, n * (f1 * x + f2 * y) // d
        n += dn
        dn += n2
        d += dd
        dd += d2
    first, second = ((s0, s1, s2, s3, s4, s5), (r0, r1, r2, r3, r4, r5)
                     ) if ys else ((s0, s1, s2), (r0, r1, r2))
    state = (x, y, f0, f1, f2, n, dn, n2, d, dd, d2)
    if (stop - k) & 1:
        j = stop - 1
        last, state = _pair_runs(state, j, stop)
        if ys:
            last += (y * j, y, y // j)
        first = tuple(map(add, first, last))
    return (second + first if k & 1 else first + second), state


def _start(spec: SeriesSpec, bits: int, c: int) -> tuple:
    """The kernel state at k = 1 for the scale 2^bits, carrying b_k / k^c
    (c = 0 or 1): (t, ratio) for the unit weight, else (x, y, Q^m, ratio),
    as _unit_run and _pair_run read it.

    With z = p/q, b_k = z^k/C(3k,k) advances by its exact ratio
    2p(k+1)(2k+1) / (3q(3k+1)(3k+2)), and b_k / k by that ratio times
    k/(k+1), 2p k(2k+1) / (3q(3k+1)(3k+2)): the factor k + 1 of the
    numerator cancels, so the denominator and its width stay as they are.
    Both start from the same integer at k = 1 and are floored at every
    step.  A Fibonacci or Lucas weight W rides along as the pair
    (b_k W(mk), b_k W(mk+1)) / k^c, advanced by Q^m = [[F(m-1), F(m)],
    [F(m), F(m+1)]] as is any G with G(n+2) = G(n+1) + G(n).  The ratio's
    numerator and denominator are quadratics in k, advanced by their
    differences, so a step is one multiply and one floor division per
    state component.
    """
    p, q = spec.z.numerator, spec.z.denominator
    p2, q3 = 2 * p, 3 * q
    # (n, dn, n2, d, dd, d2) at k = 1, n = 2p (k + 1 - c)(2k + 1)
    ratio = ((6 - 3 * c) * p2, (9 - 2 * c) * p2, 4 * p2,
             20 * q3, 36 * q3, 18 * q3)
    if spec.weight.kind == "unit":
        return ((p << bits) // q3,) + ratio
    m, w = spec.weight.m, fib if spec.weight.kind == "fib" else lucas
    return ((w(m) * p << bits) // q3, (w(m + 1) * p << bits) // q3,
            fib(m - 1), fib(m), fib(m + 1)) + ratio


def _carried(spec: SeriesSpec) -> int:
    """The power c of k that the state of a sum of its own carries:
    min(a, 1)."""
    return min(spec.a, 1)


def _kernel(spec: SeriesSpec, bits: int, K: int,
            window: int = 0) -> tuple[int, list[int]]:
    """The sum of the scaled terms t_k 2^bits for k <= K and the next
    ``window`` terms one by one, from the state of _start that carries
    c = _carried(spec): a sum at a = 1 reads its state as it stands, one
    at a = 2 divides it once by k, and one at a = 0 keeps b_k."""
    run = _unit_run if spec.weight.kind == "unit" else _pair_run
    head, state = run(_start(spec, bits, _carried(spec)), 1, K + 1, spec.a)
    terms = []
    for k in range(K + 1, K + 1 + window):
        term, state = run(state, k, k + 1, spec.a)
        terms.append(term)
    return head, terms


def _growth_constant(spec: SeriesSpec) -> float:
    """c = 2|z| phi^|m| / 3, so that rho = 2c/9."""
    return 2 * abs(float(spec.z)) * math.exp(abs(spec.weight.m) * _LOG_PHI) / 3


def _step_growth(c: float, k: int) -> float:
    """g_k = |b_{k+1}/b_k| phi^|m| = c (k+1)(2k+1) / ((3k+1)(3k+2)) for the
    growth constant c of the spec.

    The growth bound of the kernel state from step k to k+1; it decreases
    in k to rho."""
    return c * (k + 1) * (2 * k + 1) / ((3 * k + 1) * (3 * k + 2))


def _log_abs_z(spec: SeriesSpec) -> float:
    """ln |z| from the numerator and denominator, so that a |z| below the
    smallest float keeps its logarithm."""
    return math.log(abs(spec.z.numerator)) - math.log(spec.z.denominator)


def _log_base(log_z: float, k: int) -> float:
    """ln |z^k / C(3k,k)|, log_z = ln |z|."""
    return (k * log_z - math.lgamma(3 * k + 1)
            + math.lgamma(k + 1) + math.lgamma(2 * k + 1))


def _roundoff_ulps(spec: SeriesSpec, K: int, c: int,
                   off_fib: bool = False) -> int:
    """Bound on sum_{k<=K} |t_k 2^B - (term k of the kernel)|, any B, for
    a kernel state that carries b_k 2^B / k^c, c = 0 or 1; for a Lucas
    spec read as 2y - x off the Fibonacci pair state of its m when
    ``off_fib``.

    Each step floors every state component (error < 1 each, so < s in the
    2-norm: s = 1 unit, sqrt2 pair) and multiplies the inherited error by
    the step's growth g_k (k/(k+1))^c <= g_k, g_k = |b_{k+1}/b_k| phi^|m|
    (Q^m is symmetric with norm phi^|m|).  The g_k > 1 form a prefix, so
    the state error at step k is below s k G with G the product of that
    prefix, up to K, which a walk from k = 1 finds: top is the first k
    with g_k <= 1, or K.  A term is the state times k^(c-a): read as x k,
    x or x // k, it is within s k G k^(c-a) of t_k 2^B, plus 1 for the
    floor, so the sum is within 2 s G sum_{k<=K} k^(1+c-a) + K, with
    sum k^-1 <= 1 + ln K.  G is evaluated in floats with a factor 2 of
    slack.  The bound depends on |z| alone, so it holds for the terms of
    -z read off the state of z.  A read 2y - x, L(n) = 2F(n+1) - F(n),
    multiplies the state's error by at most |(-1, 2)| = sqrt5 and floors
    three times where x floors once: 2 sqrt5 s G sum k^(1+c-a) + 3K.
    """
    if K < 1 or _vanishes(spec):
        return 0
    log_z, c_z = _log_abs_z(spec), _growth_constant(spec)
    top = K if 2 * c_z >= 9 else 1  # rho = 2 c_z / 9 >= 1: no g_k <= 1
    while top < K and _step_growth(c_z, top) > 1:
        top += 1
    log_growth = (_log_base(log_z, top) - _log_base(log_z, 1)
                  + (top - 1) * abs(spec.weight.m) * _LOG_PHI)
    s = 1.0 if spec.weight.kind == "unit" else math.sqrt(2)
    read, floors = (math.sqrt(5), 3) if off_fib else (1.0, 1)
    spread = (1 + math.log(K), K, K * (K + 1) / 2,
              K * (K + 1) * (2 * K + 1) / 6)[2 + c - spec.a]  # sum k^(1+c-a)
    return (math.ceil(2 * s * read * math.exp(log_growth) * spread)
            + floors * K)


def _kernel_bits(roundoff: int, finest: float) -> int:
    """Scale B for a sum whose _roundoff_ulps bound is ``roundoff``: the
    bound sits _GUARD_BITS below 2^finest."""
    return max(0, math.ceil(-finest)) + roundoff.bit_length() + _GUARD_BITS


def _ceil_to_prec(n: int, prec: int) -> int:
    """n >= 0 rounded up to prec significant bits, so that its mpf at prec
    bits is exact."""
    drop = max(0, n.bit_length() - prec)
    return -(-n >> drop) << drop


def _tail_ulps(spec: SeriesSpec, K: int, term: int, roundoff: int) -> Fraction:
    """Proved bound on the tail sum_{k>K} |t_k| 2^B plus the roundoff of
    the kernel's head, from the kernel's term ``term`` at K+1 and the bound
    ``roundoff``, _roundoff_ulps at K+1 for the state of its pass, on
    both.

    The bound is (|term| + roundoff) s / (1 - g_{K+1}) (see the module
    docstring), in integers.  With S = floor(sqrt5 2^64), phi^n = (L(n) +
    F(n) sqrt5)/2 lies in [(L(n) 2^64 + F(n) S) / 2^65, (L(n) 2^64 + F(n)
    (S + 1)) / 2^65]: g takes the upper end for n = |m|, s = (A + 2^65) /
    (A - 2^65) the lower end A / 2^65 for n = |m|(K+1).  Since s / (1 - g)
    >= 1, the roundoff it carries covers both the read term and the head.
    Raises NotGeometric when g_{K+1} >= 1.
    """
    n, k = abs(spec.weight.m), K + 1
    gn = abs(spec.z.numerator) * 2 * (k + 1) * (2 * k + 1)  # g = gn / gd
    gd = spec.z.denominator * 3 * (3 * k + 1) * (3 * k + 2)
    num, den = abs(term) + roundoff, 1
    if n:
        gn *= (lucas(n) << 64) + fib(n) * (_SQRT5_FLOOR + 1)
        gd <<= 65
        phi_n = (lucas(n * k) << 64) + fib(n * k) * _SQRT5_FLOOR
        num, den = num * (phi_n + (1 << 65)), phi_n - (1 << 65)
    if gn >= gd:
        raise NotGeometric(
            f"term ratio bound {gn / gd:.6g} after {K} terms; no geometric tail")
    return Fraction(num * gd, den * (gd - gn))


def _cutoff_fits(spec: SeriesSpec, digits: int, c: float, log_z: float):
    """The cutoff estimate as a predicate of K: is the bound of
    _tail_ulps, |t_{K+1}| s / (1 - g_{K+1}), below 10^-digits, from float
    log-magnitudes of the terms?  A margin of 2^-16 of the target is left
    for the roundoff and the float error."""
    a, m, kind = spec.a, abs(spec.weight.m), spec.weight.kind
    log_eps = -digits * math.log(10) + math.log1p(-2.0 ** -16)

    def fits(K: int) -> bool:
        k = K + 1
        g = _step_growth(c, k)
        if g >= 1:
            return False
        # ln |t_k|, the weight by Binet's formula
        n = m * k
        log_term = _log_base(log_z, k) - a * math.log(k)
        if kind == "fib":
            log_term += (n * _LOG_PHI - math.log(5) / 2
                         + math.log1p(-_BINET_CONJ ** n))
        elif kind == "lucas":
            log_term += n * _LOG_PHI + math.log1p(_BINET_CONJ ** n)
        if n:  # the Binet slack s
            eps = math.exp(-n * _LOG_PHI)
            log_term = log_term + math.log1p(eps) - math.log1p(-eps)
        return log_term - math.log1p(-g) < log_eps

    return fits


def _cutoff_seed(spec: SeriesSpec, digits: int, log_z: float) -> float:
    """Stirling's estimate of the K that _cutoff_fits first accepts.

    By Stirling, |z^k / C(3k,k)| ~ (4|z|/27)^k sqrt(4 pi k / 3), and by
    Binet the weight adds |m| k ln phi (less ln sqrt5 for F), so ln |t_k| ~
    k ln rho + (1/2 - a) ln k + c; g_k tends to rho.  k = K + 1 solves
    k ln rho + (1/2 - a) ln k + c = -digits ln 10 + ln(1 - rho), by Newton
    steps in floats from the root without the ln k term.  math.inf when
    rho >= 1 in floats.
    """
    log_rho = log_z + abs(spec.weight.m) * _LOG_PHI + _LOG_4_27
    if log_rho >= 0:
        return math.inf
    rho = math.exp(log_rho)
    b = 0.5 - spec.a
    c = _LOG_STIRLING - (math.log(5) / 2 if spec.weight.kind == "fib" else 0)
    target = -digits * math.log(10) + math.log1p(-rho) - c
    k = max(1.0, target / log_rho)
    for _ in range(4):
        slope = log_rho + b / k
        if slope >= 0:
            break
        step = (k * log_rho + b * math.log(k) - target) / slope
        k = max(1.0, k - step)
        if abs(step) < 1e-3:
            break
    return math.ceil(k) - 1


def _cutoff(fits, seed: float, budget: int) -> int:
    """Smallest K >= 1 that the estimate ``fits`` accepts; budget + 1 when
    that K is beyond the budget.

    The estimate refuses every K before the end of the rise of the terms
    (g_{K+1} >= 1) and falls monotonically in K after it, so the search
    needs no lower bound.  It starts at ``seed``, clamped to [1, budget],
    and walks one term at a time: down while the term before fits, else up
    until one fits.  A seed on the mark costs two probes, the estimate
    there and one term before (or after), and a seed off by n terms n more.
    """
    K = min(max(1, seed), budget)
    if fits(K):
        while K > 1 and fits(K - 1):
            K -= 1
        return K
    while K < budget:
        K += 1
        if fits(K):
            return K
    return budget + 1


def _certified(value: int, error: int, bits: int, terms: int,
               digits: int, prec: int) -> SumResult:
    """value 2^-bits with the error bound ``error`` 2^-bits plus the value's
    rounding to the working precision prec (|value| 2^(1-prec)), rounded up
    to an exact mpf and checked against 10^-digits in integers: Unsupported
    when it misses."""
    ulps = _ceil_to_prec(error + (abs(value) >> (prec - 1)) + 1, prec)
    tail = _unscale(ulps, bits, prec)
    if ulps * 10 ** digits >= 1 << bits:
        raise Unsupported(f"tail bound {to_str(tail._mpf_, 5)} after "
                          f"{terms} terms is not below 10^-{digits}")
    return SumResult(_unscale(value, bits, prec), terms, tail)


# -- boundary summation -------------------------------------------------

def _telescope_coeffs(J: int, F: int) -> list[int]:
    """2^F b_j, floored, j < J, for P(k) = sum_j b_j k^(1-j) with eps(k) =
    P(k)/r(k) - P(k+1) - 1 = O(k^-J), r(k) = t_{k+1}/t_k at z = 27/4, a = 2.

    In u = 1/k, eps (9(2+u)) = 2(1+u)(3+u)(3+2u) P(k) - 9(2+u)(P(k+1) + 1)
    with P(k+1) = sum_j b_j u^(j-1) (1+u)^(1-j).  Its u^(n-1) coefficient
    loses b_n and vanishes when 9(2n-1) b_{n-1} = 18 [n=1] + 9 [n=2] -
    22 b_{n-2} - 4 b_{n-3} + sum_{j<n-1} b_j (18 C(1-j, n-j) + 9 C(1-j,
    n-1-j)); each b_j is added to the later equations once found.
    """
    acc = [0] * (J + 4)
    acc[1], acc[2] = 18 << F, 9 << F
    b = []
    for j in range(J):
        bj = acc[j + 1] // (9 * (2 * j + 1))
        b.append(bj)
        acc[j + 2] -= 22 * bj
        acc[j + 3] -= 4 * bj
        prev = 1 - j  # C(1-j, m-1) at m = 2
        for m in range(2, J - j + 1):
            cur = prev * (2 - j - m) // m
            acc[j + m] += bj * (18 * cur + 9 * prev)
            prev = cur
    return b


def _telescope(K: int, J: int, F: int) -> tuple[Fraction, Fraction]:
    """Exact P(K) and eta >= sup_{k>=K} |eps(k)| for the b_j of
    _telescope_coeffs.  With p(x) = x^(J-2) P(x), M(k) = 9k^J (2k+1)
    (k+1)^(J-2) turns eps into the integer polynomial (times 2^F) Q(k) =
    2(3k+1)(3k+2)(k+1)^(J-1) p(k) - 9k^J (2k+1)(p(k+1) + (k+1)^(J-2)),
    whose k^(2J) term cancels as b_0 = 2.  M(k) >= 18 k^(2J-1), so |eps(k)|
    <= sum_i |Q_i| k^(i-2J+1) / 18, which falls in k.
    """
    p = _telescope_coeffs(J, F)[::-1]
    g = p
    for _ in range(J - 1):  # (x+1)^(J-1) p(x)
        g = [u + v for u, v in zip(g + [0], [0] + g)]
    h = list(p)  # p(x+1), by Taylor shift
    for i in range(J - 1):
        for j in range(J - 2, i - 1, -1):
            h[j] += h[j + 1]
    q = [4 * u + 18 * v + 18 * w
         for u, v, w in zip(g + [0, 0], [0] + g + [0], [0, 0] + g)]
    for i, u in enumerate(h):
        u += math.comb(J - 2, i) << F
        q[J + i] -= 9 * u
        q[J + i + 1] -= 18 * u
    assert q[-1] == 0  # exactly, since b_0 = 2
    value = reduce(lambda v, c: v * K + c, reversed(p), 0)
    eta = reduce(lambda v, c: v * K + abs(c), reversed(q[:-1]), 0)
    return (Fraction(value, K ** (J - 2) << F),
            Fraction(eta, 18 * K ** (2 * J - 1) << F))


def _telescope_size(digits: int) -> tuple[int, int]:
    """(K, J) of the telescope.  K ~ digits^2/32 balances the head
    against the O(J^2) coefficients; J is the least with 4 J! / ((2 pi K)^J
    sqrt K) < 10^-(digits+3), the bound in floats as b_J grows like J! /
    (2 pi)^J."""
    K = max(16, digits * digits // 32)
    excess = digits + 3 + math.log10(4 / math.sqrt(K))
    J = next(j for j in count(2) if math.lgamma(j + 1) / math.log(10)
             - j * math.log10(2 * math.pi * K) + excess <= 0)
    return K, J


def _crvz(moments: list[int]) -> tuple[int, int]:
    """(s, d): s/d is the CRVZ value of sum_j (-1)^j a_j from n moments a_j
    of a positive measure on [0, 1], within a_0 / d, d = T_n(3); the
    weights c_k of s = sum_k c_k a_k satisfy 0 < |c_k| < d."""
    n = len(moments)
    d, prev = 3, 1  # T_1(3), T_0(3)
    for _ in range(n - 1):
        d, prev = 6 * d - prev, d
    b, c, s = -1, -d, 0
    for k, a in enumerate(moments):
        c = b - c
        s += c * a
        b = b * 2 * (k + n) * (k - n) // ((2 * k + 1) * (k + 1))
    return s, d


def _crvz_terms(digits: int) -> int:
    """n = ceil((digits + 3) / log10(3 + sqrt8)), so that |t_1| / T_n(3) <
    2 |t_1| 10^-(digits+3) falls below 10^-digits: |t_1| = |z| w / 3 <= 9/2."""
    return math.ceil((digits + 3) / _LOG10_CRVZ_RATE)


# -- the plan and the sums ----------------------------------------------------

def plan(spec: SeriesSpec, digits: int, budget: int) -> Plan:
    """How ``spec`` is summed to ``digits`` digits within ``budget`` terms.
    CRVZ takes a geometric series it proves when the kernel estimate misses
    at _CRVZ_CROSSOVER n terms, whatever the budget; a series of zeros
    takes 0 kernel terms.  Raises MaxTermsExceeded past the budget and
    Unsupported for a divergent series."""
    kind = convergence_kind(spec)
    J = 0
    if kind == "boundary_positive":
        method, (K, J) = "telescope", _telescope_size(digits)
    elif kind == "boundary_alternating":
        method, K = "crvz", _crvz_terms(digits)
    elif kind == "divergent_formal":
        raise Unsupported(DIVERGES)
    elif _vanishes(spec):
        return Plan("kernel", 0, 0)
    else:
        c, log_z = _growth_constant(spec), _log_abs_z(spec)
        fits = _cutoff_fits(spec, digits, c, log_z)
        if (spec.a and not spec.weight.m and spec.z < 0
                and not fits(_CRVZ_CROSSOVER * _crvz_terms(digits))):
            method, K = "crvz", _crvz_terms(digits)
        else:
            method = "kernel"
            K = _cutoff(fits, _cutoff_seed(spec, digits, log_z), budget)
    if K > budget:
        raise MaxTermsExceeded(f"{method} summation to {digits} digits needs "
                               f"more than {budget} terms (the term budget)")
    return Plan(method, K, J)


def _kernel_group(specs: list[SeriesSpec], plans: list[Plan],
                  digits: int) -> list[Summed]:
    """The kernel plans ``plans`` of the series ``specs``, which share |z|
    and the weight's recurrence (the unit weight, or Fibonacci and Lucas
    weights of one m), run by one pass of the kernel to ``digits`` digits.

    The pass runs the state of its first member's z, the Fibonacci state
    of the m when the group holds both kinds, at the largest scale that
    _execute would give a member and up to the largest K + 1.  Its state
    carries b_k 2^B / k (c = 1) whatever the members' a, and it keeps one
    sum per a: x k at a = 0, x at a = 1 and x // k at a = 2.  A group of
    one sign and one kind keeps those sums whole (_unit_runs, _pair_runs),
    as a pass of its own; any other keeps each split by the parity of k
    into E and O (_unit_splits, _pair_splits), and the same sums of y too
    where a Lucas member reads the Fibonacci state.  Each member reads:

    - E + O (the whole sum) when its z is the pass's;
    - E - O when it is -z, as b_k(-z) = (-1)^k b_k(z), so that its term at
      K + 1 takes the sign (-1)^(K+1);
    - 2y - x in place of x when it is a Lucas member of a group of both
      kinds, as L(n) = 2F(n+1) - F(n).

    A member of the pass's z and state so gets the sums of a pass of its
    own weight: at a = 1 or 2 the head and term of its own _kernel at the
    pass's scale, bit for bit; one at a = 0 gets x k in place of the b_k
    2^B that its own _kernel carries.  Each member's roundoff is
    _roundoff_ulps at c = 1.  It holds at any scale, and for the reads of
    -z unchanged, as it depends on |z| alone; a read 2y - x multiplies
    its state part by |(-1, 2)| = sqrt5 and its floors by 3.  So _execute
    certifies each member with its own K, roundoff and tail.
    """
    z = specs[0].z
    both = len({spec.weight.kind for spec in specs}) > 1  # F and L of one m
    off_fib = [both and spec.weight.kind == "lucas" for spec in specs]
    flips = [(spec.z.numerator < 0) != (z.numerator < 0) for spec in specs]
    cutoffs = [chosen.terms for chosen in plans]
    roundoffs = [_roundoff_ulps(spec, K + 1, 1, lucas)
                 for spec, K, lucas in zip(specs, cutoffs, off_fib)]
    bits = _kernel_bits(max(roundoffs), -digits * _BITS_PER_DIGIT)
    first = (SeriesSpec(z, 0, Weight("fib", specs[0].weight.m)) if both
             else specs[0])
    unit, ys, split = first.weight.kind == "unit", any(off_fib), (
        both or any(flips))
    if split:
        run = _unit_splits if unit else partial(_pair_splits, ys=ys)
    else:  # one sign and one kind: the sums of a pass of its own
        run = _unit_runs if unit else _pair_runs
    width = 6 if ys else 3  # the sums of one parity, or of the whole pass
    state, k = _start(first, bits, 1), 1
    sums, heads, terms = (0,) * (2 * width if split else width), {}, {}
    for K in sorted(set(cutoffs)):
        more, state = run(state, k, K + 1)
        sums, k = tuple(map(add, sums, more)), K + 1
        heads[K], terms[K] = sums, run(state, k, k + 1)[0]

    def read(sums, a, flip, lucas):
        """x, or 2y - x, at a: the whole sum, or E + O, or E - O for -z."""
        even = 2 * sums[a + 3] - sums[a] if lucas else sums[a]
        if not split:
            return even
        a += width
        odd = 2 * sums[a + 3] - sums[a] if lucas else sums[a]
        return even - odd if flip else even + odd

    return [Summed(chosen, bits, read(heads[K], spec.a, flip, lucas),
                   read(terms[K], spec.a, flip, lucas), roundoff)
            for spec, chosen, K, roundoff, flip, lucas in zip(
                specs, plans, cutoffs, roundoffs, flips, off_fib)]


def _execute(spec: SeriesSpec, chosen: Union[Plan, Summed], digits: int,
             prec: int) -> SumResult:
    """``spec`` summed as ``chosen`` says by one kernel pass, certified to
    ``digits`` digits and rounded to prec bits; a Summed plan has had its
    pass, so it is only certified.  The telescope adds t_K (1 + P(K)) to
    K - 1 terms: summing t_k P(k) - t_{k+1} P(k+1) = t_{k+1} (1 + eps(k))
    over k >= K puts the tail within eta t_K P(K) / (1 - eta) of t_K P(K).
    As the CRVZ weights are |c_k| < d, its roundoff enters once."""
    if isinstance(chosen, Summed):
        K = chosen.plan.terms
        error = _tail_ulps(spec, K, chosen.term, chosen.roundoff)
        return _certified(chosen.head, math.ceil(error), chosen.bits, K,
                          digits, prec)
    method, K = chosen.method, chosen.terms
    if not K:
        return SumResult(mpf(0), 0, mpf(0))
    head_terms, read = {"kernel": (K, 1), "telescope": (K - 1, 1),
                        "crvz": (0, K)}[method]
    roundoff = _roundoff_ulps(spec, head_terms + read, _carried(spec))
    # P(K) ~ 2K multiplies the roundoff of the telescope's term
    scaled = roundoff * K if method == "telescope" else roundoff
    bits = _kernel_bits(scaled, -digits * _BITS_PER_DIGIT)
    head, terms = _kernel(spec, bits, head_terms, read)
    term = terms[0]
    if method == "kernel":
        value, error = head, math.ceil(_tail_ulps(spec, K, term, roundoff))
    elif method == "telescope":
        factor, eta = _telescope(K, chosen.J, bits)
        if eta >= 1:
            raise Unsupported(f"no telescoping bound after {K} terms")
        value = head + term + math.floor(term * factor)
        error = math.ceil(roundoff + 1 + factor * (
            roundoff + eta * (term + roundoff) / (1 - eta)))
    else:
        s, d = _crvz([abs(t) for t in terms])
        value, error = -(s // d), (abs(term) + roundoff) // d + roundoff + 2
    return _certified(value, error, bits, K, digits, prec)


def _sum_planned(spec: SeriesSpec, boundary: bool,
                 chosen: Union[Plan, Summed, None], digits: int,
                 ctx: PrecisionContext) -> SumResult:
    """``spec`` summed to ``digits`` digits: the checks of
    sum_boundary_detailed when ``boundary``, else of sum_to_digits, then
    the plan ``chosen``, made (or run) beforehand, or else the plan within
    ctx.max_terms, by _execute."""
    context_for(digits, ctx)
    kind = convergence_kind(spec)
    if boundary and not kind.startswith("boundary"):
        raise Unsupported(DIVERGES if kind == "divergent_formal"
                          else f"series is {kind}, not a boundary case")
    if not boundary and kind != "geometric":
        raise NotGeometric(
            DIVERGES if kind == "divergent_formal"
            else f"series is {kind}; use sum_boundary_detailed at the radius")
    if chosen is None:
        chosen = plan(spec, digits, ctx.max_terms)
    return _execute(spec, chosen, digits, ctx.prec)


def sum_to_digits(spec: SeriesSpec, digits: int, ctx: PrecisionContext) -> SumResult:
    """Sum of a geometric series with a proved tail below 10^-digits.
    Raises ValueError when ``digits`` exceeds the context's target,
    NotGeometric off the geometric side, MaxTermsExceeded past the term
    budget, and Unsupported when the bound misses 10^-digits."""
    return _sum_planned(spec, False, None, digits, ctx)


def sum_boundary_detailed(spec: SeriesSpec, digits: int,
                          ctx: PrecisionContext) -> SumResult:
    """Sum of a convergent series at z = +-27/4 with a proved tail below
    10^-digits, by its plan, raising as sum_to_digits does (Unsupported off
    the radius or for a divergent series)."""
    return _sum_planned(spec, True, None, digits, ctx)
