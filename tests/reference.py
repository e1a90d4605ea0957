"""References the package is tested against: the per-term generator of
the summation kernel's integers, exact rational terms and sums, mpmath's
nsum of a unit series, a proved bracket on a whole series read from one
kernel pass, and the mpf evaluation of the closed-form levels at (x, y)."""

import math
from fractions import Fraction
from typing import Iterator

from mpmath import mp, mpf

from binom3k.errors import DomainError, SingularInput
from binom3k.precision import real_cbrt
from binom3k.sequences import fib, lucas
from binom3k.series import (SeriesSpec, _kernel, _kernel_bits,
                            _roundoff_ulps, _tail_ulps)


def scaled_terms(spec: SeriesSpec, bits: int) -> Iterator[int]:
    """The terms t_k 2^bits, k = 1, 2, ..., as floored integers, one by one:
    the integers series._kernel sums.

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


def exact_term(spec, k):
    weight = {"unit": lambda n: 1, "fib": fib, "lucas": lucas}[spec.weight.kind]
    return (spec.z ** k * weight(spec.weight.m * k)
            / (k ** spec.a * math.comb(3 * k, k)))


def exact_partial_sum(spec, K):
    return sum((exact_term(spec, k) for k in range(1, K + 1)), Fraction(0))


def unit_series(z, a):
    """sum_{k>=1} z^k / (k^a C(3k,k)) by mpmath's nsum at the current
    precision, for any real z inside the radius."""
    return mp.nsum(lambda k: z ** k / (k ** a * math.comb(3 * int(k), int(k))),
                   [1, mp.inf])


def to_fraction(x):
    man, exp = x.man_exp  # exact, but without the sign
    return (-1 if x < 0 else 1) * Fraction(man) * Fraction(2) ** exp


def rest_bound(spec, N):
    """Proven bound on sum_{k>N} |t_k| for a unit weight: every ratio
    |t_{k+1}/t_k| = r_k (k/(k+1))^a from k = N+1 on is at most r_{N+1},
    since r_k = 2|z|(k+1)(2k+1) / (3(3k+1)(3k+2)) decreases in k."""
    k = N + 1
    r = abs(spec.z) * Fraction(2 * (k + 1) * (2 * k + 1),
                               3 * (3 * k + 1) * (3 * k + 2))
    assert r < 1
    return abs(exact_term(spec, k)) / (1 - r)


def kernel_bracket(spec, K, digits):
    """(centre, radius): the whole sum of a geometric series lies within
    radius of centre, both exact, from one kernel pass of K terms and the
    proved tail of _tail_ulps, which also carries the head's roundoff.
    The scale is the one sum_to_digits takes for ``digits``, so the
    roundoff is far below 10^-digits."""
    roundoff = _roundoff_ulps(spec, K + 1)
    bits = _kernel_bits(roundoff, -digits * math.log2(10))
    head, (term,) = _kernel(spec, bits, K, 1)
    scale = Fraction(1, 1 << bits)
    return head * scale, _tail_ulps(spec, K, term, roundoff) * scale


def check_window(x, y, strict):
    """The validity window of the levels, tested on the mpf ratio x/y."""
    if y == 0:
        raise DomainError("y must be nonzero")
    ratio = x / y
    if ratio > 1 or (ratio == 1 and not strict):
        return
    floor = -3 - 2 * mp.sqrt(2)  # -(sqrt2 + 1)^2
    if ratio > floor * (1 - mpf(10) ** (5 - mp.dps)):  # roundoff at the floor
        bound = ">" if strict else ">="
        raise DomainError(
            f"x/y = {ratio} outside validity window "
            f"(needs x/y {bound} 1 or x/y <= -(sqrt2+1)^2)")


def formulas(a, x, y):
    """The level-a formula at (x, y) in mpf, unchecked: two cube roots, one
    arctangent and one logarithm.  Inside the window 2 cbrt x - cbrt y,
    x + y and the log argument (x+y)/(cbrt x + cbrt y)^3 are all nonzero,
    the last positive."""
    cx, cy = real_cbrt(x), real_cbrt(y)
    s3 = mp.sqrt(3)
    at = mp.atan(s3 * cy / (2 * cx - cy))
    lg = mp.log((x + y) / (cx + cy) ** 3)
    if a == 2:
        return 6 * at ** 2 - lg ** 2 / 2
    cxy = cx * cy
    if a == 1:
        return cxy / (x - y) * (2 * s3 * (cx + cy) * at + (cx - cy) * lg)
    cx2, cy2, cx4, cy4 = cx * cx, cy * cy, x * cx, y * cy
    return 4 * x * y / (x - y) ** 2 + cxy / 3 * (x + y) / (x - y) ** 3 * (
        2 * s3 * (2 * cxy * (cx2 + cy2) + cx4 + cy4) * at
        - (2 * cxy * (cx2 - cy2) - cx4 + cy4) * lg)


def level(a, x, y):
    """A (a = 2), B (a = 1) or C (a = 0) at the mpf pair (x, y), checked
    as closed_forms._level checks it."""
    if a < 2 and x == y:
        raise SingularInput(f"the a = {a} level is singular at x = y")
    check_window(x, y, strict=a < 2)
    return formulas(a, x, y)
