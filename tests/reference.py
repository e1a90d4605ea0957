"""References the summation kernel is tested against: the per-term
generator of its integers, exact rational terms and sums, mpmath's nsum of
a unit series, and a proved bracket on a whole series read from one kernel
pass."""

import math
from fractions import Fraction
from typing import Iterator

from mpmath import mp

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
