"""Decimal-precision bookkeeping and basic arbitrary-precision helpers.

All real arithmetic in this package runs on mpmath under a precision set
from a :class:`PrecisionContext`.  The context separates what the caller
wants (``target_digits``) from what the computation carries internally
(``working_digits``), with guard digits absorbing roundoff and an extra
budget of ``ceil(log10(max_expected_terms))`` digits absorbing the
accumulation error of long summations.  ``max_terms`` is the term budget
a summation under the context may use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
from mpmath import mp, mpf

DEFAULT_GUARD_DIGITS = 10
DEFAULT_MAX_TERMS = 10**6


@dataclass(frozen=True)
class PrecisionContext:
    target_digits: int
    guard_digits: int = DEFAULT_GUARD_DIGITS
    working_digits: int = 0
    max_terms: int = DEFAULT_MAX_TERMS

    def __post_init__(self):
        if self.target_digits < 1:
            raise ValueError("target_digits must be >= 1")
        if self.working_digits < self.target_digits + self.guard_digits:
            raise ValueError("working_digits must be >= target_digits + guard_digits")
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")

    def workdps(self):
        """mpmath context manager setting the working precision."""
        return mpmath.workdps(self.working_digits)

    @property
    def target_eps(self) -> mpf:
        return mpf(10) ** (-self.target_digits)


def make_context(target_digits: int, max_expected_terms: int = DEFAULT_MAX_TERMS,
                 guard_digits: int = DEFAULT_GUARD_DIGITS) -> PrecisionContext:
    """Build a context whose working precision covers a summation of up to
    ``max_expected_terms`` terms at ``target_digits`` requested digits."""
    if target_digits < 1:
        raise ValueError("target_digits must be >= 1")
    if max_expected_terms < 1:
        raise ValueError("max_expected_terms must be >= 1")
    extra = math.ceil(math.log10(max_expected_terms)) if max_expected_terms > 1 else 0
    working = target_digits + guard_digits + extra
    return PrecisionContext(target_digits, guard_digits, working, max_expected_terms)


def max_terms(ctx: PrecisionContext) -> int:
    """Term budget the context was built for."""
    return ctx.max_terms


def real_cbrt(x) -> mpf:
    """Sign-preserving real cube root: real_cbrt(-x) == -real_cbrt(x)."""
    x = mpf(x)
    if x < 0:
        return -mp.root(-x, 3)
    return mp.root(x, 3)


def golden_ratio(ctx: PrecisionContext) -> mpf:
    """The golden ratio (1 + sqrt(5)) / 2."""
    with ctx.workdps():
        return (1 + mp.sqrt(5)) / 2


def golden_conjugate(ctx: PrecisionContext) -> mpf:
    """The conjugate root (1 - sqrt(5)) / 2."""
    with ctx.workdps():
        return (1 - mp.sqrt(5)) / 2
