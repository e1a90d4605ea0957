"""Decimal-precision bookkeeping and basic arbitrary-precision helpers.

A :class:`PrecisionContext` holds the digits a request asks for
(``target_digits``) and a term budget (``max_terms``) that bounds how many
terms a summation under it may use and nothing else.  It carries
``working_digits = target_digits + GUARD_DIGITS`` internally, whatever the
budget, and their bits ``prec``; :func:`context_for` is the one place that
builds the context of a request or refuses one that targets fewer digits
than asked for.

The package passes ``prec`` as a value: the sums, the closed forms and
the verifier round every mpf they build to it through mpmath's raw
``libmp`` functions (:func:`_unscale`), and no code of the package reads,
sets or computes under mpmath's global precision.  Only the benchmark and
the tests do; the context's scope method below is kept for them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from mpmath import mp, mpf
from mpmath.libmp import dps_to_prec, from_man_exp, round_nearest

# digits carried beyond the target, absorbing the roundoff of the closed
# forms and of the final rounding of a sum
GUARD_DIGITS = 26
DEFAULT_MAX_TERMS = 10**6


@dataclass(frozen=True)
class PrecisionContext:
    target_digits: int
    max_terms: int = DEFAULT_MAX_TERMS

    def __post_init__(self):
        if self.target_digits < 1:
            raise ValueError("target_digits must be >= 1")
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")

    @property
    def working_digits(self) -> int:
        return self.target_digits + GUARD_DIGITS

    @functools.cached_property
    def prec(self) -> int:
        """The working precision in bits, dps_to_prec(working_digits);
        prec_to_dps(prec) is working_digits again."""
        return dps_to_prec(self.working_digits)

    def workdps(self):
        """mpmath context manager setting the global working precision,
        and restoring the caller's on exit; for the benchmark and tests."""
        return mp.workdps(self.working_digits)


def make_context(target_digits: int,
                 max_terms: int = DEFAULT_MAX_TERMS) -> PrecisionContext:
    """A context for ``target_digits`` digits and up to ``max_terms`` terms."""
    return PrecisionContext(target_digits, max_terms)


def context_for(digits: int,
                ctx: Optional[PrecisionContext] = None) -> PrecisionContext:
    """The context of a request for ``digits`` digits: ``ctx``, or a default
    one when it is None.  ValueError when ``ctx`` targets fewer digits."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    if ctx is None:
        return make_context(digits)
    if ctx.target_digits < digits:
        raise ValueError(f"context targets {ctx.target_digits} digits, "
                         f"fewer than the {digits} requested")
    return ctx


def _unscale(n: int, bits: int, prec: int) -> mpf:
    """The fixed-point integer n, standing for n 2^-bits, rounded to prec."""
    return mp.make_mpf(from_man_exp(n, -bits, prec, round_nearest))
