"""Decimal-precision bookkeeping and basic arbitrary-precision helpers.

All real arithmetic in this package runs on mpmath under a precision set
from a :class:`PrecisionContext`.  A context holds the digits a request
asks for (``target_digits``) and a term budget (``max_terms``) that bounds
how many terms a summation under it may use and nothing else.  It carries
``working_digits = target_digits + GUARD_DIGITS`` internally, whatever the
budget; :func:`context_for` is the one place that builds the context of a
request or refuses one that targets fewer digits than asked for.

A context's scope, :meth:`PrecisionContext.workdps`, is decided on
``mp.prec`` in bits: a caller that already holds the working precision
opens no second scope, so one verification sets the precision once.
"""

from __future__ import annotations

import functools
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import dps_to_prec

# digits carried beyond the target, absorbing the roundoff of the closed
# forms and of the final rounding of a sum
GUARD_DIGITS = 26
DEFAULT_MAX_TERMS = 10**6
# the scope of a caller that already holds the working precision
_HELD = nullcontext()


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
    def _prec(self) -> int:
        """The bits that mpmath.workdps(working_digits) sets."""
        return dps_to_prec(self.working_digits)

    def workdps(self):
        """mpmath context manager setting the working precision, and
        restoring the caller's on exit.  When ``mp.prec`` already holds
        it, it does nothing: the caller's scope is kept.  A ``mp.prec``
        one bit off keeps the same ``mp.dps`` but is not that scope."""
        if mp.prec == self._prec:
            return _HELD
        return mpmath.workdps(self.working_digits)


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


def golden_ratio(ctx: PrecisionContext) -> mpf:
    """The golden ratio (1 + sqrt(5)) / 2."""
    with ctx.workdps():
        return (1 + mp.sqrt(5)) / 2
