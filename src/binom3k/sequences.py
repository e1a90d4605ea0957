"""Exact Fibonacci, Lucas and Horadam kernels with negative-index support.

Everything here is integer arithmetic except the identity checker, which
also validates the real-valued golden-ratio identities used to derive the
series evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpf

from .errors import InvalidParams
from .precision import PrecisionContext, golden_ratio, golden_conjugate


def fib(n: int) -> int:
    """Fibonacci number, any integer index (F(-j) = (-1)^(j-1) F(j))."""
    if n < 0:
        value = fib(-n)
        return value if (-n) % 2 == 1 else -value
    return _fib_pair(n)[0]


def _fib_pair(n: int, p: int = 1, q: int = 1) -> tuple[int, int]:
    """(U(n), U(n+1)) of U(n) = p U(n-1) + q U(n-2), U(0) = 0, U(1) = 1,
    by fast doubling, n >= 0; the Fibonacci numbers at p = q = 1."""
    if n == 0:
        return 0, 1
    a, b = _fib_pair(n >> 1, p, q)
    c = a * (2 * b - p * a)
    d = b * b + q * a * a
    if n & 1:
        return d, p * d + q * c
    return c, d


def lucas(n: int) -> int:
    """Lucas number, any integer index (L(-j) = (-1)^j L(j))."""
    if n < 0:
        value = lucas(-n)
        return value if (-n) % 2 == 0 else -value
    a, b = _fib_pair(n)
    return 2 * b - a  # L(n) = F(n-1) + F(n+1) = 2 F(n+1) - F(n)


@dataclass(frozen=True)
class HoradamParams:
    """Parameters of the generalized recurrence W(n) = p W(n-1) + q W(n-2).

    The characteristic roots are (p +- sqrt(p^2 + 4q)) / 2; real distinct
    roots (p^2 + 4q > 0) are required by every closed form downstream.
    Fibonacci is (p, q, a, b) = (1, 1, 0, 1), Lucas is (1, 1, 2, 1).
    """

    p: int
    q: int
    a: int
    b: int

    def __post_init__(self):
        for name in ("p", "q", "a", "b"):
            value = getattr(self, name)
            if type(value) is not int:
                raise InvalidParams(f"Horadam {name} must be an int, got {value!r}")
        if self.p * self.p + 4 * self.q <= 0:
            raise ValueError("p^2 + 4q must be positive (real distinct roots)")

    def roots(self, ctx: PrecisionContext) -> tuple[mpf, mpf, mpf]:
        """(alpha, beta, delta) with delta = sqrt(p^2 + 4q)."""
        with ctx.workdps():
            delta = mp.sqrt(self.p * self.p + 4 * self.q)
            return (self.p + delta) / 2, (self.p - delta) / 2, delta

    def binet_coeffs(self, ctx: PrecisionContext) -> tuple[mpf, mpf, mpf]:
        """(A, B, alpha) with W(n) = (A alpha^n - B beta^n) / delta."""
        alpha, beta, _ = self.roots(ctx)
        return self.b - self.a * beta, self.b - self.a * alpha, alpha


FIBONACCI_PARAMS = HoradamParams(1, 1, 0, 1)
LUCAS_PARAMS = HoradamParams(1, 1, 2, 1)


def horadam(n: int, params: HoradamParams) -> int:
    """W(n) for n >= 0 under W(n) = p W(n-1) + q W(n-2), W(0)=a, W(1)=b,
    as (b - p a) U(n) + a U(n+1) with U from :func:`_fib_pair`."""
    if n < 0:
        raise ValueError("horadam is defined for n >= 0")
    u, u1 = _fib_pair(n, params.p, params.q)
    return (params.b - params.p * params.a) * u + params.a * u1


FL_IDENTITIES = ("F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "LEMMA1", "LEMMA2")

# identities checked exactly in integers: (lhs, rhs) builders over (n, m)
_EXACT_CHECKS = {
    "F3": lambda n, m: (fib(n) ** 2 + (-1) ** (n + m - 1) * fib(m) ** 2,
                        fib(n - m) * fib(n + m)),
    "F4": lambda n, m: (fib(n + m) + (-1) ** m * fib(n - m), lucas(m) * fib(n)),
    "F5": lambda n, m: (fib(n + m) + (-1) ** (m - 1) * fib(n - m), fib(m) * lucas(n)),
    "F6": lambda n, m: (lucas(n) * fib(m) + fib(n) * lucas(m), 2 * fib(n + m)),
    "F7": lambda n, m: (lucas(n + m) + (-1) ** m * lucas(n - m), lucas(m) * lucas(n)),
    "F8": lambda n, m: (lucas(n + m) + (-1) ** (m - 1) * lucas(n - m), 5 * fib(m) * fib(n)),
}


def check_fl_identity(ident: str, n: int, m_or_r: int = 0,
                      ctx: PrecisionContext | None = None) -> bool:
    """Check one of the auxiliary identities F1..F8 / LEMMA1 / LEMMA2.

    Integer identities (F3..F8) are verified exactly; the golden-ratio ones
    (F1, F2, LEMMA1, LEMMA2) to within 10^-target_digits relative to the
    larger side.  For F1/F2 the index is ``n`` (the role of r); for the
    lemmas ``n`` is p and ``m_or_r`` is q.  Returns False on mismatch.
    """
    if ident in _EXACT_CHECKS:
        lhs, rhs = _EXACT_CHECKS[ident](n, m_or_r)
        return lhs == rhs

    if ctx is None:
        raise ValueError(f"{ident} is a real-valued identity and needs a context")
    with ctx.workdps():
        alpha = golden_ratio(ctx)
        beta = golden_conjugate(ctx)
        if ident == "F1":
            r = n
            lhs = alpha ** (2 * r) + (-1) ** (r + 1)
            rhs = alpha ** r * fib(r) * mp.sqrt(5)
        elif ident == "F2":
            r = n
            lhs = alpha ** (2 * r) + (-1) ** r
            rhs = alpha ** r * lucas(r)
        elif ident == "LEMMA1":
            p, q = n, m_or_r
            lhs = fib(p) * alpha ** q - fib(p + q)
            rhs = -(beta ** p) * fib(q)
        elif ident == "LEMMA2":
            p, q = n, m_or_r
            lhs = fib(p + q) - beta ** q * fib(p)
            rhs = alpha ** p * fib(q)
        else:
            raise ValueError(f"unknown identity {ident!r}")
        scale = max(abs(lhs), abs(rhs), mpf(1))
        return abs(lhs - rhs) <= scale * mpf(10) ** -ctx.target_digits
