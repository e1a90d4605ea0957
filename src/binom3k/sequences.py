"""Exact Fibonacci, Lucas and Horadam kernels with negative-index support,
all in integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidParams


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


FIBONACCI_PARAMS = HoradamParams(1, 1, 0, 1)
LUCAS_PARAMS = HoradamParams(1, 1, 2, 1)


def horadam(n: int, params: HoradamParams) -> int:
    """W(n) for n >= 0 under W(n) = p W(n-1) + q W(n-2), W(0)=a, W(1)=b,
    as (b - p a) U(n) + a U(n+1) with U from :func:`_fib_pair`."""
    if n < 0:
        raise ValueError("horadam is defined for n >= 0")
    u, u1 = _fib_pair(n, params.p, params.q)
    return (params.b - params.p * params.a) * u + params.a * u1
