"""Exact closed-form expression trees and their high-precision evaluation.

An :class:`Expr` is a small immutable AST over integers, rationals, pi,
the golden ratio, square/cube roots, log, arctan and arithmetic.  It is
the exchange format for every right-hand side the catalog stores: trees
serialize to nested JSON objects ``{"kind": ..., "args": [...]}`` with
big integers and rationals rendered as decimal strings, so a catalog can
be re-evaluated at any precision without loss.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from mpmath import mp, mpf

from .errors import DomainError
from .precision import PrecisionContext, real_cbrt

_UNARY_KINDS = frozenset({"sqrt", "cbrt", "log", "arctan", "neg"})
_BINARY_KINDS = frozenset({"add", "sub", "mul", "div"})
_ARITHMETIC = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}


def _operator(kind: str, reflected: bool = False):
    """The Expr method building ``kind`` from self and a coerced operand."""
    def method(self, other):
        operands = (_coerce(other), self) if reflected else (self, _coerce(other))
        return Expr(kind, operands)
    return method


@dataclass(frozen=True)
class Expr:
    kind: str
    args: tuple = ()

    # -- constructors used throughout the catalog builder -------------
    __add__ = _operator("add")
    __radd__ = _operator("add", reflected=True)
    __sub__ = _operator("sub")
    __rsub__ = _operator("sub", reflected=True)
    __mul__ = _operator("mul")
    __rmul__ = _operator("mul", reflected=True)
    __truediv__ = _operator("div")
    __rtruediv__ = _operator("div", reflected=True)

    def __neg__(self):
        return Expr("neg", (self,))

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            raise TypeError("pow exponent must be a plain integer")
        return Expr("pow", (self, exponent))


def _coerce(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, int):
        return intlit(value)
    if isinstance(value, Fraction):
        return ratlit(value)
    raise TypeError(f"cannot use {type(value).__name__} in an expression")


def intlit(n: int) -> Expr:
    return Expr("int", (int(n),))


def ratlit(value, den: int | None = None) -> Expr:
    frac = Fraction(value, den) if den is not None else Fraction(value)
    if frac.denominator == 1:
        return intlit(frac.numerator)
    return Expr("rat", (frac,))


PI = Expr("pi")
GOLDEN = Expr("golden_ratio")


def sqrt(child) -> Expr:
    return Expr("sqrt", (_coerce(child),))


def cbrt(child) -> Expr:
    return Expr("cbrt", (_coerce(child),))


def log(child) -> Expr:
    return Expr("log", (_coerce(child),))


def arctan(child) -> Expr:
    return Expr("arctan", (_coerce(child),))


# -- evaluation --------------------------------------------------------

def eval_expr(expr: Expr, ctx: PrecisionContext) -> mpf:
    """Evaluate ``expr`` to a real number at the context's working precision.

    Raises :class:`DomainError` naming the offending subtree when a log
    argument is nonpositive, a sqrt argument negative, or a divisor zero.
    Cube roots use the sign-preserving real branch.
    """
    with ctx.workdps():
        return _eval(expr)


def _eval(expr: Expr) -> mpf:
    kind = expr.kind
    if kind == "int":
        return mpf(expr.args[0])
    if kind == "rat":
        frac = expr.args[0]
        return mpf(frac.numerator) / mpf(frac.denominator)
    if kind == "pi":
        return +mp.pi
    if kind == "golden_ratio":
        return (1 + mp.sqrt(5)) / 2
    if kind == "neg":
        return -_eval(expr.args[0])
    if kind == "sqrt":
        val = _eval(expr.args[0])
        if val < 0:
            raise DomainError(f"sqrt of negative value {val} in {to_json(expr)}")
        return mp.sqrt(val)
    if kind == "cbrt":
        return real_cbrt(_eval(expr.args[0]))
    if kind == "log":
        val = _eval(expr.args[0])
        if val <= 0:
            raise DomainError(f"log of nonpositive value {val} in {to_json(expr)}")
        return mp.log(val)
    if kind == "arctan":
        return mp.atan(_eval(expr.args[0]))
    if kind in _ARITHMETIC:
        return _ARITHMETIC[kind](_eval(expr.args[0]), _eval(expr.args[1]))
    if kind == "div":
        den = _eval(expr.args[1])
        if den == 0:
            raise DomainError(f"division by zero in {to_json(expr)}")
        return _eval(expr.args[0]) / den
    if kind == "pow":
        return _eval(expr.args[0]) ** expr.args[1]
    raise ValueError(f"unknown expression kind {kind!r}")


# -- canonical JSON form ----------------------------------------------

def to_json(expr: Expr) -> dict:
    """Canonical nested-object form, numerics as decimal strings."""
    kind = expr.kind
    if kind == "int":
        return {"kind": "int", "args": [str(expr.args[0])]}
    if kind == "rat":
        frac = expr.args[0]
        return {"kind": "rat", "args": [f"{frac.numerator}/{frac.denominator}"]}
    if kind in ("pi", "golden_ratio"):
        return {"kind": kind, "args": []}
    if kind == "pow":
        return {"kind": "pow", "args": [to_json(expr.args[0]), str(expr.args[1])]}
    return {"kind": kind, "args": [to_json(arg) for arg in expr.args]}


def from_json(obj: dict) -> Expr:
    kind = obj["kind"]
    args = obj["args"]
    if kind == "int":
        return intlit(int(args[0]))
    if kind == "rat":
        num, den = args[0].split("/")
        return ratlit(int(num), int(den))
    if kind in ("pi", "golden_ratio"):
        return Expr(kind)
    if kind == "pow":
        return Expr("pow", (from_json(args[0]), int(args[1])))
    if kind in _UNARY_KINDS:
        return Expr(kind, (from_json(args[0]),))
    if kind in _BINARY_KINDS:
        return Expr(kind, (from_json(args[0]), from_json(args[1])))
    raise ValueError(f"unknown expression kind {kind!r}")
