"""Exact closed-form expression trees and their JSON form.

An :class:`Expr` is a small immutable AST over integers, rationals, pi,
the golden ratio, square/cube roots, log, arctan, arithmetic and the
closed-form level ``level(a, x, y)``, the sum of z^k/(k^a C(3k,k)) at
z = 27xy/(x+y)^2.  It is every right-hand side the catalog stores:
trees serialize to nested JSON objects ``{"kind": ..., "args": [...]}``
with big integers, rationals, exponents and level exponents rendered as
decimal strings, so a catalog can be re-evaluated at any precision
without loss.  :func:`~.closed_forms.eval_expr` evaluates a tree in one
walk over fixed-point integers, rounding to an mpf once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

_UNARY_KINDS = frozenset({"sqrt", "cbrt", "log", "arctan", "neg"})
_BINARY_KINDS = frozenset({"add", "sub", "mul", "div"})


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


def level(a: int, x, y) -> Expr:
    """The level-a closed form at the pair (x, y), in either order."""
    return Expr("level", (a, _coerce(x), _coerce(y)))


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
    if kind == "level":
        a, x, y = expr.args
        return {"kind": "level", "args": [str(a), to_json(x), to_json(y)]}
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
    if kind == "level":
        if len(args) != 3:
            raise ValueError(f"level takes 3 args (a, x, y), got {len(args)}")
        if args[0] not in ("0", "1", "2"):
            raise ValueError(f"level a must be '0', '1' or '2', got {args[0]!r}")
        return level(int(args[0]), from_json(args[1]), from_json(args[2]))
    if kind in _UNARY_KINDS:
        return Expr(kind, (from_json(args[0]),))
    if kind in _BINARY_KINDS:
        return Expr(kind, (from_json(args[0]), from_json(args[1])))
    raise ValueError(f"unknown expression kind {kind!r}")
