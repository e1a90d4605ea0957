"""Exact closed-form expression trees and their JSON form.

An :class:`Expr` is a small immutable AST over integers, rationals, pi,
the golden ratio, square/cube roots, log, arctan, arithmetic and the
closed-form level ``level(a, x, y)``, the sum of z^k/(k^a C(3k,k)) at
z = 27xy/(x+y)^2.  It is every right-hand side the catalog stores:
trees serialize to nested JSON objects ``{"kind": ..., "args": [...]}``
whose numbers are decimal strings, so a catalog can be re-evaluated at
any precision without loss.  :func:`from_json` refuses a tree off the
table ``_ARGS``: a number for int and rat, none for pi and golden_ratio,
(x, n) for pow, (a, x, y) for level, one tree or two for the rest.
:func:`~.closed_forms.eval_expr` evaluates a tree in one walk over
fixed-point integers, rounding to an mpf once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction


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


def _function(kind: str):
    """The function building ``kind`` of one coerced operand."""
    def build(child) -> Expr:
        return Expr(kind, (_coerce(child),))
    build.__name__ = build.__qualname__ = kind  # so pickle finds it here
    return build


sqrt, cbrt, log, arctan = map(_function, ("sqrt", "cbrt", "log", "arctan"))


def level(a: int, x, y) -> Expr:
    """The level-a closed form at the pair (x, y), in either order."""
    return Expr("level", (a, _coerce(x), _coerce(y)))


# -- canonical JSON form ----------------------------------------------

# Each kind's arguments: x and y trees, n an integer, q a rational, a 0-2.
_ARGS = {
    "int": ("n",), "rat": ("q",), "pi": (), "golden_ratio": (),
    "pow": ("x", "n"), "level": ("a", "x", "y"),
    **dict.fromkeys(("sqrt", "cbrt", "log", "arctan", "neg"), ("x",)),
    **dict.fromkeys(("add", "sub", "mul", "div"), ("x", "y")),
}
# Each number argument's decimal string, its form in errors and its value;
# a rational's denominator has a nonzero digit.
_NUMBERS = {
    "n": (r"-?[0-9]+", "an integer string like '-12'", int),
    "q": (r"-?[0-9]+(/0*[1-9][0-9]*)?", "a rational string like '8/3'",
          Fraction),
    "a": ("[012]", "'0', '1' or '2'", int),
}


def _number(text, name: str, what: str):
    pattern, form, value = _NUMBERS[name]
    if isinstance(text, str) and re.fullmatch(pattern, text):
        return value(text)
    raise ValueError(f"{what} must be {form}, got {text!r}")


def rational_to_json(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def rational_from_json(text, what: str) -> Fraction:
    """The rational 'p' or 'p/q'; ValueError naming ``what`` otherwise."""
    return _number(text, "q", what)


def to_json(expr: Expr) -> dict:
    """Canonical nested-object form, numbers as decimal strings."""
    return {"kind": expr.kind, "args": [
        to_json(arg) if name in ("x", "y")
        else rational_to_json(arg) if name == "q" else str(arg)
        for name, arg in zip(_ARGS[expr.kind], expr.args, strict=True)]}


def from_json(obj) -> Expr:
    """The tree of a :func:`to_json` object; ValueError naming its kind."""
    if not isinstance(obj, dict):
        raise ValueError(f"an expression is a JSON object, got {obj!r}")
    kind, args = obj["kind"], obj["args"]
    if kind not in _ARGS:
        raise ValueError(f"unknown expression kind {kind!r}")
    names = _ARGS[kind]
    if not isinstance(args, list) or len(args) != len(names):
        got = len(args) if isinstance(args, list) else repr(args)
        raise ValueError(f"{kind} takes {len(names)} args "
                         f"({', '.join(names)}), got {got}")
    values = tuple(from_json(arg) if name in ("x", "y")
                   else _number(arg, name, f"{kind} {name}")
                   for name, arg in zip(names, args))
    return ratlit(*values) if kind == "rat" else Expr(kind, values)
