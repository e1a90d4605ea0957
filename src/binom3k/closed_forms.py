"""High-precision closed forms of the C(3k,k) series, as one model.

Batir's closed form of sum z^k/(k^2 C(3k,k)) goes through the cube-root
auxiliary phi(z).  The substitution z = 27xy/(x+y)^2 turns it into the
homogeneous two-parameter form A(x, y) (exponent a = 2); differentiating
in x lowers the exponent of k and gives B (a = 1) and C (a = 0).  Each
level is homogeneous of degree 0, so it depends on the ratio t = y/x
alone.  One evaluator, :func:`_level`, takes one cube root u = cbrt t,
one arctangent and one logarithm and does the rest of the algebra in
fixed-point integers, within 2^-prec max(1, |value|); every closed form
in this module is a choice of (x, y) fed to it.  The right column names
the identity that gives x + y: the paper's auxiliary identities F1-F8,
Lemmas 1 and 2, and Binet's formula:

============================  =====  ===============================  ======
closed form                   level  pair (x, y)                      x + y
============================  =====  ===============================  ======
batir_rhs(z)                  A      (phi(z)^3, 1)
THM1_FIB, THM4_FIB, THM6_FIB  A,B,C  Horadam pair at W = F            F1
THM1_LUC, THM4_LUC, THM6_LUC  A,B,C  Horadam pair at W = L            F2
COR2_FIB/LUC, COR5_FIB/LUC    A, B   THM1 pair of that kind at 3r     F1, F2
THM3_V1                       A      (F_n^2, (-1)^(n-m-1) F_m^2)      F3
THM3_V2 / V3                  A      (F_(n+m), +-(-1)^m F_(n-m))      F4, F5
THM3_V4                       A      (L_n F_m, L_m F_n)               F6
THM3_V5 / V6                  A      (L_(n+m), +-(-1)^m L_(n-m))      F7, F8
THM7/9/10 branch S_alpha      A/B/C  (F_p alpha^q, -F_(p+q))          LEMMA1
THM7/9/10 branch S_beta       A/B/C  (F_(p+q), -beta^q F_p)           LEMMA2
HORADAM_A2 / A1               A / B  (A alpha^2r, -B (-q)^r)          Binet
============================  =====  ===============================  ======

The sign is + for THM3_V2 and V5.  The weighted families have weight F
or L at index m = 2p + q; their two Binet branches sit at z alpha^m and
z beta^m, and the family is (S_alpha - S_beta)/sqrt5 for F, S_alpha +
S_beta for L.  For the Horadam family W_n = (A alpha^n - B beta^n) / delta
with roots alpha, beta = (p +- delta)/2, delta = sqrt(p^2 + 4q), and
Binet coefficients A = b - a beta, B = b - a alpha, so x + y = alpha^r
delta W_r.  The golden-ratio families are its pair at
the Fibonacci recurrence W = F, where A = B = 1 and the pair is
(alpha^2r, (-1)^(r-1)), and at the Lucas one W = L, where A = -B = sqrt5
and the pair is sqrt5 (alpha^2r, (-1)^r).  Each family is one row of
``_FAMILIES``.

The closed forms hold on the window x/y >= 1 (strict at a < 2) or x/y <=
-(sqrt2+1)^2, which is |z| <= 27/4 over real pairs.  A family pair with
|x| < |y| is swapped (z is symmetric); a pair with xy = 0 is z = 0 and
gives exactly 0; a pair left outside the window is a divergent series and
raises :class:`~.errors.DomainError`.

A family point's closed form is an exact :class:`~.expressions.Expr`
(:func:`theorem_expr`): the sum of c S_a(x, y) over its branches, each
S_a a ``level(a, x, y)`` node.  :func:`eval_expr` is the one evaluator of
every tree, the catalog's surd forms included, and of its level nodes.
Every evaluator returns an mpf at the context's working precision; the
matching left-hand :class:`~.series.SeriesSpec` of a family comes from
:func:`theorem_lhs_spec`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Optional, Union

from mpmath import mp, mpf
from mpmath.libmp import (from_man_exp, fzero, mpf_abs, mpf_atan, mpf_cbrt,
                          mpf_div, mpf_log, mpf_sub, round_nearest, to_fixed)

from .errors import DomainError, InvalidParams, SingularInput
from .expressions import GOLDEN, Expr, intlit, level, sqrt, to_json
from .precision import PrecisionContext, real_cbrt
from .sequences import (FIBONACCI_PARAMS, LUCAS_PARAMS, HoradamParams,
                        fib, horadam, lucas)
from .series import SeriesSpec, UNIT_WEIGHT, Weight

Realish = Union[int, float, Fraction, mpf, Expr]


def _as_mpf(value: Realish, ctx: PrecisionContext) -> mpf:
    if isinstance(value, Expr):
        return eval_expr(value, ctx)
    if isinstance(value, Fraction):
        return mpf(value.numerator) / mpf(value.denominator)
    return mpf(value)


# -- the level evaluator --------------------------------------------------

@dataclass(frozen=True)
class XYPair:
    """Arguments of the substitution z = 27xy/(x+y)^2.

    Validity window: x/y >= 1 (strict for the differentiated levels) or
    x/y <= -(sqrt(2)+1)^2; the lower boundary point itself is accepted.
    """

    x: Realish
    y: Realish

    def values(self, ctx: PrecisionContext) -> tuple[mpf, mpf]:
        with ctx.workdps():
            return _as_mpf(self.x, ctx), _as_mpf(self.y, ctx)


# Guard bits of the level evaluator's fixed point: its error stays below
# 2^(12 - W) = 2^-8 ulp of the working precision (see _level).
_GUARD_BITS = 20


def _level(a: int, x: mpf, y: mpf) -> mpf:
    """A (a = 2), B (a = 1) or C (a = 0) at (x, y) in the window.

    Every level is homogeneous of degree 0 in (x, y), so it depends only
    on the ratio t = y/x and on u = cbrt t.  At x = 1 the levels read

        at = atan(sqrt3 u / (2 - u)),   lg = log((1 + t) / (1 + u)^3),
        A  = 6 at^2 - lg^2 / 2,
        B  = u (2 sqrt3 (1 + u) at + (1 - u) lg) / (1 - t),
        C  = 4t / (1 - t)^2 + u (1 + t) (2 sqrt3 (2u (1 + u^2) + 1 + tu) at
             - (2u (1 - u^2) - 1 + tu) lg) / (3 (1 - t)^3).

    The window x/y >= 1 (strict at a < 2) or x/y <= -(sqrt2 + 1)^2 is
    t in (0, 1] or t in [-(3 - 2 sqrt2) / (1 - eps), 0), where eps =
    10^(5 - dps) absorbs the roundoff of a pair computed on the lower end.
    That end is tested in integers: s = |t| (1 - eps) lies at or below
    3 - 2 sqrt2, the smaller root of s^2 - 6s + 1, iff s < 1 and
    s^2 - 6s + 1 >= 0.

    The evaluation works in W = prec + _GUARD_BITS bit fixed point: t is
    one mpf division, u one cube root, at and lg one mpf_atan and one
    mpf_log of fixed-point arguments, and sqrt3 is isqrt(3 * 4^W).  Only
    the factor 1 - t, small near t = 1, stays in floating point as
    (x - y)/x, so B and C keep their relative accuracy there.

    Error budget, in units of 2^-W.  A floor costs 1 unit and a rounded
    mpf step one ulp of its result, at most 4 units as every such result
    is below 4 in magnitude; so t is within 2 units, u within 3 and sqrt3
    within 1.  In the window 2 - u >= 1 bounds the slope of the atan
    argument in u by 2 sqrt3 < 3.5, so at is within 16 units.  1 + u >=
    0.44 bounds the slope of lg in u by 3/0.44 < 7, 1 + t > 0.82 its
    slope in t by 1.3, and (1 + t)/(1 + u)^3 >= 1/4 its slope in that
    argument by 4, so lg is within 33.  With |at| <= pi/3 and |lg| < 2.3
    the value of A is within 2^9 units.  The numerators of B and C are
    within 2^8 and 2^9 units.  Dividing by (1 - t)^k at most doubles that
    per power where t <= 1/2; where t > 1/2 the numerators exceed 3, so
    their relative error stays below 2^7 units.  B is thus within
    2^9 max(1, |B|) units and C within 2^12 max(1, |C|).  Before its
    final rounding to prec bits every value is within 2^(12 - W) max(1,
    |value|) = 2^-8 2^-prec max(1, |value|), far inside the 26 guard
    digits.
    """
    if a < 2 and x == y:
        raise SingularInput(f"the a = {a} level is singular at x = y")
    if y == 0:
        raise DomainError("y must be nonzero")
    w = mp.prec + _GUARD_BITS
    one = 1 << w
    t = mpf_div(y._mpf_, x._mpf_, w) if x else fzero
    tf = to_fixed(t, w)
    if not t[1]:  # x = 0, or x or y is not finite
        inside = False
    elif t[0]:  # t < 0
        n = 10 ** (mp.dps - 5)  # 1/eps
        s = -tf * (n - 1) // n
        inside = s < one and s * s - 6 * s * one + one * one >= 0
    else:
        inside = tf < one or (tf == one and a == 2)
    if not inside:
        bound = ">" if a < 2 else ">="
        raise DomainError(
            f"x/y = {x / y} outside validity window "
            f"(needs x/y {bound} 1 or x/y <= -(sqrt2+1)^2)")
    u = to_fixed(mpf_cbrt(mpf_abs(t), w), w)
    if t[0]:
        u = -u
    s3 = isqrt(3 << 2 * w)
    at = to_fixed(mpf_atan(from_man_exp(s3 * u // (2 * one - u), -w), w), w)
    lg = to_fixed(mpf_log(from_man_exp(
        ((one + tf) << 3 * w) // (one + u) ** 3, -w), w), w)
    if a == 2:
        value = (6 * at * at - (lg * lg >> 1)) >> w
    else:
        # 1 - t = man 2^exp with exp < 0, as 0 < 1 - t < 2 is no integer
        _, man, exp, _ = mpf_div(mpf_sub(x._mpf_, y._mpf_, w), x._mpf_, w)
        if a == 1:
            num = u * ((2 * s3 * (one + u) >> w) * at + (one - u) * lg) >> 2 * w
            value = (num << -exp) // man
        else:
            u2, tu = u * u >> w, tf * u >> w
            c_at = (2 * u * (one + u2) >> w) + one + tu
            c_lg = (2 * u * (one - u2) >> w) - one + tu
            bracket = (2 * s3 * c_at >> w) * at - c_lg * lg
            num = (u * (one + tf) * bracket >> 3 * w) // 3
            value = ((num << -3 * exp) // man ** 3
                     + (4 * tf << -2 * exp) // man ** 2)
    return mp.make_mpf(from_man_exp(value, -w, mp.prec, round_nearest))


def _series(a: int, x, y) -> mpf:
    """Sum of z^k/(k^a C(3k,k)) at z = 27xy/(x+y)^2, the pair in either
    order; exactly 0 at z = 0."""
    x, y = mpf(x), mpf(y)
    if x * y == 0:
        return mpf(0)
    if abs(x) < abs(y):
        x, y = y, x
    return _level(a, x, y)


# -- expression trees ----------------------------------------------------

_ARITHMETIC = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}


def eval_expr(expr: Expr, ctx: PrecisionContext) -> mpf:
    """Evaluate ``expr`` to a real number at the context's working precision.

    Raises :class:`DomainError` naming the offending subtree when a log
    argument is nonpositive, a sqrt argument negative, or a divisor zero;
    a level node raises as :func:`_level` does outside its window.  Cube
    roots use the sign-preserving real branch.
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
    if kind == "level":
        a, x, y = expr.args
        return _series(a, _eval(x), _eval(y))
    raise ValueError(f"unknown expression kind {kind!r}")


def A_rhs(pair: XYPair, ctx: PrecisionContext) -> mpf:
    """Closed form of sum (27xy)^k / (k^2 (x+y)^{2k} C(3k,k))."""
    with ctx.workdps():
        return _level(2, *pair.values(ctx))


def B_rhs(pair: XYPair, ctx: PrecisionContext) -> mpf:
    """Closed form at exponent a = 1 (one x-derivative below A)."""
    with ctx.workdps():
        return _level(1, *pair.values(ctx))


def C_rhs(pair: XYPair, ctx: PrecisionContext) -> mpf:
    """Closed form at exponent a = 0 (two x-derivatives below A)."""
    with ctx.workdps():
        return _level(0, *pair.values(ctx))


# -- phi and the base closed form ---------------------------------------

def phi(z: Realish, ctx: PrecisionContext) -> mpf:
    """Cube-root auxiliary: real cbrt of (27 - 2z + 3 sqrt(81-12z)) / (2z)."""
    with ctx.workdps():
        zv = _as_mpf(z, ctx)
        if zv == 0:
            raise DomainError("phi is undefined at z = 0")
        rad = 81 - 12 * zv
        if rad < 0:
            raise DomainError(f"phi needs z <= 27/4, got z = {zv}")
        return real_cbrt((27 - 2 * zv + 3 * mp.sqrt(rad)) / (2 * zv))


def batir_rhs(z: Realish, ctx: PrecisionContext) -> mpf:
    """6 arctan^2(sqrt3/(2 phi - 1)) - log^2((phi^3+1)/(phi+1)^3) / 2,
    the a = 2 level at (phi^3, 1)."""
    with ctx.workdps():
        return _series(2, phi(z, ctx) ** 3, 1)


# -- parameterized theorem families -------------------------------------

@dataclass(frozen=True)
class TheoremParams:
    """Bound parameters of one closed-form family.

    A point sets exactly the names of its family's row in _FAMILIES:
    ``r`` for the golden-ratio families, ``r`` and ``horadam`` for the
    generalized recurrence ones, ``(n, m)`` for the six Fibonacci/Lucas
    product identities and ``(p, q)`` for the weighted families.  Other
    names raise InvalidParams here; a value out of the family's range, or
    a missing ``horadam``, raises it when the point is evaluated.
    """

    family: str
    r: Optional[int] = None
    n: Optional[int] = None
    m: Optional[int] = None
    p: Optional[int] = None
    q: Optional[int] = None
    horadam: Optional[HoradamParams] = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise InvalidParams(f"unknown family {self.family!r}")
        for name in ("r", "n", "m", "p", "q"):
            value = getattr(self, name)
            if value is not None and type(value) is not int:
                raise InvalidParams(f"{name} must be an int, got {value!r}")
        names = family_names(self.family)
        given = {name for name in ("r", "n", "m", "p", "q", "horadam")
                 if getattr(self, name) is not None}
        # a point may lack its recurrence here; the family's check refuses it
        if not set(names) - {"horadam"} <= given <= set(names):
            raise InvalidParams(
                f"{self.family} takes exactly {', '.join(names)}")

    def describe(self) -> str:
        parts = [self.family]
        for name in ("r", "n", "m", "p", "q"):
            value = getattr(self, name)
            if value is not None:
                parts.append(f"{name}={value}")
        if self.horadam is not None:
            h = self.horadam
            parts.append(f"W({h.p},{h.q},{h.a},{h.b})")
        return " ".join(parts)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InvalidParams(message)


# The three kinds of family below each return (check, branches, argument):
# check(params) raises InvalidParams outside the family's range;
# branches(params) gives the (c, x, y) whose sum of c * S_a(x, y) is the
# family's value, c = 1, 0 or an exact tree and x, y exact trees or ints,
# a branch with c = 0 left out of the tree; argument(params) is the exact
# (z, weight) of the family's series.

def _binet_parts(h: HoradamParams):
    """(alpha, A, B) as trees or ints: the root alpha = (p + delta)/2 and
    the Binet coefficients A = b - a beta, B = b - a alpha of W_n = (A
    alpha^n - B beta^n)/delta, with delta = sqrt(p^2 + 4q)."""
    delta = sqrt(h.p * h.p + 4 * h.q)
    alpha = (h.p + delta) / 2
    if not h.a:
        return alpha, h.b, h.b
    return alpha, h.b - h.a * ((h.p - delta) / 2), h.b - h.a * alpha


def _recurrence(fixed: Optional[HoradamParams] = None, scale: int = 1,
                low: int = 1, excluded: Optional[int] = None):
    """The Horadam pair (A alpha^2i, -B (-q)^i) at the index i = scale r
    of the recurrence ``fixed``, or else of the point's own, on r >= low
    with r != excluded."""
    def recurrence(params: TheoremParams):
        return fixed or params.horadam, scale * params.r

    fixed_coeffs = _binet_parts(fixed) if fixed else None

    def check(params: TheoremParams) -> None:
        fam, r = params.family, params.r
        h, i = recurrence(params)
        _require(h is not None, f"{fam} needs recurrence params")
        _require(r >= low, f"{fam} needs r >= {low}")
        _require(r != excluded, f"{fam} excludes r = {excluded} "
                                f"(27/L_{excluded}^2 exceeds the radius)")
        # F_i and L_i vanish at no index in range
        _require(fixed or horadam(i, h) != 0,
                 f"W_{i} = 0: series argument undefined")

    def branches(params: TheoremParams):
        h, i = recurrence(params)
        alpha, A, B = fixed_coeffs or _binet_parts(h)
        return ((1, A * alpha ** (2 * i), -B * (-h.q) ** i),)

    def argument(params: TheoremParams):
        h, i = recurrence(params)
        ab = h.b * h.b - h.p * h.a * h.b - h.q * h.a * h.a  # A*B exactly
        sign = 1 if i % 2 else -1  # (-1)^(i-1) as an int, also at i = 0
        z = Fraction(sign * 27 * ab * h.q ** i,
                     (h.p ** 2 + 4 * h.q) * horadam(i, h) ** 2)
        return z, UNIT_WEIGHT

    return check, branches, argument


def _product(pair, strict: bool = False, ordered: bool = False):
    """The integer pair (x, y) = pair(n, m) on n > m >= 1 (strict) or
    n >= m >= 1, an ordered family needing x > y as well."""
    def check(params: TheoremParams) -> None:
        fam, n, m = params.family, params.n, params.m
        if strict:
            _require(n > m >= 1, f"{fam} needs n > m >= 1")
        else:
            _require(n >= m >= 1, f"{fam} needs n >= m >= 1")
        if ordered:
            x, y = pair(n, m)
            _require(x > y, f"{fam} needs L_n F_m > F_n L_m (got {x} <= {y})")

    def branches(params: TheoremParams):
        return ((1, *pair(params.n, params.m)),)

    def argument(params: TheoremParams):
        x, y = pair(params.n, params.m)
        return Fraction(27 * x * y, (x + y) ** 2), UNIT_WEIGHT

    return check, branches, argument


def _binet(lucas_kind: bool):
    """The S_alpha and S_beta branches of the weight F or L at m = 2p + q,
    on p <= -2, q >= 4 and q > |p| + 1."""
    beta, inv_sqrt5 = (1 - sqrt(5)) / 2, 1 / sqrt(5)

    def check(params: TheoremParams) -> None:
        fam, p, q = params.family, params.p, params.q
        _require(p <= -2, f"{fam} needs p <= -2")
        _require(q >= 4, f"{fam} needs q >= 4")
        _require(q > abs(p) + 1, f"{fam} needs q > |p| + 1")

    def branches(params: TheoremParams):
        p, q = params.p, params.q
        if lucas_kind:
            c = 1
        else:  # at 2p + q = 0 every term has the weight F(0) = 0
            c = inv_sqrt5 if 2 * p + q else 0
        return ((c, fib(p) * GOLDEN ** q, -fib(p + q)),
                (c if lucas_kind else -c, fib(p + q), -beta ** q * fib(p)))

    def argument(params: TheoremParams):
        p, q = params.p, params.q
        z = Fraction(-27 * fib(p) * fib(p + q), fib(q) ** 2)
        return z, Weight("lucas" if lucas_kind else "fib", 2 * p + q)

    return check, branches, argument


_R, _NM, _PQ = ("r",), ("n", "m"), ("p", "q")

# family -> (level a, names a point assigns, check, branches, argument)
_FAMILIES = {
    "THM1_FIB": (2, _R, *_recurrence(FIBONACCI_PARAMS)),
    "THM1_LUC": (2, _R, *_recurrence(LUCAS_PARAMS, low=0, excluded=1)),
    "COR2_FIB": (2, _R, *_recurrence(FIBONACCI_PARAMS, scale=3)),
    "COR2_LUC": (2, _R, *_recurrence(LUCAS_PARAMS, scale=3, low=0)),
    "THM3_V1": (2, _NM, *_product(
        lambda n, m: (fib(n) ** 2, (-1) ** (n - m - 1) * fib(m) ** 2),
        strict=True)),
    "THM3_V2": (2, _NM, *_product(
        lambda n, m: (fib(n + m), (-1) ** m * fib(n - m)))),
    "THM3_V3": (2, _NM, *_product(
        lambda n, m: (fib(n + m), (-1) ** (m - 1) * fib(n - m)))),
    "THM3_V4": (2, _NM, *_product(
        lambda n, m: (lucas(n) * fib(m), lucas(m) * fib(n)), ordered=True)),
    "THM3_V5": (2, _NM, *_product(
        lambda n, m: (lucas(n + m), (-1) ** m * lucas(n - m)))),
    "THM3_V6": (2, _NM, *_product(
        lambda n, m: (lucas(n + m), (-1) ** (m - 1) * lucas(n - m)))),
    "THM4_FIB": (1, _R, *_recurrence(FIBONACCI_PARAMS)),
    "THM4_LUC": (1, _R, *_recurrence(LUCAS_PARAMS)),
    "COR5_FIB": (1, _R, *_recurrence(FIBONACCI_PARAMS, scale=3)),
    "COR5_LUC": (1, _R, *_recurrence(LUCAS_PARAMS, scale=3)),
    "THM6_FIB": (0, _R, *_recurrence(FIBONACCI_PARAMS)),
    "THM6_LUC": (0, _R, *_recurrence(LUCAS_PARAMS)),
    "THM7_FIB": (2, _PQ, *_binet(False)), "THM7_LUC": (2, _PQ, *_binet(True)),
    "THM9_FIB": (1, _PQ, *_binet(False)), "THM9_LUC": (1, _PQ, *_binet(True)),
    "THM10_FIB": (0, _PQ, *_binet(False)),
    "THM10_LUC": (0, _PQ, *_binet(True)),
    "HORADAM_A2": (2, ("r", "horadam"), *_recurrence()),
    "HORADAM_A1": (1, ("r", "horadam"), *_recurrence()),
}

FAMILIES = tuple(_FAMILIES)


def family_names(family: str) -> tuple[str, ...]:
    """The parameter names every point of ``family`` assigns."""
    return _FAMILIES[family][1]


def theorem_expr(params: TheoremParams) -> Expr:
    """The exact closed form of the family's series (sum of z^k w(k) /
    (k^a C(3k,k))) at the point: c S_alpha + (-c) S_beta for two branches,
    S for one (c = 1), each S a level node; the tree 0 when no branch is
    left.  Raises InvalidParams when the family's constraints fail."""
    a, _, check, branches, _ = _FAMILIES[params.family]
    check(params)
    # a tree c equals neither 1 nor 0
    terms = [level(a, x, y) if c == 1 else c * level(a, x, y)
             for c, x, y in branches(params) if c != 0]
    return sum(terms[1:], terms[0]) if terms else intlit(0)


def theorem_rhs(params: TheoremParams, ctx: PrecisionContext) -> mpf:
    """Value of the family's series, the tree of :func:`theorem_expr`.

    Raises InvalidParams when the family's constraints fail, and
    DomainError at a point whose series diverges (|z| > 27/4, or beyond
    the weighted radius); such points have no value, not even a formal
    one.
    """
    return eval_expr(theorem_expr(params), ctx)


def theorem_lhs_spec(params: TheoremParams) -> SeriesSpec:
    """The SeriesSpec whose sum theorem_rhs evaluates in closed form."""
    a, _, check, _, argument = _FAMILIES[params.family]
    check(params)
    z, weight = argument(params)
    return SeriesSpec(z, a, weight, params.describe())
