"""High-precision closed forms of the C(3k,k) series, as one model.

Batir's closed form of sum z^k/(k^2 C(3k,k)) goes through the cube-root
auxiliary phi(z).  The substitution z = 27xy/(x+y)^2 turns it into the
homogeneous two-parameter form A(x, y) (exponent a = 2); differentiating
in x lowers the exponent of k and gives B (a = 1) and C (a = 0).  Each
level is homogeneous of degree 0, so it depends on the ratio t = y/x
alone.  One core, :func:`_level`, takes one cube root u = cbrt t, one
arctangent and one logarithm and does the rest of the algebra in
fixed-point integers; every closed form in this module is a choice of
(x, y) fed to it.  The right column names
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
(:func:`theorem_point`): the sum of c S_a(x, y) over its branches, each
S_a a ``level(a, x, y)`` node.  :func:`eval_expr` is the one evaluator of
every tree, the catalog's surd forms included.  It walks the tree once
over integers v that stand for v 2^-W, W = prec + 20 bits at the working
precision prec: ``int`` and ``rat`` leaves exact up to a floor, + - x /
and integer powers on integers, sqrt by ``isqrt``, cbrt, log, arctan and
pi through mpmath's raw ``mpf_*`` functions at W bits, and each level
node's integers (x, y) into :func:`_level` at the same W, which reads
only their ratio.  The result is rounded to an mpf once.  Each cube
root, arctangent and logarithm, of a node or of a level, is computed
once per exact argument and W (:func:`_fixed`) and read back after
that: within one call of eval_expr, and within one process's part of
:func:`~.verifier.verify_all`, whose records share one memo, so that a
record reads back what an earlier one computed, at no cost to its own
time.  :func:`phi`, :func:`batir_rhs` and the closed side of
:func:`~.verifier.differential_check` convert their inputs once and go
the same way: a level node is the one evaluator of a level.  The
context's working precision ``prec`` travels as a value: every mpf built
here, an input's conversion included, is rounded to it by mpmath's raw
``libmp`` functions, and every value named in a DomainError is printed
at its working digits.  Nothing here reads or sets mpmath's global
precision.

Error bound.  Each step of the walk errs by at most one unit of 2^-W
times max(1, |result|) (a floor, or one mpmath rounding; a power one per
product of its binary powering), plus what it passes on of its operands'
errors: their sum for + and -, the errors scaled by the other factor for
x, by 1/|den| for /, by n |x|^(n-1) for x^n, by the derivative for a
root, log or arctan, and by about 10/|x| at a level node whose larger
coordinate is x, whose core adds 2^12 max(1, |value|) units.  Such a
factor exceeds 2^12 only where a divisor, a root or log argument, a
level's larger coordinate, or a factor of a product whose other factor
lies above 2^12 in magnitude (the same 2^12 at every W), lies below
2^-12 in magnitude, or where a power's exponent exceeds 2^12 (a negative
power is the power of the reciprocal, a division).  A walk that meets
one starts again with W wider by the bits that value lacks, so that the
factor stays below 2^12 at the first W, or twice as wide where the value
reads 0.  It widens up to the cap W + 12 + min(2 B, 2^20), B the bits of
the tree's int and rat leaves (a power's base counted |n| times): a
nonzero value of a tree of such leaves, + - x / and integer powers lies
above 2^-B, and the second B covers what its large intermediate values
pass on of the floors.  At the cap a value that reads 0 is taken as an
exact 0, which it is in such a tree, so a divisor there is a division by
zero, as a log argument <= 0 or a sqrt argument < 0 raises; a value
still too small but not 0 raises DomainError ("precision lost").  A
power beyond 2^(2^20) in magnitude, which the walk would hold as an
integer of that many bits, raises DomainError too.  Before its rounding
every catalog record and sweep-grid point is within 2^(8 - W)
max(1, |v|) (at most 24 units, measured at 25, 100 and 1000 digits), so
the mpf result is within 2^(1 - prec) max(1, |v|): the bound is absolute
below 1, as is every sum of :mod:`.series`.  That bound is measured, on
the catalog, the sweep grid and the difference quotients of
``check-derivatives`` (x/y up to +-10^300), not proved for every tree.
The rules above read an operand's error in units of 2^-W, and a
difference that cancels and is then divided by a small value carries
more: at 30 digits 10^40 ((sqrt(2 + 10^-60) - sqrt 2) / 10^-40) is
3.5e12 times the bound off (a FOUND line of CHANGES.md); only an error
radius bounds that.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Optional, Union

from mpmath import mp, mpf
from mpmath.libmp import (from_int, from_man_exp, mpf_atan, mpf_cbrt,
                          mpf_div, mpf_log, phi_fixed, pi_fixed, prec_to_dps,
                          round_nearest, to_fixed, to_rational, to_str)

from .errors import DomainError, InvalidParams, SingularInput
from .expressions import (GOLDEN, Expr, cbrt, intlit, level, ratlit, sqrt,
                          to_json)
from .precision import PrecisionContext, _unscale
from .sequences import (FIBONACCI_PARAMS, LUCAS_PARAMS, HoradamParams,
                        fib, horadam, lucas)
from .series import SeriesSpec, UNIT_WEIGHT, Weight

Realish = Union[int, float, Fraction, mpf, Expr]


def _as_mpf(value: Realish, ctx: PrecisionContext) -> mpf:
    """``value`` rounded to the working precision; a Fraction as the
    rounded quotient of its rounded numerator and denominator."""
    if isinstance(value, Expr):
        return eval_expr(value, ctx)
    prec = ctx.prec
    if isinstance(value, Fraction):
        return mp.make_mpf(mpf_div(
            from_int(value.numerator, prec, round_nearest),
            from_int(value.denominator, prec, round_nearest),
            prec, round_nearest))
    return mpf(value, prec=prec, rounding=round_nearest)


def _str(value: mpf, prec: int) -> str:
    """``value`` as str prints it at the working digits of prec bits."""
    return to_str(value._mpf_, prec_to_dps(prec))


# -- the level core -------------------------------------------------------

@dataclass(frozen=True)
class XYPair:
    """Arguments of the substitution z = 27xy/(x+y)^2, read as given by
    :func:`~.verifier.differential_check`, the one reader of a pair.

    Validity window: x/y >= 1 (strict for the differentiated levels) or
    x/y <= -(sqrt(2)+1)^2; the lower boundary point itself is accepted.
    Read as given, a pair with |x| < |y| or y = 0 is refused, where a
    level node would swap the first into the window and give 0 at the
    second.
    """

    x: Realish
    y: Realish

    def values(self, ctx: PrecisionContext) -> tuple[mpf, mpf]:
        return _as_mpf(self.x, ctx), _as_mpf(self.y, ctx)


# Guard bits of every fixed-point evaluation: W = prec + _GUARD_BITS, and
# the errors stay below 2^(12 - W) = 2^-8 ulp of the working precision.
_GUARD_BITS = 20


def _outside(a: int, x: tuple, y: tuple, prec: int) -> DomainError:
    """The error of the raw mpf pair (x, y), their ratio rounded to prec
    bits."""
    bound = ">" if a < 2 else ">="
    ratio = _str(mp.make_mpf(mpf_div(x, y, prec, round_nearest)), prec)
    return DomainError(f"x/y = {ratio} outside validity window "
                       f"(needs x/y {bound} 1 or x/y <= -(sqrt2+1)^2)")


def _fixed(fn, man: int, exp: int, w: int, memo: dict) -> int:
    """fn(man 2^exp) at w bits as a fixed-point integer, fn one of
    mpf_cbrt, mpf_atan and mpf_log: computed once per argument and w, and
    read back from ``memo`` after that.  The key is fn, the argument's
    normalised raw mpf and w, so it holds no Expr, which hashes by
    recursion; the same value at a wider w is computed again."""
    arg = from_man_exp(man, exp)
    key = (fn, arg, w)
    value = memo.get(key)
    if value is None:
        value = memo[key] = to_fixed(fn(arg, w), w)
    return value


def _level(a: int, x: int, y: int, w: int, prec: int, memo: dict) -> int:
    """A (a = 2), B (a = 1) or C (a = 0) at the integer pair (x, y), any
    common scale, in the window: the value times 2^w, floored.  The working
    precision prec sets the window's eps and the error's digits.

    Every level is homogeneous of degree 0 in (x, y), so it depends only
    on the ratio t = y/x and on u = cbrt t.  At x = 1 the levels read

        at = atan(sqrt3 u / (2 - u)),   lg = log((1 + t) / (1 + u)^3),
        A  = 6 at^2 - lg^2 / 2,
        B  = u (2 sqrt3 (1 + u) at + (1 - u) lg) / (1 - t),
        C  = 4t / (1 - t)^2 + u (1 + t) (2 sqrt3 (2u (1 + u^2) + 1 + tu) at
             - (2u (1 - u^2) - 1 + tu) lg) / (3 (1 - t)^3).

    The window x/y >= 1 (strict at a < 2) or x/y <= -(sqrt2 + 1)^2 is
    t in (0, 1] or t in [-(3 - 2 sqrt2) / (1 - eps), 0), where eps =
    10^(5 - dps) at the working digits dps absorbs the roundoff of a pair
    computed on the lower end.  That end is tested in integers: s = |t|
    (1 - eps) lies at or below 3 - 2 sqrt2, the smaller root of s^2 - 6s +
    1, iff s < 1 and s^2 - 6s + 1 >= 0.

    The evaluation works in w-bit fixed point: t is one floor division
    of the integers, u one cube root of |t| read to w significant bits, at
    and lg one mpf_atan and one mpf_log of fixed-point arguments, each
    read back from ``memo`` where an earlier call computed it at the same
    argument and w (:func:`_fixed`), and sqrt3 is isqrt(3 * 4^w).  The
    factor 1 - t, small near t = 1, is the exact (x - y)/x, and B and C
    divide by its powers in integers, so they keep their relative
    accuracy there.

    Error budget, in units of 2^-w.  A floor costs 1 unit and a rounded
    mpf step one ulp of its result, at most 4 units as every such result
    is below 4 in magnitude; so t is within 1 unit, u within 3 and sqrt3
    within 1.  In the window 2 - u >= 1 bounds the slope of the atan
    argument in u by 2 sqrt3 < 3.5, so at is within 16 units.  1 + u >=
    0.44 bounds the slope of lg in u by 3/0.44 < 7, 1 + t > 0.82 its
    slope in t by 1.3, and (1 + t)/(1 + u)^3 >= 1/4 its slope in that
    argument by 4, so lg is within 33.  With |at| <= pi/3 and |lg| < 2.3
    the value of A is within 2^9 units.  The numerators of B and C are
    within 2^8 and 2^9 units.  Dividing by (1 - t)^k at most doubles that
    per power where t <= 1/2; where t > 1/2 the numerators exceed 3, so
    their relative error stays below 2^7 units.  B is thus within
    2^9 max(1, |B|) units and C within 2^12 max(1, |C|): every value is
    within 2^(12 - w) max(1, |value|).
    """
    if a < 2 and x == y:
        raise SingularInput(f"the a = {a} level is singular at x = y")
    if y == 0:
        raise DomainError("y must be nonzero")
    one = 1 << w
    tf = (y << w) // x if x else 0
    if not x:
        inside = False
    elif tf < 0:
        n = 10 ** (prec_to_dps(prec) - 5)  # 1/eps
        s = -tf * (n - 1) // n
        inside = s < one and s * s - 6 * s * one + one * one >= 0
    else:
        inside = tf < one or (tf == one and a == 2)
    if not inside:
        raise _outside(a, from_int(x, prec, round_nearest),
                       from_int(y, prec, round_nearest), prec)
    shift = w + abs(x).bit_length() - abs(y).bit_length()  # >= w - 1
    u = _fixed(mpf_cbrt, (abs(y) << shift) // abs(x), -shift, w, memo)
    if tf < 0:
        u = -u
    s3 = isqrt(3 << 2 * w)
    at = _fixed(mpf_atan, s3 * u // (2 * one - u), -w, w, memo)
    lg = _fixed(mpf_log, ((one + tf) << 3 * w) // (one + u) ** 3, -w, w, memo)
    if a == 2:
        return (6 * at * at - (lg * lg >> 1)) >> w
    if a == 1:
        num = u * ((2 * s3 * (one + u) >> w) * at + (one - u) * lg) >> 2 * w
        return num * x // (x - y)
    u2, tu = u * u >> w, tf * u >> w
    c_at = (2 * u * (one + u2) >> w) + one + tu
    c_lg = (2 * u * (one - u2) >> w) - one + tu
    bracket = (2 * s3 * c_at >> w) * at - c_lg * lg
    num = (u * (one + tf) * bracket >> 3 * w) // 3
    return num * x ** 3 // (x - y) ** 3 + (4 * x * y << w) // (x - y) ** 2


# -- expression trees ----------------------------------------------------

# A value below 2^-_SMALL_BITS that the walk divides by, roots, takes the
# log of, multiplies a factor above 2^_SMALL_BITS by, or takes as a level's
# larger coordinate, or a power's exponent above 2^_SMALL_BITS, costs the
# walk more than that many of its guard bits.
_SMALL_BITS = 12
# a power whose magnitude would pass 2^_MAX_BITS is refused, as the walk
# would hold it as an integer of that many bits; no walk widens by more
_MAX_BITS = 1 << 20


class _Wider(Exception):
    """A walk met a value too small for its W; args[0] more bits suffice,
    or are the next doubling of W where the value read 0."""


def _lost(node: Expr, w: int) -> DomainError:
    return DomainError(f"precision lost: {to_json(node)} needs more than "
                       f"{w} bits")


def _need(value: int, w: int, low: int, last: bool, node: Expr) -> None:
    """Pass the integer ``value`` at scale 2^w if it has ``low`` bits;
    else raise _Wider with the bits it lacks and _SMALL_BITS to spare, or
    w where it reads 0.  On the last walk a value that reads 0 passes as
    an exact 0 and any other raises DomainError."""
    bits = value.bit_length()
    if bits >= low or (last and not bits):
        return
    if last:
        raise _lost(node, w)
    raise _Wider(low - bits + _SMALL_BITS if bits else w)


def _size(expr: Expr) -> int:
    """The bits of the tree's int and rat leaves, a power's base counted
    |n| times and every other node as one bit.  A tree of int and rat
    leaves, + - x / and integer powers whose value is not 0 lies above
    2^-size in magnitude, as its denominator divides the product of its
    leaves' numerators and denominators."""
    kind, args = expr.kind, expr.args
    if kind == "int":
        return args[0].bit_length() + 1
    if kind == "rat":
        return args[0].numerator.bit_length() + args[0].denominator.bit_length()
    size = sum(_size(arg) for arg in args if isinstance(arg, Expr))
    return abs(args[1]) * size if kind == "pow" else size + 1


def eval_expr(expr: Expr, ctx: PrecisionContext) -> mpf:
    """Evaluate ``expr`` to a real number at the context's working precision.

    Raises :class:`DomainError` naming the offending subtree when a log
    argument is nonpositive, a sqrt argument negative, or a divisor zero,
    or when a value the walk must read to relative accuracy is still too
    small at the widest W the tree allows, and unnamed when the tree is too
    deep to recurse; a level node raises as :func:`_level` does outside its
    window.  Cube roots use the sign-preserving real branch.
    """
    return _evaluate(expr, ctx, {})


def _evaluate(expr: Expr, ctx: PrecisionContext, memo: dict) -> mpf:
    """eval_expr, reading back from ``memo`` every cube root, arctangent
    and logarithm that an earlier walk computed at the same argument and
    W, and storing there each one it computes (see _fixed)."""
    prec = ctx.prec
    w = prec + _GUARD_BITS
    low, cap = w - _SMALL_BITS, None  # the bits of 2^-_SMALL_BITS at w
    try:
        while True:
            try:
                return _unscale(_walk(expr, w, low, w == cap, prec, memo),
                                w, prec)
            except _Wider as wider:
                if cap is None:
                    cap = w + _SMALL_BITS + min(2 * _size(expr), _MAX_BITS)
                w = min(cap, w + wider.args[0])
    except RecursionError:  # not printed: to_json recurses too
        raise DomainError("expression tree nested deeper than the walk can "
                          "follow") from None


def _walk(expr: Expr, w: int, low: int, last: bool, prec: int,
          memo: dict) -> int:
    """The value of ``expr`` times 2^w, as an integer; _Wider when a
    sensitive value has fewer than ``low`` bits, and on the ``last`` walk
    an exact 0 or DomainError there (see the module docstring).  prec is
    the working precision, for the level nodes and the errors."""
    kind, args = expr.kind, expr.args
    if kind == "int":
        return args[0] << w
    if kind == "mul":
        x = _walk(args[0], w, low, last, prec, memo)
        y = _walk(args[1], w, low, last, prec, memo)
        if abs(x) < abs(y):
            x, y = y, x
        if x.bit_length() > w + _SMALL_BITS:  # |x| above 2^_SMALL_BITS
            _need(y, w, low, last, expr)
        return x * y >> w
    if kind == "add":
        return (_walk(args[0], w, low, last, prec, memo)
                + _walk(args[1], w, low, last, prec, memo))
    if kind == "sub":
        return (_walk(args[0], w, low, last, prec, memo)
                - _walk(args[1], w, low, last, prec, memo))
    if kind == "rat":
        frac = args[0]
        return (frac.numerator << w) // frac.denominator
    if kind == "div":
        den = _walk(args[1], w, low, last, prec, memo)
        _need(den, w, low, last, expr)
        if den == 0:
            raise DomainError(f"division by zero in {to_json(expr)}")
        return (_walk(args[0], w, low, last, prec, memo) << w) // den
    if kind == "pow":
        base, n = _walk(args[0], w, low, last, prec, memo), args[1]
        if n < 0:  # the power of the reciprocal
            _need(base, w, low, last, expr)
            if base == 0:
                raise DomainError(f"division by zero in {to_json(expr)}")
            base, n = (1 << 2 * w) // base, -n
        # |base| < 2^(bits - w)
        if n * (base.bit_length() - w) > _MAX_BITS:
            raise DomainError(f"power too large in {to_json(expr)}")
        # the power multiplies the base's relative error by n
        if n.bit_length() > w - low and not last:
            raise _Wider(n.bit_length() - w + low)
        power = 1 << w
        while n:  # binary powering, every product floored to scale 2^w
            if n & 1:
                power = power * base >> w
            n >>= 1
            if n:
                base = base * base >> w
        return power
    if kind == "level":
        x = _walk(args[1], w, low, last, prec, memo)
        y = _walk(args[2], w, low, last, prec, memo)
        if abs(x) < abs(y):
            x, y = y, x
        _need(x, w, low, last, expr)
        return _level(args[0], x, y, w, prec, memo) if y else 0
    if kind == "neg":
        return -_walk(args[0], w, low, last, prec, memo)
    if kind == "sqrt":
        val = _walk(args[0], w, low, last, prec, memo)
        _need(val, w, low, last, expr)
        if val < 0:
            raise DomainError(f"sqrt of negative value "
                              f"{_str(_unscale(val, w, prec), prec)} "
                              f"in {to_json(expr)}")
        return isqrt(val << w)
    if kind == "cbrt":
        val = _walk(args[0], w, low, last, prec, memo)
        _need(val, w, low, last, expr)
        root = _fixed(mpf_cbrt, abs(val), -w, w, memo)
        return -root if val < 0 else root
    if kind == "log":
        val = _walk(args[0], w, low, last, prec, memo)
        _need(val, w, low, last, expr)
        if val <= 0:
            raise DomainError(f"log of nonpositive value "
                              f"{_str(_unscale(val, w, prec), prec)} "
                              f"in {to_json(expr)}")
        return _fixed(mpf_log, val, -w, w, memo)
    if kind == "arctan":
        return _fixed(mpf_atan, _walk(args[0], w, low, last, prec, memo),
                      -w, w, memo)
    if kind == "pi":
        return pi_fixed(w)
    if kind == "golden_ratio":
        return phi_fixed(w)
    raise ValueError(f"unknown expression kind {kind!r}")


# -- phi and the base closed form ---------------------------------------

def _phi_expr(z: Realish, ctx: PrecisionContext) -> Expr:
    """The tree of phi(z) at z read once as an exact rational: a tree
    evaluated, an mpf or float taken at its binary value."""
    zv = _as_mpf(z, ctx)
    if not mp.isfinite(zv):
        raise DomainError(f"phi needs a finite z, got z = "
                          f"{_str(zv, ctx.prec)}")
    q = (Fraction(z) if isinstance(z, (int, Fraction))
         else Fraction(*to_rational(zv._mpf_)))
    if q == 0:
        raise DomainError("phi is undefined at z = 0")
    if 81 - 12 * q < 0:
        raise DomainError(f"phi needs z <= 27/4, got z = "
                          f"{_str(zv, ctx.prec)}")
    return cbrt((ratlit(27 - 2 * q) + 3 * sqrt(ratlit(81 - 12 * q)))
                / ratlit(2 * q))


def phi(z: Realish, ctx: PrecisionContext) -> mpf:
    """Cube-root auxiliary: real cbrt of (27 - 2z + 3 sqrt(81-12z)) / (2z)."""
    return eval_expr(_phi_expr(z, ctx), ctx)


def batir_rhs(z: Realish, ctx: PrecisionContext) -> mpf:
    """6 arctan^2(sqrt3/(2 phi - 1)) - log^2((phi^3+1)/(phi+1)^3) / 2,
    the a = 2 level at (phi^3, 1)."""
    return eval_expr(level(2, _phi_expr(z, ctx) ** 3, 1), ctx)


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
        # a point may lack its recurrence here; its point builder refuses it
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


# Each kind of family below returns one point builder: point(params) raises
# InvalidParams outside the family's range, else gives the exact (z, weight)
# of the point's series and the branches (c, x, y) whose sum of c * S_a(x, y)
# is its value, c = 1, 0 or an exact tree and x, y exact trees or ints, a
# branch with c = 0 left out of the tree.

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
    fixed_coeffs = _binet_parts(fixed) if fixed else None

    def point(params: TheoremParams):
        fam, r, h = params.family, params.r, fixed or params.horadam
        _require(h is not None, f"{fam} needs recurrence params")
        _require(r >= low, f"{fam} needs r >= {low}")
        _require(r != excluded, f"{fam} excludes r = {excluded} "
                                f"(27/L_{excluded}^2 exceeds the radius)")
        i = scale * r
        w = horadam(i, h)
        # only a point's own W_i can vanish: F_i and L_i do at no i in range
        _require(w != 0, f"W_{i} = 0: series argument undefined")
        ab = h.b * h.b - h.p * h.a * h.b - h.q * h.a * h.a  # A*B exactly
        sign = 1 if i % 2 else -1  # (-1)^(i-1) as an int, also at i = 0
        z = Fraction(sign * 27 * ab * h.q ** i, (h.p ** 2 + 4 * h.q) * w ** 2)
        alpha, A, B = fixed_coeffs or _binet_parts(h)
        return z, UNIT_WEIGHT, ((1, A * alpha ** (2 * i), -B * (-h.q) ** i),)

    return point


def _product(pair, strict: bool = False, ordered: bool = False):
    """The integer pair (x, y) = pair(n, m) on n > m >= 1 (strict) or
    n >= m >= 1, an ordered family needing x > y as well."""
    def point(params: TheoremParams):
        fam, n, m = params.family, params.n, params.m
        if strict:
            _require(n > m >= 1, f"{fam} needs n > m >= 1")
        else:
            _require(n >= m >= 1, f"{fam} needs n >= m >= 1")
        x, y = pair(n, m)
        if ordered:
            _require(x > y, f"{fam} needs L_n F_m > F_n L_m (got {x} <= {y})")
        return Fraction(27 * x * y, (x + y) ** 2), UNIT_WEIGHT, ((1, x, y),)

    return point


def _binet(lucas_kind: bool):
    """The S_alpha and S_beta branches of the weight F or L at m = 2p + q,
    on p <= -2, q >= 4 and q > |p| + 1."""
    beta, inv_sqrt5 = (1 - sqrt(5)) / 2, 1 / sqrt(5)

    def point(params: TheoremParams):
        fam, p, q = params.family, params.p, params.q
        _require(p <= -2, f"{fam} needs p <= -2")
        _require(q >= 4, f"{fam} needs q >= 4")
        _require(q > abs(p) + 1, f"{fam} needs q > |p| + 1")
        fp, fpq = fib(p), fib(p + q)
        z = Fraction(-27 * fp * fpq, fib(q) ** 2)
        if lucas_kind:
            c = 1
        else:  # at 2p + q = 0 every term has the weight F(0) = 0
            c = inv_sqrt5 if 2 * p + q else 0
        return (z, Weight("lucas" if lucas_kind else "fib", 2 * p + q),
                ((c, fp * GOLDEN ** q, -fpq),
                 (c if lucas_kind else -c, fpq, -beta ** q * fp)))

    return point


_R, _NM, _PQ = ("r",), ("n", "m"), ("p", "q")

# family -> (level a, names a point assigns, point builder)
_FAMILIES = {
    "THM1_FIB": (2, _R, _recurrence(FIBONACCI_PARAMS)),
    "THM1_LUC": (2, _R, _recurrence(LUCAS_PARAMS, low=0, excluded=1)),
    "COR2_FIB": (2, _R, _recurrence(FIBONACCI_PARAMS, scale=3)),
    "COR2_LUC": (2, _R, _recurrence(LUCAS_PARAMS, scale=3, low=0)),
    "THM3_V1": (2, _NM, _product(
        lambda n, m: (fib(n) ** 2, (-1) ** (n - m - 1) * fib(m) ** 2),
        strict=True)),
    "THM3_V2": (2, _NM, _product(
        lambda n, m: (fib(n + m), (-1) ** m * fib(n - m)))),
    "THM3_V3": (2, _NM, _product(
        lambda n, m: (fib(n + m), (-1) ** (m - 1) * fib(n - m)))),
    "THM3_V4": (2, _NM, _product(
        lambda n, m: (lucas(n) * fib(m), lucas(m) * fib(n)), ordered=True)),
    "THM3_V5": (2, _NM, _product(
        lambda n, m: (lucas(n + m), (-1) ** m * lucas(n - m)))),
    "THM3_V6": (2, _NM, _product(
        lambda n, m: (lucas(n + m), (-1) ** (m - 1) * lucas(n - m)))),
    "THM4_FIB": (1, _R, _recurrence(FIBONACCI_PARAMS)),
    "THM4_LUC": (1, _R, _recurrence(LUCAS_PARAMS)),
    "COR5_FIB": (1, _R, _recurrence(FIBONACCI_PARAMS, scale=3)),
    "COR5_LUC": (1, _R, _recurrence(LUCAS_PARAMS, scale=3)),
    "THM6_FIB": (0, _R, _recurrence(FIBONACCI_PARAMS)),
    "THM6_LUC": (0, _R, _recurrence(LUCAS_PARAMS)),
    "THM7_FIB": (2, _PQ, _binet(False)), "THM7_LUC": (2, _PQ, _binet(True)),
    "THM9_FIB": (1, _PQ, _binet(False)), "THM9_LUC": (1, _PQ, _binet(True)),
    "THM10_FIB": (0, _PQ, _binet(False)),
    "THM10_LUC": (0, _PQ, _binet(True)),
    "HORADAM_A2": (2, ("r", "horadam"), _recurrence()),
    "HORADAM_A1": (1, ("r", "horadam"), _recurrence()),
}

FAMILIES = tuple(_FAMILIES)


def family_names(family: str) -> tuple[str, ...]:
    """The parameter names every point of ``family`` assigns."""
    return _FAMILIES[family][1]


def theorem_point(params: TheoremParams) -> tuple[SeriesSpec, Expr]:
    """The point's series and its exact closed form, from one call of its
    family's point builder: raises InvalidParams when its constraints fail.

    The series is the SeriesSpec of sum z^k w(k) / (k^a C(3k,k)); the
    closed form is c S_alpha + (-c) S_beta for two branches, S for one
    (c = 1), each S a level node, and the tree 0 when no branch is left.
    At a point whose series diverges (|z| > 27/4, or beyond the weighted
    radius) :func:`eval_expr` of the tree raises DomainError: such points
    have no value, not even a formal one.
    """
    a, _, point = _FAMILIES[params.family]
    z, weight, branches = point(params)
    # a tree c equals neither 1 nor 0
    terms = [level(a, x, y) if c == 1 else c * level(a, x, y)
             for c, x, y in branches if c != 0]
    tree = sum(terms[1:], terms[0]) if terms else intlit(0)
    return SeriesSpec(z, a, weight), tree
