"""High-precision closed forms of the C(3k,k) series, as one model.

Batir's closed form of sum z^k/(k^2 C(3k,k)) goes through the cube-root
auxiliary phi(z).  The substitution z = 27xy/(x+y)^2 turns it into the
homogeneous two-parameter form A(x, y) (exponent a = 2); differentiating
in x lowers the exponent of k and gives B (a = 1) and C (a = 0).  One
evaluator computes cbrt x, cbrt y, the arctangent and the logarithm once
and returns A, B or C; every closed form in this module is a choice of
(x, y) fed to it.  The right column names the identity that gives x + y
(checked by :func:`~.sequences.check_fl_identity`):

============================  =====  ===============================  ======
closed form                   level  pair (x, y)                      x + y
============================  =====  ===============================  ======
batir_rhs(z)                  A      (phi(z)^3, 1)
trig_rhs D, E / F             A / B  (cot^2 t, 1), (-cot^2 t, 1) / D
THM1_FIB, THM4_FIB, THM6_FIB  A,B,C  (alpha^2r, (-1)^(r-1))           F1
THM1_LUC, THM4_LUC, THM6_LUC  A,B,C  (alpha^2r, (-1)^r)               F2
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
S_beta for L.  For the Horadam family, (A, B) are the Binet coefficients
of :meth:`~.sequences.HoradamParams.binet_coeffs` and alpha its root, so
x + y = alpha^r delta W_r.

The closed forms hold on the window x/y >= 1 (strict at a < 2) or x/y <=
-(sqrt2+1)^2, which is |z| <= 27/4 over real pairs.  A family pair with
|x| < |y| is swapped (z is symmetric); a pair with xy = 0 is z = 0 and
gives exactly 0; a pair left outside the window is a divergent series and
raises :class:`~.errors.DomainError`.  Every evaluator returns an mpf at
the context's working precision; the matching left-hand
:class:`~.series.SeriesSpec` of a family comes from
:func:`theorem_lhs_spec`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from mpmath import mp, mpf

from . import expressions
from .errors import DomainError, InvalidParams, SingularInput
from .precision import (PrecisionContext, golden_conjugate, golden_ratio,
                        real_cbrt)
from .sequences import HoradamParams, fib, horadam, lucas
from .series import SeriesSpec, UNIT_WEIGHT, Weight

Realish = Union[int, float, Fraction, mpf, expressions.Expr]

FAMILIES = (
    "THM1_FIB", "THM1_LUC", "COR2_FIB", "COR2_LUC",
    "THM3_V1", "THM3_V2", "THM3_V3", "THM3_V4", "THM3_V5", "THM3_V6",
    "THM4_FIB", "THM4_LUC", "COR5_FIB", "COR5_LUC",
    "THM6_FIB", "THM6_LUC",
    "THM7_FIB", "THM7_LUC", "THM9_FIB", "THM9_LUC", "THM10_FIB", "THM10_LUC",
    "HORADAM_A2", "HORADAM_A1",
)


def _as_mpf(value: Realish, ctx: PrecisionContext) -> mpf:
    if isinstance(value, expressions.Expr):
        return expressions.eval_expr(value, ctx)
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


def _check_window(x: mpf, y: mpf, strict: bool) -> None:
    if y == 0:
        raise DomainError("y must be nonzero")
    ratio = x / y
    if ratio > 1 or (ratio == 1 and not strict):
        return
    floor = -3 - 2 * mp.sqrt(2)  # -(sqrt2 + 1)^2
    if ratio > floor * (1 - mpf(10) ** (5 - mp.dps)):  # roundoff at the floor
        bound = ">" if strict else ">="
        raise DomainError(
            f"x/y = {ratio} outside validity window "
            f"(needs x/y {bound} 1 or x/y <= -(sqrt2+1)^2)")


def _level(a: int, x: mpf, y: mpf) -> mpf:
    """A (a = 2), B (a = 1) or C (a = 0) at (x, y) in the window."""
    if a < 2 and x == y:
        raise SingularInput(f"the a = {a} level is singular at x = y")
    _check_window(x, y, strict=a < 2)
    return _formulas(a, x, y)


def _formulas(a: int, x: mpf, y: mpf) -> mpf:
    """The level-a formula, unchecked.  Inside the window 2 cbrt x -
    cbrt y, x + y and the log argument (x+y)/(cbrt x + cbrt y)^3 are all
    nonzero, the last positive."""
    cx, cy = real_cbrt(x), real_cbrt(y)
    s3 = mp.sqrt(3)
    at = mp.atan(s3 * cy / (2 * cx - cy))
    lg = mp.log((x + y) / (cx + cy) ** 3)
    if a == 2:
        return 6 * at ** 2 - lg ** 2 / 2
    cxy = cx * cy
    if a == 1:
        return cxy / (x - y) * (2 * s3 * (cx + cy) * at + (cx - cy) * lg)
    cx2, cy2, cx4, cy4 = cx * cx, cy * cy, x * cx, y * cy
    return 4 * x * y / (x - y) ** 2 + cxy / 3 * (x + y) / (x - y) ** 3 * (
        2 * s3 * (2 * cxy * (cx2 + cy2) + cx4 + cy4) * at
        - (2 * cxy * (cx2 - cy2) - cx4 + cy4) * lg)


def _series(a: int, x, y) -> mpf:
    """Sum of z^k/(k^a C(3k,k)) at z = 27xy/(x+y)^2, the pair in either
    order; exactly 0 at z = 0."""
    x, y = mpf(x), mpf(y)
    if x * y == 0:
        return mpf(0)
    if abs(x) < abs(y):
        x, y = y, x
    return _level(a, x, y)


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


# -- trigonometric variants ---------------------------------------------

def trig_rhs(variant: str, x: Realish, ctx: PrecisionContext) -> mpf:
    """Closed forms after the substitution x -> cot^2 t, y -> 1.

    Variant D is the a=2 level on sin^{2k} 2t for t in (0, pi/4]; E the
    alternating a=2 level on tan^{2k} 2t for t in (0, pi/8]; F the a=1
    level on sin^{2k} 2t for t in (0, pi/4) strictly.
    """
    if variant not in ("D", "E", "F"):
        raise ValueError(f"unknown trig variant {variant!r}")
    with ctx.workdps():
        t = _as_mpf(x, ctx)
        slack = mpf(10) ** (-(mp.dps - 5))
        if variant == "D":
            lo_ok, hi_ok = t > 0, t <= mp.pi / 4 + slack
        elif variant == "E":
            lo_ok, hi_ok = t > 0, t <= mp.pi / 8 + slack
        else:
            lo_ok, hi_ok = t > 0, t < mp.pi / 4 - slack
        if not (lo_ok and hi_ok):
            raise DomainError(f"variant {variant} needs its argument in the "
                              f"stated interval, got {t}")
        c2 = mp.cot(t) ** 2
        if variant == "E":
            return _series(2, -c2, 1)
        return _series(2 if variant == "D" else 1, c2, 1)


# -- parameterized theorem families -------------------------------------

@dataclass(frozen=True)
class TheoremParams:
    """Bound parameters of one closed-form family.

    ``r`` indexes the golden-ratio families, ``(n, m)`` the six
    Fibonacci/Lucas product identities, ``(p, q)`` the weighted-series
    families, and ``horadam``+``r`` the generalized recurrence family.
    """

    family: str
    r: Optional[int] = None
    n: Optional[int] = None
    m: Optional[int] = None
    p: Optional[int] = None
    q: Optional[int] = None
    horadam: Optional[HoradamParams] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidParams(f"unknown family {self.family!r}")
        for name in ("r", "n", "m", "p", "q"):
            value = getattr(self, name)
            if value is not None and type(value) is not int:
                raise InvalidParams(f"{name} must be an int, got {value!r}")

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


def _validate(params: TheoremParams) -> None:
    fam = params.family
    if fam in ("THM1_FIB", "COR2_FIB", "THM4_FIB", "COR5_FIB", "THM6_FIB",
               "THM4_LUC", "COR5_LUC", "THM6_LUC"):
        _require(params.r is not None and params.r >= 1,
                 f"{fam} needs r >= 1")
    elif fam == "THM1_LUC":
        _require(params.r is not None and params.r >= 0,
                 "THM1_LUC needs r >= 0")
        _require(params.r != 1,
                 "THM1_LUC excludes r = 1 (27/L_1^2 exceeds the radius)")
    elif fam == "COR2_LUC":
        _require(params.r is not None and params.r >= 0, "COR2_LUC needs r >= 0")
    elif fam.startswith("THM3"):
        n, m = params.n, params.m
        _require(n is not None and m is not None, f"{fam} needs (n, m)")
        if fam == "THM3_V1":
            _require(n > m >= 1, "THM3_V1 needs n > m >= 1")
        else:
            _require(n >= m >= 1, f"{fam} needs n >= m >= 1")
        if fam == "THM3_V4":
            _require(lucas(n) * fib(m) > fib(n) * lucas(m),
                     f"THM3_V4 needs L_n F_m > F_n L_m "
                     f"(got {lucas(n) * fib(m)} <= {fib(n) * lucas(m)})")
    elif fam.startswith(("THM7", "THM9", "THM10")):
        p, q = params.p, params.q
        _require(p is not None and q is not None, f"{fam} needs (p, q)")
        _require(p <= -2, f"{fam} needs p <= -2")
        _require(q >= 4, f"{fam} needs q >= 4")
        _require(q > abs(p) + 1, f"{fam} needs q > |p| + 1")
    elif fam.startswith("HORADAM"):
        _require(params.horadam is not None, f"{fam} needs recurrence params")
        _require(params.r is not None and params.r >= 1, f"{fam} needs r >= 1")
        _require(horadam(params.r, params.horadam) != 0,
                 f"W_{params.r} = 0: series argument undefined")


# Pair functions: each maps (params, ctx) to the family's branches
# (c, x, y), the family's value being the sum of c * S_a(x, y).

def _golden(lucas_kind: bool, scale: int = 1):
    """The THM1 pair (alpha^2r, -+(-1)^r) at index scale * r."""
    def pairs(params: TheoremParams, ctx: PrecisionContext):
        r = scale * params.r
        sign = 1 if lucas_kind else -1
        return ((1, golden_ratio(ctx) ** (2 * r), sign * (-1) ** r),)
    return pairs


def _binet(lucas_kind: bool):
    """The S_alpha and S_beta branches of the weighted families."""
    def pairs(params: TheoremParams, ctx: PrecisionContext):
        p, q = params.p, params.q
        alpha, beta = golden_ratio(ctx), golden_conjugate(ctx)
        c = 1 if lucas_kind else 1 / mp.sqrt(5)
        return ((c, fib(p) * alpha ** q, -fib(p + q)),
                (c if lucas_kind else -c, fib(p + q), -beta ** q * fib(p)))
    return pairs


def _horadam(params: TheoremParams, ctx: PrecisionContext):
    h, r = params.horadam, params.r
    A, B = h.binet_coeffs(ctx)
    return ((1, A * h.roots(ctx)[0] ** (2 * r), -B * (-h.q) ** r),)


# Integer pairs of the product identities over (n, m).
_THM3_PAIRS = {
    "THM3_V1": lambda n, m: (fib(n) ** 2, (-1) ** (n - m - 1) * fib(m) ** 2),
    "THM3_V2": lambda n, m: (fib(n + m), (-1) ** m * fib(n - m)),
    "THM3_V3": lambda n, m: (fib(n + m), (-1) ** (m - 1) * fib(n - m)),
    "THM3_V4": lambda n, m: (lucas(n) * fib(m), lucas(m) * fib(n)),
    "THM3_V5": lambda n, m: (lucas(n + m), (-1) ** m * lucas(n - m)),
    "THM3_V6": lambda n, m: (lucas(n + m), (-1) ** (m - 1) * lucas(n - m)),
}


def _thm3(params: TheoremParams, ctx: PrecisionContext):
    return ((1, *_THM3_PAIRS[params.family](params.n, params.m)),)


# family -> (level a, pair function)
_FAMILY_TABLE = {
    "THM1_FIB": (2, _golden(False)), "THM1_LUC": (2, _golden(True)),
    "COR2_FIB": (2, _golden(False, 3)), "COR2_LUC": (2, _golden(True, 3)),
    "THM3_V1": (2, _thm3), "THM3_V2": (2, _thm3), "THM3_V3": (2, _thm3),
    "THM3_V4": (2, _thm3), "THM3_V5": (2, _thm3), "THM3_V6": (2, _thm3),
    "THM4_FIB": (1, _golden(False)), "THM4_LUC": (1, _golden(True)),
    "COR5_FIB": (1, _golden(False, 3)), "COR5_LUC": (1, _golden(True, 3)),
    "THM6_FIB": (0, _golden(False)), "THM6_LUC": (0, _golden(True)),
    "THM7_FIB": (2, _binet(False)), "THM7_LUC": (2, _binet(True)),
    "THM9_FIB": (1, _binet(False)), "THM9_LUC": (1, _binet(True)),
    "THM10_FIB": (0, _binet(False)), "THM10_LUC": (0, _binet(True)),
    "HORADAM_A2": (2, _horadam), "HORADAM_A1": (1, _horadam),
}


def theorem_rhs(params: TheoremParams, ctx: PrecisionContext) -> mpf:
    """Value of the family's series (sum of z^k w(k)/(k^a C(3k,k))).

    Raises InvalidParams when the family's constraints fail, and
    DomainError at a point whose series diverges (|z| > 27/4, or beyond
    the weighted radius); such points have no value, not even a formal
    one.
    """
    _validate(params)
    level, pairs = _FAMILY_TABLE[params.family]
    with ctx.workdps():
        return sum(c * _series(level, x, y) for c, x, y in pairs(params, ctx))


def theorem_lhs_spec(params: TheoremParams) -> SeriesSpec:
    """The SeriesSpec whose sum theorem_rhs evaluates in closed form."""
    _validate(params)
    fam = params.family
    a = _FAMILY_TABLE[fam][0]
    label = params.describe()
    if fam.startswith("THM3"):
        x, y = _THM3_PAIRS[fam](params.n, params.m)
        return SeriesSpec(Fraction(27 * x * y, (x + y) ** 2), a,
                          UNIT_WEIGHT, label)
    if fam.startswith(("THM7", "THM9", "THM10")):
        p, q = params.p, params.q
        z = Fraction(-27 * fib(p) * fib(p + q), fib(q) ** 2)
        kind = "fib" if fam.endswith("FIB") else "lucas"
        return SeriesSpec(z, a, Weight(kind, 2 * p + q), label)
    if fam.startswith("HORADAM"):
        h, r = params.horadam, params.r
        ab = h.b * h.b - h.p * h.a * h.b - h.q * h.a * h.a  # A*B exactly
        z = Fraction((-1) ** (r - 1) * 27 * ab * h.q ** r,
                     (h.p ** 2 + 4 * h.q) * horadam(r, h) ** 2)
        return SeriesSpec(z, a, UNIT_WEIGHT, label)
    r = 3 * params.r if fam.startswith("COR") else params.r
    if fam.endswith("FIB"):
        z = Fraction((-1) ** (r - 1) * 27, 5 * fib(r) ** 2)
    else:
        z = Fraction((-1) ** r * 27, lucas(r) ** 2)
    return SeriesSpec(z, a, UNIT_WEIGHT, label)

