"""References the package is tested against: the per-term generator of
the summation kernel's integers, exact rational terms and sums, mpmath's
nsum of a unit series, the kernel's cutoff, a proved bracket on a whole
series read from one kernel pass, the mpf evaluation of the closed-form
levels at (x, y) and of whole expression trees, the level nodes of a
tree, the trigonometric closed forms, the real cube root, the golden
ratio and its conjugate, and the paper's auxiliary Fibonacci and Lucas identities."""

import math
import operator
from fractions import Fraction
from typing import Iterator

from mpmath import mp, mpf

from binom3k import closed_forms
from binom3k.expressions import Expr, level as level_node, ratlit, to_json
from binom3k.errors import DomainError, SingularInput
from binom3k.precision import PrecisionContext
from binom3k.sequences import fib, lucas
from binom3k.series import (SeriesSpec, _cutoff, _cutoff_fits, _cutoff_seed,
                            _growth_constant, _kernel, _kernel_bits,
                            _log_abs_z, _rise_end, _roundoff_ulps,
                            _tail_ulps)


def scaled_terms(spec: SeriesSpec, bits: int) -> Iterator[int]:
    """The terms t_k 2^bits, k = 1, 2, ..., as floored integers, one by one:
    the integers series._kernel sums.

    With z = p/q, b_k = z^k/C(3k,k) advances by its exact ratio
    2p(k+1)(2k+1) / (3q(3k+1)(3k+2)), one floor division per step.  A
    Fibonacci or Lucas weight rides along as the pair (b_k F(mk),
    b_k F(mk+1)), advanced by Q^m = [[F(m-1), F(m)], [F(m), F(m+1)]];
    L(mk) = 2 F(mk+1) - F(mk).
    """
    p, q = spec.z.numerator, spec.z.denominator
    p2, q3, a = 2 * p, 3 * q, spec.a
    k = 1
    if spec.weight.kind == "unit":
        t = (p << bits) // q3
        while True:
            yield t // k ** a if a else t
            t = t * (p2 * (k + 1) * (2 * k + 1)) // (q3 * (3 * k + 1) * (3 * k + 2))
            k += 1
    m = spec.weight.m
    f0, f1, f2 = fib(m - 1), fib(m), fib(m + 1)
    x, y = (f1 * p << bits) // q3, (f2 * p << bits) // q3
    want_lucas = spec.weight.kind == "lucas"
    while True:
        w = 2 * y - x if want_lucas else x
        yield w // k ** a if a else w
        num = p2 * (k + 1) * (2 * k + 1)
        den = q3 * (3 * k + 1) * (3 * k + 2)
        x, y = num * (f0 * x + f1 * y) // den, num * (f1 * x + f2 * y) // den
        k += 1


def exact_term(spec, k):
    weight = {"unit": lambda n: 1, "fib": fib, "lucas": lucas}[spec.weight.kind]
    return (spec.z ** k * weight(spec.weight.m * k)
            / (k ** spec.a * math.comb(3 * k, k)))


def exact_partial_sum(spec, K):
    return sum((exact_term(spec, k) for k in range(1, K + 1)), Fraction(0))


def unit_series(z, a):
    """sum_{k>=1} z^k / (k^a C(3k,k)) by mpmath's nsum at the current
    precision, for any real z inside the radius."""
    return mp.nsum(lambda k: z ** k / (k ** a * math.comb(3 * int(k), int(k))),
                   [1, mp.inf])


def to_fraction(x):
    man, exp = x.man_exp  # exact, but without the sign
    return (-1 if x < 0 else 1) * Fraction(man) * Fraction(2) ** exp


def rest_bound(spec, N):
    """Proven bound on sum_{k>N} |t_k| for a unit weight: every ratio
    |t_{k+1}/t_k| = r_k (k/(k+1))^a from k = N+1 on is at most r_{N+1},
    since r_k = 2|z|(k+1)(2k+1) / (3(3k+1)(3k+2)) decreases in k."""
    k = N + 1
    r = abs(spec.z) * Fraction(2 * (k + 1) * (2 * k + 1),
                               3 * (3 * k + 1) * (3 * k + 2))
    assert r < 1
    return abs(exact_term(spec, k)) / (1 - r)


def kernel_cutoff(spec, digits, budget):
    """The kernel's cutoff K for ``digits`` digits, or budget + 1 past the
    budget, from the same growth data series.plan passes to _cutoff, for
    any geometric spec, whichever method its plan takes."""
    c, log_z = _growth_constant(spec), _log_abs_z(spec)
    return _cutoff(_cutoff_fits(spec, digits, c, log_z), _rise_end(c),
                   _cutoff_seed(spec, digits, log_z), budget)


def kernel_bracket(spec, K, digits):
    """(centre, radius): the whole sum of a geometric series lies within
    radius of centre, both exact, from one kernel pass of K terms and the
    proved tail of _tail_ulps, which also carries the head's roundoff.
    The scale is the one sum_to_digits takes for ``digits``, so the
    roundoff is far below 10^-digits."""
    roundoff = _roundoff_ulps(spec, K + 1)
    bits = _kernel_bits(roundoff, -digits * math.log2(10))
    head, (term,) = _kernel(spec, bits, K, 1)
    scale = Fraction(1, 1 << bits)
    return head * scale, _tail_ulps(spec, K, term, roundoff) * scale


def check_window(x, y, strict):
    """The validity window of the levels, tested on the mpf ratio x/y."""
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


def real_cbrt(x) -> mpf:
    """Sign-preserving real cube root: real_cbrt(-x) == -real_cbrt(x)."""
    x = mpf(x)
    if x < 0:
        return -mp.root(-x, 3)
    return mp.root(x, 3)


def formulas(a, x, y):
    """The level-a formula at (x, y) in mpf, unchecked: two cube roots, one
    arctangent and one logarithm.  Inside the window 2 cbrt x - cbrt y,
    x + y and the log argument (x+y)/(cbrt x + cbrt y)^3 are all nonzero,
    the last positive."""
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


def level(a, x, y):
    """A (a = 2), B (a = 1) or C (a = 0) at the mpf pair (x, y), checked
    as closed_forms._level checks it."""
    if a < 2 and x == y:
        raise SingularInput(f"the a = {a} level is singular at x = y")
    check_window(x, y, strict=a < 2)
    return formulas(a, x, y)


def trig_rhs(variant, x, ctx):
    """Closed forms after the substitution x -> cot^2 t, y -> 1.

    Variant D is the a=2 level on sin^{2k} 2t for t in (0, pi/4]; E the
    alternating a=2 level on tan^{2k} 2t for t in (0, pi/8]; F the a=1
    level on sin^{2k} 2t for t in (0, pi/4) strictly.  The level comes
    from the package's evaluator.
    """
    if variant not in ("D", "E", "F"):
        raise ValueError(f"unknown trig variant {variant!r}")
    with ctx.workdps():
        t = mpf(x)
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
        c2 = ratlit(to_fraction(mp.cot(t) ** 2))
        if variant == "E":
            return closed_forms.eval_expr(level_node(2, -c2, 1), ctx)
        return closed_forms.eval_expr(
            level_node(2 if variant == "D" else 1, c2, 1), ctx)


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


def level_nodes(expr: Expr) -> list:
    """The level nodes of an expression tree, in evaluation order."""
    found = [expr] if expr.kind == "level" else []
    for arg in expr.args:
        if isinstance(arg, Expr):
            found += level_nodes(arg)
    return found


_ARITHMETIC = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}


def tree_value(expr: Expr) -> mpf:
    """The tree in mpf at the current precision, node by node, with the
    package's DomainError messages; a level node is :func:`level` at the
    pair in either order, exactly 0 at xy = 0."""
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
        return -tree_value(expr.args[0])
    if kind == "sqrt":
        val = tree_value(expr.args[0])
        if val < 0:
            raise DomainError(f"sqrt of negative value {val} in {to_json(expr)}")
        return mp.sqrt(val)
    if kind == "cbrt":
        return real_cbrt(tree_value(expr.args[0]))
    if kind == "log":
        val = tree_value(expr.args[0])
        if val <= 0:
            raise DomainError(f"log of nonpositive value {val} in {to_json(expr)}")
        return mp.log(val)
    if kind == "arctan":
        return mp.atan(tree_value(expr.args[0]))
    if kind in _ARITHMETIC:
        return _ARITHMETIC[kind](tree_value(expr.args[0]),
                                 tree_value(expr.args[1]))
    if kind == "div":
        den = tree_value(expr.args[1])
        if den == 0:
            raise DomainError(f"division by zero in {to_json(expr)}")
        return tree_value(expr.args[0]) / den
    if kind == "pow":
        return tree_value(expr.args[0]) ** expr.args[1]
    if kind == "level":
        a, x, y = expr.args
        x, y = tree_value(x), tree_value(y)
        if x * y == 0:
            return mpf(0)
        if abs(x) < abs(y):
            x, y = y, x
        return level(a, x, y)
    raise ValueError(f"unknown expression kind {kind!r}")


def golden_ratio(ctx: PrecisionContext) -> mpf:
    """The golden ratio (1 + sqrt(5)) / 2."""
    with ctx.workdps():
        return (1 + mp.sqrt(5)) / 2


def golden_conjugate(ctx: PrecisionContext) -> mpf:
    """The conjugate root (1 - sqrt(5)) / 2."""
    with ctx.workdps():
        return (1 - mp.sqrt(5)) / 2


def check_fl_identity(ident, n, m_or_r=0, ctx=None):
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
