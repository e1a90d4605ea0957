"""Comparison engine: certified series brackets vs. closed-form values.

A verification sums the left-hand series with a certified tail bound
(:func:`sum_record`: :func:`series.sum_to_digits`, or
:func:`series.sum_boundary_detailed` at z = +-27/4, by :func:`series.plan`)
and evaluates the right-hand closed form, both at the context's working
precision, which :func:`verify` passes as a value: it neither reads nor
sets mpmath's global precision.  PASS is bracket consistency |lhs - rhs|
<= 3 tail + 10^-(working - 5) max(1, |rhs|), the slack covering the
roundoff of both sides at working precision.  The bracket is decided
exactly in integers on the binary values of lhs, rhs and tail
(:func:`_in_bracket`), with no mpf arithmetic.  As the tail is proved
below 10^-target and the slack is 10^-(target + 21) max(1, |rhs|), a
bracket that holds puts the relative (below 1, absolute) difference
below 3.0...1 10^-target, so at least target - 1 digits match.  The
matched-digit count, reported with every verdict, rounds the difference
and quotient to working precision through ``libmp`` and counts digits in
integers, with no logarithm.  Records whose series diverges are skipped.
:func:`summary_counts` is the one place that counts pass, fail and skipped
reports.  :func:`differential_check` checks the derivative chain by one
exact difference-quotient tree, at the same working precision.

:func:`verify_all` with ``jobs`` > 1 splits the records by their
:func:`planned_cost` (:func:`lpt_partition`, longest first), verifies one
part in this process and each other part in a forked child process.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from mpmath import mpf
from mpmath.libmp import (fone, fzero, mpf_abs, mpf_cmp, mpf_div, mpf_sub,
                          round_nearest, to_rational, to_str)

from .closed_forms import B_rhs, C_rhs, TheoremParams, XYPair, eval_expr
from .errors import Binom3kError, DomainError, InvalidParams, MaxTermsExceeded
from .expressions import cbrt, level as level_node, ratlit
from .precision import PrecisionContext, context_for
from .registry import IdentityRecord, instance_id, instantiate
from .series import (DIVERGES, SumResult, plan, sum_boundary_detailed,
                     sum_to_digits)

PASS = "PASS"
FAIL = "FAIL"
SKIPPED_DIVERGENT = "SKIPPED_DIVERGENT"


@dataclass
class VerificationReport:
    identity_id: str
    target_digits: int
    status: str
    matched_digits: int = 0
    lhs_value: Optional[mpf] = None
    rhs_value: Optional[mpf] = None
    terms_used: int = 0
    tail: Optional[mpf] = None
    elapsed: float = 0.0
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status in (PASS, SKIPPED_DIVERGENT)


def _matched_digits(lhs: mpf, rhs: mpf, cap: int, prec: int) -> int:
    """floor(-log10 diff) clamped to [0, cap], diff the difference relative
    to |rhs| unless |rhs| < 1, in which case it is absolute, with the
    difference and the quotient each rounded to prec bits.

    Exact on the binary value diff = man 2^exp: d digits match iff
    man 10^d <= 2^-exp: below the cap, the exponent of the leading digit
    of 2^-exp // man, which Decimal reads past str's 4300-digit limit.  A
    diff that is the binary rounding of 10^-d, just above it, counts d - 1.
    """
    diff = mpf_abs(mpf_sub(lhs._mpf_, rhs._mpf_, prec, round_nearest))
    size = mpf_abs(rhs._mpf_)
    if mpf_cmp(size, fone) >= 0:
        diff = mpf_div(diff, size, prec, round_nearest)
    if diff == fzero:
        return cap
    _, man, exp, _ = diff
    if exp >= 0:
        return 0
    if man * 10 ** cap <= 1 << -exp:
        return cap
    return Decimal((1 << -exp) // man).adjusted()


def _in_bracket(lhs: mpf, rhs: mpf, tail: mpf, n: int) -> bool:
    """|lhs - rhs| <= 3 tail + 10^-n max(1, |rhs|) for finite lhs, rhs and
    tail >= 0, the last term the allowance for the roundoff of both sides
    at working precision.

    Decided exactly on the binary values: each is man 2^exp, so at the
    least exponent e (and 0, the exponent of 1) all three are integers
    times 2^e, and the test is 10^n (|L - R| - 3 T) <= max(2^-e, |R|).
    """
    (ls, lm, le, _), (rs, rm, re, _), (_, tm, te, _) = (
        lhs._mpf_, rhs._mpf_, tail._mpf_)
    e = min(le, re, te, 0)
    left, right = (-lm if ls else lm) << le - e, (-rm if rs else rm) << re - e
    excess = abs(left - right) - (3 * tm << te - e)
    return excess <= 0 or excess * 10 ** n <= max(1 << -e, abs(right))


def sum_record(record: IdentityRecord, digits: int,
               ctx: PrecisionContext) -> SumResult:
    """The record's series to ``digits`` digits with a proved tail:
    sum_to_digits when it is geometric, else sum_boundary_detailed, which
    refuses a divergent series."""
    summed = (sum_to_digits if record.convergence == "geometric"
              else sum_boundary_detailed)
    return summed(record.lhs, digits, ctx)


def verify(record: IdentityRecord, digits: int,
           ctx: Optional[PrecisionContext] = None) -> VerificationReport:
    """Verify one catalog record to the requested digit target."""
    if digits < 5:
        raise ValueError("digits must be >= 5")
    ctx = context_for(digits, ctx)
    start = time.perf_counter()
    report = VerificationReport(record.id, digits, FAIL)
    if record.convergence == "divergent_formal":
        report.status = SKIPPED_DIVERGENT
        report.detail = DIVERGES
        report.elapsed = time.perf_counter() - start
        return report
    try:
        rhs = record.rhs_value(ctx)
        result = sum_record(record, digits, ctx)
        lhs = result.value
        matched = _matched_digits(lhs, rhs, digits, ctx.prec)
        if _in_bracket(lhs, rhs, result.tail, ctx.working_digits - 5):
            report.status = PASS
        else:
            gap = mpf_abs(mpf_sub(lhs._mpf_, rhs._mpf_, ctx.prec,
                                  round_nearest))
            report.detail = (f"matched {matched} digits; "
                             f"|lhs-rhs| = {to_str(gap, 5)} "
                             f"vs tail {to_str(result.tail._mpf_, 5)}")
        report.lhs_value = lhs
        report.rhs_value = rhs
        report.matched_digits = matched
        report.terms_used = result.terms_used
        report.tail = result.tail
    except Binom3kError as exc:
        report.status = FAIL
        report.detail = f"{type(exc).__name__}: {exc}"
    report.elapsed = time.perf_counter() - start
    return report


# Planned ns of a verification besides its sum (see series.plan for the
# host): the report and digit match, and the closed form, priced as one
# level (a cube root, an arctangent and a logarithm in fixed point) per
# branch: 31 us at 25 digits, 52 us at 100 and 2.2 ms at 1000, against a
# measured median of 29-35 us, 52-76 us and 2.2-2.4 ms per level.  A surd
# tree of the catalog, walked in the same fixed point, takes a median of
# 42, 72 and 2260 us, about 1.35 levels at 25 and 100 digits and one at
# 1000; the price leaves that out, as it reads no tree.
_REPORT_NS = 100_000.0
_LEVEL_NS, _LEVEL_NS_PER_DIGIT2 = 30_000.0, 2.2


def planned_cost(record: IdentityRecord, digits: int, budget: int) -> float:
    """Planned ns of verify(record, digits) within a term budget, for
    scheduling; 0 for a skipped record.  Never raises for a record that
    verify accepts.

    A closed form costs one level per branch, read off the weight and
    not the tree: two for a Fibonacci or Lucas weight, which Binet
    splits, else one.
    """
    if record.convergence == "divergent_formal":
        return 0.0
    branches = 1 if record.lhs.weight.kind == "unit" else 2
    rhs = branches * (_LEVEL_NS + _LEVEL_NS_PER_DIGIT2 * digits * digits)
    try:
        return _REPORT_NS + rhs + plan(record.lhs, digits, budget).cost_ns
    except MaxTermsExceeded:
        return _REPORT_NS + rhs


def lpt_partition(costs: Sequence[float], parts: int) -> list[list[int]]:
    """Indices of ``costs`` in ``parts`` lists by greedy longest processing
    time first (Graham 1969): largest cost first, each to the least-loaded
    list (the first of equal loads).  Each list is in increasing order."""
    loads = [(0.0, part) for part in range(parts)]
    split = [[] for _ in range(parts)]
    for index in sorted(range(len(costs)), key=lambda i: -costs[i]):
        load, part = heapq.heappop(loads)
        split[part].append(index)
        heapq.heappush(loads, (load + costs[index], part))
    return [sorted(part) for part in split]


def _verify_part(records, part, digits, ctx, sender) -> None:
    """A forked child's work: send the (index, report) pairs of ``part``,
    or the exception that stopped it."""
    try:
        result = [(i, verify(records[i], digits, ctx)) for i in part]
    except BaseException as exc:  # the parent raises it
        result = exc
    sender.send(result)
    sender.close()


def verify_all(catalog: Sequence[IdentityRecord], digits: int,
               ctx: Optional[PrecisionContext] = None,
               jobs: int = 1) -> dict:
    """Verify every record, reports in id order; failures are data, not
    exceptions.

    The records, sorted by id, are split into min(jobs, records) parts of
    about equal planned_cost by lpt_partition.  This process verifies part
    0, and one child process per other part, started from the default
    multiprocessing context with a one-way pipe, verifies its part and
    sends its reports back; under fork the records are inherited, not
    pickled.  At one part no process starts.  An exception raised in a
    child is raised here once every child has been joined; when this
    process's own part raises, the children are terminated and joined
    first.  No child outlives the call.
    """
    records = sorted(catalog, key=lambda r: r.id)
    parts = min(jobs, len(records))
    split, started, received = [range(len(records))], [], 0
    try:
        if parts > 1:
            import multiprocessing
            budget = context_for(digits, ctx).max_terms
            split = lpt_partition([planned_cost(r, digits, budget)
                                   for r in records], parts)
            for part in split[1:]:
                receiver, sender = multiprocessing.Pipe(duplex=False)
                child = multiprocessing.Process(
                    target=_verify_part,
                    args=(records, part, digits, ctx, sender))
                try:
                    child.start()
                finally:
                    sender.close()
                started.append((child, receiver))
        pairs = [(i, verify(records[i], digits, ctx)) for i in split[0]]
        error = None
        for child, receiver in started:
            try:
                result = receiver.recv()
            except EOFError:
                child.join()
                result = RuntimeError(
                    f"a verify_all process exited with code {child.exitcode}"
                    " without sending its reports")
            received += 1
            if isinstance(result, BaseException):
                error = error or result
            else:
                pairs += result
        if error is not None:
            raise error
    finally:
        for child, _ in started[received:]:  # this process raised
            child.terminate()
        for child, receiver in started:
            child.join()
            receiver.close()
    reports = [report for _, report in sorted(pairs, key=lambda p: p[0])]
    return {**summary_counts(reports), "reports": reports}


def summary_counts(reports: Iterable[VerificationReport]) -> dict:
    """Reports that passed, failed, and were skipped beyond the radius."""
    statuses = [r.status for r in reports]
    return {
        "pass": statuses.count(PASS),
        "fail": statuses.count(FAIL),
        "skipped": statuses.count(SKIPPED_DIVERGENT),
    }


def sweep(family: str, grid: Iterable[Union[TheoremParams, dict]],
          digits: int, ctx: Optional[PrecisionContext] = None
          ) -> list[VerificationReport]:
    """Instantiate and verify the family at every grid point.

    A point of another family, or a dict of names that are not exactly
    the family's, raises InvalidParams.  Invalid values (constraint
    violations, arguments beyond the radius) appear as FAIL reports with
    the point's record id plus ``-invalid`` (``thm1-luc-r1-invalid``),
    carrying the constraint message as their detail.
    """
    reports = []
    for point in grid:
        if isinstance(point, TheoremParams):
            params = point
        else:
            params = TheoremParams(family, **point)
        try:
            record = instantiate(family, params)
        except InvalidParams as exc:
            if params.family != family:
                raise
            reports.append(VerificationReport(
                identity_id=f"{instance_id(params)}-invalid",
                target_digits=digits, status=FAIL, detail=str(exc)))
            continue
        reports.append(verify(record, digits, ctx))
    return reports


def differential_check(level: str, pair: XYPair, digits: int,
                       ctx: Optional[PrecisionContext] = None
                       ) -> VerificationReport:
    """Check the derivative chain between adjacent closed-form levels.

    The level-(a-1) form equals x(x+y)/(y-x) times the x-derivative of the
    level-a form L, taken by central differences with h = cbrt(10^-digits),
    so agreement of digits/3 digits is the bar.  The quotient is one exact
    tree at the pair's binary values; its walk widens at the division by
    2h, which covers the cancellation.  DomainError at x = y, outside the
    upper level's window, and where x +- h crosses |x| = |y|.
    """
    if level not in ("A_to_B", "B_to_C"):
        raise ValueError(f"level must be 'A_to_B' or 'B_to_C', got {level!r}")
    ctx = context_for(digits, ctx)
    a, upper = (2, B_rhs) if level == "A_to_B" else (1, C_rhs)
    start = time.perf_counter()
    xv, yv = pair.values(ctx)
    if xv == yv:
        raise DomainError("differential check is singular at x = y")
    closed = upper(pair, ctx)  # the given pair is checked first
    xq, yq = (Fraction(*to_rational(v._mpf_)) for v in (xv, yv))
    if (abs(xq) - abs(yq)) ** 3 * 10 ** digits <= 1:
        raise DomainError(f"the stencil x +- h, h = 1e-{digits}/3, crosses "
                          f"|x| = |y|: differential check needs |x| - |y| > h")
    x, y, h = ratlit(xq), ratlit(yq), cbrt(ratlit(1, 10 ** digits))
    slope = (level_node(a, x + h, y) - level_node(a, x - h, y)) / (2 * h)
    transformed = eval_expr(x * (x + y) / (y - x) * slope, ctx)
    required = digits // 3
    matched = _matched_digits(transformed, closed, digits, ctx.prec)
    name = "-".join(to_str(v._mpf_, 15) for v in (xv, yv))
    return VerificationReport(
        identity_id=f"diff-{level}-{name}".replace(".", "p"),
        target_digits=digits,
        status=PASS if matched >= required else FAIL,
        matched_digits=matched,
        lhs_value=transformed, rhs_value=closed,
        elapsed=time.perf_counter() - start,
        detail=f"central difference h = 1e-{digits}/3" if matched >= required
        else f"only {matched} of {required} digits agree",
    )
