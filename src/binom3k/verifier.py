"""Comparison engine: certified series brackets vs. closed-form values.

A verification sums the left-hand series with a certified tail bound
(:func:`sum_record`: :func:`series.sum_to_digits`, or
:func:`series.sum_boundary_detailed` at z = +-27/4) and evaluates the
right-hand closed form at the context's working precision.  PASS demands
both a digit match of target - 2 (absorbing final roundoff) and bracket
consistency |lhs - rhs| <= 3 tail + slack, the slack covering the roundoff
of both sides at working precision.  The matched-digit count is exact
integer work on the binary form of the difference, with no logarithm.
Records whose series diverges are skipped.  :func:`summary_counts` is the
one place that counts pass, fail and skipped reports.

:func:`verify_all` with ``jobs`` > 1 splits the records by their
:func:`planned_cost` (:func:`lpt_partition`, longest first), verifies one
part in this process and each other part in a forked child process.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

from mpmath import mp, mpf

from .closed_forms import (A_rhs, B_rhs, C_rhs, TheoremParams, XYPair,
                           theorem_rhs)
from .errors import Binom3kError, DomainError, InvalidParams
from .precision import PrecisionContext, context_for
from .registry import IdentityRecord, instance_id, instantiate
from .series import (SumResult, planned_ns, sum_boundary_detailed,
                     sum_to_digits)

PASS = "PASS"
FAIL = "FAIL"
SKIPPED_DIVERGENT = "SKIPPED_DIVERGENT"

_LOG10_2 = math.log10(2)


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


def _matched_digits(lhs: mpf, rhs: mpf, cap: int) -> int:
    """floor(-log10 diff) clamped to [0, cap], diff the difference relative
    to |rhs| unless |rhs| < 1, in which case it is absolute.

    Exact on the binary value diff = man 2^exp: d digits match iff
    man 10^d <= 2^-exp.  The bit lengths give an estimate of d that
    integer comparisons then correct, so a diff that is the binary
    rounding of 10^-d, lying just above it, counts d - 1 digits.
    """
    diff = abs(lhs - rhs)
    if abs(rhs) >= 1:
        diff = diff / abs(rhs)
    if diff == 0:
        return cap
    man, exp = diff.man_exp
    if exp >= 0:
        return 0
    limit = 1 << -exp
    digits = min(cap, max(0, math.floor((-exp - man.bit_length()) * _LOG10_2)))
    while digits > 0 and man * 10 ** digits > limit:
        digits -= 1
    while digits < cap and man * 10 ** (digits + 1) <= limit:
        digits += 1
    return digits


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
        report.detail = "the series diverges (beyond or on the radius 27/4)"
        report.elapsed = time.perf_counter() - start
        return report
    try:
        with ctx.workdps():
            rhs = record.rhs_value(ctx)
            result = sum_record(record, digits, ctx)
            lhs = result.value
            matched = _matched_digits(lhs, rhs, digits)
            # allowance for roundoff of both pipelines at working precision
            slack = (mpf(10) ** (-(ctx.working_digits - 5))
                     * max(mpf(1), abs(rhs)))
            if matched >= digits - 2 and abs(lhs - rhs) <= 3 * result.tail + slack:
                report.status = PASS
            else:
                report.detail = (f"matched {matched} digits; "
                                 f"|lhs-rhs| = {mp.nstr(abs(lhs - rhs), 5)} "
                                 f"vs tail {mp.nstr(result.tail, 5)}")
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


# Planned ns of a verification besides its sum (see series.planned_ns for
# the host): the report and digit match, and the closed form.  A family's
# level (a cube root, an arctangent and a logarithm in fixed point) takes
# 60 us at 25 digits and 4 ms at 1000; an expression record's closed form,
# typically an arctangent and a logarithm in mpmath, about half that at
# 1000 digits.
_REPORT_NS = 100_000.0
_LEVEL_NS, _LEVEL_NS_PER_DIGIT2 = 60_000.0, 4.0
_EXPR_NS, _EXPR_NS_PER_DIGIT2 = 80_000.0, 2.2


def planned_cost(record: IdentityRecord, digits: int, budget: int) -> float:
    """Planned ns of verify(record, digits) within a term budget, for
    scheduling; 0 for a skipped record.  Never raises for a record that
    verify accepts.

    A family's closed form costs one level per branch: two for a
    Fibonacci or Lucas weight, which Binet splits, else one.
    """
    if record.convergence == "divergent_formal":
        return 0.0
    square = digits * digits
    if isinstance(record.rhs, TheoremParams):
        branches = 1 if record.lhs.weight.kind == "unit" else 2
        rhs = branches * (_LEVEL_NS + _LEVEL_NS_PER_DIGIT2 * square)
    else:
        rhs = _EXPR_NS + _EXPR_NS_PER_DIGIT2 * square
    return _REPORT_NS + rhs + planned_ns(record.lhs, digits, budget)


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
    level-a form; the derivative is taken by central differences with
    h = 10^(-digits/3), so agreement of digits/3 digits is the bar.
    """
    if level not in ("A_to_B", "B_to_C"):
        raise ValueError(f"level must be 'A_to_B' or 'B_to_C', got {level!r}")
    ctx = context_for(digits, ctx)
    lower, upper = (A_rhs, B_rhs) if level == "A_to_B" else (B_rhs, C_rhs)
    start = time.perf_counter()
    with ctx.workdps():
        x, y = pair.values(ctx)
        if x == y:
            raise DomainError("differential check is singular at x = y")
        closed = upper(pair, ctx)  # the given pair is checked first
        h = mpf(10) ** (-mpf(digits) / 3)
        f_plus = lower(XYPair(x + h, y), ctx)
        f_minus = lower(XYPair(x - h, y), ctx)
        derivative = (f_plus - f_minus) / (2 * h)
        transformed = x * (x + y) / (y - x) * derivative
        required = digits // 3
        matched = _matched_digits(transformed, closed, digits)
    return VerificationReport(
        identity_id=f"diff-{level}-{x}-{y}".replace(".", "p"),
        target_digits=digits,
        status=PASS if matched >= required else FAIL,
        matched_digits=matched,
        lhs_value=transformed, rhs_value=closed,
        elapsed=time.perf_counter() - start,
        detail=f"central difference h = 1e-{digits}/3" if matched >= required
        else f"only {matched} of {required} digits agree",
    )
