"""Comparison engine: certified series brackets vs. closed-form values.

A verification sums the left-hand series with a certified tail bound
(:func:`sum_record`: :func:`series.sum_to_digits`, or
:func:`series.sum_boundary_detailed` at z = +-27/4, by :func:`series.plan`)
and evaluates the right-hand closed form, both at the context's working
precision, which :func:`verify` passes as a value: it neither reads nor
sets mpmath's global precision.  PASS is bracket consistency |lhs - rhs|
<= 3 tail + 10^-(working - 5) max(1, |rhs|), the slack covering the
roundoff of both sides at working precision.  One exact comparison
(:func:`_compare`) decides the bracket, counts the matched digits and
gives the gap that a FAIL prints: it brings the binary values of lhs, rhs
and tail to one exponent and reads all three off one integer difference,
with no ``libmp`` rounding; only the printed gap is rounded, to working
precision.  The matched digits, reported with every verdict, are
floor(-log10(|lhs - rhs| / max(1, |rhs|))) capped at the target, counted
on those binary values.  As the tail is proved below 10^-target and the
slack is 10^-(target + 21) max(1, |rhs|), a bracket that holds puts that
quotient below 3.0...1 10^-target, so at least target - 1 digits match.
Records whose series diverges are skipped.
:func:`summary_counts` is the one place that counts pass, fail and skipped
reports.  :func:`differential_check` checks the derivative chain by one
exact difference-quotient tree, at the same working precision, and counts
its digits by the same comparison with no tail.

:func:`verify_all` with ``jobs`` > 1 plans every record once
(:func:`series.plan`), splits the records by the planned cost read off
those plans (:func:`lpt_partition`, longest first), verifies one part in
this process and each other part in a forked child process, and hands
each sum its record's plan (``series._sum_planned``), so no record is
planned twice.  A child sends each report back as one plain tuple of its
raw fields, the values as their ``_mpf_`` tuples, and this process
rebuilds them bit for bit.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from mpmath import mp, mpf
from mpmath.libmp import to_rational, to_str

from .closed_forms import B_rhs, C_rhs, TheoremParams, XYPair, eval_expr
from .errors import Binom3kError, DomainError, InvalidParams
from .expressions import cbrt, level as level_node, ratlit
from .precision import PrecisionContext, _unscale, context_for
from .registry import IdentityRecord, instance_id, instantiate
from .series import (DIVERGES, Plan, SumResult, _sum_planned, _try_plan,
                     sum_boundary_detailed, sum_to_digits)

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


def _compare(lhs: mpf, rhs: mpf, tail: mpf, n: int,
             cap: int) -> tuple[bool, int, tuple[int, int]]:
    """The one comparison of the two sides, for finite lhs and rhs and a
    finite tail >= 0: (inside, matched, gap).

    Exact on the binary values: each is man 2^exp, so at the least
    exponent e (and 0, the exponent of 1) all three are integers L, R and
    T times 2^e.  With D = |L - R| and S = max(2^-e, |R|):

    - inside: the bracket |lhs - rhs| <= 3 tail + 10^-n max(1, |rhs|),
      the last term the allowance for the roundoff of both sides at
      working precision, that is 10^n (D - 3T) <= S;
    - matched: floor(-log10(|lhs - rhs| / max(1, |rhs|))) clamped to
      [0, cap], the largest d <= cap with D 10^d <= S: below the cap, the
      exponent of the leading digit of S // D, which Decimal reads past
      str's 4300-digit limit;
    - gap: |lhs - rhs| as the fixed-point pair (D, -e) of
      precision._unscale.
    """
    (ls, lm, le, _), (rs, rm, re, _), (_, tm, te, _) = (
        lhs._mpf_, rhs._mpf_, tail._mpf_)
    e = min(le, re, te, 0)
    left, right = (-lm if ls else lm) << le - e, (-rm if rs else rm) << re - e
    diff, size = abs(left - right), max(1 << -e, abs(right))
    excess = diff - (3 * tm << te - e)
    inside = excess <= 0 or excess * 10 ** n <= size
    matched = (cap if diff * 10 ** cap <= size
               else Decimal(size // diff).adjusted())
    return inside, matched, (diff, -e)


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
    return _verify_record(record, digits, ctx, None)


def _planned(record: IdentityRecord, digits: int, budget: int):
    """The plan of the record's sum within ``budget`` terms, or the error
    that planning raised, which the sum raises in its turn
    (series._sum_planned); None for a skipped record."""
    if record.convergence == "divergent_formal":
        return None
    return _try_plan(record.lhs, digits, budget)


def _verify_record(record: IdentityRecord, digits: int,
                   ctx: Optional[PrecisionContext], chosen
                   ) -> VerificationReport:
    """verify, summing by ``chosen``, the record's _planned at ``digits``
    within the context's budget, or by sum_record, which plans for itself,
    when it is None.  Either way the right-hand side comes first, so a
    plan's error is reported only where the sum's would be."""
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
        if chosen is None:
            result = sum_record(record, digits, ctx)
        else:
            boundary = record.convergence != "geometric"
            result = _sum_planned(record.lhs, boundary, chosen, digits, ctx)
        lhs = result.value
        inside, matched, gap = _compare(lhs, rhs, result.tail,
                                        ctx.working_digits - 5, digits)
        if inside:
            report.status = PASS
        else:
            gap = _unscale(*gap, ctx.prec)._mpf_
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
    verify accepts."""
    return _cost(record, digits, _planned(record, digits, budget))


def _cost(record: IdentityRecord, digits: int, chosen) -> float:
    """planned_cost read off the record's _planned ``chosen``: a plan that
    raised costs no sum.

    A closed form costs one level per branch, read off the weight and
    not the tree: two for a Fibonacci or Lucas weight, which Binet
    splits, else one.
    """
    if chosen is None:  # a skipped record
        return 0.0
    branches = 1 if record.lhs.weight.kind == "unit" else 2
    rhs = branches * (_LEVEL_NS + _LEVEL_NS_PER_DIGIT2 * digits * digits)
    return _REPORT_NS + rhs + (chosen.cost_ns if isinstance(chosen, Plan)
                               else 0.0)


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


def _raw(index: int, report: VerificationReport) -> tuple:
    """The index and fields of a report as one plain tuple, each value as
    its raw _mpf_ tuple of ints, which pickles far cheaper than an mpf (a
    hex string)."""
    lhs, rhs, tail = (value if value is None else value._mpf_ for value
                      in (report.lhs_value, report.rhs_value, report.tail))
    return (index, report.identity_id, report.target_digits, report.status,
            report.matched_digits, lhs, rhs, tail, report.terms_used,
            report.elapsed, report.detail)


def _rebuilt(fields: tuple) -> tuple[int, VerificationReport]:
    """The (index, report) pair of a _raw tuple, its values bit for bit."""
    (index, identity, target, status, matched, lhs, rhs, tail, terms,
     elapsed, detail) = fields
    lhs, rhs, tail = (value if value is None else mp.make_mpf(value)
                      for value in (lhs, rhs, tail))
    return index, VerificationReport(
        identity_id=identity, target_digits=target, status=status,
        matched_digits=matched, lhs_value=lhs, rhs_value=rhs,
        terms_used=terms, tail=tail, elapsed=elapsed, detail=detail)


def _verify_part(records, plans, part, digits, ctx, sender) -> None:
    """A forked child's work: send the _raw tuples of the reports of
    ``part``, each record summed by its plan, or the exception that
    stopped it."""
    try:
        result = [_raw(i, _verify_record(records[i], digits, ctx, plans[i]))
                  for i in part]
    except BaseException as exc:  # the parent raises it
        result = exc
    sender.send(result)
    sender.close()


def verify_all(catalog: Sequence[IdentityRecord], digits: int,
               ctx: Optional[PrecisionContext] = None,
               jobs: int = 1) -> dict:
    """Verify every record, reports in id order; failures are data, not
    exceptions.

    The records, sorted by id, are each planned once here (_planned) and
    split into min(jobs, records) parts of about equal planned cost, read
    off those plans, by lpt_partition.  This process verifies part 0, and
    one child process per other part, started from the default
    multiprocessing context with a one-way pipe, verifies its part and
    sends its reports back as _raw tuples; under fork the records and
    their plans are inherited, not pickled.  Each sum runs its record's
    plan.  At one part no process starts and nothing is planned ahead:
    each record is verified as verify does it.  An exception raised in a
    child is raised here once every child has been joined; when this
    process's own part raises, the children are terminated and joined
    first.  No child outlives the call.
    """
    records = sorted(catalog, key=lambda r: r.id)
    parts = min(jobs, len(records))
    plans, split = [None] * len(records), [range(len(records))]
    started, received = [], 0
    try:
        if parts > 1:
            import multiprocessing
            ctx = context_for(digits, ctx)
            plans = [_planned(r, digits, ctx.max_terms) for r in records]
            split = lpt_partition([_cost(r, digits, chosen) for r, chosen
                                   in zip(records, plans)], parts)
            for part in split[1:]:
                receiver, sender = multiprocessing.Pipe(duplex=False)
                child = multiprocessing.Process(
                    target=_verify_part,
                    args=(records, plans, part, digits, ctx, sender))
                try:
                    child.start()
                finally:
                    sender.close()
                started.append((child, receiver))
        pairs = [(i, _verify_record(records[i], digits, ctx, plans[i]))
                 for i in split[0]]
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
                pairs += map(_rebuilt, result)
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
    so agreement of digits/3 digits is the bar.  The pair is read once, to
    mpf values at the working precision, and both sides start from those.
    The quotient is one exact tree at their binary values; its walk widens
    at the division by 2h, which covers the cancellation.  DomainError at
    x = y, outside the upper level's window, and where x +- h crosses
    |x| = |y|.
    """
    if level not in ("A_to_B", "B_to_C"):
        raise ValueError(f"level must be 'A_to_B' or 'B_to_C', got {level!r}")
    if digits < 5:
        raise ValueError("digits must be >= 5")
    ctx = context_for(digits, ctx)
    a, upper = (2, B_rhs) if level == "A_to_B" else (1, C_rhs)
    start = time.perf_counter()
    xv, yv = pair.values(ctx)
    if xv == yv:
        raise DomainError("differential check is singular at x = y")
    closed = upper(XYPair(xv, yv), ctx)  # the given pair is checked first
    xq, yq = (Fraction(*to_rational(v._mpf_)) for v in (xv, yv))
    if (abs(xq) - abs(yq)) ** 3 * 10 ** digits <= 1:
        raise DomainError(f"the stencil x +- h, h = 1e-{digits}/3, crosses "
                          f"|x| = |y|: differential check needs |x| - |y| > h")
    x, y, h = ratlit(xq), ratlit(yq), cbrt(ratlit(1, 10 ** digits))
    slope = (level_node(a, x + h, y) - level_node(a, x - h, y)) / (2 * h)
    transformed = eval_expr(x * (x + y) / (y - x) * slope, ctx)
    required = digits // 3
    passed, matched, _ = _compare(transformed, closed, mpf(0), required,
                                  digits)
    name = "-".join(to_str(v._mpf_, 15) for v in (xv, yv))
    return VerificationReport(
        identity_id=f"diff-{level}-{name}".replace(".", "p"),
        target_digits=digits,
        status=PASS if passed else FAIL,
        matched_digits=matched,
        lhs_value=transformed, rhs_value=closed,
        elapsed=time.perf_counter() - start,
        detail=f"central difference h = 1e-{digits}/3" if passed
        else f"only {matched} of {required} digits agree",
    )
