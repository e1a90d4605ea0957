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
exact difference-quotient tree against a level node of the pair as given
(refused where not finite, at y = 0 and at |x| < |y|), both at the same
working precision, and counts its digits by the same comparison with no
tail.

:func:`verify_all` plans every record once (:func:`series.plan`) and
groups the records whose kernel plans share |z| and the weight's
recurrence, the unit weight or the m of a Fibonacci or Lucas weight
(:func:`_groups`).  One kernel pass (``series._kernel_group``) sums each
group, each member then certified with its own K, roundoff and tail: a
member of the pass's z reads its sum whole, one of -z reads the sum
over even k less the sum over odd k, and a Lucas member of a group that
holds Fibonacci members too reads 2y - x off the Fibonacci pair, whose
roundoff bound is sqrt5 times as wide in its state part.  It prices each
group by what it runs (:func:`_group_cost`, from :func:`_cost`, the one
cost model),
splits the groups by those prices (:func:`lpt_partition`, longest
first), verifies one part in this process and each other part in a
forked child process, and hands each sum its record's plan, or its share
of its group's pass (``series._sum_planned``), so no record is planned
twice; a plan that raised is made again by its sum, which raises the
same error in its own order.  The right-hand sides of one part share
what they compute: each process evaluates each cube root, arctangent
and logarithm once per argument and W (``closed_forms._fixed``), and a
record that reads a value back pays nothing for it in its elapsed time.
A child sends each report back as one plain tuple of its fields, the
mpf values as their ``_mpf_`` tuples, and this process rebuilds them bit
for bit.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, fields
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from mpmath import mp, mpf
from mpmath.libmp import to_rational, to_str

from .closed_forms import (TheoremParams, XYPair, _evaluate, _outside,
                           eval_expr)
from .errors import Binom3kError, DomainError, InvalidParams
from .expressions import cbrt, level as level_node, ratlit
from .precision import PrecisionContext, _unscale, context_for
from .registry import IdentityRecord, instance_id, instantiate
from . import series
from .series import (_BITS_PER_DIGIT, _GUARD_BITS, DIVERGES, Plan, Summed,
                     SumResult, _sum_planned, sum_boundary_detailed,
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


def _check_digits(digits: int) -> None:
    """The refusal of a target below 5 digits, before any work."""
    if digits < 5:
        raise ValueError("digits must be >= 5")


def verify(record: IdentityRecord, digits: int,
           ctx: Optional[PrecisionContext] = None) -> VerificationReport:
    """Verify one catalog record to the requested digit target."""
    _check_digits(digits)
    return _verify_record(record, digits, ctx, None, None)


def _planned(record: IdentityRecord, digits: int,
             budget: int) -> Optional[Plan]:
    """The plan of the record's sum within ``budget`` terms; None for a
    skipped record or a plan that raised."""
    if record.convergence == "divergent_formal":
        return None
    try:
        return series.plan(record.lhs, digits, budget)
    except Binom3kError:
        return None


def _verify_record(record: IdentityRecord, digits: int,
                   ctx: Optional[PrecisionContext],
                   chosen: Union[Plan, Summed, None],
                   memo: Optional[dict]) -> VerificationReport:
    """verify, summing by ``chosen``, the record's _planned at ``digits``
    within the context's budget or its series.Summed share of a group's
    pass, or by sum_record, which plans for itself, when it is None.
    Either way the right-hand side comes first, and a plan that raised
    (None) is made again by the sum, after its checks, so it is refused in
    verify's order and words.  The right-hand side reads back from
    ``memo`` what earlier records of its part computed (closed_forms.
    _evaluate), or is record.rhs_value, as verify computes it, when
    ``memo`` is None."""
    ctx = context_for(digits, ctx)
    start = time.perf_counter()
    report = VerificationReport(record.id, digits, FAIL)
    if record.convergence == "divergent_formal":
        report.status = SKIPPED_DIVERGENT
        report.detail = DIVERGES
        report.elapsed = time.perf_counter() - start
        return report
    try:
        rhs = (record.rhs_value(ctx) if memo is None
               else _evaluate(record.rhs, ctx, memo))
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


# Planned ns of one verification on a 2-vCPU x86_64 guest under CPython
# 3.11, for scheduling.  The report and digit match cost _REPORT_NS, and
# the closed form one level (a cube root, an arctangent and a logarithm
# in fixed point) per branch: 31 us at 25 digits, 52 us at 100 and 2.2 ms
# at 1000, against a measured median of 29-35 us, 52-76 us and 2.2-2.4 ms
# per level.  A surd tree of the catalog, walked in the same fixed point,
# takes a median of 42, 72 and 2260 us, about 1.35 levels at 25 and 100
# digits and one at 1000; the price leaves that out, as it reads no tree.
#
# A sum costs its steps, measured on steps of fixed width; the state of a
# geometric sum shrinks from B bits to the roundoff as its terms fall, so
# its steps are counted at half the working bits.  A kernel step of the
# unit weight at a = 0 is one product and one floor division by
# single-digit (< 2^30) integers; a >= 1 adds the division by k^a, the
# pair state doubles the products and divisions, and a ratio denominator
# 27 q k^2 (or a k^2) past 2^30 makes those divisions multi-digit.  The
# prices were measured so, before the kernel state carried 1/k: now a
# sum at a = 1 reads its term with no division, one at a = 2 divides
# once by k < 2^30, and a shared pass adds one product and one division
# by k per step.  The prices are kept, as the split they give stays
# balanced (_cost).  A pass that keeps the y sums of a Lucas member read
# off a Fibonacci state costs _LUCAS_READ_SHARE more: the six pn2-q5
# records took 1.24-1.36 times a Fibonacci pass at 1000 digits and 1.37
# times at 100.  A CRVZ
# term is a kernel term read on its own plus one product with a weight of
# about n log2(3 + sqrt8) bits; the telescope adds O(J^2) products of its
# coefficients.
_REPORT_NS = 100_000.0
_LEVEL_NS, _LEVEL_NS_PER_DIGIT2 = 30_000.0, 2.2
_STEP_NS = 300.0
_STEP_NS_PER_BIT = 0.36
_DIVISION_SHARE = 1.5  # a >= 1
_PAIR_SHARE = 2.3
_LUCAS_READ_SHARE = 0.3
_WIDE_NS_PER_BIT = 0.55
_CRVZ_NS_PER_BIT = 6.5
_TELESCOPE_NS_PER_BIT = 0.8  # per J^2


def _levels(record: IdentityRecord) -> int:
    """The levels a closed form is priced at, one per branch, read off the
    weight and not the tree: two for a Fibonacci or Lucas weight, which
    Binet splits, else one."""
    return 1 if record.lhs.weight.kind == "unit" else 2


def _cost(record: IdentityRecord, digits: int, chosen: Optional[Plan]
          ) -> float:
    """Planned ns of verify(record, digits) summing by ``chosen``, the
    record's _planned: 0 for a skipped record, and no sum when ``chosen``
    is None.

    A closed form costs its _levels.  A record alone pays for all of
    them; _group_cost prices the members of a group by what they share.
    The split stays balanced so, with the kernel state that carries 1/k
    and one pass per |z| and weight recurrence: at jobs=2 the two parts
    of the benchmark's 40 hiprec records at 1000 digits took 53.7 and
    55.9 ms, those of the catalog at 100 digits 10.8 and 11.9 ms, and
    those of the sweep's 237 points at 25 digits 10.5 and 9.8 ms, best of
    5 to 9 in one process on the guest above, one part after the other.
    """
    if record.convergence == "divergent_formal":
        return 0.0
    spec, weighted = record.lhs, record.lhs.weight.kind != "unit"
    cost = _REPORT_NS + _levels(record) * (
        _LEVEL_NS + _LEVEL_NS_PER_DIGIT2 * digits * digits)
    if chosen is None:
        return cost
    K, bits = chosen.terms, digits * _BITS_PER_DIGIT + _GUARD_BITS
    if chosen.method == "crvz":
        return cost + K * bits * _CRVZ_NS_PER_BIT
    share = ((_DIVISION_SHARE if spec.a else 1.0)
             * (_PAIR_SHARE if weighted else 1.0))
    narrow = math.isqrt((1 << 30) // (27 * spec.z.denominator))
    wide = max(0.0, K - narrow)
    if spec.a == 2:  # k^2 past 2^30
        wide += max(0.0, K - (1 << 15))
    kernel_ns = share * (K * (_STEP_NS + _STEP_NS_PER_BIT * bits / 2)
                         + wide * _WIDE_NS_PER_BIT * bits / 2)
    return cost + (kernel_ns
                   + chosen.J * chosen.J * bits * _TELESCOPE_NS_PER_BIT)


def _key(spec: series.SeriesSpec, z: Fraction) -> tuple:
    """z, by its integers as a Fraction hashes slowly, and the weight's
    recurrence: the unit weight, or the m of a Fibonacci or Lucas one."""
    return (z.numerator, z.denominator,
            "unit" if spec.weight.kind == "unit" else spec.weight.m)


def _groups(records: Sequence[IdentityRecord],
            plans: Sequence[Optional[Plan]]) -> list[list[int]]:
    """The indices of ``records`` in groups, in the order of their first
    members: the geometric records whose plans run the kernel over the same
    |z| and weight recurrence (_key: the unit weight, or the m of a
    Fibonacci or Lucas weight) form one group, which series._kernel_group
    sums in one pass, and every other record is a group of its own."""
    groups, shared = [], {}
    for i, (record, chosen) in enumerate(zip(records, plans)):
        if (chosen is None or chosen.method != "kernel" or not chosen.terms
                or record.convergence != "geometric"):
            groups.append([i])
            continue
        group = shared.setdefault(_key(record.lhs, abs(record.lhs.z)), [])
        if not group:
            groups.append(group)
        group.append(i)
    return groups


def _group_cost(records: Sequence[IdentityRecord],
                plans: Sequence[Optional[Plan]], group: list[int],
                digits: int) -> float:
    """Planned ns of verifying a group: the _cost of a record alone, else
    what the group runs.  Each member pays its report and the walk of its
    closed form (_REPORT_NS and _LEVEL_NS per level), and the cube roots,
    arctangents and logarithms of its levels (_LEVEL_NS_PER_DIGIT2 d^2
    per level) are priced once per z and weight recurrence: the members of
    one z and the unit weight, or of one z and m, Fibonacci or Lucas,
    evaluate them at the same arguments and read them back
    (_verify_groups).  The one pass costs what the sum of its dearest
    member costs, plus _LUCAS_READ_SHARE of that where it keeps the y sums
    of a Lucas member read off a Fibonacci state; splitting the sums by
    the parity of k is priced at nothing, as those loops take two terms a
    step."""
    if len(group) == 1:
        return _cost(records[group[0]], digits, plans[group[0]])
    walks, functions, summed, kinds = 0.0, {}, 0.0, set()
    for i in group:
        record = records[i]
        levels = _levels(record)
        walks += _REPORT_NS + levels * _LEVEL_NS
        functions[_key(record.lhs, record.lhs.z)] = (
            levels * _LEVEL_NS_PER_DIGIT2 * digits * digits)
        summed = max(summed, _cost(record, digits, plans[i])
                     - _cost(record, digits, None))
        kinds.add(record.lhs.weight.kind)
    if len(kinds) > 1:
        summed *= 1 + _LUCAS_READ_SHARE
    return walks + sum(functions.values()) + summed


def _schedule(records: Sequence[IdentityRecord], digits: int, budget: int,
              parts: int) -> tuple[list[Optional[Plan]], list[list[list[int]]]]:
    """The plans of ``records`` within ``budget`` terms (_planned), and
    their groups (_groups) split into at most ``parts`` parts of about
    equal price (_group_cost) by lpt_partition, each part a list of groups
    in the order of their first members, so that no group straddles two
    parts.  Every part but part 0 holds a group: part 0 takes the dearest
    group, and it stays, empty, when there is none."""
    plans = [_planned(r, digits, budget) for r in records]
    groups = _groups(records, plans)
    costs = [_group_cost(records, plans, group, digits) for group in groups]
    split = [[groups[g] for g in part]
             for part in lpt_partition(costs, parts)]
    return plans, split[:1] + [part for part in split[1:] if part]


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


_MPF_FIELDS = ("lhs_value", "rhs_value", "tail")


def _raw(index: int, report: VerificationReport) -> tuple:
    """The index and the fields of a report, in field order, as one plain
    tuple, each mpf value as its raw _mpf_ tuple of ints, which pickles
    far cheaper than an mpf (a hex string)."""
    values = ((field.name, getattr(report, field.name))
              for field in fields(VerificationReport))
    return (index, *(value._mpf_ if name in _MPF_FIELDS and value is not None
                     else value for name, value in values))


def _rebuilt(raw: tuple) -> tuple[int, VerificationReport]:
    """The (index, report) pair of a _raw tuple, its values bit for bit."""
    index, *values = raw
    return index, VerificationReport(*(
        mp.make_mpf(value) if field.name in _MPF_FIELDS and value is not None
        else value for field, value in zip(fields(VerificationReport), values)))


def _verify_groups(records, plans, groups, digits, ctx
                   ) -> list[tuple[int, VerificationReport]]:
    """The (index, report) pairs of the records in ``groups``, each report
    by _verify_record and its record's plan.  A group of more than one is
    first run by one kernel pass (series._kernel_group), which hands each
    member its Summed plan; an equal share of that pass is added to each
    member's elapsed time.  The right-hand sides share one memo, made
    here and dropped on return: each cube root, arctangent and logarithm
    is computed once per argument and W in the part, by the first record
    that needs it, and a later record reads it back at no cost to its
    elapsed time."""
    pairs, memo = [], {}
    for group in groups:
        chosen, share = [plans[i] for i in group], 0.0
        if len(group) > 1:
            start = time.perf_counter()
            chosen = series._kernel_group([records[i].lhs for i in group],
                                          chosen, digits)
            share = (time.perf_counter() - start) / len(group)
        for i, member in zip(group, chosen):
            report = _verify_record(records[i], digits, ctx, member, memo)
            report.elapsed += share
            pairs.append((i, report))
    return pairs


def _verify_part(records, plans, part, digits, ctx, sender) -> None:
    """A forked child's work: send the _raw tuples of the reports of the
    groups of ``part``, or the exception that stopped it."""
    try:
        result = [_raw(i, report) for i, report
                  in _verify_groups(records, plans, part, digits, ctx)]
    except BaseException as exc:  # the parent raises it
        result = exc
    sender.send(result)
    sender.close()


def verify_all(catalog: Sequence[IdentityRecord], digits: int,
               ctx: Optional[PrecisionContext] = None,
               jobs: int = 1) -> dict:
    """Verify every record, reports in id order; failures are data, not
    exceptions.

    Digits below 5, and a context that targets fewer digits, are refused
    before anything starts.  The records,
    sorted by id, are each planned once here, grouped by |z| and the
    weight recurrence of their kernel plans, so that z and -z, and the
    Fibonacci and Lucas weights of one m, share a group, and split into at
    most ``jobs`` parts of about equal price, each holding a group
    (_schedule), with one process per part.  This process verifies part 0, and one child
    process per other part, started from the default
    multiprocessing context with a one-way pipe, verifies its part and
    sends its reports back as _raw tuples; under fork the records and
    their plans are inherited, not pickled.  Every group of more than one
    record is summed by one kernel pass, which each member reads with its
    sign and weight (series._kernel_group), and every other sum runs its
    record's plan, or plans again where planning raised (_verify_groups).
    Each process evaluates each cube root, arctangent and logarithm of its
    part's right-hand sides once per argument and W, and a record that
    reads one back pays nothing for it in its elapsed time; nothing of
    that outlives the call.  So the reports are the same at every number
    of parts, and at one part no process starts.  An exception raised in
    a child is raised here once every child has been joined; when this
    process's own part raises, the children are terminated and joined
    first.  No child outlives the call.
    """
    _check_digits(digits)
    records = sorted(catalog, key=lambda r: r.id)
    parts = max(1, min(jobs, len(records)))
    ctx = context_for(digits, ctx)
    plans, split = _schedule(records, digits, ctx.max_terms, parts)
    started, received = [], 0
    try:
        if len(split) > 1:
            import multiprocessing
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
        pairs = _verify_groups(records, plans, split[0], digits, ctx)
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
    mpf values at the working precision, and both sides start from those:
    the closed side is the level-(a-1) node at their binary values scaled
    to integers, and the quotient one exact tree at them, whose walk widens
    at the division by 2h, which covers the cancellation.  The pair is
    taken as given, where a level node would swap |x| < |y| into the window
    and give 0 at y = 0.  DomainError, in this order: at x = y; at a
    coordinate that is not finite, at y = 0 and at |x| < |y|; elsewhere
    outside the level-(a-1) window; and where x +- h crosses |x| = |y|.
    """
    if level not in ("A_to_B", "B_to_C"):
        raise ValueError(f"level must be 'A_to_B' or 'B_to_C', got {level!r}")
    _check_digits(digits)
    ctx = context_for(digits, ctx)
    a = 2 if level == "A_to_B" else 1
    start = time.perf_counter()
    xv, yv = pair.values(ctx)
    if xv == yv:
        raise DomainError("differential check is singular at x = y")
    if not (mp.isfinite(xv) and mp.isfinite(yv)):
        raise _outside(a - 1, xv._mpf_, yv._mpf_, ctx.prec)
    if not yv:
        raise DomainError("y must be nonzero")
    xq, yq = (Fraction(*to_rational(v._mpf_)) for v in (xv, yv))
    if abs(xq) < abs(yq):
        raise _outside(a - 1, xv._mpf_, yv._mpf_, ctx.prec)
    # the node at the pair's integers, which it reads exactly, where a
    # coordinate below 2^-W would be floored; it checks the window
    scale = max(xq.denominator, yq.denominator)  # a power of 2
    closed = eval_expr(level_node(a - 1, xq * scale, yq * scale), ctx)
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
