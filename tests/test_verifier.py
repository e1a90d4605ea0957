import dataclasses
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from mpmath.libmp import to_rational, to_str

from binom3k import builtin_catalog
from binom3k import expressions as ex
from binom3k import verifier
from binom3k.cli import _suite_json
from binom3k.closed_forms import TheoremParams, XYPair, eval_expr
from binom3k.errors import DomainError, InvalidParams, MaxTermsExceeded
from binom3k.precision import make_context
from binom3k.registry import IdentityRecord, instantiate
from binom3k.sequences import HoradamParams
from binom3k.series import SeriesSpec, UNIT_WEIGHT, _vanishes
from binom3k.verifier import (differential_check, lpt_partition, sweep,
                              verify, verify_all)
from binom3k.verifier import (FAIL, PASS, SKIPPED_DIVERGENT,
                              VerificationReport, summary_counts)
from test_family_pairs import SWEEP_GRID


def test_verify_italy(record_of):
    report = verify(record_of("eq-italy"), 40)
    assert report.status == "PASS"
    assert report.matched_digits >= 38
    assert abs(report.lhs_value - report.rhs_value) <= 3 * report.tail + mpf(10) ** -45


def test_verify_boundary(record_of):
    for record_id in ("eq-27-4", "alt-27-4"):
        report = verify(record_of(record_id), 40)
        assert report.status == "PASS"
        assert report.matched_digits >= 38
        assert report.tail < mpf(10) ** -40
        assert (abs(report.lhs_value - report.rhs_value)
                <= report.tail + mpf(10) ** -45)


def test_verify_divergent(record_of):
    report = verify(record_of("xy-27-neg8-a2"), 40)
    assert report.status == "SKIPPED_DIVERGENT"
    assert report.ok


def test_verify_rejects_small_digits(record_of):
    with pytest.raises(ValueError):
        verify(record_of("eq-italy"), 3)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("digits", range(5))
def test_verify_all_rejects_small_digits_before_it_starts(catalog, record_of,
                                                         monkeypatch, jobs,
                                                         digits):
    with pytest.raises(ValueError) as refused:
        verify(record_of("eq-italy"), digits)
    started = []
    monkeypatch.setattr(multiprocessing.Process, "start",
                        lambda process: started.append(process))
    with pytest.raises(ValueError) as raised:
        verify_all(catalog, digits, jobs=jobs)
    assert str(raised.value) == str(refused.value) == "digits must be >= 5"
    assert started == []


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("size", [0, 73])
def test_verify_all_refuses_a_context_below_the_target_before_it_starts(
        catalog, monkeypatch, jobs, size):
    started = []
    monkeypatch.setattr(multiprocessing.Process, "start",
                        lambda process: started.append(process))
    with pytest.raises(ValueError, match="fewer than the 40 requested"):
        verify_all(catalog[:size], 40, make_context(30), jobs=jobs)
    assert started == []


def make_record(rhs_expr, z=Fraction(8, 3)):
    return IdentityRecord(
        id="unit-test-record", note="synthetic",
        lhs=SeriesSpec(z, 2, UNIT_WEIGHT), rhs=rhs_expr,
        validity="", convergence="geometric")


def test_verify_detects_wrong_rhs():
    # pi^2/6 - ln^2(3)/2 is correct; perturbing it must FAIL
    wrong = (ex.PI ** 2 / ex.intlit(6)
             - ex.log(ex.intlit(3)) ** 2 / ex.intlit(2)
             + ex.ratlit(Fraction(1, 10 ** 12)))
    report = verify(make_record(wrong), 30)
    assert report.status == "FAIL"
    assert not report.ok
    assert report.matched_digits < 28
    # the gap printed is the exact difference rounded to working precision
    diff = exact(report.lhs_value) - exact(report.rhs_value)
    with mp.workprec(make_context(30).prec):
        gap = abs(mpf(diff.numerator) / diff.denominator)  # 2^k: exact
    assert report.detail == (
        f"matched {report.matched_digits} digits; "
        f"|lhs-rhs| = {to_str(gap._mpf_, 5)} "
        f"vs tail {to_str(report.tail._mpf_, 5)}")


@pytest.mark.parametrize("terms", [1200, 5000])
def test_verify_fails_a_tree_nested_too_deep(terms):
    from test_tree_walk import left_deep_sum
    report = verify(make_record(left_deep_sum(terms)), 30)
    assert report.status == "FAIL"
    assert report.detail == ("DomainError: expression tree nested deeper "
                             "than the walk can follow")


def test_verify_max_terms_budget(record_of):
    from binom3k.precision import make_context
    ctx = make_context(40, 100)
    report = verify(record_of("eq-20-3"), 30, ctx)
    assert report.status == "FAIL"
    assert "MaxTermsExceeded" in report.detail


def exact(x: mpf) -> Fraction:
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


@settings(max_examples=400, deadline=None)
@given(n=st.integers(10, 1030),
       rhs_kind=st.sampled_from(["zero", "below one", "one or more"]),
       rhs_man=st.integers(-2 ** 64, 2 ** 64).filter(bool),
       rhs_shift=st.integers(0, 200),
       tail_shift=st.one_of(st.none(), st.integers(-30, 30)),
       extra_bits=st.sampled_from([0, 8, 64, 300]),
       wiggle=st.integers(-3, 3), side=st.sampled_from([-1, 1]),
       cap=st.integers(0, 1100))
def test_the_bracket_is_decided_exactly(n, rhs_kind, rhs_man, rhs_shift,
                                        tail_shift, extra_bits, wiggle, side,
                                        cap):
    # lhs within a few ulps of rhs +- (3 tail + 10^-n max(1, |rhs|)), the
    # knife edge of the bracket, against the same inequality in Fractions;
    # the digit count and the gap against the same exact difference
    bits = math.ceil(n * math.log2(10))
    prec = bits + 64 + extra_bits
    with mp.workprec(prec):
        if rhs_kind == "zero":
            rhs = mpf(0)
        elif rhs_kind == "below one":
            rhs = mp.ldexp(rhs_man, -rhs_man.bit_length() - rhs_shift)
        else:
            rhs = mp.ldexp(rhs_man, rhs_shift - 64)
            rhs = rhs if abs(rhs) >= 1 else mpf(rhs_man)
        tail = (mpf(0) if tail_shift is None
                else mp.ldexp(abs(rhs_man), tail_shift - bits - 64))
        edge = 3 * exact(tail) + max(1, abs(exact(rhs))) / Fraction(10) ** n
        offset = mpf(edge.numerator) / edge.denominator
        offset = mp.fadd(offset, mp.ldexp(wiggle, offset.man_exp[1]),
                         exact=True)
        lhs = mp.fadd(rhs, side * offset, exact=True)
    diff = abs(exact(lhs) - exact(rhs))
    inside, matched, (gap, gap_bits) = verifier._compare(lhs, rhs, tail, n,
                                                         cap)
    assert inside == (diff <= edge)
    quotient = diff / max(1, abs(exact(rhs)))
    assert matched == max(d for d in range(cap + 1)
                          if d == 0 or quotient * 10 ** d <= 1)
    assert Fraction(gap, 2 ** gap_bits) == diff


@settings(max_examples=400, deadline=None)
@given(digits=st.integers(5, 1000),
       rhs_kind=st.sampled_from(["zero", "below one", "one or more"]),
       rhs_man=st.integers(-2 ** 64, 2 ** 64).filter(bool),
       rhs_shift=st.integers(0, 200),
       tail_part=st.integers(0, 2 ** 32 - 1),
       wiggle=st.integers(-3, 3), side=st.sampled_from([-1, 1]))
def test_a_bracket_that_holds_matches_all_but_one_digit(
        digits, rhs_kind, rhs_man, rhs_shift, tail_part, wiggle, side):
    # verify's bracket, with a tail below 10^-digits as the sums prove it,
    # implies matched >= digits - 1, so PASS needs no digit gate: lhs is
    # a working-precision value within a few ulps of the bracket's edge
    ctx = make_context(digits)
    prec, n = ctx.prec, ctx.working_digits - 5
    with mp.workprec(prec):
        if rhs_kind == "zero":
            rhs = mpf(0)
        elif rhs_kind == "below one":
            rhs = mp.ldexp(rhs_man, -rhs_man.bit_length() - rhs_shift)
        else:
            rhs = mp.ldexp(rhs_man, rhs_shift)
        tail = mp.fdiv(tail_part, 2 ** 32 * 10 ** digits, rounding="d")
        edge = 3 * exact(tail) + max(1, abs(exact(rhs))) / Fraction(10) ** n
        offset = mpf(edge.numerator) / edge.denominator
        offset = mp.fadd(offset, mp.ldexp(wiggle, offset.man_exp[1]))
        lhs = rhs + side * offset
    assert exact(tail) < Fraction(1, 10 ** digits)
    inside, matched, _ = verifier._compare(lhs, rhs, tail, n, digits)
    if inside:
        assert matched >= digits - 1


@pytest.mark.parametrize("lhs,rhs,tail,n,inside", [
    # 10^-n |rhs| = 1: the edge itself is inside, a bit beyond it is not
    (10 ** 20 + 1, 10 ** 20, 0, 20, True),
    (10 ** 20 - 1, 10 ** 20, 0, 20, True),
    (Fraction(10 ** 20 + 1) + Fraction(1, 2 ** 40), 10 ** 20, 0, 20, False),
    # rhs = 0: |lhs| = 3 tail is inside, 2^-30 beyond it is more than 10^-10
    (Fraction(-3, 2 ** 50), 0, Fraction(1, 2 ** 50), 10, True),
    (Fraction(-3, 2 ** 50) - Fraction(1, 2 ** 30), 0, Fraction(1, 2 ** 50),
     10, False),
    # every exponent positive: 1 = 2^0 still sets the common exponent
    (2 ** 70, 2 ** 70 + 2 ** 65, 2 ** 62, 10, False),
    (2 ** 70, 2 ** 70 + 2 ** 65, 2 ** 64, 10, True),
])
def test_the_bracket_on_its_edge(lhs, rhs, tail, n, inside):
    with mp.workprec(200):
        lhs, rhs, tail = (mpf(x.numerator) / x.denominator
                          for x in map(Fraction, (lhs, rhs, tail)))
    assert verifier._compare(lhs, rhs, tail, n, 30)[0] == inside


def test_a_difference_that_rounds_to_the_slack_is_outside_the_bracket(
        monkeypatch):
    # lhs = 10^-n rounded up, rhs = 0, tail = 0: |lhs - rhs| exceeds the
    # slack 10^-n, though it equals its rounding at working precision
    from binom3k.precision import make_context
    from binom3k.series import SumResult
    for digits in range(5, 60):
        ctx = make_context(digits)
        n = ctx.working_digits - 5
        with ctx.workdps():
            lhs = mpf(10) ** -n
        if exact(lhs) > Fraction(1, 10 ** n):
            break
    else:
        pytest.fail("no 10^-n below 60 digits rounds up")
    monkeypatch.setattr(verifier, "sum_record",
                        lambda record, digits, ctx: SumResult(lhs, 1, mpf(0)))
    report = verify(make_record(ex.intlit(0)), digits, ctx)
    assert report.matched_digits == digits
    assert report.status == FAIL


def test_digits_are_counted_on_the_exact_difference(monkeypatch):
    # lhs = 10^k + 1 and rhs = 10^k are exact, so the relative difference
    # is exactly 10^-k: k digits match, even where 10^-k rounds up in
    # binary at the working precision
    from binom3k.series import SumResult
    for digits in range(8, 60):
        ctx, k = make_context(digits), digits - 3
        with mp.workprec(ctx.prec):
            if exact(mpf(1) / 10 ** k) > Fraction(1, 10 ** k):
                lhs = mpf(10 ** k + 1)
                break
    else:
        pytest.fail("no 10^-k below 60 digits rounds up")
    assert exact(lhs) == 10 ** k + 1
    monkeypatch.setattr(verifier, "sum_record",
                        lambda record, digits, ctx: SumResult(lhs, 1, mpf(0)))
    report = verify(make_record(ex.intlit(10 ** k)), digits, ctx)
    assert report.status == FAIL
    assert report.matched_digits == k


def test_a_term_budget_leaves_the_answer_bit_identical(record_of):
    from binom3k.precision import make_context
    record = record_of("xy-8-1d8-a2")
    tight = verify(record, 30, make_context(30, 64))
    default = verify(record, 30, make_context(30))
    assert tight.status == default.status == "PASS"
    assert tight.terms_used == default.terms_used == 23
    for name in ("lhs_value", "rhs_value", "tail"):
        assert getattr(tight, name).man_exp == getattr(default, name).man_exp


# The perturbation gate: every summed catalog record and every point of
# the sweep grid PASSes as it is and FAILs with its tree off by one part in
# 10^(d-3), a factor 1 +- 10^-(d-3), or a term +- 10^-(d-3) where the
# series vanishes and the tree is 0.
_GATE = [r for r in builtin_catalog() if r.convergence != "divergent_formal"]
_GATE += [instantiate(family, TheoremParams(family, **point))
          for family, points in SWEEP_GRID.items() for point in points]
# cases that still PASS: below 1 the sum's tail, the bracket's slack and
# the digit count are absolute, 10^-d, not d significant digits
_STILL_PASSES = {(25, "+", "cor5-fib-r4"), (25, "+", "cor5-fib-r6"),
                 (25, "-", "cor5-fib-r6"), (25, "-", "cor5-luc-r4"),
                 (25, "+", "cor5-luc-r6"), (25, "-", "cor5-luc-r6"),
                 (100, "+", "cor5-fib-r5"), (100, "-", "cor5-fib-r5"),
                 (100, "-", "cor5-fib-r6"), (100, "+", "cor5-luc-r5"),
                 (100, "-", "cor5-luc-r5"), (100, "-", "cor5-luc-r6")}
_ABSOLUTE = pytest.mark.xfail(strict=True,
                              reason="compared absolutely below 1")


def test_the_gate_covers_the_summed_catalog_and_the_sweep_grid():
    assert len(_GATE) == 69 + 237
    assert sum(_vanishes(record.lhs) for record in _GATE) == 17


@pytest.mark.parametrize("digits", [25, 100])
@pytest.mark.parametrize("record", _GATE, ids=lambda record: record.id)
def test_an_untouched_record_passes(record, digits):
    assert verify(record, digits).status == PASS


@pytest.mark.parametrize("digits,sign,record", [
    pytest.param(digits, sign, record, id=f"{record.id}-{digits}{sign}",
                 marks=_ABSOLUTE if (digits, sign, record.id) in _STILL_PASSES
                 else ())
    for digits in (25, 100) for sign in "+-" for record in _GATE])
def test_a_perturbed_record_fails(record, digits, sign):
    off = Fraction(int(sign + "1"), 10 ** (digits - 3))
    rhs = (record.rhs + ex.ratlit(off) if _vanishes(record.lhs)
           else record.rhs * ex.ratlit(1 + off))
    assert verify(dataclasses.replace(record, rhs=rhs), digits).status == FAIL


def test_verify_all_builtin_small(catalog):
    summary = verify_all(catalog, 15)
    assert summary["fail"] == 0
    assert summary["skipped"] == 4
    assert summary["pass"] == len(catalog) - 4
    ids = [r.identity_id for r in summary["reports"]]
    assert ids == sorted(ids)


def test_verify_all_empty():
    summary = verify_all([], 20)
    assert summary == {"pass": 0, "fail": 0, "skipped": 0, "reports": []}


def test_verify_all_single_record():
    correct = ex.PI ** 2 / ex.intlit(6) - ex.log(ex.intlit(3)) ** 2 / ex.intlit(2)
    summary = verify_all([make_record(correct)], 25)
    assert summary["pass"] == 1 and summary["fail"] == 0


def test_verify_all_parallel(catalog):
    subset = catalog[:6]
    summary = verify_all(subset, 15, jobs=2)
    assert summary["fail"] == 0
    assert len(summary["reports"]) == 6


def _fields(report):
    """Every field of a report but its elapsed time, mpf values exactly."""
    return tuple((name, getattr(value, "_mpf_", value))
                 for name, value in vars(report).items() if name != "elapsed")


def test_verify_all_gives_the_same_reports_at_every_job_count(catalog):
    serial = verify_all(catalog, 30, jobs=1)
    for jobs in (2, 3):
        parallel = verify_all(catalog, 30, jobs=jobs)
        assert multiprocessing.active_children() == []
        assert ([_fields(r) for r in parallel["reports"]]
                == [_fields(r) for r in serial["reports"]])
        assert ({k: v for k, v in parallel.items() if k != "reports"}
                == {k: v for k, v in serial.items() if k != "reports"})


@pytest.mark.parametrize("jobs", [42, 73])
def test_verify_all_starts_a_process_only_for_a_part_that_holds_a_group(
        catalog, monkeypatch, jobs):
    # the catalog's 34 groups at 30 digits fill 31 parts: 30 children
    started, real = [], multiprocessing.Process.start
    monkeypatch.setattr(multiprocessing.Process, "start",
                        lambda process: started.append(process)
                        or real(process))
    parallel = verify_all(catalog, 30, jobs=jobs)
    assert len(started) == 30
    assert multiprocessing.active_children() == []
    serial = verify_all(catalog, 30, jobs=1)
    assert ([_fields(r) for r in parallel["reports"]]
            == [_fields(r) for r in serial["reports"]])


def test_verify_all_plans_each_record_once_in_this_process(catalog,
                                                           monkeypatch):
    from binom3k import series
    real, parent = series.plan, os.getpid()
    records = sorted(catalog, key=lambda r: r.id)

    def counted(spec, digits, budget):
        planned.append(spec)
        return real(spec, digits, budget)

    def here_only(spec, digits, budget):
        if os.getpid() != parent:
            raise AssertionError("a child process planned a sum")
        return real(spec, digits, budget)
    for jobs in (1, 2):  # one part plans ahead too, for the shared passes
        planned = []
        monkeypatch.setattr(series, "plan", counted)
        summary = verify_all(catalog, 30, jobs=jobs)
        assert planned == [r.lhs for r in records
                           if r.convergence != "divergent_formal"]
        monkeypatch.setattr(series, "plan", here_only)
        again = verify_all(catalog, 30, jobs=jobs)
        assert multiprocessing.active_children() == []
        assert len(again["reports"]) == len(catalog)
        assert ([_fields(r) for r in again["reports"]]
                == [_fields(r) for r in summary["reports"]])


# the hiprec workload of the benchmark: the 40 geometric records at 1000
# digits with K <= 8192
HIPREC_IDS = (
    "alt-17-12 alt-8-3 eq-17-12 eq-italy thm1-fib-r3 thm1-luc-r2 "
    "thm1-luc-r3 thm10-fib-pn2-q5 thm10-luc-pn2-q5 thm3-fib-n3 thm4-fib-r3 "
    "thm4-luc-r2 thm4-luc-r3 thm6-fib-r3 thm6-luc-r2 thm6-luc-r3 "
    "thm6-luc-r6 thm7-fib-pn2-q5 thm7-luc-pn2-q5 thm9-fib-pn2-q5 "
    "thm9-luc-pn2-q5 trig-D-pi12 trig-D-pi8 trig-E-pi12 trig-F-pi12 "
    "trig-F-pi8 xy-1-1d27-a0 xy-1-1d27-a1 xy-1-1d27-a2 xy-1-neg1d27-a0 "
    "xy-1-neg1d27-a1 xy-1-neg1d27-a2 xy-8-1-a0 xy-8-1-a1 xy-8-1d8-a0 "
    "xy-8-1d8-a1 xy-8-1d8-a2 xy-8-neg1d8-a0 xy-8-neg1d8-a1 "
    "xy-8-neg1d8-a2").split()


@pytest.mark.parametrize("digits,hiprec,passes", [
    (30, False, None), (100, False, 30), (1000, True, 14)])
def test_verify_all_prints_what_verify_prints(catalog, monkeypatch, digits,
                                              hiprec, passes):
    # the members of a shared pass sum at its scale, so only raw trailing
    # bits of lhs and tail may move; every printed field stays
    from binom3k import series
    from binom3k.cli import _num_str
    records = ([r for r in catalog if r.id in HIPREC_IDS] if hiprec
               else catalog)
    assert len(records) == (40 if hiprec else 73)
    counted = []
    for name in ("_kernel", "_kernel_group"):
        def count(*args, real=getattr(series, name)):
            counted.append(args[0])
            return real(*args)
        monkeypatch.setattr(series, name, count)
    reports = verify_all(records, digits)["reports"]
    if passes is not None:
        assert len(counted) == passes
    for report in reports:
        alone = verify(next(r for r in records
                            if r.id == report.identity_id), digits)
        assert ([getattr(report, name) for name in (
            "identity_id", "status", "matched_digits", "terms_used",
            "detail")] == [getattr(alone, name) for name in (
                "identity_id", "status", "matched_digits", "terms_used",
                "detail")])
        assert (getattr(report.rhs_value, "_mpf_", None)
                == getattr(alone.rhs_value, "_mpf_", None))
        assert _num_str(report.lhs_value, digits) == _num_str(alone.lhs_value,
                                                               digits)
        assert _num_str(report.tail, 5) == _num_str(alone.tail, 5)


@pytest.fixture
def evaluations(monkeypatch):
    """The arguments of every mpf_cbrt, mpf_atan and mpf_log call that
    closed_forms makes in this process while it is on."""
    from binom3k import closed_forms
    calls = []
    for name in ("mpf_cbrt", "mpf_atan", "mpf_log"):
        def count(*args, real=getattr(closed_forms, name)):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(closed_forms, name, count)
    return calls


@pytest.mark.parametrize("digits,hiprec,shared,alone", [
    (100, False, 109, 215), (1000, True, 52, 127)])
def test_verify_all_evaluates_each_function_once_per_argument(
        catalog, evaluations, digits, hiprec, shared, alone):
    records = ([r for r in catalog if r.id in HIPREC_IDS] if hiprec
               else catalog)
    for _ in range(2):  # the second call computes all again
        evaluations.clear()
        verify_all(records, digits, jobs=1)
        assert len(evaluations) == shared
    evaluations.clear()
    for record in records:
        verify(record, digits)
    assert len(evaluations) == alone


@pytest.mark.parametrize("record_id,count", [
    ("thm9-luc-pn2-q5", 6), ("xy-8-1d8-a2", 2), ("eq-italy", 1),
    # its tree takes cbrt 17 three times and cbrt(179 + 126 sqrt2) twice,
    # each computed once in its walk
    ("alt-17-12", 4)])
def test_verify_of_one_record_computes_each_function_of_its_tree(
        record_of, evaluations, record_id, count):
    verify(record_of(record_id), 1000)
    assert len(evaluations) == count


def test_a_child_reads_back_the_right_hand_sides_that_verify_computes(
        catalog):
    records = [r for r in catalog if r.id in HIPREC_IDS]
    reports = verify_all(records, 1000, jobs=2)["reports"]
    assert multiprocessing.active_children() == []
    assert [r.identity_id for r in reports] == sorted(HIPREC_IDS)
    for report, record in zip(reports, sorted(records, key=lambda r: r.id)):
        assert report.rhs_value._mpf_ == verify(record, 1000).rhs_value._mpf_


def test_a_walk_that_widens_does_not_read_a_narrower_value(record_of,
                                                           tmp_path):
    # both trees take log 2 at z = 27/4; the second divides by 10^-40,
    # so its walk widens W before it reaches log 2
    from binom3k.registry import load_catalog, record_to_json, save_catalog
    boundary = record_of("eq-27-4")
    tiny = ex.ratlit(1, 10 ** 40)
    wide = dataclasses.replace(boundary, id="eq-27-4-wide",
                               rhs=boundary.rhs * tiny / tiny)
    path = tmp_path / "catalog.json"
    save_catalog([wide, boundary], path)
    records = load_catalog(path)
    assert [record_to_json(r) for r in records] == [
        record_to_json(wide), record_to_json(boundary)]
    reports = verify_all(records, 100)["reports"]
    assert [r.identity_id for r in reports] == ["eq-27-4", "eq-27-4-wide"]
    for report, record in zip(reports, (boundary, wide)):
        alone = verify(record, 100)
        assert report.status == alone.status == PASS
        assert (report.rhs_value._mpf_, report.lhs_value._mpf_,
                report.tail._mpf_) == (alone.rhs_value._mpf_,
                                       alone.lhs_value._mpf_,
                                       alone.tail._mpf_)


def test_each_member_of_a_shared_pass_takes_an_equal_share_of_its_time(
        record_of, monkeypatch):
    from binom3k import series
    clock = [0.0]
    monkeypatch.setattr(verifier.time, "perf_counter", lambda: clock[0])
    real = series._kernel_group

    def three_seconds(specs, plans, digits):
        clock[0] += 3.0
        return real(specs, plans, digits)
    monkeypatch.setattr(series, "_kernel_group", three_seconds)
    # eq-italy and xy-8-1-a* sum z = 8/3; eq-6 sums on its own
    records = [record_of(i) for i in ("xy-8-1-a1", "eq-6", "eq-italy",
                                      "xy-8-1-a0")]
    reports = verify_all(records, 30)["reports"]
    assert {r.identity_id: r.elapsed for r in reports} == {
        "eq-6": 0.0, "eq-italy": 1.0, "xy-8-1-a0": 1.0, "xy-8-1-a1": 1.0}


def test_a_right_hand_side_that_raises_in_a_shared_pass_is_reported(
        record_of):
    italy = record_of("eq-italy")
    broken = dataclasses.replace(italy, id="eq-italy-broken",
                                 rhs=ex.log(ex.intlit(-1)))
    reports = verify_all([italy, broken, record_of("xy-8-1-a0")],
                         30)["reports"]
    assert [r.status for r in reports] == [PASS, FAIL, PASS]
    assert reports[1].detail == verify(broken, 30).detail
    assert reports[1].detail.startswith("DomainError: log of nonpositive")


def test_verify_all_refuses_the_same_at_every_job_count(catalog):
    from binom3k.series import plan
    ctx = make_context(100, 64)
    reports = {jobs: verify_all(catalog, 100, ctx, jobs=jobs)
               for jobs in (1, 2, 3)}
    assert multiprocessing.active_children() == []
    serial = reports[1]
    assert ({k: v for k, v in serial.items() if k != "reports"}
            == {"pass": 1, "fail": 68, "skipped": 4})
    refused = [r.detail for r in serial["reports"] if r.status == FAIL]
    assert all(re.fullmatch(r"MaxTermsExceeded: (kernel|crvz|telescope) "
                            r"summation to 100 digits needs more than 64 "
                            r"terms \(the term budget\)", detail)
               for detail in refused)
    for jobs in (2, 3):
        assert ([_fields(r) for r in reports[jobs]["reports"]]
                == [_fields(r) for r in serial["reports"]])
    # a right-hand side that raises is reported before the plan's refusal
    record = make_record(ex.log(ex.intlit(-1)))
    with pytest.raises(MaxTermsExceeded):
        plan(record.lhs, 100, 64)
    for jobs in (1, 2):
        report, = [r for r in verify_all([*catalog, record], 100, ctx,
                                         jobs=jobs)["reports"]
                   if r.identity_id == record.id]
        assert report.status == FAIL
        assert report.detail.startswith("DomainError: log of nonpositive")


def test_verify_all_takes_more_jobs_than_records(catalog):
    subset = catalog[:3]
    summary = verify_all(subset, 15, jobs=8)
    assert multiprocessing.active_children() == []
    assert [r.identity_id for r in summary["reports"]] == sorted(
        r.id for r in subset)
    assert summary["fail"] == 0


def test_verify_all_starts_no_process_for_one_part():
    # neither at jobs = 1, nor with one record, nor for the two records of
    # one shared pass is multiprocessing imported
    script = ("import sys\n"
              "from binom3k import builtin_catalog, verify_all\n"
              "catalog = builtin_catalog()\n"
              "verify_all(catalog[:3], 10, jobs=1)\n"
              "verify_all(catalog[:1], 10, jobs=4)\n"
              "pair = [r for r in catalog if r.id in ('xy-8-1-a0', 'xy-8-1-a1')]\n"
              "verify_all(pair, 10, jobs=2)\n"
              "print('multiprocessing' in sys.modules)\n")
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"


def _price(record, digits, budget):
    """The price verify_all puts on verifying ``record`` on its own."""
    return verifier._cost(record, digits,
                          verifier._planned(record, digits, budget))


def _record_in_part(catalog, digits, parts, part):
    """The id of a record that verify_all(catalog, digits, jobs=parts)
    verifies in its part ``part``: 0 in this process, else a child."""
    records = sorted(catalog, key=lambda r: r.id)
    _, split = verifier._schedule(records, digits, 10 ** 6, parts)
    return records[split[part][0][0]].id


def _child_record(catalog, digits):
    """The id of a record that verify_all(catalog, digits, jobs=2) verifies
    in its child process."""
    return _record_in_part(catalog, digits, 2, 1)


def _failing_verify(monkeypatch, failing_id, fail):
    """Make the verification of record ``failing_id`` call ``fail``, in
    this process and in a child forked after the patch."""
    real = verifier._verify_record

    def patched(record, digits, ctx, chosen, memo):
        if record.id == failing_id:
            fail()
        return real(record, digits, ctx, chosen, memo)
    monkeypatch.setattr(verifier, "_verify_record", patched)


def _raise(exc):
    def fail():
        raise exc
    return fail


def test_an_exception_in_a_child_is_raised_here(catalog, monkeypatch):
    subset = catalog[:12]
    _failing_verify(monkeypatch, _child_record(subset, 15),
                    _raise(ArithmeticError("raised in a child")))
    with pytest.raises(ArithmeticError, match="raised in a child"):
        verify_all(subset, 15, jobs=2)
    assert multiprocessing.active_children() == []


def test_a_child_that_exits_without_reports_raises(catalog, monkeypatch):
    subset = catalog[:12]
    _failing_verify(monkeypatch, _child_record(subset, 15),
                    lambda: os._exit(3))
    with pytest.raises(RuntimeError, match="exited with code 3"):
        verify_all(subset, 15, jobs=2)
    assert multiprocessing.active_children() == []


def test_an_exception_in_this_process_stops_the_children(catalog, monkeypatch):
    subset = catalog[:12]
    own = _record_in_part(subset, 15, 3, 0)
    _failing_verify(monkeypatch, own, _raise(LookupError("raised here")))
    with pytest.raises(LookupError, match="raised here"):
        verify_all(subset, 15, jobs=3)
    assert multiprocessing.active_children() == []


def test_lpt_partition_matches_a_hand_computed_schedule():
    # costs 7, 5, 4, 3, 2 go to the lighter part: 7 | 5 | 5+4 | 7+3 | 9+2
    assert lpt_partition([5, 7, 3, 4, 2], 2) == [[1, 2], [0, 3, 4]]
    # equal loads take the first part
    assert lpt_partition([4, 4, 4, 1], 3) == [[0, 3], [1], [2]]
    assert lpt_partition([1, 2], 4) == [[1], [0], [], []]


# the records that verify_all(catalog, 100, jobs=2) sends to its child
CHILD_AT_100 = (
    "alt-14-3 alt-17-12 alt-20-3 alt-6 alt-65-12 alt-8-3 eq-15-4 eq-27-4 "
    "eq-6 eq-65-12 eq-77-12 thm1-fib-r1 thm1-fib-r2 thm1-luc-r1 thm1-luc-r2 "
    "thm1-luc-r3 thm10-luc-pn2-q5 thm3-fib-n3 thm4-fib-r1 thm4-fib-r2 "
    "thm4-fib-r3 thm4-luc-r2 thm4-luc-r3 thm6-fib-r1 thm6-luc-r3 "
    "thm7-fib-pn2-q5 thm7-luc-pn2-q5 thm9-fib-pn2-q5 thm9-luc-pn2-q5 "
    "trig-D-pi6 trig-F-pi6 trig-F-pi8 xy-1-1d27-a0 xy-1-1d27-a1 "
    "xy-1-neg1d27-a1 xy-27-8-a0 xy-27-neg8-a0 xy-27-neg8-a1 xy-27-neg8-a2 "
    "xy-8-1-a0 xy-8-1d8-a0 xy-8-neg1-a2 xy-8-neg1d8-a1 xy-8-neg1d8-a2").split()


def test_the_two_way_split_of_the_catalog_is_pinned(catalog):
    records = sorted(catalog, key=lambda r: r.id)
    costs = [_price(r, 100, 10 ** 6) for r in records]
    assert [records[i].id for i in lpt_partition(costs, 2)[1]] == CHILD_AT_100


@pytest.mark.parametrize("digits", [30, 100, 1000])
@pytest.mark.parametrize("parts", [2, 3])
def test_a_shared_pass_stays_in_one_part(catalog, digits, parts):
    records = sorted(catalog, key=lambda r: r.id)
    plans, split = verifier._schedule(records, digits, 10 ** 6, parts)
    part_of = {i: p for p, groups in enumerate(split)
               for group in groups for i in group}
    assert sorted(part_of) == list(range(len(records)))
    by_argument = {}
    for i, (record, chosen) in enumerate(zip(records, plans)):
        if chosen is not None and chosen.method == "kernel":
            key = (record.lhs.z, record.lhs.weight)
            by_argument.setdefault(key, set()).add(part_of[i])
    # the 38 summed arguments less the four CRVZ sums and the telescope
    assert len(by_argument) == 33
    assert all(len(found) == 1 for found in by_argument.values())
    # a group costs at least its dearest member alone, and at most all of
    # them; a record alone costs what it costs alone
    for groups in split:
        for group in groups:
            price = verifier._group_cost(records, plans, group, digits)
            alone = [verifier._cost(records[i], digits, plans[i])
                     for i in group]
            assert max(alone) <= price * (1 + 1e-12)
            assert price <= sum(alone) * (1 + 1e-12)
            assert len(group) > 1 or price == alone[0]


@pytest.mark.parametrize("digits", [30, 100, 1000])
def test_one_pass_serves_both_signs_and_both_weight_kinds(catalog, digits):
    # groups are keyed by |z| and the weight's recurrence: the Fibonacci
    # and Lucas records of one (z, m) share a pass, and so do z and -z
    records = sorted(catalog, key=lambda r: r.id)
    plans = [verifier._planned(r, digits, 10 ** 6) for r in records]
    ids = {tuple(records[i].id for i in group)
           for group in verifier._groups(records, plans)}
    assert tuple(f"thm{n}-{kind}-pn2-q5" for n in (10, 7, 9)
                 for kind in ("fib", "luc")) in ids
    assert ("alt-8-3", "eq-italy", "xy-8-1-a0", "xy-8-1-a1") in ids


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0, 1e9), max_size=40), st.integers(1, 6))
def test_lpt_partition_places_every_index_once(costs, parts):
    split = lpt_partition(costs, parts)
    assert len(split) == parts
    assert sorted(i for part in split for i in part) == list(range(len(costs)))
    assert all(part == sorted(part) for part in split)


@pytest.mark.parametrize("digits", [5, 30, 100, 300, 1000])
@pytest.mark.parametrize("budget", [64, 10 ** 6])
def test_planned_cost_never_raises_on_the_catalog(catalog, digits, budget):
    for record in catalog:
        cost = _price(record, digits, budget)
        assert 0 <= cost < math.inf
        assert (cost == 0) == (record.convergence == "divergent_formal")


@pytest.mark.parametrize("family,r", [("COR2_FIB", 300), ("THM1_LUC", 2000)])
def test_planned_cost_of_an_argument_below_the_smallest_float(family, r):
    record = instantiate(family, TheoremParams(family, r=r))
    assert 0 < _price(record, 25, 10 ** 6) < math.inf


def test_sweep_family():
    reports = sweep("THM1_FIB", [{"r": r} for r in range(1, 5)], 25)
    assert all(r.status == "PASS" for r in reports)
    assert all(r.matched_digits >= 23 for r in reports)


def test_sweep_reports_invalid_points():
    reports = sweep("THM1_LUC", [{"r": 1}, {"r": 2}], 20)
    assert reports[0].status == "FAIL"
    assert reports[0].identity_id == "thm1-luc-r1-invalid"
    assert "r = 1" in reports[0].detail or "radius" in reports[0].detail
    assert reports[1].status == "PASS"


def test_sweep_refuses_a_point_of_another_family():
    with pytest.raises(InvalidParams, match="THM4_FIB r=2 is not a point "
                                           "of THM1_FIB"):
        sweep("THM1_FIB", [TheoremParams("THM4_FIB", r=2)], 10)


def test_sweep_refuses_a_point_naming_what_its_family_does_not_take():
    with pytest.raises(InvalidParams, match="THM1_FIB takes exactly r"):
        sweep("THM1_FIB", [{"r": 2, "n": 5}], 10)
    with pytest.raises(InvalidParams, match="THM1_FIB takes exactly r"):
        sweep("THM1_FIB", [TheoremParams(
            "THM1_FIB", r=2, horadam=HoradamParams(2, 1, 0, 1))], 10)


@pytest.mark.parametrize("level", ["A_to_B", "B_to_C"])
@pytest.mark.parametrize("pair", [(9, 1), (27, 8)])
def test_differential_check(level, pair):
    report = differential_check(level, XYPair(Fraction(pair[0]), Fraction(pair[1])), 40)
    assert report.status == "PASS"
    assert report.matched_digits >= 13


@pytest.mark.parametrize("digits", [1, 2, 3, 4])
def test_differential_check_rejects_small_digits(digits):
    with pytest.raises(ValueError, match="digits must be >= 5"):
        differential_check("A_to_B", XYPair(9, 1), digits)


def test_differential_check_bad_level():
    with pytest.raises(ValueError):
        differential_check("C_to_D", XYPair(Fraction(9), Fraction(1)), 40)


def test_differential_check_domain():
    with pytest.raises(DomainError):
        differential_check("A_to_B", XYPair(Fraction(3), Fraction(3)), 40)


def _exact(value) -> Fraction:
    return Fraction(*to_rational(value._mpf_))


@pytest.mark.parametrize("level", ["A_to_B", "B_to_C"])
def test_differential_check_ignores_the_ambient_precision(level):
    def report_at(dps):
        with mp.workdps(dps):
            report = differential_check(level, XYPair(Fraction(7, 3), 1), 60)
        return (report.identity_id, report.status, report.matched_digits,
                report.lhs_value._mpf_, report.rhs_value._mpf_, report.detail)

    default = report_at(15)
    assert default[0] == f"diff-{level}-2p33333333333333-1p0"
    assert report_at(5) == default
    assert report_at(1100) == default


@pytest.mark.parametrize("digits", [100, 300])
@pytest.mark.parametrize("pair", [(5, 4), (-9, 1), (Fraction(7, 3), 1)])
@pytest.mark.parametrize("level", ["A_to_B", "B_to_C"])
def test_differential_check_lhs_is_its_quotient_to_the_working_precision(
        level, pair, digits):
    ctx = make_context(digits)
    report = differential_check(level, XYPair(*pair), digits, ctx)
    # the difference quotient of the pair's binary values, 60 digits wider
    x, y = (ex.ratlit(_exact(v)) for v in XYPair(*pair).values(ctx))
    h, a = ex.cbrt(ex.ratlit(1, 10 ** digits)), 2 if level == "A_to_B" else 1
    slope = (ex.level(a, x + h, y) - ex.level(a, x - h, y)) / (2 * h)
    want = _exact(eval_expr(x * (x + y) / (y - x) * slope,
                            make_context(digits + 60)))
    error = abs(_exact(report.lhs_value) - want)
    assert error <= Fraction(2) ** (1 - ctx.prec) * max(1, abs(want))


@pytest.mark.parametrize("level", ["A_to_B", "B_to_C"])
def test_differential_check_refuses_a_stencil_across_x_eq_y(level):
    # h = 1e-10 exceeds x - y = 1e-11, so x - h lies below y
    with pytest.raises(DomainError, match="stencil x"):
        differential_check(level, XYPair(1 + Fraction(1, 10 ** 11), 1), 30)


_WINDOW = ("outside validity window "
           "(needs x/y > 1 or x/y <= -(sqrt2+1)^2)")


@pytest.mark.parametrize("level", ["A_to_B", "B_to_C"])
@pytest.mark.parametrize("pair, message", [
    ((5, 0), "y must be nonzero"),
    ((-3, 0), "y must be nonzero"),
    ((1, mpf("-0.0")), "y must be nonzero"),
    ((0, 5), f"x/y = 0.0 {_WINDOW}"),
    ((1, 2), f"x/y = 0.5 {_WINDOW}"),
    ((1, 8), f"x/y = 0.125 {_WINDOW}"),
    ((1, -8), f"x/y = -0.125 {_WINDOW}"),
    ((1, -1), f"x/y = -1.0 {_WINDOW}"),
    ((-2, 1), f"x/y = -2.0 {_WINDOW}"),
    ((mpf("inf"), 1), f"x/y = +inf {_WINDOW}"),
    ((1, mpf("nan")), f"x/y = nan {_WINDOW}"),
])
def test_differential_check_refuses_the_pair_as_given(level, pair, message):
    # the pair is read as given: no swap of |x| < |y| into the window, and
    # y = 0 is refused, not read as z = 0
    with pytest.raises(DomainError) as excinfo:
        differential_check(level, XYPair(*pair), 30)
    assert type(excinfo.value) is DomainError
    assert str(excinfo.value) == message


def test_summary_counts_feed_the_json_suite():
    reports = [VerificationReport(str(i), 30, status) for i, status in
               enumerate([PASS, PASS, FAIL, SKIPPED_DIVERGENT, PASS])]
    assert summary_counts(reports) == {"pass": 3, "fail": 1, "skipped": 1}
    suite = json.loads(_suite_json(reports, 30))["suite"]
    assert suite == {"digits": 30, "pass": 3, "fail": 1, "skipped": 1}
