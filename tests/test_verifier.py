import json
import math
import multiprocessing
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from mpmath.libmp import to_rational

from binom3k import expressions as ex
from binom3k import verifier
from binom3k.cli import _suite_json
from binom3k.closed_forms import TheoremParams, XYPair, eval_expr
from binom3k.errors import DomainError, InvalidParams
from binom3k.precision import make_context
from binom3k.registry import IdentityRecord, instantiate
from binom3k.sequences import HoradamParams
from binom3k.series import SeriesSpec, UNIT_WEIGHT
from binom3k.verifier import (differential_check, lpt_partition,
                              planned_cost, sweep, verify, verify_all)
from binom3k.verifier import (FAIL, PASS, SKIPPED_DIVERGENT,
                              VerificationReport, summary_counts)


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
       wiggle=st.integers(-3, 3), side=st.sampled_from([-1, 1]))
def test_the_bracket_is_decided_exactly(n, rhs_kind, rhs_man, rhs_shift,
                                        tail_shift, extra_bits, wiggle, side):
    # lhs within a few ulps of rhs +- (3 tail + 10^-n max(1, |rhs|)), the
    # knife edge of the bracket, against the same inequality in Fractions
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
    expected = abs(exact(lhs) - exact(rhs)) <= edge
    assert verifier._in_bracket(lhs, rhs, tail, n) == expected


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
    if verifier._in_bracket(lhs, rhs, tail, n):
        assert verifier._matched_digits(lhs, rhs, digits, prec) >= digits - 1


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
    assert verifier._in_bracket(lhs, rhs, tail, n) == inside


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


def test_a_term_budget_leaves_the_answer_bit_identical(record_of):
    from binom3k.precision import make_context
    record = record_of("xy-8-1d8-a2")
    tight = verify(record, 30, make_context(30, 64))
    default = verify(record, 30, make_context(30))
    assert tight.status == default.status == "PASS"
    assert tight.terms_used == default.terms_used == 23
    for name in ("lhs_value", "rhs_value", "tail"):
        assert getattr(tight, name).man_exp == getattr(default, name).man_exp


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


def test_verify_all_takes_more_jobs_than_records(catalog):
    subset = catalog[:3]
    summary = verify_all(subset, 15, jobs=8)
    assert multiprocessing.active_children() == []
    assert [r.identity_id for r in summary["reports"]] == sorted(
        r.id for r in subset)
    assert summary["fail"] == 0


def test_verify_all_starts_no_process_for_one_part():
    # neither at jobs = 1 nor with one record is multiprocessing imported
    script = ("import sys\n"
              "from binom3k import builtin_catalog, verify_all\n"
              "catalog = builtin_catalog()\n"
              "verify_all(catalog[:3], 10, jobs=1)\n"
              "verify_all(catalog[:1], 10, jobs=4)\n"
              "print('multiprocessing' in sys.modules)\n")
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"


def _child_record(catalog, digits):
    """The id of a record that verify_all(catalog, digits, jobs=2) verifies
    in its child process."""
    records = sorted(catalog, key=lambda r: r.id)
    costs = [planned_cost(r, digits, 10 ** 6) for r in records]
    return records[lpt_partition(costs, 2)[1][0]].id


def _failing_verify(monkeypatch, failing_id, fail):
    real = verifier.verify

    def patched(record, digits, ctx=None):
        if record.id == failing_id:
            fail()
        return real(record, digits, ctx)
    monkeypatch.setattr(verifier, "verify", patched)


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
    records = sorted(subset, key=lambda r: r.id)
    costs = [planned_cost(r, 15, 10 ** 6) for r in records]
    own = records[lpt_partition(costs, 3)[0][0]].id
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
        cost = planned_cost(record, digits, budget)
        assert 0 <= cost < math.inf
        assert (cost == 0) == (record.convergence == "divergent_formal")


@pytest.mark.parametrize("family,r", [("COR2_FIB", 300), ("THM1_LUC", 2000)])
def test_planned_cost_of_an_argument_below_the_smallest_float(family, r):
    record = instantiate(family, TheoremParams(family, r=r))
    assert 0 < planned_cost(record, 25, 10 ** 6) < math.inf


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


def test_summary_counts_feed_the_json_suite():
    reports = [VerificationReport(str(i), 30, status) for i, status in
               enumerate([PASS, PASS, FAIL, SKIPPED_DIVERGENT, PASS])]
    assert summary_counts(reports) == {"pass": 3, "fail": 1, "skipped": 1}
    suite = json.loads(_suite_json(reports, 30))["suite"]
    assert suite == {"digits": 30, "pass": 3, "fail": 1, "skipped": 1}
