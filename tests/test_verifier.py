import json
from fractions import Fraction

import pytest
from mpmath import mpf

from binom3k import expressions as ex
from binom3k.cli import _suite_json
from binom3k.closed_forms import TheoremParams, XYPair
from binom3k.errors import DomainError, InvalidParams
from binom3k.registry import IdentityRecord
from binom3k.sequences import HoradamParams
from binom3k.series import SeriesSpec, UNIT_WEIGHT
from binom3k.verifier import (differential_check, sweep, verify, verify_all)
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


def test_sweep_family():
    reports = sweep("THM1_FIB", [{"r": r} for r in range(1, 5)], 25)
    assert all(r.status == "PASS" for r in reports)
    assert all(r.matched_digits >= 23 for r in reports)


def test_sweep_reports_invalid_points():
    reports = sweep("THM1_LUC", [{"r": 1}, {"r": 2}], 20)
    assert reports[0].status == "FAIL"
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


def test_summary_counts_feed_the_json_suite():
    reports = [VerificationReport(str(i), 30, status) for i, status in
               enumerate([PASS, PASS, FAIL, SKIPPED_DIVERGENT, PASS])]
    assert summary_counts(reports) == {"pass": 3, "fail": 1, "skipped": 1}
    suite = json.loads(_suite_json(reports, 30))["suite"]
    assert suite == {"digits": 30, "pass": 3, "fail": 1, "skipped": 1}
