"""Tests of the benchmark itself.

    python3 -m pytest -q bench/selftest.py

The file name keeps these tests out of the package's own test run:
``test_terms_needed_never_exceeds_terms_used_on_the_catalog`` and
``test_fixed_inputs_follow_their_rules`` check the benchmark's term estimate
and fixed inputs against the program as it was when the benchmark was
defined, and may stop holding when the program changes.
"""

import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp, mpf

import run
import spans
import workloads as wl

sys.path.insert(0, str(run.SRC))

import binom3k as b3  # noqa: E402


# -- statistics -------------------------------------------------------------

@pytest.mark.parametrize("samples, expected", [
    (19, None), (20, 50), (40, 75), (80, 85), (99, 85), (100, 90),
    (199, 90), (200, 95), (219, 95), (999, 95), (1000, 99), (10000, 99.9)])
def test_tail_percentile_leaves_ten_beyond(samples, expected):
    assert run.tail_percentile(samples) == expected


def test_tail_percentile_is_the_highest_with_ten_beyond():
    for samples in range(1, 3000):
        pct = run.tail_percentile(samples)
        higher = [p for p in run.TAIL_LADDER if pct is None or p > pct]
        if pct is not None:
            assert samples - run.percentile(range(samples), pct) - 1 >= 10
        assert all(samples - run.percentile(range(samples), p) - 1 < 10
                   for p in higher)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 95) == 95
    assert run.percentile(values, 50) == 50
    assert run.percentile([7], 99) == 7


def test_scaled_time_divides_out_the_calibration():
    ref = run.CAL_REF_NS
    assert run.scaled(1000, ref, ref) == 1000
    assert run.scaled(1000, 2 * ref, 2 * ref) == 500
    assert run.scaled(900, ref, 2 * ref) == 600


def _pass(names, latencies, calibrations):
    return run.PassResult(sum(latencies), latencies, calibrations, names, [])


def test_op_latency_is_the_median_of_scaled_samples():
    ref = run.CAL_REF_NS
    passes = [_pass(["a", "b"], [10, 40], [ref, ref, ref]),
              _pass(["b", "a"], [80, 30], [2 * ref, 2 * ref, 2 * ref]),
              _pass(["a", "b"], [12, 44], [ref, ref, ref])]
    assert passes[1].scaled() == [40, 15]
    assert run.op_latencies(passes) == {"a": 12, "b": 40}
    assert run.pass_ns(passes) == 52
    assert run.run_speed(passes[1:2]) == 0.5


def test_calibration_kernel_is_fixed():
    assert run.calibration_kernel() == run.calibration_kernel()
    assert run.calibrate() > 0


def test_pair_calibrator_answers_and_ends_its_processes():
    with run.PairCalibrator() as pair:
        assert pair.calibrate() > 0
        assert pair.calibrate() > 0
    assert all(proc.returncode == 0 for proc in pair.procs)


# -- self time ----------------------------------------------------------------

def _span(name, start, end, parent):
    return spans.Span(name, start, end, parent, 0)


def test_self_time_of_nested_and_sibling_spans():
    tree = [
        _span("op", 0, 100, -1),
        _span("a", 10, 30, 0),      # first child of op
        _span("b", 40, 70, 0),      # its sibling
        _span("b.1", 45, 50, 2),    # nested in b
        _span("b.2", 50, 60, 2),    # sibling of b.1
    ]
    own = spans.self_times(tree)
    assert own == [50, 20, 15, 5, 10]
    totals = spans.layer_totals(tree, own)
    assert totals["b"]["ns"] == 30 and totals["b"]["self_ns"] == 15
    assert totals["op"]["calls"] == 1
    # a later pass: its parent indices point into the whole list
    later = tree + [_span("op", 200, 300, -1), _span("a", 210, 290, 5)]
    own = spans.self_times(later)
    totals = spans.layer_totals(later[5:], own[5:])
    assert totals["op"]["self_ns"] == 20 and totals["a"]["self_ns"] == 80


def test_tracer_links_parents_and_operations():
    tracer = spans.Tracer()

    def inner():
        return 1

    def outer():
        return tracer.call("inner", inner) + tracer.call("inner", inner)

    tracer.op = 7
    assert tracer.call("outer", outer) == 2
    names = [(s.name, s.parent, s.op) for s in tracer.spans]
    assert names == [("outer", -1, 7), ("inner", 0, 7), ("inner", 0, 7)]
    own = spans.self_times(tracer.spans)
    outer_span = tracer.spans[0]
    children = sum(s.end - s.start for s in tracer.spans[1:])
    assert own[0] == outer_span.end - outer_span.start - children


def test_tracer_restores_every_patched_name():
    from binom3k import cli, registry, series, verifier
    modules = (cli, registry, series, verifier)
    before = {(m.__name__, n): getattr(m, n) for m in modules
              for n in dir(m) if callable(getattr(m, n))}
    rhs_value = registry.IdentityRecord.rhs_value
    tracer = spans.Tracer()
    tracer.install(modules)
    assert verifier.sum_to_digits is not before[(verifier.__name__,
                                                 "sum_to_digits")]
    tracer.uninstall()
    after = {(m.__name__, n): getattr(m, n) for m in modules
             for n in dir(m) if callable(getattr(m, n))}
    assert after == before
    assert registry.IdentityRecord.rhs_value is rhs_value


# -- output check -------------------------------------------------------------

def _expected(convergence="geometric", digits=30):
    with mp.workdps(60):
        return wl.Expected("x", convergence, digits, mp.pi)


def test_output_check_accepts_the_reference():
    exp = _expected()
    assert wl.check_output(exp, "PASS", 30, exp.ref) is None
    with mp.workdps(60):
        assert wl.check_output(exp, "PASS", 30, mp.nstr(exp.ref, 35)) is None


def test_output_check_rejects_a_perturbed_lhs():
    exp = _expected()
    with mp.workdps(60):
        perturbed = exp.ref + mpf(10) ** -27
    assert "lhs - ref" in wl.check_output(exp, "PASS", 30, perturbed)


def test_output_check_rejects_status_and_digits():
    exp = _expected()
    assert "status" in wl.check_output(exp, "FAIL", 30, exp.ref)
    assert "matched" in wl.check_output(exp, "PASS", 27, exp.ref)
    boundary = _expected("boundary_positive")
    with mp.workdps(60):
        ten_digits = boundary.ref + mpf(10) ** -9
    assert wl.check_output(boundary, "PASS_BOUNDARY_REDUCED", 8,
                           ten_digits) is None
    assert wl.check_output(boundary, "PASS", 8, ten_digits) is not None
    divergent = wl.Expected("d", "divergent_formal", 30)
    assert wl.check_output(divergent, "SKIPPED_DIVERGENT", 0, None) is None
    assert wl.check_output(divergent, "PASS", 30, None) is not None


def test_output_check_rejects_a_perturbed_report():
    record = b3.get_record(b3.builtin_catalog(), "eq-italy")
    exp = wl.reference(record, 30, b3.make_context)
    report = b3.verify(record, 30)
    assert wl.check_output(exp, report.status, report.matched_digits,
                           report.lhs_value) is None
    with mp.workdps(60):
        lhs = report.lhs_value * (1 + mpf(10) ** -26)
    assert wl.check_output(exp, report.status, report.matched_digits,
                           lhs) is not None


# -- term estimate ------------------------------------------------------------

def _exact_log_term(k, z, a, kind, m):
    weight = {"unit": lambda n: 1, "fib": b3.fib, "lucas": b3.lucas}[kind]
    term = Fraction(z) ** k * weight(m * k) / (k ** a * math.comb(3 * k, k))
    return math.log(abs(term.numerator)) - math.log(term.denominator)


@pytest.mark.parametrize("z, a, kind, m", [
    (Fraction(8, 3), 2, "unit", 0), (Fraction(-20, 3), 0, "unit", 0),
    (Fraction(54, 25), 2, "fib", 1), (Fraction(54, 25), 1, "lucas", 1),
    (Fraction(-27, 80), 2, "lucas", 3)])
def test_log_term_matches_exact_terms(z, a, kind, m):
    for k in (1, 2, 3, 10, 57, 200):
        assert wl._log_term(k, math.log(abs(z)), a, kind, m) == \
            pytest.approx(_exact_log_term(k, z, a, kind, m), abs=1e-9)


def test_terms_needed_meets_its_definition():
    z, digits = Fraction(8, 3), 30
    k = wl.terms_needed(z, 2, "unit", 0, digits)
    rho = 4 * abs(z) / 27
    bound = -digits + math.log10(1 - rho)
    assert _exact_log_term(k + 1, z, 2, "unit", 0) / math.log(10) < bound
    assert _exact_log_term(k, z, 2, "unit", 0) / math.log(10) >= bound


def test_terms_needed_never_exceeds_terms_used_on_the_catalog():
    for record in b3.builtin_catalog():
        if record.convergence != "geometric":
            continue
        report = b3.verify(record, wl.CATALOG_DIGITS)
        needed = wl.spec_terms_needed(record.lhs, wl.CATALOG_DIGITS)
        assert 0 < needed <= report.terms_used, record.id


def test_fixed_inputs_follow_their_rules():
    catalog = {r.id: r for r in b3.builtin_catalog()}
    hiprec = sorted(
        r.id for r in catalog.values() if r.convergence == "geometric" and (
            (r.lhs.weight.kind == "unit"
             and 4 * abs(r.lhs.z) / 27 <= Fraction(1, 2))
            or r.lhs.weight.kind in ("fib", "lucas")))
    assert sorted(wl.HIPREC_IDS) == hiprec and len(hiprec) == 40
    assert {(family, point) for family, points in wl.SWEEP_GRID.items()
            for point in points} == _criterion_7_grid()
    assert len(wl.SWEEP_GRID) == 22
    assert sum(map(len, wl.SWEEP_GRID.values())) == 237


def _criterion_7_grid():
    """The acceptance tests' criterion-7 grid, restricted to valid
    geometric points needing at most 2000 estimated terms at 25 digits."""
    rs = {"THM1_FIB": range(1, 9), "THM1_LUC": (0, 2, 3, 4, 5, 6, 7, 8),
          "COR2_FIB": range(1, 5), "COR2_LUC": range(1, 5)}
    rs.update({f: range(1, 7) for f in ("THM4_FIB", "COR5_FIB", "THM6_FIB")})
    rs.update({f: range(2, 7) for f in ("THM4_LUC", "COR5_LUC", "THM6_LUC")})
    candidates = [(f, f"r={r}") for f, values in rs.items() for r in values]
    candidates += [(f"THM3_V{v}", f"n={n},m={m}") for v in range(1, 7)
                   for n in range(2, 9) for m in range(1, n + 1)]
    candidates += [(f"{stem}_{suffix}", f"p={p},q={q}")
                   for stem in ("THM7", "THM9", "THM10")
                   for suffix in ("FIB", "LUC")
                   for p in (-2, -3) for q in (5, 6)]
    grid = set()
    for family, point in candidates:
        params = b3.TheoremParams(family, **wl.parse_point(point))
        try:
            record = b3.instantiate(family, params)
        except b3.InvalidParams:
            continue
        cls = b3.classify(record.lhs, b3.make_context(20))
        if cls.kind == "geometric" and (
                not cls.rho or 25 * mp.log(10) / -mp.log(cls.rho) <= 2000):
            grid.add((family, point))
    return grid


# -- entry point --------------------------------------------------------------

def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
    with pytest.raises(json.JSONDecodeError):
        json.loads(done.stdout or "")
