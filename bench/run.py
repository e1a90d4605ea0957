"""binom3k benchmark: one seeded workload per run, outputs checked.

    python3 bench/run.py --workload catalog --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the last line of standard output is a JSON
object carrying the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run.  The exit code is 0 only when every operation
passed its output check.  Workloads and metrics are described in
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import itertools
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import spans
import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

JOBS = 2
# jobs=JOBS passes per round: a pool pass varies by 5-15% from one to the
# next, as the two vCPUs change speed apart, so it takes more samples than
# a serial operation.
PARALLEL_PASSES = 2
SETUP_LAUNCHES = 15
# no round starts that would end after this, whatever MIN_ROUNDS says, so
# that a run ends well within 180 s
HARD_STOP_S = 120.0
TAIL_LADDER = (50, 75, 80, 85, 90, 95, 99, 99.9)  # percentiles
# Serial passes a run makes at least.  The tail percentile of a workload is
# chosen from this many passes: p95 on catalog (219 samples) and sweep
# (220), p85 on hiprec (80), so every run reports the same percentile.
MIN_ROUNDS = {"catalog": 3, "hiprec": 2, "sweep": 10}
# Calibration time, in ns, that every reported timing is scaled to (see
# ``calibrate``): about what the kernel takes on the 2-vCPU x86_64 guest
# the benchmark was defined on, at that host's faster speed.
CAL_REF_NS = 600_000
# Seconds the calibration runs on JOBS vCPUs at once, on each side of a
# jobs=JOBS pass.
PAIR_CAL_S = 0.3

_SETUP_CHILD = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import binom3k\n"
    "start = time.perf_counter()\n"
    "binom3k.builtin_catalog()\n"
    "print(time.perf_counter() - start)\n"
)


# -- statistics ---------------------------------------------------------------

def _rank(samples: int, pct: float) -> int:
    """1-based nearest rank of the ``pct`` percentile, in exact arithmetic."""
    return max(1, math.ceil(samples * Fraction(str(pct)) / 100))


def tail_percentile(samples: int, beyond: int = 10):
    """Highest ladder percentile that leaves at least ``beyond`` samples
    above it, or None when even the median does not."""
    chosen = None
    for pct in TAIL_LADDER:
        if samples - _rank(samples, pct) >= beyond:
            chosen = pct
    return chosen


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    return sorted(values)[_rank(len(values), pct) - 1]


# -- host speed -------------------------------------------------------------
#
# On a shared host the same call alternates between two speeds up to 1.9x
# apart: slow stretches of about 0.1 s recur every few tenths of a second,
# and the share of them drifts over minutes, so that the raw wall time of
# the same 36-s run varies by a third.  The operations are deterministic,
# so that variation is the machine's, not the program's.  Every operation
# of a serial pass and every set-up launch is therefore bracketed by two
# runs of a fixed calibration kernel and reported as ``ns * CAL_REF_NS / calibration``:
# the time the interval would take at the speed where the kernel takes
# CAL_REF_NS.  The kernel is pure Python integer arithmetic, the kind of
# work mpmath's Python backend does, and shares no code with the program,
# so a change to the program moves the scaled time as it moves the raw one.
#
# Each vCPU changes speed on its own, and with both busy the host runs
# slower than with one, so a jobs=2 pass is bracketed instead by JOBS
# processes running the kernel at once for PAIR_CAL_S each side (see
# ``PairCalibrator``).

def calibration_kernel() -> int:
    """Fixed-point exp(2/7) at 2048 bits, one (sign, man, exp, bc) tuple per
    term as mpmath's Python backend makes them."""
    prec = 2048
    x = (2 << prec) // 7
    term = total = 1 << prec
    parts = []
    for k in range(1, 120):
        term = (term * x >> prec) // k
        total += term
        parts.append((0, term, -prec, term.bit_length()))
    return total + len(parts)


def calibrate() -> int:
    """Duration of one run of the calibration kernel, in ns."""
    start = time.perf_counter_ns()
    calibration_kernel()
    return time.perf_counter_ns() - start


def scaled(ns: float, before: int, after: int) -> float:
    """``ns`` at the reference speed, from the calibrations that bracket it."""
    return ns * CAL_REF_NS / ((before + after) / 2)


_PAIR_CHILD = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from run import calibrate\n"
    "for line in sys.stdin:\n"
    "    start, seconds = map(float, line.split())\n"
    "    time.sleep(max(0.0, start - time.monotonic()))\n"
    "    samples = [calibrate()]\n"
    "    while time.monotonic() < start + seconds:\n"
    "        samples.append(calibrate())\n"
    "    print(sum(samples) / len(samples), flush=True)\n"
)


class PairCalibrator:
    """JOBS idle processes that run the calibration kernel together on
    request: the host's speed with JOBS vCPUs busy, as in a pool pass.
    Closing their standard input ends them."""

    def __init__(self):
        self.procs = [
            subprocess.Popen(
                [sys.executable, "-I", "-c", _PAIR_CHILD, str(BENCH)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            for _ in range(JOBS)]

    def calibrate(self) -> float:
        start = time.monotonic() + 0.02  # all children start at once
        for proc in self.procs:
            proc.stdin.write(f"{start} {PAIR_CAL_S}\n")
            proc.stdin.flush()
        return statistics.mean(float(proc.stdout.readline())
                               for proc in self.procs)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        for proc in self.procs:
            with contextlib.suppress(OSError):
                proc.stdin.close()
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()


def op_latencies(passes) -> dict:
    """Each operation's latency in ns: the median over the passes of its
    scaled samples."""
    samples = defaultdict(list)
    for result in passes:
        for name, ns in zip(result.names, result.scaled()):
            samples[name].append(ns)
    return {name: statistics.median(v) for name, v in samples.items()}


def run_speed(passes) -> float:
    """Factor that scales the passes' times to the reference speed."""
    return CAL_REF_NS / statistics.mean(
        ns for result in passes for ns in result.calibrations)


def pass_ns(passes) -> float:
    """Wall time of one serial pass: the sum of the operations' latencies."""
    return sum(op_latencies(passes).values())


# -- one workload -------------------------------------------------------------

@dataclass
class Workload:
    name: str
    ops: list  # of wl.Operation
    parallel: Callable[[], list]  # one jobs=2 pass -> failure reasons
    parallel_size: int
    min_rounds: int  # serial passes needed for the tail sample
    op_span: str  # span name of one operation in the traced run


def _report_failures(expected: wl.Expected, report) -> list:
    error = wl.check_output(expected, report.status, report.matched_digits,
                            report.lhs_value)
    return [error] if error else []


def _report_check(expected: wl.Expected):
    def check(report):
        return _report_failures(expected, report), report.terms_used
    return check


def _parallel_pass(verify_all, records, digits: int, expected: dict):
    """One verify_all(jobs=JOBS) pass; returns the failure reasons."""
    def parallel():
        reports = verify_all(records, digits, jobs=JOBS)["reports"]
        if sorted(r.identity_id for r in reports) != sorted(expected):
            return ["verify_all returned another set of records"]
        return [error for report in reports
                for error in _report_failures(expected[report.identity_id],
                                              report)]
    return parallel


def _record_workload(name, records, digits, b3) -> Workload:
    ops, expected = [], {}
    for record in records:
        exp = wl.reference(record, digits, b3.make_context)
        expected[record.id] = exp
        needed = (wl.spec_terms_needed(record.lhs, digits)
                  if record.convergence == "geometric" else 0)
        ops.append(wl.Operation(
            record.id, functools.partial(b3.verify, record, digits),
            _report_check(exp), needed))
    return Workload(name, ops,
                    _parallel_pass(b3.verify_all, records, digits, expected),
                    len(records), MIN_ROUNDS[name], "verifier.verify")


def _cli_call(run, argv):
    def call():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = run(argv)
        return code, buffer.getvalue()
    return call


def _sweep_check(expected: list):
    def check(output):
        code, text = output
        if code != 0:
            return [f"cli.run returned {code}"], 0
        reports = json.loads(text)["reports"]
        if [r["id"] for r in reports] != [e.id for e in expected]:
            return ["sweep reported another list of points"], 0
        failures = []
        for exp, report in zip(expected, reports):
            error = wl.check_output(exp, report["status"],
                                    report["matched_digits"], report["lhs"])
            if error:
                failures.append(error)
        return failures, sum(r["terms_used"] for r in reports)
    return check


def _sweep_workload(b3) -> Workload:
    from binom3k import cli
    ops, all_records, expected = [], [], {}
    for family, points in wl.SWEEP_GRID.items():
        family_expected, needed = [], 0
        for point in points:
            params = b3.TheoremParams(family, **wl.parse_point(point))
            record = b3.instantiate(family, params)
            exp = wl.reference(record, wl.SWEEP_DIGITS, b3.make_context)
            family_expected.append(exp)
            expected[record.id] = exp
            all_records.append(record)
            needed += wl.spec_terms_needed(record.lhs, wl.SWEEP_DIGITS)
        ops.append(wl.Operation(
            family, _cli_call(cli.run, wl.sweep_argv(family, points)),
            _sweep_check(family_expected), needed))
    parallel = _parallel_pass(b3.verify_all, all_records, wl.SWEEP_DIGITS,
                              expected)
    return Workload("sweep", ops, parallel, len(all_records),
                    MIN_ROUNDS["sweep"], "cli.run")


def build_workload(name: str) -> Workload:
    import binom3k as b3
    catalog = sorted(b3.builtin_catalog(), key=lambda r: r.id)
    if name == "catalog":
        return _record_workload(name, catalog, wl.CATALOG_DIGITS, b3)
    if name == "hiprec":
        by_id = {r.id: r for r in catalog}
        records = [by_id[i] for i in wl.HIPREC_IDS]
        return _record_workload(name, records, wl.HIPREC_DIGITS, b3)
    return _sweep_workload(b3)


# -- measurement --------------------------------------------------------------

@dataclass
class PassResult:
    wall_ns: int
    latencies: list  # ns, one per operation
    calibrations: list  # ns, one before each operation and one after all
    names: list
    terms: list
    failures: list = field(default_factory=list)
    failed_ops: int = 0

    def scaled(self) -> list:
        """Latencies at the reference speed, one per operation."""
        cal = self.calibrations
        return [scaled(ns, cal[i], cal[i + 1])
                for i, ns in enumerate(self.latencies)]


def run_pass(workload: Workload, rng: random.Random, tracer=None,
             op_ids=None) -> PassResult:
    """Time every operation once, in a seeded order, each between two
    calibrations; check outputs after."""
    ops = workload.ops
    order = list(range(len(ops)))
    rng.shuffle(order)
    outputs, latencies, calibrations = [], [], []
    pass_start = time.perf_counter_ns()
    for index in order:
        op = ops[index]
        calibrations.append(calibrate())
        start = time.perf_counter_ns()
        try:
            if tracer is None:
                output = op.call()
            else:
                tracer.op = next(op_ids)
                output = tracer.call(workload.op_span, op.call)
        except Exception as exc:  # a raising operation is a failed one
            output = exc
        latencies.append(time.perf_counter_ns() - start)
        outputs.append(output)
    calibrations.append(calibrate())
    wall = time.perf_counter_ns() - pass_start
    result = PassResult(wall, latencies, calibrations,
                        [ops[i].name for i in order], [])
    for index, output in zip(order, outputs):
        if isinstance(output, Exception):
            failures, terms = [f"{ops[index].name}: raised {output!r}"], 0
        else:
            failures, terms = ops[index].check(output)
        result.failures.extend(failures)
        result.failed_ops += bool(failures)
        result.terms.append(terms)
    return result


class SetupTimer:
    """Fresh interpreters importing binom3k and loading the built-in
    catalog.  The launches are spread over the run, between rounds, so that
    they meet the same machine conditions as the timed passes."""

    def __init__(self):
        self.totals, self.loads = [], []

    def launch(self) -> None:
        before = calibrate()
        start = time.perf_counter_ns()
        done = subprocess.run(
            [sys.executable, "-I", "-c", _SETUP_CHILD, str(SRC)],
            capture_output=True, text=True, timeout=60, check=True)
        total = time.perf_counter_ns() - start
        after = calibrate()
        load_s = float(done.stdout.strip().splitlines()[-1])
        self.totals.append(scaled(total, before, after) / 1e9)
        self.loads.append(scaled(load_s, before, after))

    def catch_up(self, fraction: float) -> None:
        """Launch until ``fraction`` of all launches are done."""
        while len(self.totals) < round(SETUP_LAUNCHES * min(fraction, 1.0)):
            self.launch()

    def medians(self) -> tuple[float, float]:
        """Median launch wall time and median catalog load time, in s at
        the reference speed."""
        self.catch_up(1.0)
        return statistics.median(self.totals), statistics.median(self.loads)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus JOBS times its largest child's (the
    pool workers, forked from this process, are its largest children)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + JOBS * child) / 1024.0


def _elapsed(start: float) -> float:
    return time.perf_counter() - start


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Closed loop, one client: rounds of a serial pass (plus a traced one
    when tracing) and PARALLEL_PASSES jobs=2 passes, for about ``seconds``
    and at least the workload's minimum number of rounds."""
    from binom3k import cli, registry, series, verifier
    rng = random.Random(seed)
    serial, traced, failures = [], [], []
    parallel_raw, parallel_walls = [], []
    tracer = spans.Tracer() if trace else None
    op_ids = itertools.count()
    attempted = failed = 0
    min_rounds = 1 if trace else workload.min_rounds
    setup = SetupTimer()
    with PairCalibrator() as pair:
        start = time.perf_counter()
        while True:
            setup.catch_up(1 / 3 + _elapsed(start) / seconds)
            round_start = time.perf_counter()
            passes, kinds = [], (False,)
            if trace:  # alternate which of the two passes goes first
                kinds = ((False, True) if len(serial) % 2 == 0
                         else (True, False))
            for traced_pass in kinds:
                if traced_pass:
                    first_span = len(tracer.spans)
                    tracer.install((cli, registry, series, verifier))
                    try:
                        result = run_pass(workload, rng, tracer, op_ids)
                    finally:
                        tracer.uninstall()
                    traced.append((result, first_span, len(tracer.spans)))
                else:
                    result = run_pass(workload, rng)
                    serial.append(result)
                passes.append(result)
            before = pair.calibrate()
            for _ in range(PARALLEL_PASSES):
                parallel_start = time.perf_counter_ns()
                try:
                    parallel_failures = workload.parallel()
                    failed += len(parallel_failures)
                except Exception as exc:  # a raising pool pass fails all
                    parallel_failures = [
                        f"verify_all(jobs={JOBS}) raised {exc!r}"]
                    failed += workload.parallel_size
                parallel_raw.append(time.perf_counter_ns() - parallel_start)
                after = pair.calibrate()
                parallel_walls.append(scaled(parallel_raw[-1], before, after))
                before = after
                failures += parallel_failures
                attempted += workload.parallel_size
            for result in passes:
                failures += result.failures
                failed += result.failed_ops
                attempted += len(workload.ops)
            elapsed, last_round = _elapsed(start), _elapsed(round_start)
            if elapsed + last_round > HARD_STOP_S:
                break
            # start another round only if it would end nearer to ``seconds``
            if len(serial) >= min_rounds and elapsed + last_round / 2 > seconds:
                break
    return {"serial": serial, "traced": traced, "parallel": parallel_walls,
            "parallel_raw": parallel_raw, "failures": failures,
            "attempted": attempted, "failed": min(failed, attempted),
            "tracer": tracer, "setup": setup.medians()}


# -- metrics ------------------------------------------------------------------

def end_to_end(workload: Workload, runs: dict) -> tuple[dict, str]:
    latencies = [ns for r in runs["serial"] for ns in r.scaled()]
    pct = tail_percentile(workload.min_rounds * len(workload.ops))
    metrics = {
        "setup_s": (runs["setup"][0], "s"),
        "wall_s": (pass_ns(runs["serial"]) / 1e9, "s"),
        "op_p50_ms": (statistics.median(latencies) / 1e6, "ms"),
        "op_tail_ms": (percentile(latencies, pct) / 1e6, "ms"),
        "parallel_wall_s": (statistics.median(runs["parallel"]) / 1e9, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    raw_wall = statistics.median(r.wall_ns for r in runs["serial"])
    speed = run_speed(runs["serial"])
    beyond = len(latencies) - _rank(len(latencies), pct)
    note = (f"op_tail_ms is p{pct} of {len(latencies)} operations "
            f"({beyond} beyond it); timings are "
            f"at the reference speed, the host ran at {1 / speed:.3g}x its "
            f"time (raw serial pass {raw_wall / 1e9:.4g} s)")
    return metrics, note


def per_layer(workload: Workload, runs: dict) -> dict:
    recorded = runs["tracer"].spans
    own = spans.self_times(recorded)
    passes = [spans.layer_totals(recorded[first:last], own[first:last])
              for _, first, last in runs["traced"]]
    speeds = [run_speed([result]) for result, _, _ in runs["traced"]]

    def median_of(fn):
        return statistics.median(fn(t) for t in passes)

    def ms(name, key="ns"):  # at the reference speed
        return statistics.median(
            t[name][key] * speed / 1e6 if name in t else 0.0
            for t, speed in zip(passes, speeds))

    def count(name, key="calls"):
        return median_of(lambda t: t[name][key] if name in t else 0)

    terms = count("series.sum", "terms")
    needed = sum(op.terms_needed for op in workload.ops)
    sum_ms = ms("series.sum")
    untraced = pass_ns(runs["serial"])
    traced = pass_ns(r for r, _, _ in runs["traced"])
    metrics = {
        "setup.import_s": (runs["setup"][0] - runs["setup"][1], "s"),
        "registry.load_s": (runs["setup"][1], "s"),
        "series.sum_ms": (sum_ms, "ms"),
        "series.sum_calls": (count("series.sum"), "count"),
        "series.terms": (terms, "count"),
        "series.ns_per_term": (sum_ms * 1e6 / terms if terms else 0.0, "ns"),
        "series.terms_needed": (needed, "count"),
        "series.terms_ratio": (terms / needed if needed else 0.0, "ratio"),
        "series.boundary_ms": (ms("series.boundary"), "ms"),
        "series.boundary_terms": (count("series.boundary", "terms"), "count"),
        "series.classify_ms": (ms("series.classify"), "ms"),
        "series.classify_calls": (count("series.classify"), "count"),
        "registry.instantiate_ms": (ms("registry.instantiate"), "ms"),
        "registry.instantiate_calls": (count("registry.instantiate"), "count"),
        "closed_forms.rhs_ms": (ms("closed_forms.rhs"), "ms"),
        "closed_forms.rhs_calls": (count("closed_forms.rhs"), "count"),
        "expressions.rhs_ms": (ms("expressions.rhs"), "ms"),
        "expressions.rhs_calls": (count("expressions.rhs"), "count"),
        "verifier.self_ms": (ms("verifier.verify", "self_ns")
                             + ms("verifier.sweep", "self_ns"), "ms"),
        "cli.self_ms": (ms("cli.run", "self_ns"), "ms"),
        "verifier.pool_speedup": (
            statistics.median(r.wall_ns for r in runs["serial"])
            / statistics.median(runs["parallel_raw"]), "x"),
        "trace.overhead_ratio": (traced / untraced - 1, "ratio"),
    }
    return metrics


def write_outputs(workload: Workload, seed: int, trace: bool, runs: dict,
                  metrics: dict) -> None:
    """Per-operation latencies at the reference speed, and in a traced run
    every span, as JSON."""
    OUT_DIR.mkdir(exist_ok=True)
    per_op = {}
    for result in runs["serial"]:
        for name, ns, terms in zip(result.names, result.scaled(),
                                   result.terms):
            entry = per_op.setdefault(name, {"ns": [], "terms_used": terms})
            entry["ns"].append(ns)
    records = {name: {"op_ms": statistics.median(e["ns"]) / 1e6,
                      "terms_used": e["terms_used"],
                      "samples_ms": [ns / 1e6 for ns in e["ns"]]}
               for name, e in sorted(per_op.items())}
    body = {"workload": workload.name, "seed": seed, "trace": int(trace),
            "metrics": {k: v for k, (v, _) in metrics.items()},
            "serial_walls_s": [r.wall_ns / 1e9 for r in runs["serial"]],
            "speeds": [run_speed([r]) for r in runs["serial"]],
            "parallel_walls_s": [ns / 1e9 for ns in runs["parallel"]],
            "raw_parallel_walls_s": [ns / 1e9 for ns in runs["parallel_raw"]],
            "records": records}
    path = OUT_DIR / f"{workload.name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(body, indent=1) + "\n", encoding="utf-8")
    if trace:
        span_path = path.with_suffix(".spans.jsonl")
        with open(span_path, "w", encoding="utf-8") as handle:
            for span in runs["tracer"].spans:
                handle.write(json.dumps(span.__dict__) + "\n")


# -- entry point --------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("catalog", "hiprec", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "binom3k" / "__init__.py").is_file():
        print(f"error: no binom3k package under {SRC}; run the benchmark "
              "from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import binom3k
    if Path(binom3k.__file__).resolve().parent != SRC / "binom3k":
        print(f"error: imported binom3k from {binom3k.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    workload = build_workload(args.workload)
    runs = measure(workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        metrics, note = per_layer(workload, runs), ""
    else:
        metrics, note = end_to_end(workload, runs)
    failed = runs["failed"]
    write_outputs(workload, args.seed, bool(args.trace), runs, metrics)

    for reason in runs["failures"][:20]:
        print(f"FAILED {reason}")
    print(f"{workload.name}: {len(runs['serial'])} rounds, "
          f"{runs['attempted']} operations")
    for name, (value, unit) in metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {unit}")
    print(f"{workload.name} failed_ratio = {failed / runs['attempted']:.6g} 1")
    if note:
        print(f"{workload.name} {note}")
    result = {
        "correct": failed == 0,
        "attempted": runs["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
