"""The CLI's outputs, byte for byte, against the files under golden/:
verify-all in json and md (one run under a term budget, which refuses
68 records), the benchmark's 22-family sweep, eval on each summation
method and check-derivatives at 30 and 100 digits, with the clock
stopped so that every elapsed_ms reads 0.  Each verify-all case runs at
one and two jobs against the same file.

To write the files again from the source on the path, run this file:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
from pathlib import Path

import pytest

from binom3k import cli, verifier
from test_family_pairs import SWEEP_GRID

GOLDEN = Path(__file__).resolve().parent / "golden"


def _verify_all(digits, fmt, *extra):
    return [["verify-all", "--digits", str(digits), "--format", fmt, *extra]]


def _sweep(family, points):
    argv = ["sweep", "--family", family]
    for point in points:
        argv += ["--point", ",".join(f"{k}={v}" for k, v in point.items())]
    return argv + ["--digits", "25", "--format", "json"]


# file name: the CLI calls whose stdout it holds, one after another
CASES = {
    "verify-all-30.json": _verify_all(30, "json"),
    "verify-all-100.json": _verify_all(100, "json"),
    "verify-all-300.json": _verify_all(300, "json"),
    "verify-all-30.md": _verify_all(30, "md"),
    "verify-all-100-max-terms-64.json": _verify_all(100, "json",
                                                    "--max-terms", "64"),
    "sweep-25.json": [_sweep(family, points)
                      for family, points in SWEEP_GRID.items()],
    "eval-30.txt": [["eval", "--id", record_id, "--digits", "30"]
                    for record_id in ("eq-27-4", "alt-27-4", "eq-20-3",
                                      "alt-20-3")],
    "check-derivatives-30.json": [
        ["check-derivatives", "--level", level, f"--x={x}", "--y=1",
         "--digits", "30", "--format", "json"]
        for level in ("A_to_B", "B_to_C") for x in ("9", "5/4", "-9", "1e300")],
    "check-derivatives-100.json": [
        ["check-derivatives", "--level", level, f"--x={x}", f"--y={y}",
         "--digits", "100", "--format", "json"]
        for level in ("A_to_B", "B_to_C")
        for x, y in (("27", "8"), ("8", "-1"), ("-17/3", "1/3"), ("7/3", "1"),
                     ("1e50", "1"))],
}
FAILING = {"verify-all-100-max-terms-64.json"}  # exit code 1, else 0


def _outputs(calls, extra=()):
    """The joined stdout of the CLI calls, each with ``extra`` appended,
    and each call's exit code and stderr."""
    out, codes = io.StringIO(), []
    for argv in calls:
        err = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            codes.append((cli.run([*argv, *extra]), err.getvalue()))
    return out.getvalue(), codes


def _runs():
    for name, calls in CASES.items():
        if name.startswith("verify-all"):
            for jobs in (1, 2):
                yield pytest.param(name, ("--jobs", str(jobs)),
                                   id=f"{name}-jobs{jobs}")
        else:
            yield pytest.param(name, (), id=name)


@pytest.mark.parametrize("name, extra", _runs())
def test_cli_output_matches_its_golden_file(monkeypatch, name, extra):
    monkeypatch.setattr(verifier.time, "perf_counter", lambda: 0.0)
    text, codes = _outputs(CASES[name], extra)
    code = 1 if name in FAILING else 0
    assert codes == [(code, "")] * len(CASES[name])
    assert text == (GOLDEN / name).read_text(encoding="utf-8")


if __name__ == "__main__":
    verifier.time.perf_counter = lambda: 0.0
    GOLDEN.mkdir(exist_ok=True)
    for name, calls in CASES.items():
        text, _ = _outputs(calls)
        (GOLDEN / name).write_text(text, encoding="utf-8")
