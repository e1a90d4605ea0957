"""Summarise the result files in ``.bench_out/`` into ``bench/baseline.json``.

    python3 bench/baseline.py

For every workload: the median over runs of each metric, the number of
runs, and for ``catalog`` and ``hiprec`` each record's median operation
time and ``terms_used``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
from pathlib import Path

import mpmath

from run import OUT_DIR

PER_RECORD = ("catalog", "hiprec")


def summarise(paths) -> dict:
    runs = {}
    for path in sorted(paths):
        body = json.loads(path.read_text(encoding="utf-8"))
        runs.setdefault(body["workload"], []).append(body)
    result = {}
    for workload, bodies in sorted(runs.items()):
        metrics = {}
        for body in bodies:
            for name, value in body["metrics"].items():
                metrics.setdefault(name, []).append(value)
        entry = {"runs": {str(t): sum(b["trace"] == t for b in bodies)
                          for t in (0, 1)},
                 "metrics": {name: statistics.median(values)
                             for name, values in metrics.items()}}
        if workload in PER_RECORD:
            samples, terms = {}, {}
            for body in bodies:
                for name, record in body["records"].items():
                    samples.setdefault(name, []).extend(record["samples_ms"])
                    terms[name] = record["terms_used"]
            entry["records"] = {
                name: {"op_ms": round(statistics.median(values), 3),
                       "terms_used": terms[name]}
                for name, values in sorted(samples.items())}
        result[workload] = entry
    return result


def main() -> None:
    baseline = {
        "machine": {"cpus": os.cpu_count(), "processor": platform.machine(),
                    "python": platform.python_version(),
                    "mpmath": mpmath.__version__,
                    "mpmath_backend": mpmath.libmp.BACKEND},
        "workloads": summarise(OUT_DIR.glob("*-trace[01].json")),
    }
    target = Path(__file__).resolve().parent / "baseline.json"
    target.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
