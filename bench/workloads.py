"""Inputs, reference values and output checks for the three workloads.

The record lists and the sweep grid are fixed here, not derived from the
program at run time, so that a change to the program cannot change what
the benchmark runs.  ``--seed`` only shuffles the order of the operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from mpmath import mp, mpf

# -- fixed inputs -----------------------------------------------------------

CATALOG_DIGITS = 100
HIPREC_DIGITS = 1000
SWEEP_DIGITS = 25

# Every unit-weight geometric record with exact 4|z|/27 <= 1/2, plus the six
# Fibonacci/Lucas-weighted records: K <= 8192 at 1000 digits, so the cost
# per term at ~3.4k-bit precision dominates.
HIPREC_IDS = (
    "alt-17-12", "alt-8-3", "eq-17-12", "eq-italy",
    "thm1-fib-r3", "thm1-luc-r2", "thm1-luc-r3",
    "thm10-fib-pn2-q5", "thm10-luc-pn2-q5", "thm3-fib-n3",
    "thm4-fib-r3", "thm4-luc-r2", "thm4-luc-r3",
    "thm6-fib-r3", "thm6-luc-r2", "thm6-luc-r3", "thm6-luc-r6",
    "thm7-fib-pn2-q5", "thm7-luc-pn2-q5", "thm9-fib-pn2-q5", "thm9-luc-pn2-q5",
    "trig-D-pi12", "trig-D-pi8", "trig-E-pi12", "trig-F-pi12", "trig-F-pi8",
    "xy-1-1d27-a0", "xy-1-1d27-a1", "xy-1-1d27-a2",
    "xy-1-neg1d27-a0", "xy-1-neg1d27-a1", "xy-1-neg1d27-a2",
    "xy-8-1-a0", "xy-8-1-a1",
    "xy-8-1d8-a0", "xy-8-1d8-a1", "xy-8-1d8-a2",
    "xy-8-neg1d8-a0", "xy-8-neg1d8-a1", "xy-8-neg1d8-a2",
)


def _rs(values):
    return tuple(f"r={r}" for r in values)


def _nm(pairs):
    return tuple(f"n={n},m={m}" for n, m in pairs)


_PQ = ("p=-2,q=5", "p=-2,q=6", "p=-3,q=5", "p=-3,q=6")

# The criterion-7 grid of the acceptance tests, restricted to valid
# geometric points that need at most 2000 estimated terms at 25 digits:
# 237 points in 22 families, one ``binom3k sweep`` call per family.
SWEEP_GRID = {
    "THM1_FIB": _rs(range(1, 9)),
    "THM1_LUC": _rs(range(2, 9)),
    "COR2_FIB": _rs(range(1, 5)),
    "COR2_LUC": _rs(range(1, 5)),
    "THM3_V1": _nm([(n, m) for n in range(3, 9) for m in range(1, n)
                    if (n, m) != (3, 1)]),
    "THM3_V2": _nm([(n, m) for n in range(2, 9) for m in range(2, n + 1)]),
    "THM3_V3": _nm([(n, m) for n in range(2, 9) for m in range(1, n + 1)
                    if (n, m) != (3, 2)]),
    "THM3_V4": _nm([(n, 1) for n in range(2, 9)]),
    "THM3_V5": _nm([(n, m) for n in range(2, 9) for m in range(2, n + 1)]),
    "THM3_V6": _nm([(n, m) for n in range(2, 9) for m in range(1, n + 1)
                    if (n, m) != (2, 2)]),
    "THM4_FIB": _rs(range(1, 7)),
    "COR5_FIB": _rs(range(1, 7)),
    "THM6_FIB": _rs(range(1, 7)),
    "THM4_LUC": _rs(range(2, 7)),
    "COR5_LUC": _rs(range(2, 7)),
    "THM6_LUC": _rs(range(2, 7)),
    "THM7_FIB": _PQ, "THM7_LUC": _PQ,
    "THM9_FIB": _PQ, "THM9_LUC": _PQ,
    "THM10_FIB": _PQ, "THM10_LUC": _PQ,
}

# Boundary records are certified at a reduced target of 10 digits.
BOUNDARY_REDUCED_DIGITS = 10


def parse_point(text: str) -> dict:
    return {name: int(value) for name, value in
            (item.split("=") for item in text.split(","))}


def sweep_argv(family: str, points) -> list:
    argv = ["sweep", "--family", family]
    for point in points:
        argv += ["--point", point]
    return argv + ["--digits", str(SWEEP_DIGITS), "--format", "json"]


# -- expected outcomes --------------------------------------------------------

@dataclass(frozen=True)
class Expected:
    """What a correct verification of one record looks like."""

    id: str
    convergence: str
    digits: int
    ref: object = None  # closed form at digits + 20, None when divergent

    def allowed(self) -> dict:
        """Accepted status -> digit target it must reach."""
        if self.convergence == "geometric":
            return {"PASS": self.digits}
        if self.convergence.startswith("boundary"):
            return {"PASS_BOUNDARY_REDUCED": BOUNDARY_REDUCED_DIGITS,
                    "PASS": self.digits}
        return {"SKIPPED_DIVERGENT": 0}


def check_output(expected: Expected, status: str, matched: int,
                 lhs) -> Optional[str]:
    """None when the output is correct, else the reason it is not.

    ``lhs`` is an mpf or a decimal string.  The status must match the
    convergence class, ``matched`` must reach target - 2, and
    |lhs - ref| <= 10^-(target-2) * max(1, |ref|).
    """
    allowed = expected.allowed()
    if status not in allowed:
        return f"{expected.id}: status {status}, expected {sorted(allowed)}"
    target = allowed[status]
    if status == "SKIPPED_DIVERGENT":
        return None
    if matched < target - 2:
        return f"{expected.id}: matched {matched} < {target - 2} digits"
    if lhs is None or lhs == "":
        return f"{expected.id}: no lhs value"
    with mp.workdps(expected.digits + 30):
        ref = expected.ref
        diff = abs(mpf(lhs) - ref)
        limit = mpf(10) ** (-(target - 2)) * max(mpf(1), abs(ref))
        if not diff <= limit:
            return (f"{expected.id}: |lhs - ref| = {mp.nstr(diff, 3)} "
                    f"> {mp.nstr(limit, 3)}")
    return None


def reference(record, digits: int, make_context):
    """The record's closed form with 20 extra digits (set-up, untimed)."""
    if record.convergence == "divergent_formal":
        return Expected(record.id, record.convergence, digits)
    ctx = make_context(digits + 20)
    with ctx.workdps():
        ref = record.rhs_value(ctx)
    return Expected(record.id, record.convergence, digits, ref)


# -- independent estimate of the terms a geometric sum needs ----------------

_LOG_PHI = math.log((1 + math.sqrt(5)) / 2)


def _log_weight(kind: str, n: int) -> float:
    """ln |F(n)| (n >= 1) or ln |L(n)| (n >= 0), from Binet's formula."""
    ratio = math.exp(-2 * n * _LOG_PHI) * (-1) ** n  # (psi/phi)^n
    if kind == "fib":
        return n * _LOG_PHI - 0.5 * math.log(5) + math.log(abs(1 - ratio))
    return n * _LOG_PHI + math.log(abs(1 + ratio))


def _log_term(k: int, log_z: float, a: int, kind: str, m: int) -> float:
    """ln |t_k| for t_k = z^k w(k) / (k^a C(3k,k))."""
    log_binom = (math.lgamma(3 * k + 1) - math.lgamma(k + 1)
                 - math.lgamma(2 * k + 1))
    value = k * log_z - a * math.log(k) - log_binom
    if kind != "unit":
        value += _log_weight(kind, abs(m) * k)
    return value


def terms_needed(z: Fraction, a: int, kind: str, m: int, digits: int) -> int:
    """Smallest K with log10|t_{K+1}| - log10(1 - rho) < -digits.

    rho = 4|z|/27 * phi^|m| is the limit term ratio.  Computed in floats
    from log-magnitudes, independently of the package's summation code.
    Every term vanishes when z = 0 or w(k) = F(0) = 0, so none are needed.
    """
    if kind not in ("unit", "fib", "lucas"):
        raise ValueError(f"no estimate for weight {kind!r}")
    if z == 0 or (kind == "fib" and m == 0):
        return 0
    growth = abs(m) * _LOG_PHI if kind != "unit" else 0.0
    log_rho = math.log(4 * abs(z) / 27) + growth
    if log_rho >= 0:
        raise ValueError(f"series with z = {z} is not geometric")
    log_z = math.log(abs(z))
    bound = -digits * math.log(10) + math.log(-math.expm1(log_rho))
    k = 0
    while _log_term(k + 1, log_z, a, kind, m) >= bound:
        k += 1
    return k


def spec_terms_needed(spec, digits: int) -> int:
    return terms_needed(spec.z, spec.a, spec.weight.kind, spec.weight.m, digits)


# -- operations ---------------------------------------------------------------

@dataclass
class Operation:
    """One timed call, the check of its output and its term estimate."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], tuple]  # output -> (failure reasons, terms_used)
    terms_needed: int = 0  # over the geometric sums the call performs
