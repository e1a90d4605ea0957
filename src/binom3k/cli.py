"""Command-line front end: list, evaluate, verify, sweep, and scan.

Exit codes: 0 when every verification passes (or is skipped as
divergent), 1 on any FAIL, 2 on usage errors, an option the subcommand
does not take among them.  JSON output uses decimal strings for all
high-precision numbers so it round-trips without binary-float loss;
Markdown tables truncate displayed values at 25 digits.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

from mpmath.libmp import to_str

from .closed_forms import FAMILIES, TheoremParams, XYPair, family_names
from .errors import Binom3kError, InvalidParams
from .precision import DEFAULT_MAX_TERMS, make_context
from .registry import builtin_catalog, get_record, load_catalog, scan_perfect_square
from .sequences import HoradamParams
from .verifier import (FAIL, VerificationReport, differential_check,
                       sum_record, summary_counts, verify, verify_all)
from .verifier import sweep as run_sweep

MD_DIGIT_LIMIT = 25


# -- report rendering ------------------------------------------------------

def _num_str(value, digits: int) -> str:
    if value is None:
        return ""
    return to_str(value._mpf_, digits + 5, strip_zeros=True)


def _md_trunc(text: str) -> str:
    mantissa, sep, exponent = text.partition("e")
    if len(mantissa) <= MD_DIGIT_LIMIT:
        return text
    return mantissa[:MD_DIGIT_LIMIT] + "…" + sep + exponent


def _report_obj(report: VerificationReport, digits: int) -> dict:
    return {
        "id": report.identity_id,
        "status": report.status,
        "matched_digits": report.matched_digits,
        "lhs": _num_str(report.lhs_value, digits),
        "rhs": _num_str(report.rhs_value, digits),
        "terms_used": report.terms_used,
        "tail": _num_str(report.tail, 5),
        "elapsed_ms": int(report.elapsed * 1000),
        "detail": report.detail,
    }


def _json(value, pad: str = "") -> str:
    """``value``, a dict, list, str, int or None, as json.dumps(value,
    indent=2) writes it from the indent ``pad`` on.  An indenting
    json.dumps runs json's encoder in Python; this writes the text
    directly and leaves each string to json's C encoder."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    inner = pad + "  "
    if isinstance(value, dict):
        items = [f"{inner}{encode_basestring_ascii(key)}: {_json(item, inner)}"
                 for key, item in value.items()]
        brackets = "{}"
    else:
        items = [inner + _json(item, inner) for item in value]
        brackets = "[]"
    if not items:
        return brackets
    return f"{brackets[0]}\n" + ",\n".join(items) + f"\n{pad}{brackets[1]}"


def _suite_json(reports: list[VerificationReport], digits: int) -> str:
    obj = {"suite": {"digits": digits, **summary_counts(reports)},
           "reports": [_report_obj(r, digits) for r in reports]}
    return _json(obj) + "\n"


def _suite_md(reports: list[VerificationReport], digits: int) -> str:
    lines = ["| id | status | matched | terms | lhs | rhs | tail | ms |",
             "|---|---|---|---|---|---|---|---|"]
    for r in reports:
        obj = _report_obj(r, digits)
        lines.append("| {id} | {status} | {matched_digits} | {terms_used} "
                     "| {lhs} | {rhs} | {tail} | {elapsed_ms} |".format(
                         **{**obj,
                            "lhs": _md_trunc(obj["lhs"]),
                            "rhs": _md_trunc(obj["rhs"])}))
    fails = [r for r in reports if r.status == FAIL]
    lines.append("")
    lines.append(f"{len(reports)} reports, {len(fails)} failing "
                 f"at {digits} digits")
    for r in fails:
        if r.detail:
            lines.append(f"- {r.identity_id}: {r.detail}")
    return "\n".join(lines) + "\n"


def _suite_csv(reports: list[VerificationReport], digits: int) -> str:
    import csv
    import io
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    fields = ["id", "status", "matched_digits", "terms_used", "tail",
              "elapsed_ms", "detail"]
    writer.writerow(fields)
    for r in reports:
        obj = _report_obj(r, digits)
        writer.writerow([obj[name] for name in fields])
    return buffer.getvalue()


_RENDERERS = {"json": _suite_json, "md": _suite_md, "csv": _suite_csv}


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _report(args, reports: list[VerificationReport]) -> int:
    """Emit the reports in ``--format``; exit code 1 on any FAIL."""
    _emit(_RENDERERS[args.format](reports, args.digits), args.out)
    return 1 if any(r.status == FAIL for r in reports) else 0


# -- argument parsing ------------------------------------------------------

def _positive_digits(text: str) -> int:
    value = int(text)
    if not 5 <= value <= 1000:
        raise argparse.ArgumentTypeError("digits must be in [5, 1000]")
    return value


def _at_least(low: int, option: str):
    """argparse type: an integer no less than ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{option} must be >= {low}")
        return value
    parse.__name__ = option  # argparse names it in "invalid ... value"
    return parse


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _add_digits(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--digits", type=_positive_digits, default=30,
                        help="decimal digits to certify (5-1000, default 30)")


def _add_common(parser: argparse.ArgumentParser, digits: bool = True,
                formats: tuple = ("json", "md", "csv"),
                catalog: bool = True) -> None:
    if digits:
        _add_digits(parser)
        parser.add_argument("--max-terms", type=_at_least(64, "max-terms"),
                            default=DEFAULT_MAX_TERMS, help="term budget for "
                            f"summation (default {DEFAULT_MAX_TERMS})")
    if formats:
        parser.add_argument("--format", choices=formats, default="md",
                            help="output format (default md)")
    parser.add_argument("--out", help="write output to this file")
    if catalog:
        parser.add_argument("--catalog", help="load this catalog JSON instead "
                            "of the built-in one")


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, each with only the options it reads."""
    parser = argparse.ArgumentParser(
        prog="binom3k",
        description="Certify closed-form evaluations of the series "
                    "sum z^k w(k) / (k^a C(3k,k)).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="list catalog records")
    _add_common(p, digits=False, formats=("json", "md"))

    p = sub.add_parser("eval", help="sum one record's series numerically")
    p.add_argument("--id", required=True, help="catalog record id")
    _add_common(p, formats=())

    p = sub.add_parser("verify", help="verify one record")
    p.add_argument("--id", required=True, help="catalog record id")
    _add_common(p)

    p = sub.add_parser("verify-all", help="verify every catalog record")
    p.add_argument("--jobs", type=_at_least(1, "jobs"),
                   default=os.cpu_count() or 1,
                   help="processes, this one included (default: cpu count)")
    _add_common(p)

    p = sub.add_parser("sweep", help="verify a parameter family on a grid")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--point", action="append", required=True, metavar="K=V[,K=V...]",
                   help="one grid point as comma-separated integer "
                        "assignments, e.g. r=3 or p=-2,q=5 (repeatable)")
    p.add_argument("--horadam", metavar="P,Q,A,B",
                   help="recurrence parameters for the HORADAM families")
    _add_common(p, catalog=False)

    p = sub.add_parser("scan", help="list rational arguments z=(81-t^2)/12 "
                                    "with integer t")
    p.add_argument("--t-max", type=int, default=8,
                   help="largest t to scan (default 8)")
    _add_common(p, digits=False, formats=(), catalog=False)

    p = sub.add_parser("check-derivatives",
                       help="numerically check the derivative chain between "
                            "closed-form levels")
    p.add_argument("--level", required=True, choices=("A_to_B", "B_to_C"))
    p.add_argument("--x", type=_fraction_arg, required=True)
    p.add_argument("--y", type=_fraction_arg, required=True)
    _add_digits(p)  # it sums nothing, so it takes no --max-terms
    _add_common(p, digits=False, catalog=False)

    return parser


def _load(args) -> list:
    if args.catalog:
        return load_catalog(args.catalog)
    return builtin_catalog()


def _parse_point(text: str, family: str,
                 horadam: Optional[HoradamParams]) -> TheoremParams:
    point = {}
    for item in text.split(","):
        name, _, value = item.partition("=")
        name = name.strip()
        bad = f"bad grid assignment {item!r} (expected r/n/m/p/q = integer)"
        if name not in ("r", "n", "m", "p", "q") or not value:
            raise ValueError(bad)
        if name in point:
            raise ValueError(f"grid point {text!r} assigns {name} twice")
        try:
            point[name] = int(value)
        except ValueError:
            raise ValueError(bad) from None
    try:
        return TheoremParams(family, horadam=horadam, **point)
    except InvalidParams as exc:
        raise ValueError(f"grid point {text!r}: {exc}") from None


# -- subcommands -----------------------------------------------------------

def _cmd_list(args) -> int:
    catalog = sorted(_load(args), key=lambda r: r.id)
    if args.format == "json":
        rows = [{"id": r.id, "convergence": r.convergence,
                 "tags": list(r.tags), "note": r.note} for r in catalog]
        text = _json(rows) + "\n"
    else:
        lines = ["| id | convergence | tags |", "|---|---|---|"]
        lines += [f"| {r.id} | {r.convergence} | {', '.join(r.tags)} |"
                  for r in catalog]
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def _cmd_eval(args) -> int:
    record = get_record(_load(args), args.id)
    ctx = make_context(args.digits, args.max_terms)
    result = sum_record(record, args.digits, ctx)
    text = (f"{args.id}: {_num_str(result.value, args.digits)} "
            f"({result.terms_used} terms, tail {_num_str(result.tail, 5)})\n")
    _emit(text, args.out)
    return 0


def _cmd_verify(args) -> int:
    record = get_record(_load(args), args.id)
    ctx = make_context(args.digits, args.max_terms)
    reports = [verify(record, args.digits, ctx)]
    return _report(args, reports)


def _cmd_verify_all(args) -> int:
    catalog = _load(args)
    ctx = make_context(args.digits, args.max_terms)
    summary = verify_all(catalog, args.digits, ctx, jobs=args.jobs)
    return _report(args, summary["reports"])


def _cmd_sweep(args) -> int:
    if "horadam" in family_names(args.family) and args.horadam is None:
        raise ValueError(f"{args.family} needs --horadam")
    horadam = None
    if args.horadam is not None:
        try:
            parts = [int(v) for v in args.horadam.split(",")]
        except ValueError:
            parts = []
        if len(parts) != 4:
            raise ValueError("--horadam expects four integers P,Q,A,B")
        horadam = HoradamParams(*parts)
    grid = [_parse_point(text, args.family, horadam) for text in args.point]
    ctx = make_context(args.digits, args.max_terms)
    reports = run_sweep(args.family, grid, args.digits, ctx)
    return _report(args, reports)


def _cmd_scan(args) -> int:
    values = scan_perfect_square(args.t_max)
    text = "\n".join(str(z) for z in values) + "\n"
    _emit(text, args.out)
    return 0


def _cmd_check_derivatives(args) -> int:
    report = differential_check(args.level, XYPair(args.x, args.y),
                                args.digits)
    return _report(args, [report])


_COMMANDS = {
    "list": _cmd_list,
    "eval": _cmd_eval,
    "verify": _cmd_verify,
    "verify-all": _cmd_verify_all,
    "sweep": _cmd_sweep,
    "scan": _cmd_scan,
    "check-derivatives": _cmd_check_derivatives,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args leaves it unchanged."""
    return build_parser()


def run(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (Binom3kError, KeyError, OSError, ValueError) as exc:
        # str of a KeyError quotes its message
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
