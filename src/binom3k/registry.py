"""Catalog of concrete series identities and the family instantiator.

Each :class:`IdentityRecord` pairs a left-hand :class:`~.series.SeriesSpec`
with a right-hand side that is an exact expression tree; a family point's
tree is its sum of ``level`` nodes.  The built-in catalog is built in code by
:mod:`._builtin` on first use; user catalogs are JSON files read by
:func:`load_catalog` (which checks each stored convergence class against
:func:`~.series.convergence_kind`) and written by :func:`save_catalog`.
Built-in records take their class from it; ids must be unique.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union

from mpmath import mpf

from . import expressions
from .closed_forms import TheoremParams, eval_expr, theorem_point
from .errors import Binom3kError, InvalidParams
from .precision import PrecisionContext
# classify stays a name of this module: bench/spans.py times registry.classify
from .series import (SeriesSpec, UNIT_WEIGHT, Weight,  # noqa: F401
                     classify, convergence_kind)


@dataclass(frozen=True)
class IdentityRecord:
    id: str
    note: str
    lhs: SeriesSpec
    rhs: expressions.Expr
    validity: str
    convergence: str  # series.convergence_kind of lhs
    tags: tuple = ()

    def rhs_value(self, ctx: PrecisionContext) -> mpf:
        return eval_expr(self.rhs, ctx)


# -- (de)serialization ---------------------------------------------------

def _weight_to_json(w: Weight) -> dict:
    obj = {"kind": w.kind}
    if w.kind != "unit":
        obj["m"] = w.m
    return obj


def _weight_from_json(obj: dict) -> Weight:
    kind = obj["kind"]
    return UNIT_WEIGHT if kind == "unit" else Weight(kind, obj["m"])


def _z_to_json(z: Fraction) -> str:
    return f"{z.numerator}/{z.denominator}"


def _z_from_json(obj) -> Fraction:
    if not isinstance(obj, str):
        raise InvalidParams(f"series argument must be a rational string "
                            f"like '8/3', got {obj!r}")
    num, _, den = obj.partition("/")
    return Fraction(int(num), int(den) if den else 1)


def record_to_json(record: IdentityRecord) -> dict:
    return {
        "id": record.id,
        "note": record.note,
        "lhs": {
            "z": _z_to_json(record.lhs.z),
            "a": record.lhs.a,
            "weight": _weight_to_json(record.lhs.weight),
        },
        "rhs": {"expr": expressions.to_json(record.rhs)},
        "validity": record.validity,
        "convergence": record.convergence,
        "tags": list(record.tags),
    }


def _text(obj: dict, name: str) -> str:
    value = obj[name]
    if not isinstance(value, str):
        raise InvalidParams(f"{name} must be a string, got {value!r}")
    return value


def record_from_json(obj: dict) -> IdentityRecord:
    record_id, note, validity = (_text(obj, name)
                                 for name in ("id", "note", "validity"))
    tags = obj["tags"]
    if not isinstance(tags, list) or not all(isinstance(t, str) for t in tags):
        raise InvalidParams(f"tags must be a list of strings, got {tags!r}")
    lhs_obj = obj["lhs"]
    lhs = SeriesSpec(_z_from_json(lhs_obj["z"]), lhs_obj["a"],
                     _weight_from_json(lhs_obj["weight"]), label=record_id)
    rhs_obj = obj["rhs"]
    if "expr" not in rhs_obj:  # such as the family rhs of older catalogs
        raise InvalidParams(f"rhs must hold an expression tree under 'expr', "
                            f"got keys {sorted(rhs_obj)}")
    rhs = expressions.from_json(rhs_obj["expr"])
    return IdentityRecord(record_id, note, lhs, rhs, validity,
                          obj["convergence"], tuple(tags))


# -- catalog loading -----------------------------------------------------

def _check_ids(records: list[IdentityRecord]) -> None:
    seen = set()
    for record in records:
        if record.id in seen:
            raise ValueError(f"duplicate record id {record.id!r}")
        seen.add(record.id)


def load_catalog(path: Union[str, Path]) -> list[IdentityRecord]:
    """Load and validate a catalog JSON file, a list of records; ValueError
    for a malformed record, naming its index, or nesting too deep to read."""
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except RecursionError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(data, list):
        raise ValueError(f"{path}: a catalog is a JSON list of records")
    records = []
    for index, obj in enumerate(data):
        try:
            records.append(record_from_json(obj))
        except (Binom3kError, ArithmeticError, LookupError, RecursionError,
                TypeError, ValueError) as exc:
            raise ValueError(f"{path}: record {index} is malformed: "
                             f"{type(exc).__name__}: {exc}") from exc
    _check_ids(records)
    for record in records:
        actual = convergence_kind(record.lhs)
        if actual != record.convergence:
            raise ValueError(
                f"record {record.id!r} declares convergence "
                f"{record.convergence!r} but classifies as {actual!r}")
    return records


def save_catalog(records: list[IdentityRecord], path: Union[str, Path]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump([record_to_json(r) for r in records], handle, indent=1)
        handle.write("\n")


_builtin_cache: Optional[list[IdentityRecord]] = None


def builtin_catalog() -> list[IdentityRecord]:
    """The built-in catalog (built once, its ids checked, cached, treated as
    immutable)."""
    global _builtin_cache
    if _builtin_cache is None:
        from ._builtin import build_records  # _builtin imports this module
        records = build_records()
        _check_ids(records)
        _builtin_cache = records
    return list(_builtin_cache)


def get_record(catalog: list[IdentityRecord], record_id: str) -> IdentityRecord:
    for record in catalog:
        if record.id == record_id:
            return record
    raise KeyError(f"no record with id {record_id!r}")


# -- construction helpers ------------------------------------------------

def scan_perfect_square(t_max: int) -> list[Fraction]:
    """Positive arguments z = (81 - t^2)/12 with integer t in [0, t_max].

    These are exactly the z at which sqrt(81 - 12z) is an integer, so the
    base closed form takes algebraic surd values.  Returned in decreasing
    order (t increasing).
    """
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    out = []
    for t in range(t_max + 1):
        z = Fraction(81 - t * t, 12)
        if z > 0:
            out.append(z)
    return out


def _slug(description: str) -> str:
    """The record id of a point's TheoremParams.describe()."""
    slug = description.lower().replace(" ", "-").replace("=", "")
    return slug.replace("_", "-")


def instance_id(params: TheoremParams) -> str:
    """The record id of a family point, e.g. ``thm1-luc-r2``."""
    return _slug(params.describe())


def instantiate(family: str, params: TheoremParams) -> IdentityRecord:
    """Build a fresh record for one bound family instance; ``params``
    must be a point of ``family``."""
    if params.family != family:
        raise InvalidParams(f"{params.describe()} is not a point of {family}")
    lhs, rhs = theorem_point(params)  # raises InvalidParams on bad params
    described = lhs.label  # theorem_point sets it to params.describe()
    kind = convergence_kind(lhs)
    if kind == "divergent_formal":
        raise InvalidParams(
            f"{described}: the series diverges at the radius 27/4 or beyond")
    return IdentityRecord(
        id=_slug(described),
        note=f"instantiated family {described}",
        lhs=lhs, rhs=rhs,
        validity="family constraints hold",
        convergence=kind,
        tags=("instantiated", params.family.lower()),
    )
