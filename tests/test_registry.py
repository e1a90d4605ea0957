from fractions import Fraction

import pytest
from mpmath import mp, mpf

from binom3k.closed_forms import TheoremParams, theorem_point
from binom3k.errors import InvalidParams
from binom3k.expressions import Expr
from binom3k.registry import (builtin_catalog, get_record,
                              instantiate, load_catalog, record_from_json,
                              record_to_json, save_catalog,
                              scan_perfect_square)
from binom3k.sequences import HoradamParams
from binom3k.verifier import verify_all


def count_tag(catalog, tag):
    return sum(tag in record.tags for record in catalog)


def test_catalog_section_counts(catalog):
    assert count_tag(catalog, "section1-positive") == 9
    assert count_tag(catalog, "section1-alternating") == 9
    assert count_tag(catalog, "xy-block") == 23
    assert count_tag(catalog, "trig") == 7
    assert len(catalog) >= 60


def test_divergent_records(catalog):
    divergent = [r.id for r in catalog if "divergent-formal" in r.tags]
    assert sorted(divergent) == ["thm1-luc-r1", "xy-27-neg8-a0",
                                 "xy-27-neg8-a1", "xy-27-neg8-a2"]
    for r in catalog:
        assert (("divergent-formal" in r.tags)
                == (r.convergence == "divergent_formal"))


def test_unique_ids(catalog):
    ids = [r.id for r in catalog]
    assert len(ids) == len(set(ids))


def test_italy_rhs_value(catalog, ctx30):
    record = get_record(catalog, "eq-italy")
    with ctx30.workdps():
        reference = mp.pi ** 2 / 6 - mp.log(3) ** 2 / 2
        assert abs(record.rhs_value(ctx30) - reference) < mpf(10) ** -28


def test_get_record_missing(catalog):
    with pytest.raises(KeyError):
        get_record(catalog, "no-such-id")


def test_scan_perfect_square():
    nine = scan_perfect_square(8)
    assert nine == [Fraction(27, 4), Fraction(20, 3), Fraction(77, 12),
                    Fraction(6), Fraction(65, 12), Fraction(14, 3),
                    Fraction(15, 4), Fraction(8, 3), Fraction(17, 12)]
    assert scan_perfect_square(0) == [Fraction(27, 4)]
    assert scan_perfect_square(9) == nine  # t=9 gives z=0, excluded
    with pytest.raises(ValueError):
        scan_perfect_square(-1)


def test_json_round_trip_all_records(catalog):
    for record in catalog:
        assert record_from_json(record_to_json(record)) == record


def test_save_and_load(tmp_path, catalog):
    path = tmp_path / "catalog.json"
    save_catalog(catalog, path)
    back = load_catalog(path)
    assert back == catalog


def test_a_saved_catalog_verifies_as_the_built_in_one(tmp_path, catalog):
    path = tmp_path / "catalog.json"
    save_catalog(catalog, path)
    loaded = load_catalog(path)
    assert all(isinstance(r.rhs, Expr) for r in catalog + loaded)

    def fields(reports):
        return [(r.identity_id, r.status, r.matched_digits, r.terms_used,
                 r.lhs_value, r.rhs_value, r.tail, r.detail)
                for r in reports]

    want = fields(verify_all(catalog, 30)["reports"])
    assert len(want) == 73
    assert fields(verify_all(loaded, 30, jobs=2)["reports"]) == want


def test_load_rejects_wrong_convergence(tmp_path, catalog):
    objs = [record_to_json(r) for r in catalog[:3]]
    objs[0]["convergence"] = "geometric" \
        if objs[0]["convergence"] != "geometric" else "boundary_positive"
    import json
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(objs))
    with pytest.raises(ValueError):
        load_catalog(path)


def test_load_rejects_duplicate_ids(tmp_path, catalog):
    import json
    objs = [record_to_json(catalog[1]), record_to_json(catalog[1])]
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(objs))
    with pytest.raises(ValueError):
        load_catalog(path)


def test_instantiate_weighted_family():
    record = instantiate("THM7_FIB", TheoremParams("THM7_FIB", p=-2, q=5))
    assert record.lhs.z == Fraction(54, 25)
    assert record.lhs.weight.kind == "fib"
    assert record.lhs.weight.m == 1
    assert record.convergence == "geometric"


def test_instantiate_rejects_bad_params():
    with pytest.raises(InvalidParams):
        instantiate("THM1_LUC", TheoremParams("THM1_LUC", r=1))
    with pytest.raises(InvalidParams):
        instantiate("THM3_V4", TheoremParams("THM3_V4", n=5, m=2))


def test_instantiate_refuses_a_point_of_another_family():
    with pytest.raises(InvalidParams, match="THM1_FIB r=2 is not a point "
                                           "of THM4_FIB"):
        instantiate("THM4_FIB", TheoremParams("THM1_FIB", r=2))


def test_instantiate_horadam():
    params = TheoremParams("HORADAM_A2", r=3,
                           horadam=HoradamParams(2, 1, 0, 1))
    record = instantiate("HORADAM_A2", params)
    assert record.convergence == "geometric"
    assert isinstance(record.rhs, Expr)
    assert record.rhs == theorem_point(params)[1]


def test_builtin_records_are_classified_once(monkeypatch):
    from binom3k import _builtin, registry, series
    calls = []

    def counted(spec):
        calls.append(spec)
        return series.convergence_kind(spec)

    monkeypatch.setattr(_builtin, "convergence_kind", counted)
    monkeypatch.setattr(registry, "convergence_kind", counted)
    monkeypatch.setattr(registry, "_builtin_cache", None)
    records = builtin_catalog()
    assert len(calls) == len(records) == 73
    assert all(r.convergence == series.convergence_kind(r.lhs) for r in records)


def test_builtin_catalog_rejects_duplicate_ids(monkeypatch):
    from binom3k import _builtin, registry
    build = _builtin.build_records
    monkeypatch.setattr(_builtin, "build_records", lambda: build()[:2] * 2)
    monkeypatch.setattr(registry, "_builtin_cache", None)
    with pytest.raises(ValueError, match="duplicate"):
        builtin_catalog()
