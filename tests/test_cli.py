import csv
import io
import json
import sys

import pytest
from mpmath import mp, mpf

from binom3k.cli import _json, _num_str, _suite_json, run
from binom3k.precision import make_context
from binom3k.registry import builtin_catalog, get_record, save_catalog


def out_of(capsys):
    return capsys.readouterr().out


def test_scan(capsys):
    assert run(["scan"]) == 0
    lines = out_of(capsys).strip().splitlines()
    assert len(lines) == 9
    assert lines[0] == "27/4"
    assert "6" in lines


def test_verify_json(capsys):
    assert run(["verify", "--id", "eq-italy", "--digits", "40",
                "--format", "json"]) == 0
    text = out_of(capsys)
    obj = json.loads(text)
    assert obj["suite"]["digits"] == 40
    assert obj["suite"]["pass"] == 1
    report = obj["reports"][0]
    assert report["status"] == "PASS"
    assert report["matched_digits"] >= 38
    assert report["lhs"].startswith("1.0414595864")
    # decimal-string round trip is byte-identical
    assert json.dumps(obj, indent=2) + "\n" == text


def test_verify_divergent_exits_zero(capsys):
    assert run(["verify", "--id", "xy-27-neg8-a2"]) == 0
    assert "SKIPPED_DIVERGENT" in out_of(capsys)


def test_verify_fail_exit_code(tmp_path, capsys):
    # corrupt one record's rhs so the suite must fail
    catalog = builtin_catalog()
    import dataclasses
    from binom3k import expressions as ex
    victim = next(r for r in catalog if r.id == "eq-italy")
    broken = dataclasses.replace(victim, rhs=victim.rhs + ex.ratlit(1, 10 ** 5))
    path = tmp_path / "broken.json"
    save_catalog([broken], path)
    assert run(["verify", "--id", "eq-italy", "--catalog", str(path)]) == 1


def test_usage_errors(capsys):
    assert run(["verify", "--id", "eq-italy", "--digits", "3"]) == 2
    assert run(["verify", "--id", "eq-italy", "--max-terms", "10"]) == 2
    assert run(["no-such-command"]) == 2
    assert run(["verify", "--id", "unknown-record"]) == 2
    capsys.readouterr()


def test_list(capsys):
    assert run(["list"]) == 0
    text = out_of(capsys)
    assert "eq-27-4" in text and "trig-F-pi6" in text


def test_json_output_is_what_an_indenting_json_dumps_writes(capsys):
    assert run(["list", "--format", "json"]) == 0
    text = out_of(capsys)
    assert json.dumps(json.loads(text), indent=2) + "\n" == text
    assert _suite_json([], 30) == json.dumps(
        {"suite": {"digits": 30, "pass": 0, "fail": 0, "skipped": 0},
         "reports": []}, indent=2) + "\n"
    odd = [{"id": "é \"q\" \\ \n\x01 \u2028 😀", "tags": [], "note": None,
            "n": -12, "rows": [[], {}, ["a", 0]]}, {}, []]
    assert _json(odd) == json.dumps(odd, indent=2)


def test_eval(capsys):
    assert run(["eval", "--id", "eq-italy", "--digits", "20"]) == 0
    assert "1.0414595864" in out_of(capsys)


@pytest.mark.parametrize("record_id", ["eq-27-4", "alt-27-4"])
def test_eval_sums_boundary_records(record_id, capsys):
    assert run(["eval", "--id", record_id, "--digits", "40"]) == 0
    printed = out_of(capsys).split()[1]
    ctx = make_context(50)
    with ctx.workdps():
        rhs = get_record(builtin_catalog(), record_id).rhs_value(ctx)
        assert abs(mpf(printed) - rhs) < mpf(10) ** -38 * abs(rhs)


def test_eval_meets_a_term_budget_only_crvz_can(capsys):
    # the kernel would need 184,303 terms; CRVZ needs 1,311
    assert run(["eval", "--id", "alt-20-3", "--digits", "1000",
                "--max-terms", "2000"]) == 0
    printed = out_of(capsys).split()[1]
    ctx = make_context(1010)
    with ctx.workdps():
        rhs = get_record(builtin_catalog(), "alt-20-3").rhs_value(ctx)
        assert abs(mpf(printed) - rhs) < mpf(10) ** -998 * abs(rhs)


@pytest.mark.parametrize("record_id", ["xy-27-neg8-a2", "thm1-luc-r1"])
def test_eval_refuses_divergent_records(record_id, capsys):
    assert run(["eval", "--id", record_id, "--digits", "40"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the series diverges "
                            "(beyond or on the radius 27/4)\n")
    # worded as verify's skip
    assert run(["verify", "--id", record_id, "--format", "json"]) == 0
    detail = json.loads(out_of(capsys))["reports"][0]["detail"]
    assert captured.err == f"error: {detail}\n"


@pytest.mark.parametrize("record_id, digits, method", [
    ("eq-20-3", 100, "kernel"), ("eq-27-4", 100, "telescope"),
    ("alt-20-3", 1000, "crvz")])
def test_eval_names_the_method_and_the_budget_it_exceeds(record_id, digits,
                                                         method, capsys):
    assert run(["eval", "--id", record_id, "--digits", str(digits),
                "--max-terms", "64"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {method} summation to {digits} digits "
                            "needs more than 64 terms (the term budget)\n")


def test_csv_format(capsys):
    assert run(["verify", "--id", "trig-D-pi6", "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(out_of(capsys))))
    assert rows[0] == ["id", "status", "matched_digits", "terms_used",
                       "tail", "elapsed_ms", "detail"]
    assert rows[1][0] == "trig-D-pi6"
    assert rows[1][1] == "PASS"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert run(["verify", "--id", "eq-6", "--format", "json",
                "--out", str(target)]) == 0
    assert json.loads(target.read_text())["suite"]["pass"] == 1
    assert out_of(capsys) == ""


def test_sweep_command(capsys):
    assert run(["sweep", "--family", "THM7_FIB", "--point", "p=-2,q=5",
                "--digits", "20"]) == 0
    assert "PASS" in out_of(capsys)


@pytest.mark.parametrize("family,point", [
    ("COR2_FIB", "r=200"), ("COR2_FIB", "r=300"), ("COR2_FIB", "r=1000"),
    ("THM1_LUC", "r=2000")])
def test_sweep_of_a_point_whose_argument_underflows_a_float(family, point,
                                                            capsys):
    # |z| < 1e-308 rounds to the float 0, whose logarithm raised
    assert run(["sweep", "--family", family, "--point", point,
                "--digits", "25", "--format", "json"]) == 0
    (report,) = json.loads(out_of(capsys))["reports"]
    assert report["status"] == "PASS"
    assert report["terms_used"] == 1


def test_sweep_reports_name_the_invalid_point_and_why(capsys):
    assert run(["sweep", "--family", "THM1_LUC", "--point", "r=1",
                "--point", "r=0", "--point", "r=2", "--digits", "10",
                "--format", "json"]) == 1
    reports = json.loads(out_of(capsys))["reports"]
    assert [r["id"] for r in reports] == [
        "thm1-luc-r1-invalid", "thm1-luc-r0", "thm1-luc-r2"]
    assert reports[0]["status"] == "FAIL"
    assert "excludes r = 1" in reports[0]["detail"]
    assert [r["detail"] for r in reports[1:]] == ["", ""]


def test_csv_carries_the_detail_last(capsys):
    assert run(["sweep", "--family", "THM1_LUC", "--point", "r=1",
                "--digits", "10", "--format", "csv"]) == 1
    rows = list(csv.reader(io.StringIO(out_of(capsys))))
    assert rows[1][0] == "thm1-luc-r1-invalid"
    assert "excludes r = 1" in rows[1][-1]


def test_sweep_bad_point(capsys):
    assert run(["sweep", "--family", "THM1_FIB", "--point", "bogus=1"]) == 2
    capsys.readouterr()


def test_sweep_point_assigning_a_name_twice_is_a_usage_error(capsys):
    assert run(["sweep", "--family", "THM1_FIB", "--point", "r=2,r=3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "assigns r twice" in captured.err


@pytest.mark.parametrize("family, point, names", [
    ("THM1_FIB", "r=2,n=5", "r"),  # a name the family does not take
    ("THM7_FIB", "p=-2", "p, q"),  # a name the family needs
])
def test_sweep_point_must_assign_the_family_names(family, point, names, capsys):
    assert run(["sweep", "--family", family, "--point", point,
                "--digits", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{family} takes exactly {names}" in captured.err


def test_sweep_names_the_point_with_the_wrong_names(capsys):
    assert run(["sweep", "--family", "THM1_FIB", "--point", "r=2",
                "--point", "r=2,n=5", "--digits", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "grid point 'r=2,n=5': THM1_FIB takes exactly r" in captured.err


@pytest.mark.parametrize("family, point", [
    ("THM4_LUC", "r=3"), ("THM3_V2", "m=2,n=3"), ("THM10_LUC", "q=5,p=-2")])
def test_sweep_point_of_the_family_names_passes(family, point, capsys):
    assert run(["sweep", "--family", family, "--point", point,
                "--digits", "10"]) == 0
    assert "| PASS |" in out_of(capsys)


@pytest.mark.parametrize("digits", ["25", "60"])
@pytest.mark.parametrize("family", ["THM7_FIB", "THM9_FIB", "THM10_FIB"])
def test_sweep_of_a_vanishing_family_prints_an_exact_zero(family, digits,
                                                          capsys):
    # at 2p + q = 0 every term carries the weight F(0) = 0
    assert run(["sweep", "--family", family, "--point", "p=-3,q=6",
                "--digits", digits, "--format", "json"]) == 0
    report = json.loads(out_of(capsys))["reports"][0]
    assert (report["status"], report["lhs"], report["rhs"]) == (
        "PASS", "0.0", "0.0")


@pytest.mark.parametrize("family", ["HORADAM_A2", "HORADAM_A1"])
def test_sweep_of_a_horadam_family_needs_its_recurrence(family, capsys):
    assert run(["sweep", "--family", family, "--point", "r=2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{family} needs --horadam" in captured.err


def test_sweep_of_a_family_without_a_recurrence_refuses_horadam(capsys):
    assert run(["sweep", "--family", "THM1_FIB", "--point", "r=2",
                "--horadam", "2,1,0,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "THM1_FIB takes exactly r" in captured.err


@pytest.mark.parametrize("level", ["A_to_B", "B_to_C"])
def test_check_derivatives_names_the_given_pair(level, capsys):
    assert run(["check-derivatives", "--level", level, "--x", "-1",
                "--y", "1", "--digits", "20"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "x/y = -1.0 outside validity window" in captured.err


@pytest.mark.parametrize("level", ["A_to_B", "B_to_C"])
def test_check_derivatives_refuses_a_stencil_across_x_eq_y(level, capsys):
    assert run(["check-derivatives", "--level", level, "--x", "1.00000000001",
                "--y", "1", "--digits", "30", "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "the stencil x +- h, h = 1e-30/3, crosses |x| = |y|" in captured.err


@pytest.mark.parametrize("x, y, message", [
    ("5", "0", "y must be nonzero"),
    ("1", "2", "x/y = 0.5 outside validity window "
               "(needs x/y > 1 or x/y <= -(sqrt2+1)^2)"),
])
@pytest.mark.parametrize("level", ["A_to_B", "B_to_C"])
def test_check_derivatives_refuses_the_pair_as_given(level, x, y, message,
                                                     capsys):
    assert run(["check-derivatives", "--level", level, "--x", x,
                "--y", y]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("depth", [600, 20000])
def test_a_catalog_nested_too_deep_is_a_usage_error(depth, tmp_path, capsys):
    one = '{"kind": "int", "args": ["1"]}'
    rhs = '{"kind": "add", "args": [' * depth + one + (", " + one + "]}") * depth
    path = tmp_path / "deep.json"
    path.write_text(
        '[{"id": "deep", "note": "", "lhs": {"z": "1/2", "a": 2, "weight": '
        '{"kind": "unit"}}, "rhs": {"expr": ' + rhs + '}, "validity": "", '
        '"convergence": "geometric", "tags": []}]\n', encoding="utf-8")
    assert run(["verify-all", "--catalog", str(path), "--digits", "30"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_check_derivatives_command(capsys):
    assert run(["check-derivatives", "--level", "A_to_B", "--x", "9",
                "--y", "1", "--digits", "30", "--format", "json"]) == 0
    obj = json.loads(out_of(capsys))
    assert obj["reports"][0]["status"] == "PASS"


def test_check_derivatives_takes_a_negative_exponent_after_an_equals_sign(
        capsys):
    # argparse reads "-1e50" after a space as an option, so the README
    # spells a negative coordinate in exponent form as --x=-1e50
    assert run(["check-derivatives", "--level", "A_to_B", "--x=-1e50",
                "--y", "1", "--digits", "30", "--format", "json"]) == 0
    assert json.loads(out_of(capsys))["reports"][0]["status"] == "PASS"


def test_check_derivatives_far_from_x_eq_y_reads_the_quotient(capsys):
    # the quotient is 9.0e-100 here; both sides lie below 10^-99, so the
    # matched digits alone would pass a quotient wrong from its first digit
    assert run(["check-derivatives", "--level", "A_to_B", "--x", "1e100",
                "--y", "1", "--digits", "100", "--format", "json"]) == 0
    report = json.loads(out_of(capsys))["reports"][0]
    assert report["status"] == "PASS"
    assert report["matched_digits"] == 100
    assert report["lhs"].startswith("9.00000000000000000000"), report["lhs"]


def test_verify_all_custom_catalog(tmp_path, capsys):
    catalog = [r for r in builtin_catalog() if r.id.startswith("trig")]
    path = tmp_path / "trig.json"
    save_catalog(catalog, path)
    assert run(["verify-all", "--catalog", str(path), "--digits", "15",
                "--jobs", "1", "--format", "json"]) == 0
    obj = json.loads(out_of(capsys))
    assert obj["suite"]["pass"] == len(catalog)
    assert obj["suite"]["fail"] == 0


@pytest.mark.parametrize("argv", [
    ["eval", "--id", "eq-italy", "--format", "json"],
    ["list", "--digits", "500", "--max-terms", "64"],
    ["list", "--format", "csv"],
    ["check-derivatives", "--level", "A_to_B", "--x", "9", "--y", "1",
     "--catalog", "/nonexistent.json"],
    ["sweep", "--family", "THM1_FIB", "--point", "r=2",
     "--catalog", "/nonexistent.json"],
    ["scan", "--digits", "40"],
    ["sweep", "--family", "THM1_FIB", "--point", "r=2",
     "--horadam", "1,1,0,1"],
    ["check-derivatives", "--level", "A_to_B", "--x", "9", "--y", "1",
     "--max-terms", "64"],
])
def test_options_a_subcommand_ignores_are_usage_errors(argv, capsys):
    assert run(argv) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--family", "HORADAM_A2", "--point", "r=2"],
     "HORADAM_A2 needs --horadam"),
    (["sweep", "--family", "THM1_FIB", "--point", "r=x"],
     "bad grid assignment 'r=x' (expected r/n/m/p/q = integer)"),
    (["sweep", "--family", "HORADAM_A2", "--point", "r=2",
      "--horadam", "1,a,0,1"], "--horadam expects four integers P,Q,A,B"),
    (["verify", "--id", "nope"], "no record with id 'nope'"),
])
def test_a_usage_error_is_one_error_line(argv, message, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_verify_boundary_record_at_full_digits(capsys):
    assert run(["verify", "--id", "alt-27-4", "--digits", "60",
                "--format", "json"]) == 0
    report = json.loads(out_of(capsys))["reports"][0]
    assert report["status"] == "PASS"
    assert report["matched_digits"] >= 58


def _italy(section=None, **changes):
    """A catalog of the eq-italy record's JSON object with ``changes``
    made to the object, or to its ``section``."""
    from binom3k.registry import record_to_json
    obj = record_to_json(get_record(builtin_catalog(), "eq-italy"))
    (obj[section] if section else obj).update(changes)
    return [obj]


@pytest.mark.parametrize("data", [
    _italy("lhs", z="1/0"),
    {"records": []},
    [5],
    _italy("rhs", expr={"kind": "sqrt", "args": []}),
    _italy("rhs", expr={"kind": "sqrt"}),
    _italy("lhs", a=2.0),
    _italy("lhs", weight={"kind": "fib", "m": 2.0}),
    _italy("lhs", weight={"kind": "fib", "m": "x"}),
    _italy(tags=5),
], ids=["z-1/0", "top-level-object", "record-not-object", "node-without-arg",
        "node-without-args", "a-float", "m-float", "m-string", "tags-int"])
def test_a_malformed_catalog_is_a_usage_error(data, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert run(["list", "--catalog", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    if isinstance(data, list):
        assert "record 0 is malformed" in err


def test_a_catalog_path_that_is_a_directory_is_a_usage_error(tmp_path, capsys):
    assert run(["list", "--catalog", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_all_rejects_fewer_than_one_job(jobs, capsys):
    assert run(["verify-all", "--jobs", jobs]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "jobs must be >= 1" in captured.err


def _record(record_id, **changes):
    """The JSON object of built-in record ``record_id`` with ``changes``."""
    from binom3k.registry import record_to_json
    obj = record_to_json(get_record(builtin_catalog(), record_id))
    obj.update(changes)
    return obj


def _level_args(edit):
    """thm1-fib-r1, whose rhs is one level node, with its args edited."""
    obj = _record("thm1-fib-r1")
    node = obj["rhs"]["expr"]
    assert node["kind"] == "level"
    node["args"] = edit(node["args"])
    return obj


def _italy_args(path, edit):
    """eq-italy, whose rhs is sub(div(pow(pi, 2), 6), div(pow(log(3), 2), 2)),
    with the args of the node that the arg indices ``path`` lead to
    edited."""
    obj = _record("eq-italy")
    node = obj["rhs"]["expr"]
    for index in path:
        node = node["args"][index]
    node["args"] = edit(node["args"])
    return obj


def _int(text):
    return {"kind": "int", "args": [text]}


_LIMIT = sys.get_int_max_str_digits()


@pytest.mark.parametrize("records, index, message", [
    ([_level_args(lambda args: ["3", *args[1:]])], 0,
     "level a must be '0', '1' or '2', got '3'"),
    ([_level_args(lambda args: ["2.0", *args[1:]])], 0,
     "level a must be '0', '1' or '2', got '2.0'"),
    ([_level_args(lambda args: args[:2])], 0,
     "level takes 3 args (a, x, y), got 2"),
    ([_record("thm1-fib-r1", rhs={"family": {"family": "THM1_FIB", "r": 1}})],
     0, "rhs must hold an expression tree under 'expr', got keys ['family']"),
    ([_record("eq-italy"), _record("thm1-fib-r1", id=5)], 1,
     "id must be a string, got 5"),
    ([_record("eq-italy", tags="abc")], 0,
     "tags must be a list of strings, got 'abc'"),
    ([_record("eq-italy", tags=["a", 1])], 0, "tags must be a list of strings"),
    ([_record("eq-italy", note=None)], 0, "note must be a string, got None"),
    ([_record("eq-italy", validity=7)], 0, "validity must be a string, got 7"),
    ([_italy_args((), lambda args: args + [_int("5")])], 0,
     "sub takes 2 args (x, y), got 3"),
    ([_record("eq-italy", rhs={"expr": {"kind": "add", "args": [
        _record("eq-italy")["rhs"]["expr"], _int("0"), _int("7")]}})], 0,
     "add takes 2 args (x, y), got 3"),
    ([_italy_args((), lambda args: args[:1])], 0,
     "sub takes 2 args (x, y), got 1"),
    ([_italy_args((0, 0, 0), lambda args: [_int("1")])], 0,
     "pi takes 0 args (), got 1"),
    ([_italy_args((0, 1), lambda args: [5.7])], 0,
     "int n must be an integer string like '-12', got 5.7"),
    ([_italy_args((0, 1), lambda args: [True])], 0,
     "int n must be an integer string like '-12', got True"),
    ([_italy_args((0, 1), lambda args: [5])], 0,
     "int n must be an integer string like '-12', got 5"),
    ([_italy_args((0, 0), lambda args: [args[0], 2.9])], 0,
     "pow n must be an integer string like '-12', got 2.9"),
    ([_italy_args((0, 1), lambda args: "7")], 0,
     "int takes 1 args (n), got '7'"),
    (_italy("lhs", z="1/0"), 0,
     "series argument must be a rational string like '8/3', got '1/0'"),
    ([_record("eq-italy", rhs={"expr": {"kind": "rat", "args": ["-3/00"]}})],
     0, "rat q must be a rational string like '8/3', got '-3/00'"),
    # a number past Python's int-string limit is named, not converted
    ([_italy_args((0, 1), lambda args: ["7" * 200_001])], 0,
     f"int n has 200001 digits, more than the {_LIMIT} a catalog number "
     f"may have"),
    ([_record("eq-italy", rhs={"expr": {"kind": "rat", "args": [
        "-1/" + "3" * 200_001]}})], 0,
     f"rat q has 200001 digits, more than the {_LIMIT} a catalog number "
     f"may have"),
    (_italy("lhs", z="8" + "0" * 200_000 + "/3"), 0,
     f"series argument has 200001 digits, more than the {_LIMIT} a catalog "
     f"number may have"),
], ids=["level-a-3", "level-a-float", "level-two-args", "family-rhs",
        "id-int", "tags-string", "tags-int-item", "note-null",
        "validity-int", "sub-three-args", "add-three-args", "sub-one-arg",
        "pi-one-arg", "int-float", "int-bool", "int-number", "pow-float",
        "args-string", "z-1/0", "rat-zero-denominator", "int-too-long",
        "rat-too-long", "z-too-long"])
@pytest.mark.parametrize("command", [["list"], ["verify-all", "--digits", "10",
                                                "--jobs", "1"]])
def test_a_record_field_of_the_wrong_type_is_a_usage_error(
        records, index, message, command, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(records))
    assert run(command + ["--catalog", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert f"record {index} is malformed" in captured.err
    assert message in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("ambient", [15, 60, 1100])
def test_numbers_print_the_same_whatever_precision_is_held(ambient):
    with mp.workdps(ambient):
        values = [mpf(0), mpf("1e-40"), mpf("-1e-40"), mpf("1e40"),
                  mpf(1) / 3, -mp.pi]
        for value in values:
            for digits in (5, 25, 1000):
                assert _num_str(value, digits) == mp.nstr(
                    value, digits + 5, strip_zeros=True)
