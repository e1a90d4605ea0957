from fractions import Fraction

import pytest
from mpmath import mp, mpf

from binom3k import expressions as ex
from binom3k.closed_forms import eval_expr
from binom3k.precision import make_context


@pytest.fixture(scope="module")
def ctx():
    return make_context(40)


def ev(expr, ctx):
    with ctx.workdps():
        return eval_expr(expr, ctx)


def test_cbrt_negative(ctx):
    assert ev(ex.cbrt(ex.intlit(-8)), ctx) == -2


def test_boundary_positive_value(ctx):
    # 2*pi^2/3 - 2*ln^2 2, checked against direct mpmath evaluation
    expr = (ex.ratlit(Fraction(2, 3)) * ex.PI ** 2
            - ex.intlit(2) * ex.log(ex.intlit(2)) ** 2)
    with ctx.workdps():
        reference = 2 * mp.pi ** 2 / 3 - 2 * mp.log(2) ** 2
        assert abs(ev(expr, ctx) - reference) < mpf(10) ** -38
        assert mp.nstr(reference, 11) == "5.6188302396"


def test_pi2_over_6_value(ctx):
    expr = (ex.PI ** 2 / ex.intlit(6)
            - ex.log(ex.intlit(3)) ** 2 / ex.intlit(2))
    with ctx.workdps():
        reference = mp.pi ** 2 / 6 - mp.log(3) ** 2 / 2
        assert abs(ev(expr, ctx) - reference) < mpf(10) ** -38
        assert mp.nstr(reference, 11) == "1.0414595864"


def test_a_level_node_is_written_like_pow():
    node = ex.level(2, ex.GOLDEN ** 4, -3)
    assert ex.to_json(node) == {"kind": "level", "args": [
        "2", ex.to_json(ex.GOLDEN ** 4), {"kind": "int", "args": ["-3"]}]}
    assert ex.from_json(ex.to_json(node)) == node


def test_golden_ratio_leaf(ctx):
    with ctx.workdps():
        value = ev(ex.GOLDEN, ctx)
        assert abs(value - (1 + mp.sqrt(5)) / 2) < mpf(10) ** -38


def test_arctan_and_sqrt(ctx):
    expr = ex.arctan(ex.sqrt(ex.intlit(3)))
    with ctx.workdps():
        assert abs(ev(expr, ctx) - mp.pi / 3) < mpf(10) ** -38


def test_rational_exactness(ctx):
    expr = ex.ratlit(Fraction(1, 3)) + ex.ratlit(Fraction(2, 3))
    assert ev(expr, ctx) == 1


@pytest.mark.parametrize("builder", [
    lambda: ex.intlit(7),
    lambda: ex.ratlit(Fraction(-5, 12)),
    lambda: ex.cbrt(ex.intlit(3) + ex.sqrt(ex.intlit(2))),
    lambda: (ex.ratlit(Fraction(2, 3)) * ex.PI ** 2
             - ex.intlit(2) * ex.log(ex.intlit(2)) ** 2),
    lambda: (-ex.arctan(ex.sqrt(ex.intlit(3)) / ex.GOLDEN)),
    lambda: (ex.intlit(1) / ex.sqrt(5) * ex.level(1, 8, ex.ratlit(-1, 8))),
])
def test_json_round_trip(builder, ctx):
    expr = builder()
    back = ex.from_json(ex.to_json(expr))
    assert back == expr
    assert ev(back, ctx) == ev(expr, ctx)


def _int(text):
    return {"kind": "int", "args": [text]}


@pytest.mark.parametrize("obj, message", [
    ({"kind": "exp", "args": [_int("1")]}, "unknown expression kind 'exp'"),
    ({"kind": "neg", "args": _int("1")}, "neg takes 1 args (x), got {'kind'"),
    ({"kind": "add", "args": [_int("1")]}, "add takes 2 args (x, y), got 1"),
    ({"kind": "golden_ratio", "args": [_int("1")]},
     "golden_ratio takes 0 args (), got 1"),
    ({"kind": "sqrt", "args": [5]}, "an expression is a JSON object, got 5"),
    (_int(" 5"), "int n must be an integer string like '-12', got ' 5'"),
    (_int("+5"), "int n must be an integer string like '-12'"),
    (_int("1_000"), "int n must be an integer string like '-12'"),
    (_int("٥"), "int n must be an integer string like '-12'"),
    ({"kind": "rat", "args": ["8/-3"]},
     "rat q must be a rational string like '8/3', got '8/-3'"),
    ({"kind": "rat", "args": ["0.5"]}, "rat q must be a rational string"),
    ({"kind": "pow", "args": [_int("2"), "2.0"]},
     "pow n must be an integer string like '-12', got '2.0'"),
    ({"kind": "level", "args": [2, _int("3"), _int("1")]},
     "level a must be '0', '1' or '2', got 2"),
    ({"kind": "rat", "args": ["1/0"]},
     "rat q must be a rational string like '8/3', got '1/0'"),
])
def test_a_tree_off_the_table_is_refused(obj, message):
    with pytest.raises(ValueError) as refused:
        ex.from_json(obj)
    assert message in str(refused.value)


@pytest.mark.parametrize("text", ["1/0", "-7/000", "0/0"])
def test_a_zero_denominator_is_refused_by_name(text):
    with pytest.raises(ValueError, match=f"^z must be a rational string "
                       f"like '8/3', got '{text}'$"):
        ex.rational_from_json(text, "z")
    assert ex.rational_from_json("3/010", "z") == Fraction(3, 10)


def test_a_rational_reads_with_or_without_a_denominator():
    assert ex.from_json({"kind": "rat", "args": ["-8/3"]}) == ex.ratlit(-8, 3)
    assert ex.from_json({"kind": "rat", "args": ["8"]}) == ex.intlit(8)
    assert ex.from_json({"kind": "rat", "args": ["6/4"]}) == ex.ratlit(3, 2)
    assert ex.rational_from_json("8", "z") == 8
    assert ex.rational_to_json(Fraction(8)) == "8/1"


def test_a_node_off_the_table_is_not_written():
    with pytest.raises(ValueError):
        ex.to_json(ex.Expr("sub", (ex.intlit(1),)))
