"""Every family is an (x, y) pair of the substitution z = 27xy/(x+y)^2."""

from fractions import Fraction

import pytest
from mpmath import mpf

from binom3k.closed_forms import (_FAMILIES, FAMILIES, TheoremParams,
                                  _as_mpf, batir_rhs, theorem_lhs_spec,
                                  theorem_rhs)
from binom3k.errors import DomainError, InvalidParams
from binom3k.expressions import intlit
from binom3k.precision import make_context
from binom3k.registry import instantiate
from binom3k.sequences import HoradamParams, fib, lucas
from binom3k.series import UNIT_WEIGHT, Weight
from reference import golden_conjugate, golden_ratio, level_nodes


def _rs(values):
    return [{"r": r} for r in values]


def _nm(pairs):
    return [{"n": n, "m": m} for n, m in pairs]


_PQ = [{"p": p, "q": q} for p in (-2, -3) for q in (5, 6)]

# the theorem-sweep grid of the benchmark's sweep workload
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

_POINTS = [TheoremParams(family, **point)
           for family, points in SWEEP_GRID.items() for point in points]
_POINTS += [TheoremParams(family, r=r, horadam=HoradamParams(*h))
            for family in ("HORADAM_A2", "HORADAM_A1")
            for h in ((2, 1, 0, 1), (1, 1, 1, 3)) for r in range(1, 7)]


@pytest.mark.parametrize("params", _POINTS, ids=TheoremParams.describe)
def test_pair_gives_the_series_argument(params, ctx30):
    spec = theorem_lhs_spec(params)
    pairs = _FAMILIES[params.family][3]
    with ctx30.workdps():
        branches = pairs(params)
        z = mpf(spec.z.numerator) / spec.z.denominator
        if spec.weight.kind == "unit":
            expected = [z]
        else:  # the Binet branches sit at z alpha^m and z beta^m
            m = spec.weight.m
            expected = [z * golden_ratio(ctx30) ** m,
                        z * golden_conjugate(ctx30) ** m]
        assert len(branches) == len(expected)
        for (_, x, y), want in zip(branches, expected):
            x, y = _as_mpf(x, ctx30), _as_mpf(y, ctx30)
            got = 27 * x * y / (x + y) ** 2
            assert abs(got - want) <= mpf(10) ** -(ctx30.working_digits - 5)


@pytest.mark.parametrize("params", _POINTS, ids=TheoremParams.describe)
def test_a_point_is_one_level_node_per_branch(params):
    record = instantiate(params.family, params)
    nodes = level_nodes(record.rhs)
    weight = record.lhs.weight
    if weight.kind == "unit":
        assert nodes == [record.rhs]
    elif weight == Weight("fib", 0):  # 2p + q = 0
        assert record.rhs == intlit(0)
    else:
        assert len(nodes) == 2
    assert all(node.args[0] == record.lhs.a for node in nodes)


@pytest.mark.parametrize("family", ["THM3_V2", "THM3_V3"])
@pytest.mark.parametrize("n", range(1, 9))
def test_zero_argument_is_exactly_zero(family, n, ctx30):
    params = TheoremParams(family, n=n, m=n)
    assert theorem_lhs_spec(params).z == 0
    assert theorem_rhs(params, ctx30) == 0


@pytest.mark.parametrize("family", ["THM1_LUC", "COR2_LUC"])
def test_lucas_r0_is_the_boundary_value(family, ctx30):
    params = TheoremParams(family, r=0)
    assert theorem_lhs_spec(params).z == Fraction(27, 4)
    value = theorem_rhs(params, ctx30)
    expected = batir_rhs(Fraction(27, 4), ctx30)
    assert abs(value - expected) <= mpf(10) ** -(ctx30.working_digits - 5)


@pytest.mark.parametrize("params", [
    TheoremParams("THM3_V1", n=3, m=1),  # z = -12
    TheoremParams("THM4_LUC", r=1),      # z = -27
    TheoremParams("THM6_LUC", r=1),
    TheoremParams("HORADAM_A1", r=2, horadam=HoradamParams(1, 2, 0, 1)),
])
def test_divergent_point_raises(params):
    ctx = make_context(30)
    with pytest.raises(DomainError):
        theorem_rhs(params, ctx)


# (family, level, index scale, first r) of the golden-ratio families
_GOLDEN = [
    ("THM1_FIB", 2, 1, 1), ("THM1_LUC", 2, 1, 0), ("COR2_FIB", 2, 3, 1),
    ("COR2_LUC", 2, 3, 0), ("THM4_FIB", 1, 1, 1), ("THM4_LUC", 1, 1, 1),
    ("COR5_FIB", 1, 3, 1), ("COR5_LUC", 1, 3, 1), ("THM6_FIB", 0, 1, 1),
    ("THM6_LUC", 0, 1, 1),
]


@pytest.mark.parametrize("family, level, scale, r", [
    (family, level, scale, r) for family, level, scale, low in _GOLDEN
    for r in [*range(low, 9), 10 ** 4] if (family, r) != ("THM1_LUC", 1)])
def test_golden_argument_is_the_recurrence_formula(family, level, scale, r):
    # the golden-ratio z of the paper, at the index r' = scale r
    i = scale * r
    if family.endswith("FIB"):
        z = Fraction(27 * (-1) ** (i - 1), 5 * fib(i) ** 2)
    else:
        z = Fraction(27 * (-1) ** i, lucas(i) ** 2)
    spec = theorem_lhs_spec(TheoremParams(family, r=r))
    assert (spec.z, spec.a, spec.weight) == (z, level, UNIT_WEIGHT)


# one valid point of each family, by the names it assigns
_VALID = {
    **{family: {"r": 2} for family, *_ in _GOLDEN},
    **{f"THM3_V{v}": {"n": 4, "m": 2} for v in (1, 2, 3, 5, 6)},
    "THM3_V4": {"n": 2, "m": 1},
    **{f"THM{t}_{w}": {"p": -2, "q": 5}
       for t in (7, 9, 10) for w in ("FIB", "LUC")},
    **{f"HORADAM_A{a}": {"r": 2, "horadam": HoradamParams(2, 1, 0, 1)}
       for a in (2, 1)},
}


def _mutants(point):
    """The point with one name left out, and with one name added."""
    for name in point:
        yield {k: v for k, v in point.items() if k != name}
    for name in ("r", "n", "m", "p", "q", "horadam"):
        if name not in point:
            value = HoradamParams(2, 1, 0, 1) if name == "horadam" else 3
            yield {**point, name: value}


@pytest.mark.parametrize("family", FAMILIES)
def test_a_family_takes_exactly_its_names(family):
    point = _VALID[family]
    assert instantiate(family, TheoremParams(family, **point)).id
    for mutant in _mutants(point):
        with pytest.raises(InvalidParams):
            instantiate(family, TheoremParams(family, **mutant))
