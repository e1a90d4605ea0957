from fractions import Fraction

import pytest
from mpmath import mp, mpf, sqrt

from binom3k.closed_forms import (A_rhs, B_rhs, C_rhs, TheoremParams, XYPair,
                                  batir_rhs, phi, theorem_lhs_spec,
                                  theorem_rhs, trig_rhs)
from binom3k.errors import DomainError, InvalidParams, SingularInput
from binom3k.expressions import eval_expr
from binom3k.precision import make_context
from binom3k.registry import get_record
from binom3k.sequences import HoradamParams, fib
from binom3k.series import sum_to_digits
from reference import unit_series


def expr_value(record, ctx):
    with ctx.workdps():
        return eval_expr(record.rhs, ctx)


# -- base closed form ------------------------------------------------------

def test_phi_values(ctx30):
    with ctx30.workdps():
        assert abs(phi(Fraction(27, 4), ctx30) - 1) < mpf(10) ** -28
        assert abs(phi(Fraction(6), ctx30) - mp.cbrt(2)) < mpf(10) ** -28
        # negative branch: sign-preserving cube root keeps phi real
        assert phi(Fraction(-27, 4), ctx30) < 0


def test_batir_known_values(ctx30):
    with ctx30.workdps():
        assert (abs(batir_rhs(Fraction(27, 4), ctx30)
                    - (2 * mp.pi ** 2 / 3 - 2 * mp.log(2) ** 2))
                < mpf(10) ** -28)
        assert (abs(batir_rhs(Fraction(8, 3), ctx30)
                    - (mp.pi ** 2 / 6 - mp.log(3) ** 2 / 2))
                < mpf(10) ** -28)


def test_batir_matches_displayed_surd(ctx30, record_of):
    value = batir_rhs(Fraction(6), ctx30)
    assert abs(value - expr_value(record_of("eq-6"), ctx30)) < mpf(10) ** -28


def test_batir_alternating(ctx30, record_of):
    value = batir_rhs(Fraction(-27, 4), ctx30)
    assert abs(value - expr_value(record_of("alt-27-4"), ctx30)) < mpf(10) ** -28


def test_batir_domain(ctx30):
    with pytest.raises(DomainError):
        batir_rhs(Fraction(7), ctx30)


# -- two-parameter forms ---------------------------------------------------

@pytest.mark.parametrize("t", [Fraction(2), Fraction(10), Fraction(1, 3)])
def test_a_homogeneity(t, ctx30):
    base = A_rhs(XYPair(Fraction(9), Fraction(2)), ctx30)
    scaled = A_rhs(XYPair(Fraction(9) * t, Fraction(2) * t), ctx30)
    assert abs(base - scaled) < mpf(10) ** -28


def test_a_specializations(ctx30):
    with ctx30.workdps():
        italy = A_rhs(XYPair(Fraction(8), Fraction(1)), ctx30)
        assert abs(italy - (mp.pi ** 2 / 6 - mp.log(3) ** 2 / 2)) < mpf(10) ** -28
        diag = A_rhs(XYPair(Fraction(5), Fraction(5)), ctx30)
        assert abs(diag - (2 * mp.pi ** 2 / 3 - 2 * mp.log(2) ** 2)) < mpf(10) ** -28


def test_a_alternating_branch(ctx30):
    with ctx30.workdps():
        x = -3 - 2 * sqrt(2)
        value = A_rhs(XYPair(x, mpf(1)), ctx30)
        assert abs(value - batir_rhs(Fraction(-27, 4), ctx30)) < mpf(10) ** -25


def test_b_and_c_specializations(ctx30, record_of):
    cases = [
        (B_rhs, Fraction(8), Fraction(1), "xy-8-1-a1"),
        (B_rhs, Fraction(8), Fraction(-1), "xy-8-neg1-a1"),
        (C_rhs, Fraction(8), Fraction(1), "xy-8-1-a0"),
        (C_rhs, Fraction(8), Fraction(1, 8), "xy-8-1d8-a0"),
    ]
    for fn, x, y, rid in cases:
        value = fn(XYPair(x, y), ctx30)
        assert abs(value - expr_value(record_of(rid), ctx30)) < mpf(10) ** -27


def test_window_enforced(ctx30):
    with pytest.raises(DomainError):
        A_rhs(XYPair(Fraction(1), Fraction(2)), ctx30)  # 0 < x/y < 1
    with pytest.raises(DomainError):
        A_rhs(XYPair(Fraction(-2), Fraction(1)), ctx30)  # -(sqrt2+1)^2 < x/y < 0
    with pytest.raises(SingularInput):
        B_rhs(XYPair(Fraction(3), Fraction(3)), ctx30)
    with pytest.raises(SingularInput):
        C_rhs(XYPair(Fraction(3), Fraction(3)), ctx30)


# -- trigonometric parametrization -----------------------------------------

def test_trig_matches_xy_forms(ctx30):
    with ctx30.workdps():
        for t in (mp.pi / 12, mp.pi / 8, mp.pi / 5):
            x = mp.cot(t) ** 2
            assert (abs(trig_rhs("D", t, ctx30) - A_rhs(XYPair(x, mpf(1)), ctx30))
                    < mpf(10) ** -26)
        for t in (mp.pi / 12, mp.pi / 10):
            # alternating variant: argument -cot^2 t on the negative branch
            x = -mp.cot(t) ** 2
            assert (abs(trig_rhs("E", t, ctx30) - A_rhs(XYPair(x, mpf(1)), ctx30))
                    < mpf(10) ** -26)
        for t in (mp.pi / 12, mp.pi / 5):
            x = mp.cot(t) ** 2
            assert (abs(trig_rhs("F", t, ctx30) - B_rhs(XYPair(x, mpf(1)), ctx30))
                    < mpf(10) ** -26)


def test_trig_boundary_value(ctx30):
    with ctx30.workdps():
        value = trig_rhs("D", mp.pi / 4, ctx30)
        assert abs(value - (2 * mp.pi ** 2 / 3 - 2 * mp.log(2) ** 2)) < mpf(10) ** -26


def test_trig_windows(ctx30):
    with ctx30.workdps():
        with pytest.raises(DomainError):
            trig_rhs("D", mp.pi / 3, ctx30)
        with pytest.raises(DomainError):
            trig_rhs("E", mp.pi / 6, ctx30)
        with pytest.raises(DomainError):
            trig_rhs("F", mp.pi / 4, ctx30)
        with pytest.raises(ValueError):
            trig_rhs("G", mp.pi / 8, ctx30)


# -- parameter families ----------------------------------------------------

def test_family_closed_forms_match_series(ctx30):
    cases = [
        TheoremParams("THM1_FIB", r=2),
        TheoremParams("THM1_LUC", r=3),
        TheoremParams("COR2_FIB", r=2),
        TheoremParams("COR2_LUC", r=2),
        TheoremParams("THM3_V5", n=3, m=3),
        TheoremParams("THM4_FIB", r=2),
        TheoremParams("THM4_LUC", r=3),
        TheoremParams("COR5_FIB", r=2),
        TheoremParams("COR5_LUC", r=3),
        TheoremParams("THM6_FIB", r=2),
        TheoremParams("THM6_LUC", r=3),
        TheoremParams("THM7_FIB", p=-2, q=5),
        TheoremParams("THM9_LUC", p=-2, q=5),
        TheoremParams("THM10_FIB", p=-2, q=5),
        TheoremParams("HORADAM_A2", r=2, horadam=HoradamParams(2, 1, 0, 1)),
        TheoremParams("HORADAM_A1", r=2, horadam=HoradamParams(1, 1, 1, 3)),
    ]
    for params in cases:
        spec = theorem_lhs_spec(params)
        summed = sum_to_digits(spec, 25, ctx30)
        rhs = theorem_rhs(params, ctx30)
        assert abs(summed.value - rhs) < mpf(10) ** -24, params.describe()


def thm7_branches(p, q, ctx):
    """S_alpha and S_beta: the base form A at (F_p alpha^q, -F_(p+q)) and
    at (F_(p+q), -beta^q F_p)."""
    with ctx.workdps():
        alpha, beta = (1 + mp.sqrt(5)) / 2, (1 - mp.sqrt(5)) / 2
        return (A_rhs(XYPair(fib(p) * alpha ** q, -fib(p + q)), ctx),
                A_rhs(XYPair(fib(p + q), -beta ** q * fib(p)), ctx))


def test_thm7_binet_recombination(ctx40):
    ia, ib = thm7_branches(-2, 5, ctx40)
    with ctx40.workdps():
        fib_value = theorem_rhs(TheoremParams("THM7_FIB", p=-2, q=5), ctx40)
        luc_value = theorem_rhs(TheoremParams("THM7_LUC", p=-2, q=5), ctx40)
        assert abs((ia - ib) / mp.sqrt(5) - fib_value) < mpf(10) ** -35
        assert abs(ia + ib - luc_value) < mpf(10) ** -35


def test_thm7_intermediate_is_base_form(ctx30):
    # each branch sums the unit series at z alpha^m or z beta^m, with
    # z = -27 F_p F_(p+q) / F_q^2 = 54/25 and m = 2p + q = 1 at (-2, 5)
    spec = theorem_lhs_spec(TheoremParams("THM7_FIB", p=-2, q=5))
    assert (spec.z, spec.weight.m) == (Fraction(54, 25), 1)
    ia, ib = thm7_branches(-2, 5, ctx30)
    with ctx30.workdps():
        alpha, beta = (1 + mp.sqrt(5)) / 2, (1 - mp.sqrt(5)) / 2
        z = mpf(54) / 25
        assert abs(ia - unit_series(z * alpha, 2)) < mpf(10) ** -26
        assert abs(ib - unit_series(z * beta, 2)) < mpf(10) ** -26


@pytest.mark.parametrize("params", [
    TheoremParams("THM1_LUC", r=1),
    TheoremParams("THM1_FIB", r=0),
    TheoremParams("THM3_V1", n=2, m=2),
    TheoremParams("THM3_V4", n=5, m=2),     # L5*F2 = 11 < F5*L2 = 15
    TheoremParams("THM7_FIB", p=-1, q=5),
    TheoremParams("THM7_FIB", p=-2, q=3),
    TheoremParams("THM10_LUC", p=-3, q=4),  # needs q > |p| + 1
    TheoremParams("HORADAM_A2", r=1),       # missing recurrence parameters
])
def test_invalid_family_parameters(params, ctx30):
    with pytest.raises(InvalidParams):
        theorem_rhs(params, ctx30)


def test_horadam_matches_named_families(ctx30):
    for r in (2, 3, 4):
        fib_like = theorem_rhs(
            TheoremParams("HORADAM_A2", r=r, horadam=HoradamParams(1, 1, 0, 1)),
            ctx30)
        assert (abs(fib_like - theorem_rhs(TheoremParams("THM1_FIB", r=r), ctx30))
                < mpf(10) ** -26)
        luc_like = theorem_rhs(
            TheoremParams("HORADAM_A2", r=r, horadam=HoradamParams(1, 1, 2, 1)),
            ctx30)
        assert (abs(luc_like - theorem_rhs(TheoremParams("THM1_LUC", r=r), ctx30))
                < mpf(10) ** -26)


@pytest.mark.parametrize("build", [
    lambda: TheoremParams("THM1_FIB", r=2.5),
    lambda: TheoremParams("THM1_FIB", r=True),
    lambda: TheoremParams("THM3_V1", n=4, m="2"),
    lambda: TheoremParams("THM7_FIB", p=-2.0, q=5),
    lambda: HoradamParams(1.0, 1, 0, 1),
    lambda: HoradamParams(1, 1, False, 1),
], ids=["r-float", "r-bool", "m-string", "p-float", "horadam-p-float",
        "horadam-a-bool"])
def test_family_parameters_must_be_ints(build):
    with pytest.raises(InvalidParams, match="must be"):
        build()
