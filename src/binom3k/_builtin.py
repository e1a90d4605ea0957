"""The built-in catalog, built in code.

:func:`build_records` is the one source of the 73 built-in records;
:func:`~.registry.builtin_catalog` calls it on first use.  Expression
records carry the exact expression tree of every surd form; family
records carry the tree of :func:`~.closed_forms.theorem_point`, a sum of
``level`` nodes.
"""

from __future__ import annotations

from fractions import Fraction

from .closed_forms import TheoremParams, theorem_point
from .expressions import GOLDEN, PI, arctan, cbrt, log, ratlit, sqrt
from .registry import IdentityRecord
from .series import SeriesSpec, convergence_kind

S3 = sqrt(3)
F = Fraction


def _record(rid, note, lhs, rhs, validity, tags):
    """A record of the convergence class convergence_kind finds, tagged
    divergent-formal beyond the radius."""
    kind = convergence_kind(lhs)
    if kind.startswith("divergent"):
        tags = tuple(tags) + ("divergent-formal",)
    return IdentityRecord(rid, note, lhs, rhs, validity, kind, tuple(tags))


def _batir_form(at_arg, lg_arg):
    """6 arctan^2(at_arg) - log^2(lg_arg) / 2."""
    return 6 * arctan(at_arg) ** 2 - log(lg_arg) ** 2 / 2


def _positive_records():
    """a=2 evaluations at the perfect-square arguments z = (81-t^2)/12."""
    rows = [
        ("eq-27-4", F(27, 4), 2 * PI ** 2 / 3 - 2 * log(2) ** 2),
        ("eq-20-3", F(20, 3),
         _batir_form(S3 / (cbrt(10) - 1), 18 / (cbrt(10) + 2) ** 3)),
        ("eq-77-12", F(77, 12),
         _batir_form(7 * S3 / (2 * cbrt(539) - 7), 882 / (cbrt(539) + 7) ** 3)),
        ("eq-6", F(6),
         _batir_form(S3 / (2 * cbrt(2) - 1), 3 / (cbrt(2) + 1) ** 3)),
        ("eq-65-12", F(65, 12),
         _batir_form(5 * S3 / (2 * cbrt(325) - 5), 450 / (cbrt(325) + 5) ** 3)),
        ("eq-14-3", F(14, 3),
         _batir_form(S3 / (cbrt(28) - 1), 36 / (cbrt(28) + 2) ** 3)),
        ("eq-15-4", F(15, 4),
         _batir_form(S3 / (2 * cbrt(5) - 1), 6 / (cbrt(5) + 1) ** 3)),
        ("eq-italy", F(8, 3), PI ** 2 / 6 - log(3) ** 2 / 2),
        ("eq-17-12", F(17, 12),
         _batir_form(S3 / (2 * cbrt(17) - 1), 18 / (cbrt(17) + 1) ** 3)),
    ]
    out = []
    for t, (rid, z, rhs) in enumerate(rows):
        note = f"perfect-square argument t={t}"
        validity = "z = 27/4 is the convergence boundary" if t == 0 else "|z| < 27/4"
        out.append(_record(rid, note, SeriesSpec(z, 2), rhs, validity,
                           ("section1-positive",)))
    return out


def _alternating_records():
    """a=2 evaluations at the negated perfect-square arguments."""
    rows = [
        ("alt-27-4", F(-27, 4),
         _batir_form(S3 / (2 * cbrt(3 + 2 * sqrt(2)) + 1),
                     (2 + 2 * sqrt(2)) / (cbrt(3 + 2 * sqrt(2)) - 1) ** 3)),
        ("alt-20-3", F(-20, 3),
         _batir_form(S3 * cbrt(40) / (2 * cbrt(121 + 9 * sqrt(161)) + cbrt(40)),
                     (81 + 9 * sqrt(161)) / (cbrt(121 + 9 * sqrt(161)) - cbrt(40)) ** 3)),
        # surd corrected: arctan denominator uses 2 cbrt(239 + 18 sqrt(158))
        ("alt-77-12", F(-77, 12),
         _batir_form(S3 * cbrt(77) / (2 * cbrt(239 + 18 * sqrt(158)) + cbrt(77)),
                     (162 + 18 * sqrt(158)) / (cbrt(239 + 18 * sqrt(158)) - cbrt(77)) ** 3)),
        ("alt-6", F(-6),
         _batir_form(S3 / (cbrt(26 + 6 * sqrt(17)) + 1),
                     (9 + 3 * sqrt(17)) / (cbrt(13 + 3 * sqrt(17)) - cbrt(4)) ** 3)),
        ("alt-65-12", F(-65, 12),
         _batir_form(S3 * cbrt(65) / (2 * cbrt(227 + 18 * sqrt(146)) + cbrt(65)),
                     (162 + 18 * sqrt(146)) / (cbrt(227 + 18 * sqrt(146)) - cbrt(65)) ** 3)),
        ("alt-14-3", F(-14, 3),
         _batir_form(S3 * cbrt(7) / (cbrt(218 + 18 * sqrt(137)) + cbrt(7)),
                     (81 + 9 * sqrt(137)) / (cbrt(109 + 9 * sqrt(137)) - cbrt(28)) ** 3)),
        ("alt-15-4", F(-15, 4),
         _batir_form(S3 * cbrt(5) / (2 * cbrt(23 + 6 * sqrt(14)) + cbrt(5)),
                     (18 + 6 * sqrt(14)) / (cbrt(23 + 6 * sqrt(14)) - cbrt(5)) ** 3)),
        ("alt-8-3", F(-8, 3),
         _batir_form(S3 * cbrt(2) / (cbrt(97 + 9 * sqrt(113)) + cbrt(2)),
                     (81 + 9 * sqrt(113)) / (cbrt(97 + 9 * sqrt(113)) - cbrt(16)) ** 3)),
        ("alt-17-12", F(-17, 12),
         _batir_form(S3 * cbrt(17) / (2 * cbrt(179 + 126 * sqrt(2)) + cbrt(17)),
                     (162 + 126 * sqrt(2)) / (cbrt(179 + 126 * sqrt(2)) - cbrt(17)) ** 3)),
    ]
    out = []
    for t, (rid, z, rhs) in enumerate(rows):
        note = f"negated perfect-square argument t={t}"
        validity = ("z = -27/4 is the convergence boundary" if t == 0
                    else "|z| < 27/4")
        out.append(_record(rid, note, SeriesSpec(z, 2), rhs, validity,
                           ("section1-alternating",)))
    return out


def _xy_records():
    """The 23 evaluations from concrete (x, y) substitutions."""
    recs = []

    def add(rid, z, a, rhs, note):
        validity = "|z| < 27/4" if abs(z) < F(27, 4) else "divergent as written"
        recs.append(_record(rid, note, SeriesSpec(z, a), rhs, validity,
                            ("xy-block",)))

    # (x, y) = (8, 1): z = 8/3 (the a=2 level is eq-italy)
    add("xy-8-1-a1", F(8, 3), 1,
        2 * S3 * PI / 7 - ratlit(2, 7) * log(3), "pair (8, 1), a=1")
    add("xy-8-1-a0", F(8, 3), 0,
        ratlit(32, 49) + ratlit(74, 343) * S3 * PI - ratlit(18, 343) * log(3),
        "pair (8, 1), a=0")

    # (8, -1): z = -216/49
    at = arctan(ratlit(1, 5) * S3)
    add("xy-8-neg1-a2", F(-216, 49), 2,
        6 * at ** 2 - log(7) ** 2 / 2, "pair (8, -1), a=2")
    add("xy-8-neg1-a1", F(-216, 49), 1,
        ratlit(4, 9) * S3 * at - ratlit(2, 3) * log(7), "pair (8, -1), a=1")
    add("xy-8-neg1-a0", F(-216, 49), 0,
        ratlit(-32, 81) - ratlit(28, 729) * S3 * at - ratlit(14, 81) * log(7),
        "pair (8, -1), a=0")

    # (8, 1/8): z = 1728/4225
    at = arctan(ratlit(1, 7) * S3)
    lg = log(ratlit(25, 13))
    add("xy-8-1d8-a2", F(1728, 4225), 2,
        6 * at ** 2 - lg ** 2 / 2, "pair (8, 1/8), a=2")
    add("xy-8-1d8-a1", F(1728, 4225), 1,
        ratlit(40, 63) * S3 * at - ratlit(4, 21) * lg, "pair (8, 1/8), a=1")
    add("xy-8-1d8-a0", F(1728, 4225), 0,
        ratlit(256, 3969) + ratlit(68120, 250047) * S3 * at
        - ratlit(1300, 27783) * lg, "pair (8, 1/8), a=0")

    # (8, -1/8): z = -64/147
    at = arctan(ratlit(1, 9) * S3)
    lg = log(ratlit(7, 3))
    add("xy-8-neg1d8-a2", F(-64, 147), 2,
        6 * at ** 2 - lg ** 2 / 2, "pair (8, -1/8), a=2")
    add("xy-8-neg1d8-a1", F(-64, 147), 1,
        ratlit(24, 65) * S3 * at - ratlit(4, 13) * lg, "pair (8, -1/8), a=1")
    add("xy-8-neg1d8-a0", F(-64, 147), 0,
        ratlit(-256, 4225) + ratlit(20328, 274625) * S3 * at
        - ratlit(252, 2197) * lg, "pair (8, -1/8), a=0")

    # (1, 1/27): z = 729/784
    at = arctan(ratlit(1, 5) * S3)
    lg = log(ratlit(16, 7))
    add("xy-1-1d27-a2", F(729, 784), 2,
        6 * at ** 2 - lg ** 2 / 2, "pair (1, 1/27), a=2")
    add("xy-1-1d27-a1", F(729, 784), 1,
        ratlit(12, 13) * S3 * at - ratlit(3, 13) * lg, "pair (1, 1/27), a=1")
    add("xy-1-1d27-a0", F(729, 784), 0,
        ratlit(27, 169) + ratlit(994, 2197) * S3 * at - ratlit(112, 2197) * lg,
        "pair (1, 1/27), a=0")

    # (1, -1/27): z = -729/676
    at = arctan(ratlit(1, 7) * S3)
    lg = log(ratlit(13, 4))
    add("xy-1-neg1d27-a2", F(-729, 676), 2,
        6 * at ** 2 - lg ** 2 / 2, "pair (1, -1/27), a=2")
    add("xy-1-neg1d27-a1", F(-729, 676), 1,
        ratlit(3, 7) * S3 * at - ratlit(3, 7) * lg, "pair (1, -1/27), a=1")
    add("xy-1-neg1d27-a0", F(-729, 676), 0,
        ratlit(-27, 196) + ratlit(143, 2744) * S3 * at - ratlit(52, 343) * lg,
        "pair (1, -1/27), a=0")

    # (27, 8): z = 5832/1225
    at = arctan(ratlit(1, 2) * S3)
    lg = log(ratlit(25, 7))
    add("xy-27-8-a2", F(5832, 1225), 2,
        6 * at ** 2 - lg ** 2 / 2, "pair (27, 8), a=2")
    add("xy-27-8-a1", F(5832, 1225), 1,
        ratlit(60, 19) * S3 * at - ratlit(6, 19) * lg, "pair (27, 8), a=1")
    add("xy-27-8-a0", F(5832, 1225), 0,
        ratlit(864, 361) + ratlit(35420, 6859) * S3 * at
        - ratlit(350, 6859) * lg, "pair (27, 8), a=0")

    # (27, -8): z = -5832/361, beyond the radius (formal identities)
    at = arctan(ratlit(1, 4) * S3)
    lg = log(19)
    add("xy-27-neg8-a2", F(-5832, 361), 2,
        6 * at ** 2 - lg ** 2 / 2, "pair (27, -8), a=2")
    add("xy-27-neg8-a1", F(-5832, 361), 1,
        ratlit(12, 35) * S3 * at - ratlit(6, 7) * lg, "pair (27, -8), a=1")
    add("xy-27-neg8-a0", F(-5832, 361), 0,
        ratlit(-864, 1225) - ratlit(4484, 42875) * S3 * at
        - ratlit(38, 343) * lg, "pair (27, -8), a=0")
    return recs


def _trig_records():
    """Evaluations of the trig variants at t = pi/12, pi/8, pi/6."""
    c12 = cbrt(7 + 4 * sqrt(3))   # cbrt(cot^2(pi/12))
    c8 = cbrt(3 + 2 * sqrt(2))
    c6 = cbrt(3)
    rows = [
        # surd corrected: csc^2(pi/12) = 8 + 4 sqrt(3) in the log numerator
        ("trig-D-pi12", F(27, 16), 2,
         _batir_form(S3 / (2 * c12 - 1), (8 + 4 * sqrt(3)) / (c12 + 1) ** 3),
         "variant D at pi/12"),
        ("trig-D-pi8", F(27, 8), 2,
         _batir_form(S3 / (2 * c8 - 1), (4 + 2 * sqrt(2)) / (c8 + 1) ** 3),
         "variant D at pi/8"),
        ("trig-D-pi6", F(81, 16), 2,
         _batir_form(S3 / (2 * c6 - 1), 4 / (c6 + 1) ** 3),
         "variant D at pi/6"),
        ("trig-E-pi12", F(-9, 4), 2,
         _batir_form(S3 / (2 * c12 + 1), (6 + 4 * sqrt(3)) / (c12 - 1) ** 3),
         "variant E at pi/12"),
        ("trig-F-pi12", F(27, 16), 1,
         (cbrt(2 + sqrt(3)) + cbrt(2 - sqrt(3))) * arctan(S3 / (2 * c12 - 1))
         + S3 / 6 * (cbrt(2 + sqrt(3)) - cbrt(2 - sqrt(3)))
         * log((8 + 4 * sqrt(3)) / (c12 + 1) ** 3),
         "variant F at pi/12"),
        ("trig-F-pi8", F(27, 8), 1,
         S3 * (cbrt(1 + sqrt(2)) - cbrt(1 - sqrt(2))) * arctan(S3 / (2 * c8 - 1))
         + ratlit(1, 2) * (cbrt(1 + sqrt(2)) + cbrt(1 - sqrt(2)))
         * log((4 + 2 * sqrt(2)) / (c8 + 1) ** 3),
         "variant F at pi/8"),
        ("trig-F-pi6", F(81, 16), 1,
         sqrt(3) * cbrt(3) * (c6 + 1) * arctan(S3 / (2 * c6 - 1))
         + c6 * (c6 - 1) / 2 * log(4 / (c6 + 1) ** 3),
         "variant F at pi/6"),
    ]
    return [_record(rid, note, SeriesSpec(z, a), rhs, "|z| < 27/4", ("trig",))
            for rid, z, a, rhs, note in rows]


def _family_record(rid, note, params, tags):
    return _record(rid, note, *theorem_point(params),
                   "family constraints hold", tags)


def _example_records():
    TP = TheoremParams
    recs = []

    # golden-ratio a=2 family examples; the r=1 reciprocal-Lucas case is
    # printed formally although z = -27 exceeds the radius, so it is kept
    # as an explicit expression record flagged divergent
    recs.append(_family_record("thm1-fib-r1", "a=2 golden family, F, r=1",
                               TP("THM1_FIB", r=1), ("thm1-example",)))
    a2 = cbrt(GOLDEN ** 2)
    recs.append(_record(
        "thm1-luc-r1", "a=2 golden family, L, r=1 (formal)",
        SeriesSpec(F(-27), 2),
        _batir_form(S3 / (2 * a2 + 1), GOLDEN / (a2 - 1) ** 3),
        "divergent as written", ("thm1-example",)))
    recs.append(_family_record("thm1-fib-r2", "a=2 golden family, F, r=2",
                               TP("THM1_FIB", r=2), ("thm1-example",)))
    recs.append(_family_record("thm1-luc-r2", "a=2 golden family, L, r=2",
                               TP("THM1_LUC", r=2), ("thm1-example",)))
    recs.append(_family_record("thm1-fib-r3", "a=2 golden family, F, r=3",
                               TP("THM1_FIB", r=3), ("thm1-example",)))
    recs.append(_family_record("thm1-luc-r3", "a=2 golden family, L, r=3",
                               TP("THM1_LUC", r=3), ("thm1-example",)))

    # product-identity examples at n = m = 3 (the two displayed n-families)
    recs.append(_family_record("thm3-luc-n3", "product family V5 at n=m=3",
                               TP("THM3_V5", n=3, m=3), ("thm3-example",)))
    recs.append(_family_record("thm3-fib-n3", "product family V6 at n=m=3",
                               TP("THM3_V6", n=3, m=3), ("thm3-example",)))

    # a=1 golden family examples
    for rid, fam, r in [("thm4-fib-r1", "THM4_FIB", 1),
                        ("thm4-fib-r2", "THM4_FIB", 2),
                        ("thm4-fib-r3", "THM4_FIB", 3),
                        ("thm4-luc-r2", "THM4_LUC", 2),
                        ("thm4-luc-r3", "THM4_LUC", 3)]:
        recs.append(_family_record(rid, f"a=1 golden family r={r}",
                                   TP(fam, r=r), ("thm4-example",)))

    # a=0 golden family examples
    for rid, fam, r in [("thm6-fib-r1", "THM6_FIB", 1),
                        ("thm6-fib-r2", "THM6_FIB", 2),
                        ("thm6-fib-r3", "THM6_FIB", 3),
                        ("thm6-luc-r2", "THM6_LUC", 2),
                        ("thm6-luc-r3", "THM6_LUC", 3),
                        ("thm6-luc-r6", "THM6_LUC", 6)]:
        recs.append(_family_record(rid, f"a=0 golden family r={r}",
                                   TP(fam, r=r), ("thm6-example",)))

    # weighted-series examples at (p, q) = (-2, 5): weight F_k / L_k, z = 54/25
    for rid, fam in [("thm7-fib-pn2-q5", "THM7_FIB"),
                     ("thm7-luc-pn2-q5", "THM7_LUC"),
                     ("thm9-fib-pn2-q5", "THM9_FIB"),
                     ("thm9-luc-pn2-q5", "THM9_LUC"),
                     ("thm10-fib-pn2-q5", "THM10_FIB"),
                     ("thm10-luc-pn2-q5", "THM10_LUC")]:
        recs.append(_family_record(rid, "weighted family at (p,q)=(-2,5)",
                                   TP(fam, p=-2, q=5), ("weighted-example",)))
    return recs


def build_records():
    return (_positive_records() + _alternating_records() + _xy_records()
            + _trig_records() + _example_records())
