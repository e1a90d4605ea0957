"""series.plan, the one choice of a sum's method and terms, against the
sums that run it and the scheduler that prices it (verifier._cost)."""

import re
from fractions import Fraction

import pytest

from binom3k import verifier
from binom3k.errors import MaxTermsExceeded, NotGeometric, Unsupported
from binom3k.precision import make_context
from binom3k.series import (DIVERGES, Plan, SeriesSpec, Weight, plan,
                            sum_boundary_detailed, sum_to_digits)
from binom3k.verifier import _cost, _planned, sum_record
from reference import kernel_cutoff

CRVZ_TERMS = {30: (44, 0), 100: (135, 0), 1000: (1311, 0)}
PINNED = {
    "eq-20-3": ("kernel", {30: (4945, 0), 100: (17765, 0),
                           1000: (184303, 0)}),
    "alt-20-3": ("crvz", CRVZ_TERMS),
    "alt-27-4": ("crvz", CRVZ_TERMS),
    "eq-27-4": ("telescope", {30: (28, 28), 100: (312, 52),
                              1000: (31250, 310)}),
}


@pytest.mark.parametrize("record_id", sorted(PINNED))
@pytest.mark.parametrize("digits", [30, 100, 1000])
def test_one_record_per_method_is_pinned(record_of, record_id, digits):
    method, terms = PINNED[record_id]
    chosen = plan(record_of(record_id).lhs, digits, 10 ** 6)
    assert (chosen.method, (chosen.terms, chosen.J)) == (method, terms[digits])


def _rhs_ns(record, digits):
    """The closed form's share of verifier._cost: one level per branch,
    two for a Fibonacci or Lucas weight."""
    branches = 1 if record.lhs.weight.kind == "unit" else 2
    return branches * (verifier._LEVEL_NS
                       + verifier._LEVEL_NS_PER_DIGIT2 * digits * digits)


@pytest.mark.parametrize("digits", [30, 100, 1000])
def test_every_sum_and_every_planned_cost_reads_its_plan(catalog, digits):
    ctx = make_context(digits)
    for record in catalog:
        if record.convergence == "divergent_formal":
            assert _planned(record, digits, 10 ** 6) is None
            assert _cost(record, digits, None) == 0
            continue
        chosen = plan(record.lhs, digits, ctx.max_terms)
        assert _planned(record, digits, ctx.max_terms) == chosen
        assert sum_record(record, digits, ctx).terms_used == chosen.terms
        if chosen.method == "kernel":
            assert chosen.terms == kernel_cutoff(record.lhs, digits, 10 ** 6)
        no_sum = verifier._REPORT_NS + _rhs_ns(record, digits)
        assert _cost(record, digits, None) == no_sum
        assert _cost(record, digits, chosen) > no_sum


@pytest.mark.parametrize("record_id, method", [
    ("eq-20-3", "kernel"), ("alt-20-3", "crvz"), ("eq-27-4", "telescope")])
def test_a_plan_past_the_budget_is_refused_and_costs_no_sum(record_of,
                                                            record_id, method):
    record = record_of(record_id)
    with pytest.raises(MaxTermsExceeded, match=re.escape(
            f"{method} summation to 1000 digits needs more than 64 terms")):
        plan(record.lhs, 1000, 64)
    assert _planned(record, 1000, 64) is None
    assert _cost(record, 1000, None) == (verifier._REPORT_NS
                                         + _rhs_ns(record, 1000))


# verifier._cost as float.hex, one record per case; lpt_partition splits
# the records of verify_all by these prices
PRICES = [
    ("eq-20-3", 1000, 10 ** 6, "0x1.54d1629858ed3p+29"),  # unit-weight kernel
    ("thm7-luc-pn2-q5", 100, 10 ** 6, "0x1.3563f6bafdbb4p+19"),  # weighted
    ("alt-20-3", 100, 10 ** 6, "0x1.da3ccc2e4ea37p+18"),  # CRVZ
    ("eq-27-4", 100, 10 ** 6, "0x1.17fec871b1b50p+20"),  # the telescope
    ("xy-27-neg8-a2", 100, 10 ** 6, "0x0.0p+0"),  # divergent
    ("eq-20-3", 1000, 64, "0x1.1c6c800000000p+21"),  # refused
]


@pytest.mark.parametrize("record_id, digits, budget, price", PRICES)
def test_the_price_of_a_verification_is_pinned(record_of, record_id, digits,
                                               budget, price):
    record = record_of(record_id)
    chosen = _planned(record, digits, budget)
    assert float.hex(_cost(record, digits, chosen)) == price


def test_a_divergent_series_is_refused_in_verifys_words():
    spec = SeriesSpec(Fraction(-27, 4), 0)
    ctx = make_context(20)
    with pytest.raises(Unsupported, match=re.escape(DIVERGES)):
        plan(spec, 10, 10 ** 6)
    with pytest.raises(NotGeometric, match=re.escape(DIVERGES)):
        sum_to_digits(spec, 10, ctx)
    with pytest.raises(Unsupported, match=re.escape(DIVERGES)):
        sum_boundary_detailed(spec, 10, ctx)


def test_a_series_of_zeros_is_planned_as_no_terms():
    for spec in (SeriesSpec(Fraction(0), 2), SeriesSpec(Fraction(5), 1,
                                                        Weight("fib", 0))):
        assert plan(spec, 30, 64) == Plan("kernel", 0, 0)
        result = sum_to_digits(spec, 30, make_context(30))
        assert (result.value, result.terms_used, result.tail) == (0, 0, 0)
