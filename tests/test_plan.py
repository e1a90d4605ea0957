"""series.plan, the one choice of a sum's method, terms and cost, against
the sums that run it and the scheduler that reads its cost."""

import re
from fractions import Fraction

import pytest

from binom3k import verifier
from binom3k.errors import MaxTermsExceeded, NotGeometric, Unsupported
from binom3k.precision import make_context
from binom3k.series import (DIVERGES, Plan, SeriesSpec, Weight, plan,
                            sum_boundary_detailed, sum_to_digits)
from binom3k.verifier import planned_cost, sum_record
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
    assert chosen.cost_ns > 0


def _rhs_ns(record, digits):
    """The closed form's share of verifier.planned_cost: one level per
    branch, two for a Fibonacci or Lucas weight."""
    branches = 1 if record.lhs.weight.kind == "unit" else 2
    return branches * (verifier._LEVEL_NS
                       + verifier._LEVEL_NS_PER_DIGIT2 * digits * digits)


@pytest.mark.parametrize("digits", [30, 100, 1000])
def test_every_sum_and_every_planned_cost_reads_its_plan(catalog, digits):
    ctx = make_context(digits)
    for record in catalog:
        if record.convergence == "divergent_formal":
            assert planned_cost(record, digits, 10 ** 6) == 0
            continue
        chosen = plan(record.lhs, digits, ctx.max_terms)
        assert sum_record(record, digits, ctx).terms_used == chosen.terms
        if chosen.method == "kernel":
            assert chosen.terms == kernel_cutoff(record.lhs, digits, 10 ** 6)
        assert planned_cost(record, digits, ctx.max_terms) == (
            verifier._REPORT_NS + _rhs_ns(record, digits) + chosen.cost_ns)


@pytest.mark.parametrize("record_id, method", [
    ("eq-20-3", "kernel"), ("alt-20-3", "crvz"), ("eq-27-4", "telescope")])
def test_a_plan_past_the_budget_is_refused_and_costs_no_sum(record_of,
                                                            record_id, method):
    record = record_of(record_id)
    with pytest.raises(MaxTermsExceeded, match=re.escape(
            f"{method} summation to 1000 digits needs more than 64 terms")):
        plan(record.lhs, 1000, 64)
    assert planned_cost(record, 1000, 64) == (verifier._REPORT_NS
                                              + _rhs_ns(record, 1000))


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
        assert plan(spec, 30, 64) == Plan("kernel", 0, 0, 0.0)
        result = sum_to_digits(spec, 30, make_context(30))
        assert (result.value, result.terms_used, result.tail) == (0, 0, 0)
