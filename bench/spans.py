"""Span recording for the traced run.

Spans are recorded from outside the package: each name a caller module
looks up is rebound to a timing wrapper for the duration of a traced pass,
and restored afterwards.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Optional


@dataclass
class Span:
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int  # index of the enclosing span, -1 for none
    op: Optional[int]  # operation id shared by the spans of one operation
    terms: int = 0  # terms_used of a summation span


class Tracer:
    """Records spans of single-threaded, nested calls."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: Optional[int] = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, 0, 0, parent, self.op)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter_ns()
            self._stack.pop()
        terms = getattr(result, "terms_used", None)
        if isinstance(terms, int):
            span.terms = terms
        return result

    def wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self, packages) -> None:
        """Rebind the package's internal call sites to timing wrappers."""
        cli, registry, series, verifier = packages
        for owner, attribute, name in (
                (cli, "builtin_catalog", "registry.builtin_catalog"),
                (cli, "verify", "verifier.verify"),
                (cli, "run_sweep", "verifier.sweep"),
                (verifier, "verify", "verifier.verify"),
                (verifier, "instantiate", "registry.instantiate"),
                (verifier, "sum_to_digits", "series.sum"),
                (verifier, "sum_boundary_detailed", "series.boundary"),
                (series, "classify", "series.classify"),
                (registry, "classify", "series.classify")):
            self.patch(owner, attribute,
                       self.wrap(name, getattr(owner, attribute)))
        record_class = registry.IdentityRecord
        rhs_value = record_class.rhs_value
        theorem_params = registry.TheoremParams
        tracer = self

        def traced_rhs_value(record, ctx):
            name = ("closed_forms.rhs" if isinstance(record.rhs, theorem_params)
                    else "expressions.rhs")
            return tracer.call(name, rhs_value, record, ctx)

        self.patch(record_class, "rhs_value", traced_rhs_value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it its children cover (ns)."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    result = []
    for index, span in enumerate(spans):
        covered = 0
        cursor = span.start
        for child in sorted(children[index], key=lambda s: s.start):
            start, end = max(child.start, cursor), min(child.end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append(span.end - span.start - covered)
    return result


def layer_totals(spans: list[Span], self_ns: list[int]) -> dict:
    """Per span name: total inclusive ns, total self ns, calls and terms.

    ``self_ns`` holds the self times of ``spans``, computed by self_times
    over the whole list the spans' parent indices refer to."""
    totals = defaultdict(lambda: {"ns": 0, "self_ns": 0, "calls": 0, "terms": 0})
    for span, own in zip(spans, self_ns):
        entry = totals[span.name]
        entry["ns"] += span.end - span.start
        entry["self_ns"] += own
        entry["calls"] += 1
        entry["terms"] += span.terms
    return totals
