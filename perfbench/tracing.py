"""Spans around the calls into each vrg layer, recorded from outside the library.

``from .x import y`` binds ``y`` once per importing module, so a wrapper is
installed at every place a function is looked up: the module that defines it
and every ``vrg`` module holding the same object.  Methods are replaced on
their class and ``mpmath.polyroots`` on the ``mpmath`` module, which is where
``vrg.fiber`` looks it up.  Spans stay in memory until the process writes
them out at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time


def _counter(key, measure):
    def count(counts, result):
        counts[key] = counts.get(key, 0) + measure(result)

    return count


_basis_terms = _counter("groebner.groebner.basis_terms", lambda gb: sum(len(g) for g in gb))
_membership_hit = _counter("ideals.subalgebra_membership.hits", lambda rep: rep is not None)
_factors_out = _counter("factor.factor.factors_out", lambda fac: len(fac.factors))
_decided = _counter("fiber.fiber_count.decided", lambda s: s.classification != "indeterminate")


# (span name, module that owns the name, attribute or "Class.method", counter)
TARGETS = (
    ("groebner.groebner", "vrg.groebner", "groebner", _basis_terms),
    ("groebner.normal_form", "vrg.groebner", "normal_form", None),
    ("ideals.contract_prime", "vrg.ideals", "contract_prime", None),
    ("ideals.subalgebra_membership", "vrg.ideals", "subalgebra_membership", _membership_hit),
    ("ideals.check_finite", "vrg.ideals", "check_finite", None),
    ("factor.factor", "vrg.factor", "factor", _factors_out),
    ("factor.valuation", "vrg.factor", "valuation", None),
    ("factor.lcm", "vrg.factor", "lcm", None),
    ("factor.gcd", "vrg.factor", "gcd", None),
    ("poly.jacobian", "vrg.poly", "jacobian", None),
    ("poly.compose", "vrg.poly", "Poly.compose", None),
    ("poly.exact_div", "vrg.poly", "Poly.exact_div", None),
    ("extension.validate", "vrg.extension", "validate", None),
    ("fiber.branch_audit", "vrg.fiber", "branch_audit", None),
    ("fiber.fiber_count", "vrg.fiber", "fiber_count", _decided),
    ("fiber.polyroots", "mpmath", "polyroots", None),
    ("analyzer.analyze", "vrg.analyzer", "analyze", None),
    ("analyzer.verify_report", "vrg.analyzer", "verify_report", None),
    ("reportio.load_spec", "vrg.reportio", "load_spec", None),
    ("reportio.dump_report", "vrg.reportio", "dump_report", None),
    ("reportio.load_report", "vrg.reportio", "load_report", None),
    ("cli.main", "vrg.cli", "main", None),
)


class Tracer:
    """Spans ``[name, start, end, parent index, request id]`` and counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.request = "setup"
        self._stack: list[int] = []

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent, self.request]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                counter(self.counts, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every target at each place it is looked up."""
        importlib.import_module("vrg.cli")  # loads every vrg module
        modules = [m for k, m in sys.modules.items() if k == "vrg" or k.startswith("vrg.")]
        for name, owner, attr, counter in TARGETS:
            host = sys.modules[owner]
            if "." in attr:
                cls_name, attr = attr.split(".")
                host = getattr(host, cls_name)
            original = getattr(host, attr)
            wrapper = self.wrap(name, original, counter)
            setattr(host, attr, wrapper)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def dump(self, path, extra=None) -> None:
        data = {
            "request": self.request,
            "spans": self.spans,
            "counts": dict(self.counts, **(extra or {})),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


def self_times(spans, scale=lambda request: 1.0) -> tuple[dict[str, float], dict[str, int]]:
    """Per span name: summed self time (duration minus child spans, times
    ``scale`` of the span's request id) and calls."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    totals: dict[str, float] = {}
    calls: dict[str, int] = {}
    for (name, _, _, _, request), t in zip(spans, own):
        totals[name] = totals.get(name, 0.0) + t * scale(request)
        calls[name] = calls.get(name, 0) + 1
    return totals, calls
