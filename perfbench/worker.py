"""One benchmark worker: set up, then serve requests from stdin until it closes.

Usage: python3 perfbench/worker.py SPEC_NAME[,SPEC_NAME...] [--trace SPANS_PATH]

Set-up is ``import vrg``, the first sympy use and loading the named specs
from ``perfbench/specs``; the worker then prints one ``{"ready": ...}`` line.
Each request is one JSON line, answered by one JSON line with the times of
its stages and the problems its output checks found.  A fresh worker per
pass keeps the library's ``lru_cache`` bases from carrying over between
passes, since a ``vrg analyze`` user never skips that work.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _vrg(module):
    """A vrg module, looked up when called so that installed wrappers apply.

    The package namespace cannot be used: ``vrg.factor`` and ``vrg.groebner``
    name functions there, not modules.
    """
    return sys.modules[f"vrg.{module}"]


def _ready(spec_names, tracer):
    import vrg.cli  # noqa: F401  (loads every vrg module)

    if tracer is not None:
        tracer.install()
    poly = _vrg("poly")
    x = poly.VarTable(("x",), (1,))
    _vrg("factor").factor(poly.parse("x^2-1", x), x)  # first sympy use
    return {
        name: _vrg("reportio").load_spec(os.path.join(HERE, "specs", f"{name}.json"))[0]
        for name in spec_names
    }


def _algebra(req, spec):
    analyzer, reportio = _vrg("analyzer"), _vrg("reportio")
    problems = []
    t0 = time.perf_counter()
    report = analyzer.analyze(spec)
    t1 = time.perf_counter()
    reportio.dump_report(report, spec, req["report_path"])
    loaded = reportio.load_report(req["report_path"], spec)
    verdict = analyzer.verify_report(loaded, spec)
    t2 = time.perf_counter()
    with open(req["report_path"], encoding="utf-8") as fh:
        text = fh.read()
    with open(os.path.join(HERE, "reference", "algebra", f"{req['spec']}.json"), encoding="utf-8") as fh:
        if text != fh.read():
            problems.append("report differs from the reference")
    if not verdict.ok:
        problems.append(f"verify_report failed: {list(verdict.failures)}")
    return {"analyze_s": t1 - t0, "verify_s": t2 - t1}, problems


def _fiber(req, spec):
    analyzer = _vrg("analyzer")
    problems = []
    t0 = time.perf_counter()
    report = analyzer.analyze(spec)
    t1 = time.perf_counter()
    audit = _vrg("fiber").branch_audit(spec, report, samples=req["samples"], seed=req["seed"])
    t2 = time.perf_counter()
    verdict = analyzer.verify_report(report.with_audit(audit), spec)
    t3 = time.perf_counter()
    # Every sample is decided at the defining commit, on every seed tried, so
    # an indeterminate sample (a solve given up early) is wrong output too.
    for entry, decided in [(audit["generic"], "equal_r")] + [(b, "below_r") for b in audit["branch"]]:
        if entry[decided] != req["samples"]:
            problems.append(
                f"{req['samples']} samples requested, {entry[decided]} {decided}, "
                f"{entry['indeterminate']} indeterminate, {len(entry['violations'])} violations"
            )
    if not audit["all_counts_at_most_r"]:
        problems.append("a fiber count exceeds r")
    if not verdict.ok:
        problems.append(f"verify_report failed: {list(verdict.failures)}")
    return {"analyze_s": t1 - t0, "audit_s": t2 - t1, "verify_s": t3 - t2}, problems


OPS = {"algebra": _algebra, "fiber": _fiber}


def main(argv):
    spec_names = argv[0].split(",")
    spans_path = argv[2] if len(argv) > 2 and argv[1] == "--trace" else None
    tracer = None
    if spans_path:
        from tracing import Tracer

        tracer = Tracer()
    specs = _ready(spec_names, tracer)
    print(json.dumps({"ready": True, "vrg": sys.modules["vrg"].__file__}), flush=True)
    for line in sys.stdin:
        req = json.loads(line)
        if tracer is not None:
            tracer.request = req["id"]
        try:
            times, problems = OPS[req["op"]](req, specs[req["spec"]])
            reply = {"id": req["id"], "times": times, "problems": problems}
        except Exception as exc:  # a request that raises is a failed request
            reply = {"id": req["id"], "times": {}, "problems": [f"raised {exc!r}"]}
        print(json.dumps(reply), flush=True)
    if tracer is not None:
        tracer.dump(spans_path)


if __name__ == "__main__":
    main(sys.argv[1:])
