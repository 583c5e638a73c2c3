"""Command-line front end: argument parsing and the layout of the text report.

Each error class carries its exit code; the one table of them is in
:mod:`vrg.errors`.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from fractions import Fraction

from .analyzer import AnalysisReport, analyze
from .errors import FiberProbeError, VrgError
from .extension import ExtensionSpec, generator_weights, validate
from .factor import factor
from .fiber import _probe, branch_audit
from .ideals import tag_table
from .poly import _MAX_POWER_BITS, canonicalize, coeff_str, format_poly, jacobian
from .reportio import dump_report, load_spec, report_to_dict

EXIT_OK = 0
EXIT_IO = 1
EXIT_NOT_WELL_RAMIFIED = 10


def _factored_str(unit: str, factors) -> str:
    """``unit * f^m * ...`` from printed factors ``(f, m)``; a factor of more
    than one term, whose text has a space, is put in parentheses."""
    parts = [] if unit == "1" else [unit]
    for text, m in factors:
        if " " in text:
            text = f"({text})"
        if m > 1:
            text = f"{text}^{m}"
        parts.append(text)
    return " * ".join(parts) if parts else "1"


def _print_report(report: AnalysisReport, spec: ExtensionSpec, labels: dict) -> None:
    vars = spec.vars
    data = report_to_dict(report, spec)
    name = labels.get("name")
    if name:
        print(f"extension: {name}")
    print(
        "ring: Q[{}] with weights ({})".format(
            ", ".join(vars.names), ", ".join(map(str, vars.weights))
        )
    )
    print("generators:")
    for i, (f, a) in enumerate(zip(spec.generators, generator_weights(spec)), start=1):
        print(f"  f{i} = {format_poly(f, vars)}   [weight {a}]")
    print(f"degree r = {data['degree']}")
    print(f"jacobian J = {data['jacobian']}")
    primes = data["ramification"]
    factored = _factored_str(data["discarded_unit"], [(d["Q"], d["e"] - 1) for d in primes])
    print(f"  factored: {factored}")
    print(f"  discarded unit: {data['discarded_unit']}")
    if primes:
        print("ramified primes:")
        for d in primes:
            print(f"  Q = {d['Q']}   e = {d['e']}   over P~ = {d['contraction']}")
    else:
        print("ramified primes: none (the map is unramified)")
    print(f"S  = {data['S']}")
    print(f"R  = {data['R']}")
    print(f"S~ = {data['S_tilde']}")
    print(f"well-ramified: {'yes' if data['well_ramified'] else 'no'}")
    if data["well_ramified"]:
        print(f"discriminant D = {data['discriminant']['D']}")
        print(f"  D~  = {data['discriminant']['D_rep']}")
        print(f"  D/J = {data['quotient_DJ']}")
    else:
        print(f"witness prime P~ = {data['witness']['contraction']}")
        for entry in data["witness"]["pullback_factors"]:
            status = "ramified" if entry["ramified"] else "unramified"
            print(f"  pullback factor {entry['factor']}: {status}")
        print("candidate discriminant R is not in the subalgebra")
    if data["fiber_audit"]:
        audit = data["fiber_audit"]
        generic = audit["generic"]
        print(
            f"fiber audit: seed {audit['seed']} |"
            f" generic {generic['equal_r']}/{generic['requested']} at r"
        )
        for entry in audit["branch"]:
            print(
                f"  on Z({entry['contraction']}):"
                f" {entry['below_r']}/{entry['requested']} below r"
            )
        print(f"  all counts <= r: {'yes' if audit['all_counts_at_most_r'] else 'NO'}")
    for warning in data["warnings"]:
        print(f"note: {warning}")


def _count(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {text!r}")
    return int(text)


def _cmd_analyze(args) -> int:
    spec, labels = load_spec(args.spec)
    report = analyze(spec)
    if args.fiber:
        audit = branch_audit(
            spec,
            report,
            samples=args.fiber,
            seed=args.seed,
        )
        report = report.with_audit(audit)
    _print_report(report, spec, labels)
    if args.json:
        dump_report(report, spec, args.json)
    return EXIT_OK


def _cmd_jacobian(args) -> int:
    spec, _ = load_spec(args.spec)
    validate(spec)
    jac, unit = canonicalize(jacobian(spec.generators, spec.vars), spec.vars)
    fac = factor(jac, spec.vars)
    factors = [(format_poly(f, spec.vars), m) for f, m in fac.factors]
    print(f"jacobian = {_factored_str(coeff_str(unit * fac.unit), factors)}")
    print(f"expanded = {format_poly(jac, spec.vars)}")
    print(f"discarded unit = {coeff_str(unit)}")
    return EXIT_OK


def _cmd_wellramified(args) -> int:
    spec, _ = load_spec(args.spec)
    data = report_to_dict(analyze(spec), spec)
    if data["well_ramified"]:
        print("yes")
        print(f"discriminant representation: {data['witness']['representation']}")
        return EXIT_OK
    print("no")
    print(f"witness prime: {data['witness']['contraction']}")
    return EXIT_NOT_WELL_RAMIFIED


_EXPONENT = re.compile(r"[eE]([-+]?\d[\d_]*)")


def _parse_component(part: str):
    """A rational, or a pair ``(p, q)`` of rationals for ``p+qi``, read exactly."""
    try:
        # Fraction expands an exponent at once, to len(part) + |exponent| digits at most
        exps = [abs(int(e)) for e in _EXPONENT.findall(part)]
        if exps and (len(part) + max(exps)) * math.log2(10) > _MAX_POWER_BITS:
            raise FiberProbeError(f"component {part!r} has over {_MAX_POWER_BITS} bits")
        if not part.endswith("i"):
            return Fraction(part)
        # q starts at the last sign that is not an exponent's
        k = max((k for k, c in enumerate(part) if c in "+-" and part[k - 1] not in "eE"), default=0)
        p, q = part[:k], part[k:-1]
        return (Fraction(p or 0), Fraction(q + "1" if q in ("", "+", "-") else q))
    except (ValueError, ZeroDivisionError):
        raise FiberProbeError(f"cannot read component {part!r}") from None


def _parse_point(text: str, n: int):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise FiberProbeError(f"--u needs {n} comma-separated components")
    return tuple(_parse_component(part) for part in parts)


def _cmd_fiber(args) -> int:
    spec, _ = load_spec(args.spec)
    u = _parse_point(args.u, spec.n)
    report = analyze(spec)
    contractions = report.distinct_contractions()
    sample, listing = _probe(spec, u, contractions, 16)
    print(f"degree r = {report.degree}")
    print(f"count = {sample.count}")
    print(f"classification = {sample.classification}")
    for idx in sample.on_branch_of:
        print(f"  on Z({format_poly(contractions[idx], tag_table(spec))})")
    if listing:
        solutions, residual = listing
        print(f"residual = {residual:.3e}")
        # as printed, in decreasing order; + 0.0 turns a -0.0 into 0.0
        rows = [[(round(c.real, 6) + 0.0, round(c.imag, 6) + 0.0) for c in x] for x in solutions]
        for row in sorted(rows, reverse=True):
            print("  (" + ", ".join(f"{re:+.6f}{im:+.6f}i" for re, im in row) + ")")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vrg",
        description=(
            "Analyze a finite graded polynomial extension: Jacobian"
            " factorization, ramification indices, the well-ramified"
            " property, and the discriminant when it exists."
        ),
        epilog=(
            "exit codes: 0 ok, 1 I/O, 2 invalid input, 3 not finite,"
            " 4 internal cross-check failure, 10 not well-ramified"
            " (wellramified only)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report")
    p.add_argument("spec", help="spec JSON file")
    p.add_argument("--json", metavar="PATH", help="also write a JSON report")
    p.add_argument(
        "--fiber", type=_count, metavar="N", help="run a fiber audit with N samples"
    )
    p.add_argument("--seed", type=int, default=0, help="audit RNG seed")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("jacobian", help="Jacobian and its factorization")
    p.add_argument("spec")
    p.set_defaults(func=_cmd_jacobian)

    p = sub.add_parser("wellramified", help="verdict only; exit 0 yes / 10 no")
    p.add_argument("spec")
    p.set_defaults(func=_cmd_wellramified)

    p = sub.add_parser("fiber", help="count the fiber over one base point")
    p.add_argument("spec")
    p.add_argument("--u", required=True, help="comma-separated base point")
    p.set_defaults(func=_cmd_fiber)
    return parser


def _attach_u(argv) -> list[str]:
    """``--u VALUE`` as ``--u=VALUE``, so that argparse does not take a value
    that begins with ``-`` (a negative first component) for an option."""
    argv = list(argv)
    if "--u" in argv[:-1]:
        k = argv.index("--u")
        argv[k : k + 2] = [f"--u={argv[k + 1]}"]
    return argv


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_u(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except VrgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
