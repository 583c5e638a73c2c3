"""Command-line front end.

Exit codes: 0 success, 1 I/O failure, 2 invalid input (spec file schema,
expression syntax, inhomogeneous generators, probe limits, option values,
or ``VRG_MAX_DEGREE``), 3 the extension is not finite, 4 internal
cross-check failure (theorem violation, non-principal contraction, or the
degree cap on a written power or a Groebner basis).
``wellramified`` exits 10 for a sound "no".
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction

from .analyzer import AnalysisReport, analyze
from .errors import (
    ContractionError,
    DegreeCapExceededError,
    FiberProbeError,
    InputError,
    NotFiniteError,
    TheoremViolationError,
)
from .extension import ExtensionSpec, generator_weights, validate
from .factor import factor
from .fiber import _probe, branch_audit
from .ideals import tag_table
from .poly import _MAX_POWER_BITS, canonicalize, coeff_str, format_poly, jacobian
from .reportio import dump_report, load_spec

EXIT_OK = 0
EXIT_IO = 1
EXIT_INVALID = 2
EXIT_NOT_FINITE = 3
EXIT_INTERNAL = 4
EXIT_NOT_WELL_RAMIFIED = 10


def _factored_str(unit: Fraction, factors, vars) -> str:
    parts = []
    if unit != 1:
        parts.append(coeff_str(unit))
    for f, m in factors:
        text = format_poly(f, vars)
        if len(f) > 1:
            text = f"({text})"
        if m > 1:
            text = f"{text}^{m}"
        parts.append(text)
    return " * ".join(parts) if parts else "1"


def _print_report(report: AnalysisReport, spec: ExtensionSpec, labels: dict) -> None:
    vars = spec.vars
    tags = tag_table(spec)
    weights_a = generator_weights(spec)
    name = labels.get("name")
    if name:
        print(f"extension: {name}")
    print(
        "ring: Q[{}] with weights ({})".format(
            ", ".join(vars.names), ", ".join(map(str, vars.weights))
        )
    )
    print("generators:")
    for i, (f, a) in enumerate(zip(spec.generators, weights_a), start=1):
        print(f"  f{i} = {format_poly(f, vars)}   [weight {a}]")
    print(f"degree r = {report.degree}")
    print(f"jacobian J = {format_poly(report.jacobian, vars)}")
    factored = _factored_str(
        report.discarded_unit,
        [(d.prime, d.index - 1) for d in report.ramification],
        vars,
    )
    print(f"  factored: {factored}")
    print(f"  discarded unit: {coeff_str(report.discarded_unit)}")
    if report.ramification:
        print("ramified primes:")
        for d in report.ramification:
            print(
                f"  Q = {format_poly(d.prime, vars)}   e = {d.index}"
                f"   over P~ = {format_poly(d.contraction, tags)}"
            )
    else:
        print("ramified primes: none (the map is unramified)")
    print(f"S  = {format_poly(report.S, vars)}")
    print(f"R  = {format_poly(report.R, vars)}")
    print(f"S~ = {format_poly(report.S_tilde, tags)}")
    print(f"well-ramified: {'yes' if report.well_ramified else 'no'}")
    if report.well_ramified:
        d_poly, d_rep = report.discriminant
        print(f"discriminant D = {format_poly(d_poly, vars)}")
        print(f"  D~  = {format_poly(d_rep, tags)}")
        print(f"  D/J = {format_poly(report.quotient_DJ, vars)}")
    else:
        print(
            "witness prime P~ = "
            f"{format_poly(report.witness.contraction, tags)}"
        )
        for q, ramified in report.witness.pullback_factors:
            status = "ramified" if ramified else "unramified"
            print(f"  pullback factor {format_poly(q, vars)}: {status}")
        print("candidate discriminant R is not in the subalgebra")
    if report.fiber_audit:
        audit = report.fiber_audit
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
    for warning in report.warnings:
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
    print(f"jacobian = {_factored_str(unit * fac.unit, fac.factors, spec.vars)}")
    print(f"expanded = {format_poly(jac, spec.vars)}")
    print(f"discarded unit = {coeff_str(unit)}")
    return EXIT_OK


def _cmd_wellramified(args) -> int:
    spec, _ = load_spec(args.spec)
    report = analyze(spec)
    tags = tag_table(spec)
    if report.well_ramified:
        print("yes")
        print(
            "discriminant representation: "
            f"{format_poly(report.witness.representation, tags)}"
        )
        return EXIT_OK
    print("no")
    print(f"witness prime: {format_poly(report.witness.contraction, tags)}")
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
    except json.JSONDecodeError as exc:
        print(f"error: spec file is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except NotFiniteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_FINITE
    except (TheoremViolationError, ContractionError, DegreeCapExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
