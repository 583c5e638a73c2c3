"""Command-line front end.

Exit codes: 0 success, 1 I/O failure, 2 invalid input (spec file schema,
expression syntax, inhomogeneous generators, probe limits, option values,
or ``VRG_MAX_DEGREE``), 3 the extension is not finite, 4 internal
cross-check failure (theorem violation, non-principal contraction, or the
intermediate degree cap).
``wellramified`` exits 10 for a sound "no".
"""

from __future__ import annotations

import argparse
import json
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
from .fiber import DEFAULT_CLUSTER_TOL, branch_audit, fiber_count
from .ideals import tag_table
from .poly import canonicalize, format_poly, jacobian
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
        parts.append(str(unit))
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
        [(d.prime, d.jac_multiplicity) for d in report.ramification],
        vars,
    )
    print(f"  factored: {factored}")
    print(f"  discarded unit: {report.discarded_unit}")
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
            "fiber audit: seed {} | generic {}/{} at r{}".format(
                audit["seed"],
                generic["equal_r"],
                generic["requested"],
                ""
                if not generic["indeterminate"]
                else f" ({generic['indeterminate']} indeterminate)",
            )
        )
        for entry in audit["branch"]:
            print(
                "  on Z({}): {}/{} below r{}".format(
                    entry["contraction"],
                    entry["below_r"],
                    entry["requested"],
                    ""
                    if not entry["indeterminate"]
                    else f" ({entry['indeterminate']} indeterminate)",
                )
            )
        print(f"  all counts <= r: {'yes' if audit['all_counts_at_most_r'] else 'NO'}")
    for warning in report.warnings:
        print(f"note: {warning}")


def _count(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {text!r}")
    return int(text)


def _tolerance(text: str) -> float:
    if not 0 < float(text) < float("inf"):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    return float(text)


def _cmd_analyze(args) -> int:
    spec, labels = load_spec(args.spec)
    report = analyze(spec)
    if args.fiber:
        audit = branch_audit(
            spec,
            report,
            samples=args.fiber,
            seed=args.seed,
            tol_cluster=args.tol,
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
    print(f"discarded unit = {unit}")
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


def _parse_point(text: str, n: int):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise FiberProbeError(f"--u needs {n} comma-separated components")
    out = []
    for part in parts:
        try:
            out.append(Fraction(part))
            continue
        except (ValueError, ZeroDivisionError):
            pass
        try:
            out.append(complex(part.replace("i", "j")))
        except ValueError:
            raise FiberProbeError(f"cannot read component {part!r}") from None
    return tuple(out)


def _cmd_fiber(args) -> int:
    spec, _ = load_spec(args.spec)
    report = analyze(spec)
    u = _parse_point(args.u, spec.n)
    sample = fiber_count(
        spec,
        u,
        tol_cluster=args.tol,
        contractions=report.distinct_contractions(),
    )
    print(f"degree r = {report.degree}")
    print(f"count = {sample.count}")
    print(f"classification = {sample.classification}")
    if sample.on_branch_of:
        tags = tag_table(spec)
        contractions = report.distinct_contractions()
        for idx in sample.on_branch_of:
            print(f"  on Z({format_poly(contractions[idx], tags)})")
    print(f"residual = {sample.residual:.3e}")
    if sample.count and sample.count <= 16:
        for point in sample.solutions:
            coords = ", ".join(f"{c.real:+.6f}{c.imag:+.6f}i" for c in point)
            print(f"  ({coords})")
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
    p.add_argument(
        "--tol",
        type=_tolerance,
        default=DEFAULT_CLUSTER_TOL,
        help="solution clustering tolerance",
    )
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
    p.add_argument(
        "--tol",
        type=_tolerance,
        default=DEFAULT_CLUSTER_TOL,
        help="solution clustering tolerance",
    )
    p.set_defaults(func=_cmd_fiber)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
