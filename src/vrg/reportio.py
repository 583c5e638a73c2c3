"""JSON formats for extension specs and analysis reports.

Spec files carry the variables (name + weight) and generator expression
strings; report files mirror :class:`~vrg.analyzer.AnalysisReport` with
every polynomial serialized as its canonical expression string, so a
report can be re-parsed and re-verified against its spec.
"""

from __future__ import annotations

import json
from pathlib import Path

from .analyzer import AnalysisReport, RamificationDatum, Witness
from .errors import ParseError, SpecFileError
from .extension import ExtensionSpec
from .ideals import tag_table
from .poly import VarTable, coeff_str, format_poly, parse

# ---------------------------------------------------------------------------
# spec files
# ---------------------------------------------------------------------------


def spec_from_dict(data: dict) -> tuple[ExtensionSpec, dict]:
    if not isinstance(data, dict):
        raise SpecFileError("spec file must contain a JSON object")
    variables = data.get("variables")
    if not isinstance(variables, list) or not variables:
        raise SpecFileError('"variables" must be a non-empty array')
    for entry in variables:
        if not isinstance(entry, dict) or "name" not in entry or "weight" not in entry:
            raise SpecFileError('each variable needs "name" and "weight"')
    try:
        vars = VarTable(
            tuple(entry["name"] for entry in variables),
            tuple(entry["weight"] for entry in variables),
        )
    except ValueError as exc:
        raise SpecFileError(str(exc)) from exc

    generators = data.get("generators")
    if not isinstance(generators, list) or len(generators) != vars.n:
        raise SpecFileError(
            '"generators" must list exactly one expression per variable'
        )
    polys = []
    for i, text in enumerate(generators, start=1):
        if not isinstance(text, str):
            raise SpecFileError(f"generator {i} must be an expression string")
        polys.append(parse(text, vars))

    labels = data.get("labels") or {}
    if not isinstance(labels, dict):
        raise SpecFileError('"labels" must be an object when present')
    return ExtensionSpec(vars, tuple(polys)), labels


def _read_json(path: str | Path, kind: str):
    """The JSON value in a file; SpecFileError when it is not UTF-8 JSON, or
    nests too deeply for the decoder."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # ValueError: JSON or UTF-8
            raise SpecFileError(f"{kind} file is not valid JSON: {exc}") from None


def load_spec(path: str | Path) -> tuple[ExtensionSpec, dict]:
    return spec_from_dict(_read_json(path, "spec"))


# ---------------------------------------------------------------------------
# report files
# ---------------------------------------------------------------------------


def _witness_to_dict(witness: Witness, vars: VarTable, tags: VarTable) -> dict:
    if witness.kind == "discriminant_representation":
        return {
            "kind": witness.kind,
            "representation": format_poly(witness.representation, tags),
        }
    return {
        "kind": witness.kind,
        "contraction": format_poly(witness.contraction, tags),
        "pullback_factors": [
            {"factor": format_poly(q, vars), "ramified": flag}
            for q, flag in witness.pullback_factors
        ],
    }


def report_to_dict(report: AnalysisReport, spec: ExtensionSpec) -> dict:
    vars = spec.vars
    tags = tag_table(spec)
    out = {
        "degree": report.degree,
        "jacobian": format_poly(report.jacobian, vars),
        "discarded_unit": coeff_str(report.discarded_unit),
        "ramification": [
            {
                "Q": format_poly(d.prime, vars),
                "e": d.index,
                "contraction": format_poly(d.contraction, tags),
            }
            for d in report.ramification
        ],
        "S": format_poly(report.S, vars),
        "R": format_poly(report.R, vars),
        "S_tilde": format_poly(report.S_tilde, tags),
        "well_ramified": report.well_ramified,
        "witness": _witness_to_dict(report.witness, vars, tags),
        "discriminant": None,
        "quotient_DJ": None,
        "fiber_audit": report.fiber_audit,
        "warnings": list(report.warnings),
    }
    if report.discriminant is not None:
        d_poly, d_rep = report.discriminant
        out["discriminant"] = {
            "D": format_poly(d_poly, vars),
            "D_rep": format_poly(d_rep, tags),
        }
    if report.quotient_DJ is not None:
        out["quotient_DJ"] = format_poly(report.quotient_DJ, vars)
    return out


def _field(data, key: str, kind: type = str, optional: bool = False):
    """``data[key]``, of exactly the JSON type ``kind``; errors name the key."""
    value = data.get(key) if type(data) is dict else None
    if optional and value is None:
        return None
    if type(value) is not kind:
        raise SpecFileError(f'report field "{key}" is missing or not a {kind.__name__}')
    return value


def _poly(data, key: str, ring: VarTable):
    return parse(_field(data, key), ring)


def _witness_from_dict(data: dict, vars: VarTable, tags: VarTable) -> Witness:
    kind = data.get("kind")
    if kind == "discriminant_representation":
        return Witness(kind=kind, representation=_poly(data, "representation", tags))
    if kind == "mixed_prime":
        return Witness(
            kind=kind,
            contraction=_poly(data, "contraction", tags),
            pullback_factors=tuple(
                (_poly(entry, "factor", vars), _field(entry, "ramified", bool))
                for entry in _field(data, "pullback_factors", list, optional=True) or ()
            ),
        )
    raise SpecFileError(f"unknown witness kind {kind!r}")


def report_from_dict(data: dict, spec: ExtensionSpec) -> AnalysisReport:
    """Rebuild a report; a missing or mistyped field raises SpecFileError."""
    vars = spec.vars
    tags = tag_table(spec)
    ramification = tuple(
        RamificationDatum(
            prime=_poly(entry, "Q", vars),
            contraction=_poly(entry, "contraction", tags),
            index=_field(entry, "e", int),
        )
        for entry in _field(data, "ramification", list)
    )
    discriminant = None
    disc = _field(data, "discriminant", dict, optional=True)
    if disc is not None:
        discriminant = (_poly(disc, "D", vars), _poly(disc, "D_rep", tags))
    quotient = _field(data, "quotient_DJ", optional=True)
    try:
        unit = parse(_field(data, "discarded_unit"), vars).constant_value()
    except (ParseError, ValueError):
        raise SpecFileError('report field "discarded_unit" is not a rational') from None
    return AnalysisReport(
        degree=_field(data, "degree", int),
        jacobian=_poly(data, "jacobian", vars),
        discarded_unit=unit,
        ramification=ramification,
        S=_poly(data, "S", vars),
        R=_poly(data, "R", vars),
        S_tilde=_poly(data, "S_tilde", tags),
        well_ramified=_field(data, "well_ramified", bool),
        witness=_witness_from_dict(_field(data, "witness", dict), vars, tags),
        discriminant=discriminant,
        quotient_DJ=None if quotient is None else parse(quotient, vars),
        warnings=tuple(_field(data, "warnings", list, optional=True) or ()),
        fiber_audit=_field(data, "fiber_audit", dict, optional=True),
    )


def dump_report(report: AnalysisReport, spec: ExtensionSpec, path: str | Path) -> None:
    data = report_to_dict(report, spec)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def load_report(path: str | Path, spec: ExtensionSpec) -> AnalysisReport:
    return report_from_dict(_read_json(path, "report"), spec)
