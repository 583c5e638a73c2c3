"""Ramification analysis of a finite graded polynomial extension.

The pipeline computes the Jacobian determinant of the generators, factors
it, contracts each irreducible factor to the subalgebra, and reads off
the ramification index of the factor as the valuation of the contraction
generator's pullback.  Two cross-checking facts are enforced rather than
assumed:

* each factor's multiplicity in the Jacobian must be exactly its
  ramification index minus one, and
* the membership test for the candidate discriminant (product of ramified
  factors raised to their indices) must agree with the per-prime factor
  pattern (no contraction may pull back with an unramified factor).

A failure of either is reported as :class:`TheoremViolationError`; with
exact arithmetic it can only come from a bug or from a factor that is
irreducible over the rationals but not over the complex numbers in a
configuration the analysis cannot see.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import TheoremViolationError
from .extension import ExtensionSpec, generator_weights, validate
from .factor import factor, lcm, valuation
from .ideals import contract_prime, subalgebra_membership, tag_table
from .poly import (
    Poly,
    canonical,
    canonicalize,
    format_poly,
    jacobian,
    weighted_degree,
)

IRREDUCIBILITY_WARNING = (
    "irreducible factors are certified over the rationals only; indices are"
    " reported at that level and may merge conjugate complex branches"
)


@dataclass(frozen=True)
class RamificationDatum:
    """One ramified prime: its exponent in the Jacobian, contraction, index."""

    prime: Poly
    jac_multiplicity: int
    contraction: Poly
    index: int


@dataclass(frozen=True)
class Witness:
    """Evidence for the well-ramified verdict.

    ``kind`` is "discriminant_representation" with ``representation`` set
    (the tag-variable polynomial mapping onto the discriminant), or
    "mixed_prime" with ``contraction`` and ``pullback_factors`` set (a
    contraction whose pullback mixes ramified and unramified factors).
    """

    kind: str
    representation: Poly | None = None
    contraction: Poly | None = None
    pullback_factors: tuple[tuple[Poly, bool], ...] = ()


@dataclass(frozen=True)
class WellRamifiedResult:
    verdict: bool
    by_membership: bool
    by_factor_pattern: bool
    witness: Witness


@dataclass(frozen=True)
class AnalysisReport:
    degree: int
    jacobian: Poly
    discarded_unit: Fraction
    ramification: tuple[RamificationDatum, ...]
    S: Poly
    R: Poly
    S_tilde: Poly
    well_ramified: bool
    by_membership: bool
    by_factor_pattern: bool
    witness: Witness
    discriminant: tuple[Poly, Poly] | None
    quotient_DJ: Poly | None
    warnings: tuple[str, ...]
    fiber_audit: Mapping | None = None

    def with_audit(self, audit: Mapping) -> "AnalysisReport":
        return dataclasses.replace(self, fiber_audit=audit)

    def distinct_contractions(self) -> tuple[Poly, ...]:
        return tuple(dict.fromkeys(d.contraction for d in self.ramification))


def analyze(spec: ExtensionSpec) -> AnalysisReport:
    """Run the full pipeline; raises on invalid or inconsistent input."""
    r = validate(spec)
    vars = spec.vars
    jac_raw = jacobian(spec.generators, vars)
    if jac_raw.is_zero():
        raise TheoremViolationError(
            "zero Jacobian for a finite extension; generators must be dependent"
        )
    jac, unit = canonicalize(jac_raw, vars)
    jac_factors = factor(jac, vars)

    data = []
    for q, mult in jac_factors.factors:
        contraction = contract_prime(q, spec)
        pullback = contraction.compose(spec.generators)
        index = valuation(q, pullback)
        if mult != index - 1:
            raise TheoremViolationError(
                "theorem violation: factor"
                f" {format_poly(q, vars)} has multiplicity {mult} in the"
                f" Jacobian but ramification index {index}; expected"
                " multiplicity = index - 1 (suspect factor may not be"
                " absolutely irreducible)"
            )
        data.append(
            RamificationDatum(
                prime=q, jac_multiplicity=mult, contraction=contraction, index=index
            )
        )

    s_poly = Poly.const(vars.n, 1)
    r_poly = Poly.const(vars.n, 1)
    for datum in data:
        s_poly = s_poly * datum.prime
        r_poly = r_poly * datum.prime ** datum.index
    s_poly = canonical(s_poly, vars)
    r_poly = canonical(r_poly, vars)

    tags = tag_table(spec)
    contractions = list(dict.fromkeys(d.contraction for d in data))
    s_tilde = Poly.const(len(tags.names), 1)
    for p in contractions:
        s_tilde = lcm(s_tilde, p, tags)
    s_tilde = canonical(s_tilde, tags)

    decision = _decide_well_ramified(spec, data, r_poly, contractions)

    discriminant = None
    quotient = None
    if decision.verdict:
        assert decision.witness.representation is not None
        discriminant = (r_poly, decision.witness.representation)
        quotient = canonical(r_poly.exact_div(jac), vars)

    return AnalysisReport(
        degree=r,
        jacobian=jac,
        discarded_unit=unit,
        ramification=tuple(data),
        S=s_poly,
        R=r_poly,
        S_tilde=s_tilde,
        well_ramified=decision.verdict,
        by_membership=decision.by_membership,
        by_factor_pattern=decision.by_factor_pattern,
        witness=decision.witness,
        discriminant=discriminant,
        quotient_DJ=quotient,
        warnings=(IRREDUCIBILITY_WARNING,),
    )


def _decide_well_ramified(
    spec: ExtensionSpec,
    data: list[RamificationDatum],
    r_poly: Poly,
    contractions: list[Poly],
) -> WellRamifiedResult:
    representation = subalgebra_membership(r_poly, spec)
    by_membership = representation is not None

    ramified = {datum.prime for datum in data}
    by_factor_pattern = True
    mixed: tuple[Poly, tuple[tuple[Poly, bool], ...]] | None = None
    for contraction in contractions:
        pullback = contraction.compose(spec.generators)
        flags = tuple(
            (q, q in ramified) for q, _ in factor(pullback, spec.vars).factors
        )
        if not all(ok for _, ok in flags):
            by_factor_pattern = False
            if mixed is None:
                mixed = (contraction, flags)

    if by_membership != by_factor_pattern:
        raise TheoremViolationError(
            "characterization mismatch: membership of the candidate"
            f" discriminant says {by_membership} but the pullback factor"
            f" pattern says {by_factor_pattern}"
        )

    if by_membership:
        witness = Witness(
            kind="discriminant_representation", representation=representation
        )
    else:
        assert mixed is not None
        witness = Witness(
            kind="mixed_prime", contraction=mixed[0], pullback_factors=mixed[1]
        )
    return WellRamifiedResult(
        verdict=by_membership,
        by_membership=by_membership,
        by_factor_pattern=by_factor_pattern,
        witness=witness,
    )


def is_well_ramified(spec: ExtensionSpec) -> WellRamifiedResult:
    """Decide the well-ramified property with both characterizations."""
    report = analyze(spec)
    return WellRamifiedResult(
        verdict=report.well_ramified,
        by_membership=report.by_membership,
        by_factor_pattern=report.by_factor_pattern,
        witness=report.witness,
    )


# ---------------------------------------------------------------------------
# independent re-checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    failures: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def verify_report(report: AnalysisReport, spec: ExtensionSpec) -> VerificationResult:
    """Re-check a report against its spec from scratch.

    Re-multiplies the factorizations, re-substitutes every representation,
    re-runs both well-ramified characterizations, and re-checks the degree
    identities.  Returns the list of failed checks (empty when the report
    is sound).
    """
    failures: list[str] = []
    vars = spec.vars

    def check(name: str, ok: bool) -> None:
        if not ok:
            failures.append(name)

    try:
        r = validate(spec)
        check("degree", r == report.degree)
    except Exception:
        failures.append("degree")
        return VerificationResult(False, tuple(failures))

    jac, unit = canonicalize(jacobian(spec.generators, vars), vars)
    check("jacobian", jac == report.jacobian and unit == report.discarded_unit)

    weights_a = generator_weights(spec)
    expected_wdeg = sum(weights_a) - sum(vars.weights)
    if report.jacobian.is_zero():
        check("jacobian degree", False)
    else:
        wd = weighted_degree(report.jacobian, vars)
        check("jacobian degree", wd.degree == expected_wdeg and wd.homogeneous)

    jac_factors = factor(jac, vars)
    check(
        "ramified primes",
        {q for q, _ in jac_factors.factors} == {d.prime for d in report.ramification},
    )
    # the checks below raise on indices below 1 and on constant primes or
    # contractions, which no analysis produces
    if not all(
        d.index >= 1 and not d.prime.is_constant() and not d.contraction.is_constant()
        for d in report.ramification
    ):
        failures.append("ramification data")
        return VerificationResult(False, tuple(failures))

    rebuilt = Poly.const(vars.n, 1)
    for datum in report.ramification:
        rebuilt = rebuilt * datum.prime ** (datum.index - 1)
    check("jacobian exponents", canonical(rebuilt, vars) == jac)

    tags = tag_table(spec)
    for datum in report.ramification:
        pullback = datum.contraction.compose(spec.generators)
        if pullback.is_zero() or not datum.prime.divides(pullback):
            check("jacobian exponents", False)
            continue
        check("jacobian exponents", valuation(datum.prime, pullback) == datum.index)
        check("jacobian exponents", datum.jac_multiplicity == datum.index - 1)
        factors = factor(datum.contraction, tags).factors
        check("contraction irreducible", [m for _, m in factors] == [1])

    s_poly = Poly.const(vars.n, 1)
    r_poly = Poly.const(vars.n, 1)
    for datum in report.ramification:
        s_poly = s_poly * datum.prime
        r_poly = r_poly * datum.prime ** datum.index
    check("ramified product", canonical(s_poly, vars) == report.S)
    check("discriminant candidate", canonical(r_poly, vars) == report.R)

    s_tilde = Poly.const(len(tags.names), 1)
    for contraction in report.distinct_contractions():
        s_tilde = lcm(s_tilde, contraction, tags)
    check("S_tilde lcm", canonical(s_tilde, tags) == report.S_tilde)

    s_tilde_pullback = report.S_tilde.compose(spec.generators)
    check(
        "S_tilde pullback",
        not s_tilde_pullback.is_zero()
        and report.jacobian.divides(s_tilde_pullback)
        and report.S.divides(s_tilde_pullback),
    )
    nf = subalgebra_membership(canonical(s_tilde_pullback, vars), spec)
    check(
        "S_tilde membership",
        nf is not None and canonical(nf, tags) == report.S_tilde,
    )

    representation = subalgebra_membership(report.R, spec)
    by_membership = representation is not None
    ramified = {d.prime for d in report.ramification}
    by_factor_pattern = all(
        q in ramified
        for contraction in report.distinct_contractions()
        for q, _ in factor(contraction.compose(spec.generators), vars).factors
    )
    check("characterizations agree", by_membership == by_factor_pattern)
    check("well-ramified verdict", report.well_ramified == by_membership)

    if report.well_ramified:
        ok = (
            report.discriminant is not None
            and report.witness.kind == "discriminant_representation"
            and report.witness.representation is not None
        )
        check("discriminant present", ok)
        if ok:
            d_poly, d_rep = report.discriminant
            check("discriminant is R", d_poly == report.R)
            check(
                "discriminant representation",
                d_rep.compose(spec.generators) == report.R,
            )
            check(
                "quotient D/J",
                report.quotient_DJ is not None
                and not report.jacobian.is_zero()
                and report.jacobian.divides(report.R)
                and canonical(report.R.exact_div(report.jacobian), vars)
                == report.quotient_DJ
                and report.quotient_DJ == report.S,
            )
    else:
        check(
            "witness prime",
            report.discriminant is None
            and report.quotient_DJ is None
            and report.witness.kind == "mixed_prime"
            and report.witness.contraction in report.distinct_contractions()
            and any(not ok for _, ok in report.witness.pullback_factors),
        )

    if report.fiber_audit is not None:
        audit = report.fiber_audit
        structural = (
            audit.get("all_counts_at_most_r", False)
            and not audit.get("generic", {}).get("violations", [True])
            and all(not b.get("violations", [True]) for b in audit.get("branch", []))
        )
        check("fiber audit", bool(structural))

    return VerificationResult(not failures, tuple(failures))
