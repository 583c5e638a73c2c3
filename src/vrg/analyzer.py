"""Ramification analysis of a finite graded polynomial extension.

The pipeline computes the Jacobian determinant of the generators, factors
it, and contracts each irreducible factor to the subalgebra.  Two
cross-checking facts are enforced rather than assumed:

* each factor's multiplicity in the Jacobian must be exactly its
  ramification index minus one, and
* membership of the candidate discriminant R (product of ramified factors
  raised to their indices) in A must agree with the per-prime factor
  pattern (no contraction may pull back with an unramified factor).  Where
  the pattern says well-ramified, ``R ∈ A`` is shown by exhibiting
  ``D~ = c*S~``: each pullback ``P~(f)`` is then ``∏ Q^e_Q`` up to a unit,
  so ``S~(f)``, the product of the pullbacks up to a unit, is R up to a
  unit, which is checked.  Where it finds a mixed prime, the graded solve
  of :func:`~vrg.ideals.subalgebra_membership` proves ``R ∉ A``.

Both rest on one certificate per contraction ``P~`` (:func:`_rests`): a
ramified Q divides ``P~(f)`` only if it lies over ``P~`` (it puts ``P~`` in
``(Q) ∩ A``), so with ``e_Q = m_Q + 1`` from J's factorization, ``P~(f) =
rest * ∏ Q^e_Q`` over the ramified Q over ``P~``, and no such Q divides
``rest``, which one division per Q shows.  A contraction pulls back with
an unramified factor exactly when its ``rest`` is not constant; only then
is ``rest`` factored, to name those primes in the witness.

A failure of either is reported as :class:`TheoremViolationError`; with
exact arithmetic it can only come from a bug or from a factor that is
irreducible over the rationals but not over the complex numbers in a
configuration the analysis cannot see.

:func:`analyze` and :func:`verify_report` derive S, R, S~ (the product of
the distinct contractions), the rests, the factor pattern and the witness
through the same helpers.  The re-check takes certificates: the
ramification table for J's factorization (a product plus one
irreducibility proof per prime), the rests for the indices, and a ``D~``
with ``D~(f) = R`` for R in A; only without one does it solve for R.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import NotDivisibleError, TheoremViolationError, VrgError
from .extension import ExtensionSpec, generator_weights, validate
from .factor import _sort_factors, factor, valuation
from .fiber import is_passing_audit
from .ideals import contract_prime, subalgebra_membership, tag_table
from .poly import (
    Poly,
    VarTable,
    canonical,
    canonicalize,
    coeff_div,
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
    """One ramified prime, its contraction and its index; the prime's
    exponent in the Jacobian is ``index - 1``."""

    prime: Poly
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
class AnalysisReport:
    degree: int
    jacobian: Poly
    discarded_unit: Fraction
    ramification: tuple[RamificationDatum, ...]
    S: Poly
    R: Poly
    S_tilde: Poly
    well_ramified: bool
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
    """Run the full pipeline; raises on invalid or inconsistent input.

    Each index is ``m_Q + 1`` for Q's multiplicity in J, certified with the
    factor pattern by :func:`_rests`; a failed certificate is a
    :class:`TheoremViolationError` naming the prime and its true index.
    Without a mixed prime, ``D~ = c*S~`` is exhibited and certified by
    ``canonical(∏ P~(f)) == R``; with one, the graded solve must find R
    outside A.  A disagreement is a "characterization mismatch"."""
    r = validate(spec)
    vars = spec.vars
    jac_raw = jacobian(spec.generators, vars)
    if jac_raw.is_zero():
        raise TheoremViolationError(
            "zero Jacobian for a finite extension; generators must be dependent"
        )
    jac, unit = canonicalize(jac_raw, vars)
    jac_factors = factor(jac, vars)

    # a prime that divides a known pullback P~(f) lies over P~: (q) ∩ A
    # contains P~, and both are height-one primes of A
    pullbacks: dict[Poly, Poly] = {}
    data = []
    for q, mult in jac_factors.factors:
        contraction = next((p for p, pullback in pullbacks.items() if q.divides(pullback)), None)
        if contraction is None:
            contraction = contract_prime(q, spec)
            pullbacks[contraction] = contraction.compose(spec.generators)
        data.append(RamificationDatum(prime=q, contraction=contraction, index=mult + 1))

    rests = _rests(data, pullbacks)
    for d in data:
        if rests[d.contraction] is None and (
            index := valuation(d.prime, pullbacks[d.contraction])
        ) != d.index:
            raise TheoremViolationError(
                "theorem violation: factor"
                f" {format_poly(d.prime, vars)} has multiplicity {d.index - 1} in"
                f" the Jacobian but ramification index {index}; expected"
                " multiplicity = index - 1 (suspect factor may not be"
                " absolutely irreducible)"
            )

    s_poly, r_poly, s_tilde, s_tilde_f = _products(spec, data, pullbacks)
    mixed = _mixed_prime(rests)
    if mixed is None:
        # every rest is a unit, so S~(f) is R times the unit u it
        # canonicalizes with: R = S~(f)/u exhibits D~ = S~/u
        certified_r, u = canonicalize(s_tilde_f, vars)
        representation = s_tilde / u if certified_r == r_poly else None
    else:
        representation = subalgebra_membership(r_poly, spec)
    well = representation is not None
    if well != (mixed is None):
        raise TheoremViolationError(
            "characterization mismatch: membership of the candidate"
            f" discriminant says {well} but the pullback factor"
            f" pattern says {mixed is None}"
        )

    if well:
        witness = Witness("discriminant_representation", representation=representation)
        discriminant = (r_poly, representation)
        # m_Q = e_Q - 1 makes J = ∏Q^(e-1), both canonical, so R/J = ∏Q = S
        quotient = s_poly
    else:
        flags = _witness_flags(spec, data, *mixed)
        witness = Witness("mixed_prime", contraction=mixed[0], pullback_factors=flags)
        discriminant = quotient = None

    return AnalysisReport(
        degree=r,
        jacobian=jac,
        discarded_unit=unit,
        ramification=tuple(data),
        S=s_poly,
        R=r_poly,
        S_tilde=s_tilde,
        well_ramified=well,
        witness=witness,
        discriminant=discriminant,
        quotient_DJ=quotient,
        warnings=(IRREDUCIBILITY_WARNING,),
    )


def _products(
    spec: ExtensionSpec,
    data: Sequence[RamificationDatum],
    pullbacks: Mapping[Poly, Poly],
) -> tuple[Poly, Poly, Poly, Poly]:
    """``S = ∏Q``, ``R = ∏Q^e`` and ``S~``, each in canonical form, and
    ``S~(f)``.  The contractions (the keys of ``pullbacks``) are distinct
    primes of the polynomial ring A, so ``S~``, their lcm, is their product;
    with ``∏P~ = u*S~``, ``S~(f)`` is the product of the pullbacks over u."""
    vars, tags = spec.vars, tag_table(spec)
    one = Poly.const(vars.n, 1)
    s_poly = math.prod((d.prime for d in data), start=one)
    r_poly = math.prod((d.prime ** d.index for d in data), start=one)
    s_tilde, unit = canonicalize(math.prod(pullbacks, start=Poly.const(tags.n, 1)), tags)
    s_tilde_f = math.prod(pullbacks.values(), start=one) / unit
    return canonical(s_poly, vars), canonical(r_poly, vars), s_tilde, s_tilde_f


def _rests(
    data: Sequence[RamificationDatum], pullbacks: Mapping[Poly, Poly]
) -> dict[Poly, Poly | None]:
    """Each contraction's ``rest = P~(f) / ∏ Q^e_Q`` over the data Q over it,
    or None unless each such Q divides ``P~(f)`` exactly ``e_Q`` times: the
    product divides it, once, and no Q divides ``rest``, which one division
    per Q shows."""
    rests: dict[Poly, Poly | None] = {}
    for contraction, pullback in pullbacks.items():
        over = [d for d in data if d.contraction == contraction]
        one = Poly.const(pullback.n, 1)
        try:
            rest = pullback.exact_div(math.prod((d.prime**d.index for d in over), start=one))
        except NotDivisibleError:
            rest = None
        if rest is not None and any(d.prime.divides(rest) for d in over):
            rest = None
        rests[contraction] = rest
    return rests


def _mixed_prime(rests: Mapping[Poly, Poly]) -> tuple[Poly, Poly] | None:
    """The factor-pattern test: the first ``(P~, rest)`` with ``rest`` not
    constant (an unramified factor of ``P~(f)``), or None."""
    return next(((p, rest) for p, rest in rests.items() if not rest.is_constant()), None)


def _pull_back(t: Poly, s_tilde: Poly, s_tilde_pullback: Poly, spec: ExtensionSpec) -> Poly:
    """``T(f)``: ``c*S~(f)`` when ``T = c*S~``, else T composed with f."""
    if s_tilde:
        exp, lead = s_tilde.leading()
        c = coeff_div(t.coefficient(exp), lead)
        if t == s_tilde * c:
            return s_tilde_pullback * c
    return t.compose(spec.generators)


def _is_prime(p: Poly, vars: VarTable) -> bool:
    """Whether p is canonical and irreducible: factor returns p itself, once."""
    return factor(p, vars).factors == ((p, 1),)


def _witness_flags(
    spec: ExtensionSpec,
    data: Sequence[RamificationDatum],
    contraction: Poly,
    rest: Poly,
) -> tuple[tuple[Poly, bool], ...]:
    """The primes over ``contraction`` with their ramified flags, sorted:
    the ramified ones from ``data``, the others factored from ``rest``."""
    flags = [(d.prime, True) for d in data if d.contraction == contraction]
    flags += [(q, False) for q, _ in factor(rest, spec.vars).factors]
    return _sort_factors(flags, spec.vars)


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

    Checks the primes as a certificate of J's factorization (``∏Q^(e-1) = J``,
    each Q irreducible), the indices by the rests of :func:`_rests`, as
    :func:`analyze` does, and ``D~(f) = R`` as a certificate of R in A (else
    solves for R's membership), re-substitutes every representation,
    re-derives S, R, S~, the factor pattern and the witness from the same
    rests and helpers and compares them with the report, and re-checks the
    degree identities.  ``S~(f)`` is the product of the re-derived pullbacks
    over S~'s unit, and a ``D~ = c*S~`` pulls back to ``c*S~(f)``; only a
    tampered S~ or D~ is composed with f.  A stored fiber audit must equal
    :func:`~vrg.fiber.passing_audit` for its own samples and seed.  Returns
    the failed checks (empty when sound).
    """
    failures: list[str] = []
    vars = spec.vars

    def check(name: str, ok: bool) -> None:  # each failed check is named once
        if not ok and name not in failures:
            failures.append(name)

    try:
        r = validate(spec)
        check("degree", r == report.degree)
    except VrgError:
        failures.append("degree")
        return VerificationResult(False, tuple(failures))

    # a report for another ring: the checks below would combine polynomials
    # over different variable counts (the tag ring has one per generator)
    w = report.witness
    polys = [report.jacobian, report.S, report.R, report.S_tilde, report.quotient_DJ]
    polys += [w.representation, w.contraction, *(q for q, _ in w.pullback_factors)]
    polys += [*(report.discriminant or ()), *(d.prime for d in report.ramification)]
    polys += [d.contraction for d in report.ramification]
    if any(p is not None and p.n != vars.n for p in polys):
        failures.append("polynomial ring")
        return VerificationResult(False, tuple(failures))

    jac, unit = canonicalize(jacobian(spec.generators, vars), vars)
    check("jacobian", jac == report.jacobian and unit == report.discarded_unit)

    expected_wdeg = sum(generator_weights(spec)) - sum(vars.weights)
    wd = None if report.jacobian.is_zero() else weighted_degree(report.jacobian, vars)
    check("jacobian degree", wd is not None and wd.degree == expected_wdeg and wd.homogeneous)

    # the checks below raise on indices below 1 and on constant primes or
    # contractions, which no analysis produces
    data = report.ramification
    if not all(
        d.index >= 1 and not d.prime.is_constant() and not d.contraction.is_constant()
        for d in data
    ):
        failures.append("ramification data")
        return VerificationResult(False, tuple(failures))

    # the table is a factorization certificate: distinct primes with exponents
    # e - 1 >= 1 whose product is J are J's irreducible factors, and no others
    one = Poly.const(vars.n, 1)
    rebuilt = canonical(math.prod((d.prime ** (d.index - 1) for d in data), start=one), vars)
    check(
        "ramified primes",
        len({d.prime for d in data}) == len(data)
        and all(d.index >= 2 for d in data)
        and rebuilt == jac
        and all(_is_prime(d.prime, vars) for d in data),
    )
    check("jacobian exponents", rebuilt == jac)

    tags = tag_table(spec)
    pullbacks = {p: p.compose(spec.generators) for p in report.distinct_contractions()}
    rests = _rests(data, pullbacks)
    certified = None not in rests.values()
    check("jacobian exponents", certified)
    for contraction in pullbacks:
        check("contraction irreducible", _is_prime(contraction, tags))

    s_poly, r_poly, s_tilde, s_tilde_f = _products(spec, data, pullbacks)
    check("ramified product", s_poly == report.S)
    check("discriminant candidate", r_poly == report.R)
    check("S_tilde lcm", s_tilde == report.S_tilde)

    if s_tilde == report.S_tilde:
        s_tilde_pullback = s_tilde_f
    else:
        s_tilde_pullback = report.S_tilde.compose(spec.generators)
    check(
        "S_tilde pullback",
        not s_tilde_pullback.is_zero()
        and report.jacobian.divides(s_tilde_pullback)
        and report.S.divides(s_tilde_pullback),
    )
    # f is algebraically independent (validate passed), so S~ is the only T
    # with T(f) = S~(f): its canonical representation is canonical(S~)
    check("S_tilde membership", report.S_tilde == canonical(report.S_tilde, tags))

    if not certified:  # no factor pattern to compare
        return VerificationResult(False, tuple(failures))
    mixed = _mixed_prime(rests)
    composed = report.discriminant and _pull_back(
        report.discriminant[1], report.S_tilde, s_tilde_pullback, spec
    )
    well = composed == report.R or subalgebra_membership(report.R, spec) is not None
    check("characterizations agree", well == (mixed is None))
    check("well-ramified verdict", report.well_ramified == well)

    if report.well_ramified:
        ok = (
            report.discriminant is not None
            and report.witness.kind == "discriminant_representation"
        )
        check("discriminant present", ok)
        if ok:
            d_poly, d_rep = report.discriminant
            check("discriminant is R", d_poly == report.R)
            check(
                "discriminant representation",
                report.witness.representation == d_rep and composed == report.R,
            )
            # R/J of canonical R and J is canonical (Gauss's lemma), so the
            # product tests D/J without a division
            check(
                "quotient D/J",
                report.quotient_DJ is not None
                and report.jacobian * report.quotient_DJ == report.R
                and report.quotient_DJ == report.S,
            )
    else:
        check(
            "witness prime",
            report.discriminant is None
            and report.quotient_DJ is None
            and report.witness.kind == "mixed_prime"
            and mixed is not None
            and report.witness.contraction == mixed[0]
            and report.witness.pullback_factors == _witness_flags(spec, data, *mixed),
        )

    if report.fiber_audit is not None:
        check("fiber audit", is_passing_audit(spec, report, report.fiber_audit))

    return VerificationResult(not failures, tuple(failures))
