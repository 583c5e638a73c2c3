import json

import pytest

from vrg import (
    ExtensionSpec,
    Poly,
    VarTable,
    analyze,
    canonical,
    degree,
    is_well_ramified,
    load_report,
    parse,
    report_from_dict,
    report_to_dict,
    tag_table,
    validate,
    verify_report,
)
from vrg.errors import (
    InputError,
    NotFiniteError,
    NotHomogeneousError,
    SpecFileError,
    TheoremViolationError,
)


def assoc(p, q, vars):
    return canonical(p, vars) == canonical(q, vars)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validate_degrees(cusp_spec, mixed_spec, sym2_spec):
    # oracle: r = prod(generator weights) / prod(variable weights)
    assert validate(cusp_spec) == (6 * 12) // (3 * 2) == 12
    assert validate(mixed_spec) == (4 * 2) // (1 * 2) == 4
    assert validate(sym2_spec) == (1 * 2) // (1 * 1) == 2


def test_validate_rejects_inhomogeneous(xy11):
    spec = ExtensionSpec(xy11, (parse("X^2+Y", xy11), parse("Y^2", xy11)))
    with pytest.raises(NotHomogeneousError):
        validate(spec)


def test_validate_rejects_nonfinite(xy11):
    spec = ExtensionSpec(xy11, (parse("X", xy11), parse("X*Y", xy11)))
    with pytest.raises(NotFiniteError):
        validate(spec)


def test_spec_arity_is_input_error(xy11):
    with pytest.raises(InputError):
        ExtensionSpec(xy11, (parse("X", xy11),))
    with pytest.raises(InputError):
        ExtensionSpec(xy11, (parse("X", xy11), Poly.variable(3, 0)))


def test_degree_helper(cusp_spec):
    assert degree(cusp_spec) == 12


# ---------------------------------------------------------------------------
# analyze: the three running extensions in full detail
# ---------------------------------------------------------------------------


def test_analyze_cusp(cusp_spec):
    vars = cusp_spec.vars
    tags = tag_table(cusp_spec)
    report = analyze(cusp_spec)

    assert report.degree == 12
    assert assoc(report.jacobian, parse("X*Y^2*(X^2-Y^3)", vars), vars)
    assert report.discarded_unit == 6

    by_prime = {d.prime: d for d in report.ramification}
    assert set(by_prime) == {
        parse("X", vars),
        parse("Y", vars),
        parse("X^2-Y^3", vars),
    }
    assert by_prime[parse("X", vars)].index == 2
    assert by_prime[parse("Y", vars)].index == 3
    assert by_prime[parse("X^2-Y^3", vars)].index == 2
    assert by_prime[parse("X", vars)].contraction == parse("y2", tags)
    assert by_prime[parse("Y", vars)].contraction == parse("y2", tags)
    assert by_prime[parse("X^2-Y^3", vars)].contraction == parse("y1^2-4*y2", tags)

    assert report.well_ramified
    d_poly, d_rep = report.discriminant
    assert d_rep == parse("y2*(y1^2-4*y2)", tags)
    assert d_poly == canonical(parse("X^2*Y^3*(X^2-Y^3)^2", vars), vars)
    assert assoc(report.quotient_DJ, parse("X*Y*(X^2-Y^3)", vars), vars)
    # the discriminant representation pulls back to R exactly
    assert d_rep.compose(cusp_spec.generators) == report.R


def test_analyze_mixed(mixed_spec):
    vars = mixed_spec.vars
    tags = tag_table(mixed_spec)
    report = analyze(mixed_spec)

    assert report.degree == 4
    assert assoc(report.jacobian, parse("X*(Y-X^2)", vars), vars)
    by_prime = {d.prime: d for d in report.ramification}
    assert set(by_prime) == {parse("X", vars), canonical(parse("Y-X^2", vars), vars)}
    assert all(d.index == 2 for d in report.ramification)

    assert not report.well_ramified
    assert report.discriminant is None
    assert report.quotient_DJ is None
    assert report.witness.kind == "mixed_prime"
    assert report.witness.contraction == parse("y1", tags)
    flags = {q: ok for q, ok in report.witness.pullback_factors}
    assert flags == {parse("X", vars): True, parse("Y", vars): False}

    # the contracted ideal of the ramified set is generated by the stated
    # pullback: lcm(y1, y2^2 - 4 y1) maps onto X^2*Y*(Y - X^2)^2
    assert assoc(report.S_tilde, parse("y1*(y2^2-4*y1)", tags), tags)
    pullback = report.S_tilde.compose(mixed_spec.generators)
    assert assoc(pullback, parse("X^2*Y*(Y-X^2)^2", vars), vars)


def test_analyze_sym2(sym2_spec):
    vars = sym2_spec.vars
    tags = tag_table(sym2_spec)
    report = analyze(sym2_spec)
    assert report.degree == 2
    # oracle: (X+Y)^2 - 4XY = (X-Y)^2
    f1, f2 = sym2_spec.generators
    assert f1 ** 2 - 4 * f2 == parse("(X-Y)^2", vars)
    assert [d.prime for d in report.ramification] == [parse("X-Y", vars)]
    assert report.ramification[0].index == 2
    assert report.well_ramified
    assert report.discriminant[1] == parse("y1^2-4*y2", tags)
    assert report.discriminant[0] == parse("(X-Y)^2", vars)


def test_analyze_single_variable_power():
    vars = VarTable(("X",), (1,))
    spec = ExtensionSpec(vars, (parse("X^5", vars),))
    tags = tag_table(spec)
    report = analyze(spec)
    assert report.degree == 5
    assert [d.index for d in report.ramification] == [5]
    assert report.well_ramified
    assert report.discriminant[1] == parse("y1", tags)


def test_analyze_unramified_linear_change(xy11):
    spec = ExtensionSpec(xy11, (parse("X+Y", xy11), parse("X-Y", xy11)))
    report = analyze(spec)
    assert report.degree == 1
    assert report.ramification == ()
    assert report.well_ramified
    assert report.S == parse("1", xy11)
    assert report.R == parse("1", xy11)


def test_analyze_cyclic_quadrics():
    vars = VarTable(("X1", "X2", "X3"), (1, 1, 1))
    gens = ("X1^2+X2*X3", "X2^2+X1*X3", "X3^2+X1*X2")
    spec = ExtensionSpec(vars, tuple(parse(g, vars) for g in gens))
    report = analyze(spec)
    assert report.degree == 8
    assert not report.well_ramified
    assert verify_report(report, spec).ok


def test_is_well_ramified_results(cusp_spec, mixed_spec, sym2_spec):
    res = is_well_ramified(cusp_spec)
    assert res.verdict and res.by_membership and res.by_factor_pattern
    res = is_well_ramified(mixed_spec)
    assert not res.verdict and not res.by_membership and not res.by_factor_pattern
    assert res.witness.kind == "mixed_prime"
    res = is_well_ramified(sym2_spec)
    assert res.verdict


# ---------------------------------------------------------------------------
# verify_report and tampering
# ---------------------------------------------------------------------------


def test_verify_accepts_fresh_reports(cusp_spec, mixed_spec, sym2_spec):
    for spec in (cusp_spec, mixed_spec, sym2_spec):
        report = analyze(spec)
        result = verify_report(report, spec)
        assert result.ok, result.failures


def test_verify_round_trips_through_json(cusp_spec):
    report = analyze(cusp_spec)
    data = report_to_dict(report, cusp_spec)
    loaded = report_from_dict(data, cusp_spec)
    assert verify_report(loaded, cusp_spec).ok


@pytest.mark.parametrize(
    "mutate, key",
    [
        (lambda d: d.pop("ramification"), "ramification"),
        (lambda d: d.update(degree="12"), "degree"),
        (lambda d: d["ramification"][0].pop("Q"), "Q"),
        (lambda d: d["ramification"][0].update(e=None), "e"),
        (lambda d: d.update(witness=[]), "witness"),
        (lambda d: d.update(discriminant={"D": "X"}), "D_rep"),
        (lambda d: d.update(discarded_unit="six"), "discarded_unit"),
    ],
)
def test_malformed_report_names_the_key(cusp_spec, tmp_path, mutate, key):
    data = report_to_dict(analyze(cusp_spec), cusp_spec)
    mutate(data)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(SpecFileError, match=f'"{key}"'):
        load_report(path, cusp_spec)


def _tampered(spec, mutate):
    data = report_to_dict(analyze(spec), spec)
    mutate(data)
    return report_from_dict(data, spec)


def test_tampered_index_fails(cusp_spec):
    def bump_e(data):
        data["ramification"][0]["e"] += 1

    result = verify_report(_tampered(cusp_spec, bump_e), cusp_spec)
    assert not result.ok
    assert "jacobian exponents" in result.failures


def test_tampered_representation_fails(cusp_spec):
    def scale_rep(data):
        data["discriminant"]["D_rep"] = "y1*(" + data["discriminant"]["D_rep"] + ")"

    result = verify_report(_tampered(cusp_spec, scale_rep), cusp_spec)
    assert not result.ok
    assert "discriminant representation" in result.failures


def test_tampered_jacobian_fails(cusp_spec):
    def scale_jac(data):
        data["jacobian"] = "X*(" + data["jacobian"] + ")"

    result = verify_report(_tampered(cusp_spec, scale_jac), cusp_spec)
    assert not result.ok
    assert "jacobian" in result.failures


def test_dropped_prime_fails(cusp_spec):
    def drop(data):
        data["ramification"] = data["ramification"][1:]

    result = verify_report(_tampered(cusp_spec, drop), cusp_spec)
    assert not result.ok
    assert "ramified primes" in result.failures


def test_flipped_verdict_fails(cusp_spec, mixed_spec):
    def flip(data):
        data["well_ramified"] = not data["well_ramified"]

    for spec in (cusp_spec, mixed_spec):
        result = verify_report(_tampered(spec, flip), spec)
        assert not result.ok
        assert "well-ramified verdict" in result.failures


def test_tampered_s_tilde_fails(cusp_spec):
    def scale(data):
        data["S_tilde"] = "y1*(" + data["S_tilde"] + ")"

    result = verify_report(_tampered(cusp_spec, scale), cusp_spec)
    assert not result.ok
    assert "S_tilde lcm" in result.failures


def test_tampered_quotient_fails(cusp_spec):
    def scale(data):
        data["quotient_DJ"] = "X*(" + data["quotient_DJ"] + ")"

    result = verify_report(_tampered(cusp_spec, scale), cusp_spec)
    assert not result.ok
    assert "quotient D/J" in result.failures


def test_analyze_is_thread_safe(cusp_spec, mixed_spec, sym2_spec):
    # values are immutable and operations pure, so concurrent analyses of
    # independent specs must agree with the serial results
    from concurrent.futures import ThreadPoolExecutor

    specs = [cusp_spec, mixed_spec, sym2_spec, cusp_spec]
    serial = [analyze(spec) for spec in specs]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(analyze, specs))
    assert parallel == serial


def test_corrupt_factorization_raises_theorem_violation(cusp_spec, monkeypatch):
    # force the index/multiplicity identity to break: report one factor of
    # the Jacobian with a lowered multiplicity
    import vrg.analyzer as analyzer_mod
    from vrg.factor import Factorization, factor as real_factor

    def corrupt(p, vars):
        fac = real_factor(p, vars)
        if len(fac.factors) >= 3:
            (f0, m0), *rest = fac.factors
            return Factorization(unit=fac.unit, factors=((f0, m0 + 1), *rest))
        return fac

    monkeypatch.setattr(analyzer_mod, "factor", corrupt)
    with pytest.raises(TheoremViolationError):
        analyze(cusp_spec)
