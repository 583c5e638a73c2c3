import copy
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vrg import (
    ExtensionSpec,
    Poly,
    VarTable,
    analyze,
    branch_audit,
    canonical,
    contract_prime,
    degree,
    format_poly,
    jacobian,
    lcm,
    load_report,
    load_spec,
    parse,
    report_from_dict,
    report_to_dict,
    subalgebra_membership,
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
    VrgError,
)
from vrg.factor import factor

from vrg.reportio import dump_report

from corpus import CORPUS, spec_of


ROOT = Path(__file__).resolve().parent.parent
# weights 1, 2, 3 and a mixed-prime witness
MIXEDW = load_spec(ROOT / "perfbench/specs/mixedw.json")[0]


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
    # no prime and no contraction: the empty products are 1, and D~ = S~ = 1
    one = Poly.const(spec.n, 1)
    assert report.S_tilde == one and report.discriminant == (one, one)
    assert verify_report(report, spec).ok


def test_analyze_cyclic_quadrics():
    vars = VarTable(("X1", "X2", "X3"), (1, 1, 1))
    gens = ("X1^2+X2*X3", "X2^2+X1*X3", "X3^2+X1*X2")
    spec = ExtensionSpec(vars, tuple(parse(g, vars) for g in gens))
    report = analyze(spec)
    assert report.degree == 8
    assert not report.well_ramified
    assert verify_report(report, spec).ok


def _cyclotomic(d, x, y):
    """The homogenized cyclotomic polynomial Phi_d(x, y)."""
    phi = x**d - y**d
    for e in range(1, d):
        if d % e == 0:
            phi = phi.exact_div(_cyclotomic(e, x, y))
    return phi


# the degree and the number of ramified primes of G(m,p,n) for n > 2
_G_M_P_N = {(3, 1, 3): (162, 9), (6, 2, 3): (648, 15), (2, 1, 4): (384, 16)}


@pytest.mark.parametrize(
    "m,p,n",
    [
        pytest.param(m, p, 2, id=f"{m}-{p}")
        for m, p in [(2, 1), (3, 1), (4, 2), (4, 4), (6, 2), (6, 3), (5, 5), (8, 4)]
    ]
    + [pytest.param(m, p, n, id=f"{m}-{p}-{n}") for m, p, n in _G_M_P_N],
)
def test_imprimitive_reflection_groups_known_answers(m, p, n):
    # G(m,p,n) has order m^n*n!/p and invariants e_k(X1^m, ..., Xn^m) for
    # k < n and (X1*...*Xn)^(m/p); its reflections have the hyperplanes
    # Xi = zeta*Xj (order 2, Xi^m - Xj^m = prod Phi_d) and, when p < m, the
    # axes (order m/p)
    names = tuple(f"X{i}" for i in range(1, n + 1))
    vars = VarTable(names, (1,) * n)
    powers = [f"{v}^{m}" for v in names]
    gens = [
        "+".join("*".join(c) for c in itertools.combinations(powers, k)) for k in range(1, n)
    ] + [f"({'*'.join(names)})^{m // p}"]
    spec = ExtensionSpec(vars, tuple(parse(g, vars) for g in gens))
    report = analyze(spec)
    assert report.degree == m**n * math.factorial(n) // p
    x = [Poly.variable(n, i) for i in range(n)]
    expected = {
        (canonical(_cyclotomic(d, x[i], x[j]), vars), 2)
        for i, j in itertools.combinations(range(n), 2)
        for d in range(1, m + 1)
        if m % d == 0
    }
    if p < m:
        expected |= {(xi, m // p) for xi in x}
    assert {(datum.prime, datum.index) for datum in report.ramification} == expected
    assert len(report.ramification) == len(expected)
    if n > 2:
        assert (report.degree, len(report.ramification)) == _G_M_P_N[m, p, n]
    assert report.well_ramified
    assert report.quotient_DJ == report.S
    assert verify_report(report, spec).ok


_SCALE = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 6))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(entry=st.sampled_from(CORPUS), scales=st.lists(_SCALE, min_size=3, max_size=3))
def test_scaling_the_generators(entry, scales):
    # f_i -> c_i*f_i keeps B and A, so everything on the B side stays; the
    # Jacobian's unit gains prod(c_i), and a tag-side P~(y) becomes P~(y/c)
    spec = entry.spec
    c = scales[: spec.n]
    scaled = ExtensionSpec(spec.vars, tuple(f * ci for f, ci in zip(spec.generators, c)))
    tags = tag_table(spec)
    back = [Poly.variable(tags.n, i) / ci for i, ci in enumerate(c)]

    def moved(p):
        return canonical(p.compose(back), tags)

    report, other = analyze(spec), analyze(scaled)
    assert other.degree == report.degree
    assert other.jacobian == report.jacobian
    assert other.discarded_unit == report.discarded_unit * math.prod(c)
    assert [(d.prime, d.index) for d in other.ramification] == [
        (d.prime, d.index) for d in report.ramification
    ]
    assert [d.contraction for d in other.ramification] == [
        moved(d.contraction) for d in report.ramification
    ]
    assert (other.S, other.R) == (report.S, report.R)
    assert other.S_tilde == moved(report.S_tilde)
    assert other.well_ramified == report.well_ramified
    if report.well_ramified:
        assert other.discriminant[1] == report.discriminant[1].compose(back)
        assert other.quotient_DJ == report.quotient_DJ
    else:
        assert other.witness.contraction == moved(report.witness.contraction)
        assert other.witness.pullback_factors == report.witness.pullback_factors
    assert verify_report(report, spec).ok
    assert verify_report(other, scaled).ok


_WEIGHT_ONE = [e for e in CORPUS if set(e.spec.vars.weights) == {1}]
_ENTRY = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@pytest.mark.parametrize("entry", _WEIGHT_ONE, ids=lambda e: e.name)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(entries=st.lists(_ENTRY, min_size=9, max_size=9))
def test_linear_change_of_coordinates(entry, entries):
    # X -> M*X for an invertible M is an automorphism of B carrying f to
    # f(M*X): each prime Q moves to Q(M*X) with its index, and the tag side
    # (the contractions and S~) does not move
    spec, vars, n = entry.spec, entry.spec.vars, entry.spec.n
    x = [Poly.variable(n, j) for j in range(n)]
    mx = [sum((c * xj for c, xj in zip(entries[i * n :], x)), Poly.zero(n)) for i in range(n)]
    assume(not jacobian(mx, vars).is_zero())
    moved = ExtensionSpec(vars, tuple(f.compose(mx) for f in spec.generators))
    report, other = analyze(spec), analyze(moved)
    assert other.degree == report.degree
    assert sorted(d.index for d in other.ramification) == sorted(
        d.index for d in report.ramification
    )
    assert {(d.prime, d.index, d.contraction) for d in other.ramification} == {
        (canonical(d.prime.compose(mx), vars), d.index, d.contraction)
        for d in report.ramification
    }
    assert set(other.distinct_contractions()) == set(report.distinct_contractions())
    assert other.S_tilde == report.S_tilde
    assert other.well_ramified == report.well_ramified
    assert verify_report(other, moved).ok


_TOWER_TOPS = [("y1^2", "y2"), ("y1", "y2^2"), ("y1^2", "y2^3")]


@pytest.mark.parametrize("top", _TOWER_TOPS, ids="|".join)
@pytest.mark.parametrize("entry", [e for e in CORPUS if e.spec.n == 2], ids=lambda e: e.name)
def test_towers_multiply_degrees_jacobians_and_indices(entry, top):
    # T = h∘f for h finite on f's tag ring: degrees multiply, J_T = J_h(f)*J_f
    # by the chain rule, and e_T(Q) = e_f(Q)*e_h(P) for P the contraction of
    # Q to A_f (Serre, Local Fields, I §4), with e = 1 off the tables
    f = entry.spec
    tags = tag_table(f)
    h = ExtensionSpec(tags, tuple(parse(g, tags) for g in top))
    tower = ExtensionSpec(f.vars, tuple(g.compose(f.generators) for g in h.generators))
    rf, rh, rt = analyze(f), analyze(h), analyze(tower)
    assert rt.degree == rf.degree * rh.degree
    assert rt.jacobian == canonical(rh.jacobian.compose(f.generators) * rf.jacobian, f.vars)
    e_f = {d.prime: d.index for d in rf.ramification}
    e_h = {d.prime: d.index for d in rh.ramification}
    for d in rt.ramification:
        below = e_h.get(contract_prime(d.prime, f), 1)
        assert d.index == e_f.get(d.prime, 1) * below, format_poly(d.prime, f.vars)
    assert set(e_f) <= {d.prime for d in rt.ramification}


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
    "generators", [("X+Y", "X+Y"), ("X+Y^2", "X*Y")], ids=["not-finite", "inhomogeneous"]
)
def test_verify_against_an_invalid_spec_fails_the_degree(sym2_spec, xy11, generators):
    other = ExtensionSpec(xy11, tuple(parse(g, xy11) for g in generators))
    assert verify_report(analyze(sym2_spec), other).failures == ("degree",)


def test_verify_lets_a_bug_in_validation_through(sym2_spec, monkeypatch):
    # only a VrgError from validate is a failed "degree" check
    import importlib

    def broken(spec):
        raise ZeroDivisionError("bug")

    report = analyze(sym2_spec)
    monkeypatch.setattr(importlib.import_module("vrg.analyzer"), "validate", broken)
    with pytest.raises(ZeroDivisionError):
        verify_report(report, sym2_spec)


def _assert_mismatch(spec, well: bool) -> None:
    with pytest.raises(
        TheoremViolationError,
        match="characterization mismatch: membership of the candidate discriminant"
        f" says {not well} but the pullback factor pattern says {well}",
    ):
        analyze(spec)


def test_characterizations_that_disagree_raise(sym2_spec, break_membership):
    # the factor pattern says well-ramified, but D~ = c*S~ is not certified
    break_membership(True)
    _assert_mismatch(sym2_spec, True)


def test_characterizations_that_disagree_raise_on_a_mixed_prime(mixed_spec, break_membership):
    # the factor pattern finds a mixed prime, but the graded solve puts R in A
    break_membership(False)
    _assert_mismatch(mixed_spec, False)


def test_tags_fall_back_to_tag_names(tmp_path):
    # y1, t1, s1 and w1 take each of the four short tag bases
    vars = VarTable(("y1", "t1", "s1", "w1"), (1, 1, 1, 1))
    spec = ExtensionSpec(vars, tuple(parse(g, vars) for g in ("y1^2", "t1^3", "s1", "w1^2")))
    tags = tag_table(spec)
    assert tags.names == ("tag1", "tag2", "tag3", "tag4")
    report = analyze(spec)
    assert format_poly(report.S_tilde, tags) == "tag1*tag2*tag4"
    path = tmp_path / "report.json"
    dump_report(report, spec, path)
    assert json.loads(path.read_text())["S_tilde"] == "tag1*tag2*tag4"
    loaded = load_report(path, spec)
    assert loaded == report
    assert verify_report(loaded, spec).ok


def test_report_round_trips_monomials_above_the_degree_cap(xy11, monkeypatch):
    # G(7,7,2) passes under a cap of 10, but R = (X^7 - Y^7)^2 is written
    # with X^14: reading it back builds that monomial without the cap
    monkeypatch.setenv("VRG_MAX_DEGREE", "10")
    spec = ExtensionSpec(xy11, (parse("X^7+Y^7", xy11), parse("X*Y", xy11)))
    data = json.loads(json.dumps(report_to_dict(analyze(spec), spec)))
    assert data["R"].startswith("X^14 ")
    assert verify_report(report_from_dict(data, spec), spec).ok


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


def test_report_file_that_is_not_json_is_refused(cusp_spec, tmp_path):
    path = tmp_path / "report.json"
    for content in (b"{not json", b"\xff\xfe\x00"):
        path.write_bytes(content)
        with pytest.raises(SpecFileError, match="^report file is not valid JSON: "):
            load_report(path, cusp_spec)


def _tampered(spec, mutate):
    data = report_to_dict(analyze(spec), spec)
    mutate(data)
    return report_from_dict(data, spec)


def test_tampered_index_fails(cusp_spec):
    def bump_e(data):
        data["ramification"][0]["e"] += 1

    def duplicate(data):
        data["ramification"].append(data["ramification"][0])

    for mutate in (bump_e, duplicate):
        result = verify_report(_tampered(cusp_spec, mutate), cusp_spec)
        assert not result.ok
        assert "jacobian exponents" in result.failures


def test_each_failed_check_is_named_once():
    # a duplicated datum fails both "jacobian exponents" checks (the rebuilt
    # Jacobian and the index certificate); the failure is listed once
    spec = spec_of("cusp3")

    def duplicate(data):
        data["ramification"].insert(0, data["ramification"][0])

    failures = verify_report(_tampered(spec, duplicate), spec).failures
    assert failures.count("jacobian exponents") == 1
    assert len(set(failures)) == len(failures)


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
def test_jacobian_exponents_by_certificate(entry, monkeypatch):
    # one division by ∏Q^e per contraction; then Q ∤ rest by one division
    # per ramified prime, with no zero of Q over Q[s]/(m)
    import collections
    import dataclasses

    import vrg.analyzer as analyzer_mod
    import vrg.factor as factor_mod

    spec = entry.spec
    report = analyze(spec)
    divisions = []
    real = Poly.divides
    monkeypatch.setattr(Poly, "divides", lambda q, p: divisions.append(q) or real(q, p))
    monkeypatch.setattr(factor_mod, "line_zero", lambda *args: pytest.fail("line_zero called"))
    pullbacks = {p: p.compose(spec.generators) for p in report.distinct_contractions()}
    rests = analyzer_mod._rests(report.ramification, pullbacks)
    assert all(rest is not None for rest in rests.values())
    primes = [d.prime for d in report.ramification]
    assert collections.Counter(divisions) == collections.Counter(primes)
    assert not hasattr(analyzer_mod, "line_zero")
    monkeypatch.undo()
    # an index one off either way fails, the low one because Q divides rest
    for i, d in enumerate(report.ramification):
        for index in (d.index - 1, d.index + 1):
            data = list(report.ramification)
            data[i] = dataclasses.replace(d, index=index)
            tampered = dataclasses.replace(report, ramification=tuple(data))
            assert "jacobian exponents" in verify_report(tampered, spec).failures, (i, index)
    # the certificate alone refuses the low index, where J's product no longer
    # decides: Q divides that rest
    for i, d in enumerate(report.ramification):
        data = list(report.ramification)
        data[i] = dataclasses.replace(d, index=d.index - 1)
        assert analyzer_mod._rests(data, pullbacks)[d.contraction] is None, i


def test_one_certificate_derives_indices_and_pattern(monkeypatch):
    # analyze takes e_Q = m_Q + 1 and certifies it, so it never counts a
    # valuation; verify_report divides each contraction's pullback once and
    # reads the factor pattern and the witness off the same rests
    import collections

    import vrg.analyzer as analyzer_mod

    def no_valuation(q, p):
        raise AssertionError("valuation called")

    monkeypatch.setattr(analyzer_mod, "valuation", no_valuation)
    for entry in CORPUS:
        analyze(entry.spec)
    monkeypatch.undo()

    spec = MIXEDW
    report = analyze(spec)
    assert report.witness.kind == "mixed_prime"
    pullbacks = [p.compose(spec.generators) for p in report.distinct_contractions()]
    dividends = collections.Counter()
    real = Poly.exact_div
    monkeypatch.setattr(Poly, "exact_div", lambda p, q: dividends.update([p]) or real(p, q))
    assert verify_report(report, spec).ok
    assert len(pullbacks) > 1
    assert [dividends[p] for p in pullbacks] == [1] * len(pullbacks)


def test_report_for_another_ring_fails_without_raising():
    sym2, sym3 = spec_of("sym2"), spec_of("sym3")
    for report, spec in ((analyze(sym3), sym2), (analyze(sym2), sym3)):
        result = verify_report(report, spec)
        assert not result.ok
        assert "polynomial ring" in result.failures


def test_tampered_representation_fails(cusp_spec):
    def scale_rep(data):
        data["discriminant"]["D_rep"] = "y1*(" + data["discriminant"]["D_rep"] + ")"

    def double_both(data):
        # D~ and the witness agree, but 2*D~(f) is not R
        for node, key in ((data["discriminant"], "D_rep"), (data["witness"], "representation")):
            node[key] = "2*(" + node[key] + ")"

    def drop_discriminant(data):
        data["discriminant"] = None

    for mutate, failure in (
        (scale_rep, "discriminant representation"),
        (double_both, "discriminant representation"),
        (drop_discriminant, "discriminant present"),
    ):
        assert verify_report(_tampered(cusp_spec, mutate), cusp_spec).failures == (failure,)


def test_tampered_jacobian_fails(cusp_spec):
    def scale_jac(data):
        data["jacobian"] = "X*(" + data["jacobian"] + ")"

    result = verify_report(_tampered(cusp_spec, scale_jac), cusp_spec)
    assert not result.ok
    assert "jacobian" in result.failures


def test_dropped_prime_fails(cusp_spec, mixed_spec):
    def drop(data):
        data["ramification"] = data["ramification"][1:]

    def merge(data):
        # X and X^2 - Y^3 both have e = 2: one datum for their product
        y_entry, x_entry, other = data["ramification"]
        x_entry["Q"] = f"({x_entry['Q']})*({other['Q']})"
        data["ramification"] = [y_entry, x_entry]

    def add_unramified(data):
        # y1(f) = X^2*Y, and Y is the unramified prime over y1
        data["ramification"].append({"Q": "Y", "e": 1, "contraction": "y1"})

    for spec, mutate in ((cusp_spec, drop), (cusp_spec, merge), (mixed_spec, add_unramified)):
        result = verify_report(_tampered(spec, mutate), spec)
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

    def negate(data):
        data["S_tilde"] = "-(" + data["S_tilde"] + ")"

    assert verify_report(_tampered(cusp_spec, scale), cusp_spec).failures == ("S_tilde lcm",)
    assert verify_report(_tampered(cusp_spec, negate), cusp_spec).failures == (
        "S_tilde lcm",
        "S_tilde membership",
    )


def test_tampered_quotient_fails(cusp_spec):
    def scale(data):
        data["quotient_DJ"] = "X*(" + data["quotient_DJ"] + ")"

    result = verify_report(_tampered(cusp_spec, scale), cusp_spec)
    assert not result.ok
    assert "quotient D/J" in result.failures


def test_swapped_contractions_fail_without_raising(cusp_spec, mixed_spec):
    def swap(data):
        entries = data["ramification"]
        contractions = [entry["contraction"] for entry in entries][::-1]
        for entry, contraction in zip(entries, contractions):
            entry["contraction"] = contraction

    for spec in (cusp_spec, mixed_spec):
        assert not verify_report(_tampered(spec, swap), spec).ok


# report keys whose polynomials live in the tag ring of the subalgebra
_TAG_KEYS = {"contraction", "S_tilde", "representation", "D_rep"}


def _leaves(node, path=()):
    """``(path, value)`` for every leaf of a report dict below ``node``."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield from _leaves(value, path + (key,))
    else:
        yield path, node


def _mutations(value, key, spec):
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, int):
        return [value + 1, value - 1]
    if isinstance(value, str):
        ring = tag_table(spec) if key in _TAG_KEYS else spec.vars
        return [f"2*({value})", f"{ring.names[0]}*({value})"]
    return []


@pytest.mark.parametrize(
    "spec",
    [
        pytest.param(spec_of("cusp3"), id="cusp"),
        pytest.param(spec_of("mixed2"), id="mixed"),
        pytest.param(spec_of("sym2"), id="sym2"),
        pytest.param(spec_of("dihedral4"), id="dihedral4"),
        pytest.param(MIXEDW, id="perfbench-mixedw"),
    ],
)
def test_tamper_walk_rejects_every_leaf_mutation(spec):
    # scale every polynomial by 2 and by a variable, flip every bool, bump
    # and lower every int of the report and of its fiber audit but the seed,
    # and drop and duplicate each ramification datum: each must fail
    # verification or be refused by the reader
    report = analyze(spec)
    report = report.with_audit(branch_audit(spec, report, samples=1, seed=0))
    assert verify_report(report, spec).ok
    data = report_to_dict(report, spec)
    walked = {k: v for k, v in data.items() if k != "warnings"}
    walked["fiber_audit"] = {k: v for k, v in data["fiber_audit"].items() if k != "seed"}
    tampered_reports = []
    for path, value in _leaves(walked):
        for mutated in _mutations(value, path[-1], spec):
            tampered = copy.deepcopy(data)
            node = tampered
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = mutated
            tampered_reports.append(((path, mutated), tampered))
    for i in range(len(data["ramification"])):
        for label, copies in (("drop", []), ("duplicate", [data["ramification"][i]] * 2)):
            tampered = copy.deepcopy(data)
            tampered["ramification"][i : i + 1] = copies
            tampered_reports.append(((label, i), tampered))
    accepted = []
    for mutation, tampered in tampered_reports:
        try:
            report = report_from_dict(tampered, spec)
        except VrgError:
            continue
        if verify_report(report, spec).ok:
            accepted.append(mutation)
    assert accepted == []


def _spec(names, weights, gens):
    vars = VarTable(tuple(names), tuple(weights))
    return ExtensionSpec(vars, tuple(parse(g, vars) for g in gens))


MIXED_PRIME_SPECS = [
    pytest.param(spec_of("mixed2"), id="mixed2"),
    pytest.param(spec_of("mixed3"), id="mixed3"),
    pytest.param(
        _spec(("X1", "X2", "X3"), (1, 1, 1), ("X1^2+X2*X3", "X2^2+X1*X3", "X3^2+X1*X2")),
        id="cyclic-quadrics",
    ),
    pytest.param(
        _spec(("X", "Y", "Z"), (1, 2, 3), ("X^2+Y", "Y^3+Z^2", "X^6+X^3*Z+Z^2")),
        id="mixedw-cross",
    ),
    pytest.param(MIXEDW, id="perfbench-mixedw"),
]


@pytest.mark.parametrize("spec", MIXED_PRIME_SPECS)
def test_mixed_prime_witness_matches_factoring(spec):
    # the witness found by division equals the one read off the
    # factorization of the contraction's pullback
    report = analyze(spec)
    assert report.witness.kind == "mixed_prime"
    ramified = {d.prime for d in report.ramification}
    pullback = report.witness.contraction.compose(spec.generators)
    expected = tuple((q, q in ramified) for q, _ in factor(pullback, spec.vars).factors)
    assert report.witness.pullback_factors == expected


@pytest.mark.parametrize(
    "entry", [e for e in CORPUS if e.well_ramified], ids=lambda e: e.name
)
def test_well_ramified_analysis_factors_only_the_jacobian(entry, monkeypatch):
    import vrg.analyzer as analyzer_mod

    calls = []

    def counted(p, vars):
        calls.append(p)
        return factor(p, vars)

    monkeypatch.setattr(analyzer_mod, "factor", counted)
    analyze(entry.spec)
    assert len(calls) == 1


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
def test_verify_report_factors_only_the_certificate(entry, monkeypatch):
    # the primes are a factorization certificate of J, so verify_report
    # factors each prime and contraction, and the witness rest, but never J
    import vrg.analyzer as analyzer_mod

    spec, report = entry.spec, analyze(entry.spec)
    allowed = {d.prime for d in report.ramification} | set(report.distinct_contractions())
    if report.witness.kind == "mixed_prime":
        over = [d for d in report.ramification if d.contraction == report.witness.contraction]
        ramified = math.prod((d.prime**d.index for d in over), start=Poly.const(spec.n, 1))
        allowed.add(report.witness.contraction.compose(spec.generators).exact_div(ramified))
    calls = []

    def counted(p, vars):
        calls.append(p)
        return factor(p, vars)

    monkeypatch.setattr(analyzer_mod, "factor", counted)
    assert verify_report(report, spec).ok
    assert calls and all(p in allowed for p in calls)


def _g313():
    vars = VarTable(("X1", "X2", "X3"), (1, 1, 1))
    gens = ("X1^3+X2^3+X3^3", "X1^3*X2^3+X1^3*X3^3+X2^3*X3^3", "X1*X2*X3")
    return ExtensionSpec(vars, tuple(parse(g, vars) for g in gens))


@pytest.mark.parametrize(
    "spec",
    [pytest.param(e.spec, id=e.name) for e in CORPUS] + [pytest.param(_g313(), id="G(3,1,3)")],
)
def test_s_tilde_is_the_lcm_of_the_contractions(spec):
    # the distinct contractions are distinct primes of A, so the product
    # that analyze takes is their lcm
    report = analyze(spec)
    tags = tag_table(spec)
    expected = Poly.const(tags.n, 1)
    for contraction in report.distinct_contractions():
        expected = lcm(expected, contraction, tags)
    assert report.S_tilde == expected


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
def test_verify_report_takes_r_in_a_from_the_discriminant(entry, monkeypatch):
    # D~(f) = R proves that R is in A, so only a report without a
    # discriminant runs the membership solve; analyze exhibits D~ = c*S~
    # when the factor pattern finds no mixed prime and solves only otherwise
    import vrg.analyzer as analyzer_mod

    calls = []

    def counted(p, spec):
        calls.append(p)
        return subalgebra_membership(p, spec)

    monkeypatch.setattr(analyzer_mod, "subalgebra_membership", counted)
    report = analyze(entry.spec)
    assert len(calls) == (0 if entry.well_ramified else 1)
    calls.clear()
    assert verify_report(report, entry.spec).ok
    assert len(calls) == (0 if entry.well_ramified else 1)


# c with D~ = c*S~ where it is not 1, and None for a spec with a mixed prime
_DISCRIMINANT_FACTORS = {
    "psum3": Fraction(-1, 6),
    "B3psum": Fraction(-1, 36),
    "mixed": None,
    "mixedw": None,
}


@pytest.mark.parametrize(
    "path",
    sorted((ROOT / "specs").glob("*.json")) + sorted((ROOT / "perfbench/specs").glob("*.json")),
    ids=lambda path: f"{path.parent.name}/{path.stem}",
)
def test_well_ramified_discriminant_is_a_multiple_of_s_tilde(path):
    # (J) ∩ A = (R) makes S~, the generator of (J) ∩ A, an associate of D~;
    # the graded solve is the oracle for the representation
    spec = load_spec(path)[0]
    report = analyze(spec)
    c = _DISCRIMINANT_FACTORS.get(path.stem, 1)
    assert report.well_ramified == (c is not None)
    if c is not None:
        assert report.discriminant[1] == report.S_tilde * c
        assert report.discriminant[1] == subalgebra_membership(report.R, spec)


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
    # Y now has multiplicity 3, so the certificate for e = 4 fails and the
    # message gives Y's true index
    with pytest.raises(
        TheoremViolationError,
        match="factor Y has multiplicity 3 in the Jacobian but ramification index 3",
    ):
        analyze(cusp_spec)
