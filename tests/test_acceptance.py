"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance and runtime bound is asserted, not just reported.
"""

import random
import time
from fractions import Fraction

from vrg import (
    Poly,
    analyze,
    branch_audit,
    canonical,
    factor,
    parse,
    report_from_dict,
    report_to_dict,
    subalgebra_membership,
    tag_table,
    valuation,
    verify_report,
    weighted_degree,
)
from vrg.extension import generator_weights
from vrg.poly import VarTable

from corpus import CORPUS, spec_of


def _report(criterion: str, detail: str) -> None:
    print(f"[{criterion}] PASS: {detail}")


def assoc(p, q, vars):
    return canonical(p, vars) == canonical(q, vars)


def test_criterion_1_cusp_extension():
    start = time.perf_counter()
    spec = spec_of("cusp3")
    vars = spec.vars
    tags = tag_table(spec)
    report = analyze(spec)

    assert assoc(report.jacobian, parse("X*Y^2*(X^2-Y^3)", vars), vars)
    assert report.discarded_unit == 6
    data = {(d.prime, d.index) for d in report.ramification}
    assert data == {
        (parse("X", vars), 2),
        (parse("Y", vars), 3),
        (parse("X^2-Y^3", vars), 2),
    }
    contraction_of = {d.prime: d.contraction for d in report.ramification}
    assert contraction_of[parse("X", vars)] == parse("y2", tags)
    assert contraction_of[parse("Y", vars)] == parse("y2", tags)
    assert contraction_of[parse("X^2-Y^3", vars)] == canonical(
        parse("y1^2-4*y2", tags), tags
    )
    assert report.well_ramified
    assert report.discriminant[1] == parse("y2*(y1^2-4*y2)", tags)
    assert assoc(report.quotient_DJ, parse("X*Y*(X^2-Y^3)", vars), vars)

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report("criterion 1", f"cusp extension fully matched in {elapsed:.2f}s")


def test_criterion_2_mixed_extension():
    start = time.perf_counter()
    spec = spec_of("mixed2")
    vars = spec.vars
    tags = tag_table(spec)
    report = analyze(spec)

    assert report.degree == 4
    assert assoc(report.jacobian, parse("X*(Y-X^2)", vars), vars)
    assert not report.well_ramified
    assert report.witness.kind == "mixed_prime"
    assert report.witness.contraction == parse("y1", tags)
    pullback = report.S_tilde.compose(spec.generators)
    assert assoc(pullback, parse("X^2*Y*(Y-X^2)^2", vars), vars)

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report("criterion 2", f"mixed extension fully matched in {elapsed:.2f}s")


def test_criterion_3_theorem_suite():
    start = time.perf_counter()
    assert len(CORPUS) >= 10
    names = {entry.name for entry in CORPUS}
    assert {"cusp3", "mixed2", "sym2", "sym3", "dihedral3", "dihedral4", "dihedral5"} <= names
    non_galois_well = [e for e in CORPUS if e.well_ramified and not e.galois]
    not_well = [e for e in CORPUS if not e.well_ramified]
    assert len(non_galois_well) >= 2
    assert len(not_well) >= 2

    for entry in CORPUS:
        spec = entry.spec
        vars = spec.vars
        tags = tag_table(spec)
        report = analyze(spec)
        assert report.degree == entry.degree, entry.name
        assert report.well_ramified == entry.well_ramified, entry.name

        # P2: the Jacobian re-multiplies from the ramification data
        rebuilt = Poly.const(vars.n, 1)
        for d in report.ramification:
            rebuilt = rebuilt * d.prime ** (d.index - 1)
        assert canonical(rebuilt, vars) == report.jacobian, entry.name

        # P3: weighted degree identity
        expected = sum(generator_weights(spec)) - sum(vars.weights)
        if report.jacobian.is_zero():
            raise AssertionError(entry.name)
        wd = weighted_degree(report.jacobian, vars)
        assert wd.degree == expected and wd.homogeneous, entry.name

        # P4: factors of J = primes with index >= 2 in the pullbacks
        jac_set = {d.prime for d in report.ramification}
        from_pullbacks = set()
        for contraction in report.distinct_contractions():
            pull = contraction.compose(spec.generators)
            for q, mult in factor(pull, vars).factors:
                assert valuation(q, pull) == mult
                if mult >= 2:
                    from_pullbacks.add(q)
        assert from_pullbacks == jac_set, entry.name

        # P5: S_tilde generates the contracted ideal of S
        pull = report.S_tilde.compose(spec.generators)
        assert report.jacobian.is_zero() or report.jacobian.divides(pull), entry.name
        assert report.S.divides(pull), entry.name
        back = subalgebra_membership(canonical(pull, vars), spec)
        assert back is not None and canonical(back, tags) == report.S_tilde, entry.name

        # P6: S_tilde pulls back to R exactly when well-ramified (analyze
        # raises when the two characterizations disagree)
        if report.well_ramified:
            assert assoc(pull, report.R, vars), entry.name

        result = verify_report(report, spec)
        assert result.ok, (entry.name, result.failures)

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(
        "criterion 3",
        f"{len(CORPUS)} extensions passed P2-P6 and verify_report in {elapsed:.1f}s",
    )


def test_criterion_4_galois_sanity():
    checked = 0
    for entry in CORPUS:
        if not entry.galois:
            continue
        spec = entry.spec
        report = analyze(spec)
        assert report.well_ramified, entry.name
        d_poly, d_rep = report.discriminant
        assert d_rep.compose(spec.generators) == report.R, entry.name
        assert d_poly == report.R, entry.name
        checked += 1
    tags = tag_table(spec_of("sym2"))
    rep = analyze(spec_of("sym2")).discriminant[1]
    assert rep == parse("y1^2-4*y2", tags)
    assert checked >= 5
    _report(
        "criterion 4",
        f"{checked} invariant-ring extensions match classical discriminants",
    )


def test_criterion_5_fiber_audit():
    start = time.perf_counter()
    expectations = {"cusp3": 12, "mixed2": 4, "sym2": 2}
    for name, r in expectations.items():
        spec = spec_of(name)
        report = analyze(spec)
        assert report.degree == r
        audit = branch_audit(spec, report, samples=20, seed=2024)
        assert audit["all_counts_at_most_r"], name
        generic = audit["generic"]
        assert generic["violations"] == [], name
        assert generic["equal_r"] == 20, name
        for entry in audit["branch"]:
            assert entry["violations"] == [], (name, entry)
            assert entry["below_r"] == 20, (name, entry)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(
        "criterion 5",
        f"60 generic + branch samples per spec counted exactly in {elapsed:.1f}s",
    )


def test_criterion_6_property_fuzzing():
    vars = VarTable(("X", "Y"), (1, 1))
    pool = [
        parse(t, vars)
        for t in ("X", "Y", "X-Y", "X+Y", "X^2+Y^3", "X-2*Y", "X^2+Y^2", "2*X+3*Y")
    ]
    pool = [canonical(q, vars) for q in pool]
    rng = random.Random(20240)

    # 1000 random products of small irreducibles re-factor exactly
    for _ in range(1000):
        multiset: dict[Poly, int] = {}
        p = Poly.const(2, rng.choice([1, 2, 3, 5, -2, -1]))
        for q in (rng.choice(pool) for _ in range(rng.randint(1, 3))):
            m = rng.randint(1, 3)
            multiset[q] = multiset.get(q, 0) + m
            p = p * q ** m
        fac = factor(p, vars)
        assert dict(fac.factors) == multiset
        assert fac.expand(2) == p

    # 500 membership hits re-substitute exactly
    specs = [spec_of("cusp3"), spec_of("mixed2"), spec_of("sym2")]
    hits = 0
    while hits < 500:
        spec = specs[hits % len(specs)]
        tags = tag_table(spec)
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exp = tuple(rng.randint(0, 2) for _ in range(tags.n))
            terms[exp] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        g = Poly(tags.n, terms)
        if g.is_zero():
            continue
        p = g.compose(spec.generators)
        rep = subalgebra_membership(p, spec)
        assert rep == g
        assert rep.compose(spec.generators) == p
        hits += 1

    # valuation additivity on 500 random pairs
    for _ in range(500):
        q = rng.choice(pool)
        p1 = Poly.const(2, rng.choice([1, 2, -3]))
        p2 = Poly.const(2, rng.choice([1, 5, -1]))
        for _ in range(rng.randint(0, 2)):
            p1 = p1 * rng.choice(pool) ** rng.randint(1, 2)
        for _ in range(rng.randint(0, 2)):
            p2 = p2 * rng.choice(pool) ** rng.randint(1, 2)
        assert valuation(q, p1 * p2) == valuation(q, p1) + valuation(q, p2)

    _report(
        "criterion 6",
        "1000 refactorizations, 500 membership hits, 500 valuation pairs all exact",
    )


def test_criterion_7_mutation_check():
    import copy

    spec = spec_of("cusp3")
    report = analyze(spec)
    base = report_to_dict(report, spec)
    audit = branch_audit(spec, report, samples=1, seed=0)
    first = audit["branch"][0]

    def tampered(mutate):
        data = copy.deepcopy(base)
        mutate(data)
        return verify_report(report_from_dict(data, spec), spec)

    def with_audit(**fields):
        return lambda d: d.update(fiber_audit={**copy.deepcopy(audit), **fields})

    def recounted(samples):
        # every sample count of the audit written as ``samples``, consistently
        generic = {**audit["generic"], "requested": samples, "equal_r": samples}
        branch = [{**b, "requested": samples, "below_r": samples} for b in audit["branch"]]
        return with_audit(samples=samples, generic=generic, branch=branch)

    assert tampered(with_audit()).ok

    modes = {
        "index bump": lambda d: d["ramification"].__getitem__(0).update(
            e=d["ramification"][0]["e"] + 1
        ),
        "representation scaled": lambda d: d["discriminant"].update(
            D_rep="y1*(" + d["discriminant"]["D_rep"] + ")"
        ),
        "jacobian scaled": lambda d: d.update(jacobian="X*(" + d["jacobian"] + ")"),
        "prime dropped": lambda d: d.update(ramification=d["ramification"][1:]),
        "verdict flipped": lambda d: d.update(well_ramified=False),
        "S_tilde scaled": lambda d: d.update(S_tilde="y1*(" + d["S_tilde"] + ")"),
        "quotient scaled": lambda d: d.update(quotient_DJ="X*(" + d["quotient_DJ"] + ")"),
        "index zero": lambda d: d["ramification"][0].update(e=0),
        "index negative": lambda d: d["ramification"][0].update(e=-1),
        "contraction zero": lambda d: d["ramification"][0].update(contraction="0"),
        "prime constant": lambda d: d["ramification"][0].update(Q="1"),
        "audit vacuous": lambda d: d.update(
            fiber_audit={"generic": {"violations": []}, "branch": [], "all_counts_at_most_r": True}
        ),
        "audit generic not an object": with_audit(generic=[]),
        "audit branch entry not an object": with_audit(branch=[1]),
        "audit branch not a list": with_audit(branch=1),
        "audit generic short": with_audit(
            generic={"requested": 1, "equal_r": 0, "violations": []}
        ),
        "audit branch short": with_audit(
            branch=[{**b, "below_r": 0} for b in audit["branch"]]
        ),
        "audit degree up": with_audit(degree=audit["degree"] + 1),
        "audit degree down": with_audit(degree=audit["degree"] - 1),
        "audit branch entry dropped": with_audit(branch=audit["branch"][1:]),
        "audit branch entry duplicated": with_audit(branch=[first, *audit["branch"]]),
        "audit branch entry renamed": with_audit(
            branch=[{**first, "contraction": "y1"}, *audit["branch"][1:]]
        ),
        "audit branch reordered": with_audit(branch=audit["branch"][::-1]),
        "audit samples a string": recounted("2"),
        "audit samples a bool": recounted(True),
        "audit samples negative": recounted(-1),
        "audit seed a string": with_audit(seed="0"),
        "audit seed a bool": with_audit(seed=False),
    }
    assert len(modes) >= 5
    for name, mutate in modes.items():
        result = tampered(mutate)
        assert not result.ok, name
        if name.startswith("audit"):
            assert result.failures == ("fiber audit",), name
    index_failure = tampered(modes["index bump"])
    assert "jacobian exponents" in index_failure.failures

    _report("criterion 7", f"{len(modes)} tampering modes all rejected")
