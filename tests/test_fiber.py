import dataclasses
import functools
import random
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vrg import (
    ExtensionSpec,
    VarTable,
    analyze,
    branch_audit,
    fiber_count,
    fiber_points,
    load_spec,
    parse,
    validate,
    verify_report,
)
from vrg.errors import FiberProbeError, NotFiniteError, NotHomogeneousError, TheoremViolationError
from vrg.factor import line_zero
from vrg.groebner import groebner, normal_form
from vrg.ideals import _standard_monomials
from vrg.poly import Poly, _Residue, residue

from corpus import BY_NAME, CORPUS, spec_of

ROOT = Path(__file__).resolve().parent.parent


def test_fiber_sym2_regular_point(sym2_spec):
    # oracle: X+Y = 0, XY = -1 means X is a root of T^2 - 1
    sample = fiber_count(sym2_spec, (Fraction(0), Fraction(-1)))
    assert sample.count == 2
    assert sample.classification == "generic"
    solutions, residual = fiber_points(sym2_spec, (Fraction(0), Fraction(-1)))
    points = {tuple(round(c.real) for c in p) for p in solutions}
    assert points == {(1, -1), (-1, 1)}
    assert residual < 1e-6


def test_fiber_sym2_origin(sym2_spec):
    sample = fiber_count(sym2_spec, (Fraction(0), Fraction(0)))
    assert sample.count == 1
    assert sample.classification == "branch"


def test_fiber_cusp_generic(cusp_spec):
    # oracle: substituting X^2 = u1 - Y^3 into X^2 Y^3 = u2 leaves
    # Y^6 - u1 Y^3 + u2, with six simple roots at a generic point, and
    # each Y gives two X values
    sample = fiber_count(cusp_spec, (Fraction(7, 3), Fraction(5, 4)))
    assert sample.count == 12
    assert sample.classification == "generic"


def test_fiber_respects_branch_annotation(cusp_spec):
    report = analyze(cusp_spec)
    contractions = report.distinct_contractions()
    # u on Z(y2): second coordinate zero
    sample = fiber_count(
        cusp_spec, (Fraction(2), Fraction(0)), contractions=contractions
    )
    assert sample.classification == "branch"
    assert sample.count < 12
    hit = {contractions[i] for i in sample.on_branch_of}
    assert parse("y2", VarTable(("y1", "y2"), (6, 12))) in hit


def test_fiber_complex_base_point(sym2_spec):
    # the point is a + i*b with a = (1/2, -1), b = (1/4, 0); its fiber and
    # the one over the conjugate point are eliminated together over Q
    sample = fiber_count(sym2_spec, (0.5 + 0.25j, complex(-1.0)))
    assert sample.u == (0.5 + 0.25j, Fraction(-1))
    assert sample.count == 2
    assert sample.classification == "generic"
    _, residual = fiber_points(sym2_spec, (0.5 + 0.25j, complex(-1.0)))
    assert residual < 1e-6
    # mpmath coordinates are taken at their exact binary values
    mp_sample = fiber_count(sym2_spec, (mpmath.mpc(0.5, 0.25), mpmath.mpf(-1)))
    assert mp_sample.u == sample.u
    assert mp_sample.count == 2
    decimal = fiber_count(sym2_spec, (0.1, -0.75))
    assert decimal.u == (Fraction(3602879701896397, 2**55), Fraction(-3, 4))
    assert all(type(c) is Fraction for c in decimal.u)


@pytest.mark.parametrize("bad", [float("nan"), complex(1, float("inf")), mpmath.mpf("-inf")])
def test_fiber_rejects_non_finite_components(sym2_spec, bad):
    with pytest.raises(FiberProbeError):
        fiber_count(sym2_spec, (Fraction(1), bad))


def test_fiber_count_in_four_variables():
    # each of A, B, C, D is +-1 over (1, 1, 1, 1)
    vars = VarTable(("A", "B", "C", "D"), (1, 1, 1, 1))
    gens = tuple(parse(f"{name}^2", vars) for name in vars.names)
    spec = ExtensionSpec(vars, gens)
    sample = fiber_count(spec, (Fraction(1),) * 4)
    assert sample.count == 16
    assert sample.classification == "generic"


def test_gaussian_rational_pairs_are_exact(sym2_spec):
    # (p, q) is p + q*i exactly; (1/5+2i/5, -3/100+4i/100) lies on
    # y1^2 - 4*y2, while its nearest binary complex point does not
    contractions = analyze(sym2_spec).distinct_contractions()
    u = ((Fraction(1, 5), Fraction(2, 5)), (Fraction(-3, 100), Fraction(1, 25)))
    sample = fiber_count(sym2_spec, u, contractions=contractions)
    assert (sample.count, sample.classification, sample.on_branch_of) == (1, "branch", (0,))
    binary = fiber_count(sym2_spec, (0.2 + 0.4j, -0.03 + 0.04j), contractions=contractions)
    assert (binary.count, binary.on_branch_of) == (2, ())


def test_fiber_count_validates_the_spec(xy11):
    # finiteness is read off the origin basis of the fiber tables
    nonfinite = ExtensionSpec(xy11, (parse("X", xy11), parse("X*Y", xy11)))
    with pytest.raises(NotFiniteError):
        fiber_count(nonfinite, (Fraction(1), Fraction(2)))
    inhomogeneous = ExtensionSpec(xy11, (parse("X^2+Y", xy11), parse("Y^2", xy11)))
    with pytest.raises(NotHomogeneousError):
        fiber_count(inhomogeneous, (Fraction(1), Fraction(2)))


def test_fiber_wrong_arity(sym2_spec):
    with pytest.raises(FiberProbeError):
        fiber_count(sym2_spec, (Fraction(1),))


@pytest.mark.parametrize("bad", ["1", None, (1, 2, 3), ("1", 0)])
def test_fiber_rejects_components_that_are_not_numbers(sym2_spec, bad):
    with pytest.raises(FiberProbeError, match="is not a number"):
        fiber_count(sym2_spec, (bad, 2))


@pytest.mark.parametrize("samples", [-1, 1.5, "2", True])
def test_branch_audit_rejects_a_bad_sample_count(sym2_spec, samples):
    with pytest.raises(FiberProbeError, match="sample count"):
        branch_audit(sym2_spec, analyze(sym2_spec), samples=samples)


@pytest.mark.parametrize(
    "seed",
    [
        # a branch point's first factor on its line has a root where
        # Durand-Kerner on the whole restricted discriminant did not converge
        698354534,
        # a branch point's last coordinate is -8, the double root of the
        # discriminant at (-6, 12), over which the fiber is one triple root
        1912272584,
    ],
)
def test_branch_audit_decides_every_sym3_sample(seed):
    report = analyze(spec_of("sym3"))
    audit = branch_audit(spec_of("sym3"), report, samples=5, seed=seed)
    assert audit["generic"]["equal_r"] == 5
    (entry,) = audit["branch"]
    assert entry["below_r"] == 5
    assert entry["violations"] == []


def test_branch_audit_sym2(sym2_spec):
    report = analyze(sym2_spec)
    audit = branch_audit(sym2_spec, report, samples=20, seed=1)
    assert audit["degree"] == 2
    assert audit["all_counts_at_most_r"]
    assert audit["generic"]["equal_r"] == 20
    assert audit["generic"]["violations"] == []
    (entry,) = audit["branch"]
    assert entry["below_r"] == 20
    assert entry["violations"] == []


def test_branch_audit_deterministic(sym2_spec):
    report = analyze(sym2_spec)
    first = branch_audit(sym2_spec, report, samples=5, seed=42)
    second = branch_audit(sym2_spec, report, samples=5, seed=42)
    assert first == second
    third = branch_audit(sym2_spec, report, samples=5, seed=43)
    assert third != first


def test_branch_audit_takes_the_degree_from_the_report(mixed_spec):
    # the counts are compared with the report's degree, not with the rank of
    # the fiber tables: a report that claims r + 1 fails every generic sample
    report = analyze(mixed_spec)
    r = report.degree
    claimed = dataclasses.replace(report, degree=r + 1)
    audit = branch_audit(mixed_spec, claimed, samples=3, seed=9)
    assert audit["degree"] == r + 1
    assert audit["generic"]["equal_r"] == 0
    assert [v["count"] for v in audit["generic"]["violations"]] == [r] * 3
    assert all(entry["below_r"] == 3 for entry in audit["branch"])
    assert audit["all_counts_at_most_r"] is True
    # r - 1: every generic count is above the claimed degree
    audit = branch_audit(mixed_spec, dataclasses.replace(report, degree=r - 1), samples=3, seed=9)
    assert audit["generic"]["equal_r"] == 0
    assert audit["all_counts_at_most_r"] is False


def test_branch_audit_mixed(mixed_spec):
    report = analyze(mixed_spec)
    audit = branch_audit(mixed_spec, report, samples=8, seed=5)
    assert audit["generic"]["equal_r"] == 8
    assert all(entry["below_r"] == 8 for entry in audit["branch"])
    assert audit["all_counts_at_most_r"]


def test_branch_audit_without_linear_coordinate(xy11):
    # the contraction y1^2 - 4*y2^3 is nonlinear in every coordinate, but the
    # ramified prime X - Y over it is linear, so its branch points are the
    # rational images f(t, t); the line points over factors of degree 2 or
    # more are covered by test_on_branch_of_is_exact_at_irrational_points
    spec = ExtensionSpec(xy11, (parse("X^3+Y^3", xy11), parse("X*Y", xy11)))
    report = analyze(spec)
    audit = branch_audit(spec, report, samples=6, seed=11)
    assert audit["generic"]["equal_r"] == 6
    (entry,) = audit["branch"]
    assert entry["below_r"] == 6
    assert audit["all_counts_at_most_r"]


def _distinct_rationals(rng, k):
    values = []
    while len(values) < k:
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        if q and q not in values:
            values.append(q)
    return values


def _sym3_at_roots(a, b, c):
    return (a + b + c, a * b + a * c + b * c, a * b * c)


def _cusp_at(s, t):
    # u = (s+t, s*t) is hit exactly where {X^2, Y^3} = {s, t}
    return (s + t, s * t)


ZERO = Fraction(0)

# (corpus spec, base point from a random source, known fiber count)
KNOWN_FIBERS = {
    "sym3-aaa": ("sym3", lambda a, b, c: _sym3_at_roots(a, a, a), 1),
    "sym3-111": ("sym3", lambda a, b, c: (Fraction(3), Fraction(3), Fraction(1)), 1),
    "sym3-aab": ("sym3", lambda a, b, c: _sym3_at_roots(a, a, b), 3),
    "sym3-abc": ("sym3", lambda a, b, c: _sym3_at_roots(a, b, c), 6),
    "sym2-aa": ("sym2", lambda a, b, c: (2 * a, a * a), 1),
    "sym2-ab": ("sym2", lambda a, b, c: (a + b, a * b), 2),
    "powers-00": ("powers23", lambda a, b, c: (ZERO, ZERO), 1),
    "powers-a0": ("powers23", lambda a, b, c: (a, ZERO), 2),
    "powers-0b": ("powers23", lambda a, b, c: (ZERO, b), 3),
    "powers-ab": ("powers23", lambda a, b, c: (a, b), 6),
    "cusp-st": ("cusp3", lambda a, b, c: _cusp_at(a, b), 12),
    "cusp-ss": ("cusp3", lambda a, b, c: _cusp_at(a, a), 6),
    "cusp-s0": ("cusp3", lambda a, b, c: _cusp_at(a, ZERO), 5),
    "cusp-00": ("cusp3", lambda a, b, c: (ZERO, ZERO), 1),
    # generic points on an axis: over (a, 0) one coordinate of each solution
    # is 0, so some basis elements have a leading coefficient vanishing there
    "dihedral3-a0": ("dihedral3", lambda a, b, c: (a, ZERO), 6),
    "dihedral4-m10": ("dihedral4", lambda a, b, c: (Fraction(-1), ZERO), 8),
    "dihedral5-a0": ("dihedral5", lambda a, b, c: (a, ZERO), 10),
    # the only preimage is the origin, a 10-fold root
    "dihedral5-00": ("dihedral5", lambda a, b, c: (ZERO, ZERO), 1),
    # n = 4: sym3 and X4^2 (perfbench/specs, read only)
    "sym3xA1-abcd": ("sym3xA1", lambda a, b, c: _sym3_at_roots(a, b, c) + (a * a,), 12),
    "sym3xA1-aab0": ("sym3xA1", lambda a, b, c: _sym3_at_roots(a, a, b) + (ZERO,), 3),
}


@pytest.mark.parametrize("case", sorted(KNOWN_FIBERS))
def test_exact_fiber_counts_known_answers(case):
    name, base_point, expected = KNOWN_FIBERS[case]
    if name in BY_NAME:
        spec = spec_of(name)
    else:
        spec, _ = load_spec(ROOT / "perfbench" / "specs" / f"{name}.json")
    classification = "generic" if expected == validate(spec) else "branch"
    rng = random.Random(f"known-{case}")
    points = {base_point(*_distinct_rationals(rng, 3)) for _ in range(8)}
    for u in sorted(points):
        sample = fiber_count(spec, u)
        assert (sample.count, sample.classification) == (expected, classification), u


def _gaussian_rationals(rng, k):
    # dyadic parts with small numerators, so that complex arithmetic on them
    # below is exact
    values = []
    while len(values) < k:
        z = complex(rng.randint(-6, 6) / 2, rng.randint(1, 6) / rng.choice((1, 2, 4)))
        if z not in values:
            values.append(z)
    return values


def test_rational_fibers_are_listed_without_root_finding(monkeypatch):
    # every point of these fibers is rational, so each root of the separating
    # polynomial comes from a linear factor, and the listing is exact
    def no_roots(*args, **kwargs):
        raise AssertionError("fiber_points called mpmath.polyroots")

    monkeypatch.setattr(mpmath, "polyroots", no_roots)
    sym3xa1, _ = load_spec(ROOT / "perfbench" / "specs" / "sym3xA1.json")
    cases = [
        # the roots 1, 2, 3 of T^3 - 6T^2 + 11T - 6, and X4 = +-2
        (sym3xa1, (6, 11, 6, 4), 12),
        (spec_of("powers23"), (4, 0), 2),
        (spec_of("powers23"), (0, 0), 1),
    ]
    for spec, u, count in cases:
        u = tuple(map(Fraction, u))
        assert fiber_count(spec, u).count == count
        solutions, residual = fiber_points(spec, u)
        assert len(solutions) == count
        assert residual == 0.0
        assert all(c.imag == 0 and c.real == round(c.real) for x in solutions for c in x)


def _listing_cases():
    for case, (name, base_point, expected) in sorted(KNOWN_FIBERS.items()):
        rng = random.Random(f"listing-{case}")
        yield pytest.param(name, base_point(*_distinct_rationals(rng, 3)), expected, id=case)
    for pattern, expected in (("aab", 3), ("abc", 6)):
        a, b, c = _gaussian_rationals(random.Random(f"listing-{pattern}"), 3)
        u = _sym3_at_roots(a, a, b) if pattern == "aab" else _sym3_at_roots(a, b, c)
        yield pytest.param("sym3", u, expected, id=f"sym3-gaussian-{pattern}")


@pytest.mark.parametrize("name, u, count", list(_listing_cases()))
def test_listing_has_count_distinct_points_over_u(name, u, count):
    if name in BY_NAME:
        spec = spec_of(name)
    else:
        spec, _ = load_spec(ROOT / "perfbench" / "specs" / f"{name}.json")
    assert fiber_count(spec, u).count == count
    solutions, residual = fiber_points(spec, u)
    assert len(solutions) == count
    for i, x in enumerate(solutions):
        for y in solutions[:i]:
            assert max(abs(p - q) for p, q in zip(x, y)) > 1e-6, (x, y)
    # the largest |f(x) - u| over the points, from 50-digit values
    assert residual < 1e-30


@pytest.mark.parametrize("path", sorted((ROOT / "specs").glob("*.json")), ids=lambda p: p.stem)
def test_the_fiber_over_the_conjugate_point_is_the_conjugate_fiber(path):
    # the generators have rational coefficients, so x is over u exactly when
    # its conjugate is over the conjugate of u: the same count and residual,
    # and the conjugate points, compared at the 6 digits vrg fiber prints
    spec, _ = load_spec(path)
    u = (1 + 2j, 2 - 1j, 3 - 2j)[: spec.n]
    conjugate = tuple(z.conjugate() for z in u)

    def printed(solutions):
        return sorted(
            tuple((round(c.real, 6) + 0.0, round(c.imag, 6) + 0.0) for c in x) for x in solutions
        )

    assert fiber_count(spec, u).count == fiber_count(spec, conjugate).count
    solutions, residual = fiber_points(spec, u)
    conjugate_solutions, conjugate_residual = fiber_points(spec, conjugate)
    assert len(solutions) == fiber_count(spec, u).count
    assert conjugate_residual == residual
    assert printed(conjugate_solutions) == printed(
        [tuple(c.conjugate() for c in x) for x in solutions]
    )


def _miscount_listings(monkeypatch, off: int) -> list:
    """Mutation: the listing is told ``off`` more points than the rank
    found.  Returns the list of separating forms tried, which fails the
    test instead of hanging once it passes 10000."""
    import vrg.fiber as fiber_mod

    real_points, real_part = fiber_mod._rur_points, fiber_mod.squarefree_part
    tried = []

    def counted(chi):
        tried.append(chi)
        if len(tried) > 10_000:
            raise AssertionError("the search for a separating form does not stop")
        return real_part(chi)

    monkeypatch.setattr(fiber_mod, "_rur_points", lambda *a: real_points(*a[:-1], a[-1] + off))
    monkeypatch.setattr(fiber_mod, "squarefree_part", counted)
    return tried


@pytest.mark.parametrize(
    "name, u",
    [
        ("sym2", (0, -1)),
        ("cusp3", (1, 2)),
        ("dihedral4", (1, 2)),
        ("mixed2", (2, 3)),
        ("sym3", (1, 2, 3)),  # n = 3
    ],
)
def test_a_miscounted_listing_stops_after_the_bound(name, u, monkeypatch):
    # no form L separates more points than there are, and at most
    # (n-1)*N(N-1)/2 values of c fail to separate N points
    if name in BY_NAME:
        spec = spec_of(name)
    else:
        spec, _ = load_spec(ROOT / "perfbench" / "specs" / f"{name}.json")
    distinct = fiber_count(spec, u).count + 1
    tried = _miscount_listings(monkeypatch, 1)
    with pytest.raises(TheoremViolationError, match=f"fiber listing: .* rank {distinct} "):
        fiber_points(spec, u)
    assert len(tried) == (spec.n - 1) * distinct * (distinct - 1) // 2 + 1


# ---------------------------------------------------------------------------
# base points off Q^n
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("pattern, expected", [("aab", 3), ("abc", 6)])
def test_sym3_counts_at_gaussian_rational_points(pattern, expected):
    spec = spec_of("sym3")
    (discriminant,) = analyze(spec).distinct_contractions()
    rng = random.Random(f"gaussian-{pattern}")
    for _ in range(4):
        a, b, c = _gaussian_rationals(rng, 3)
        u = _sym3_at_roots(a, a, b) if pattern == "aab" else _sym3_at_roots(a, b, c)
        sample = fiber_count(spec, u, contractions=(discriminant,))
        assert sample.u == u
        assert sample.count == expected, u
        assert sample.on_branch_of == ((0,) if pattern == "aab" else ()), u


def test_on_branch_of_is_exact_at_irrational_points():
    import vrg.fiber as fiber_mod

    spec = spec_of("sym3")
    (discriminant,) = analyze(spec).distinct_contractions()
    # a real point of the discriminant with irrational coordinates: the image
    # of the zero (alpha, alpha, 1) of X1 - X2, alpha^2 = 2
    alpha = residue([-2, 0, 1])
    point = tuple(f.evaluate((alpha, alpha, 1)) for f in spec.generators)
    assert len(fiber_mod._modulus(point)) - 1 == 2 and isinstance(point[0], _Residue)
    assert fiber_mod._vanishes_at(discriminant, point)
    assert fiber_mod._count(point, fiber_mod._tables(spec)) == 3
    # a Gaussian-rational point 2^-40 off the discriminant is not on it
    u = _sym3_at_roots(1 + 1j, 1 + 1j, 2 - 1j)
    off = (u[0], u[1], u[2] + 2.0**-40)
    assert fiber_count(spec, u, contractions=(discriminant,)).on_branch_of == (0,)
    assert fiber_count(spec, off, contractions=(discriminant,)).on_branch_of == ()


def test_branch_audit_dihedral5_decides_every_sample():
    # the contraction y1^2 - 4*y2^5 is nonlinear in both tags; its branch
    # points are the images of the zeros of the ramified prime X - Y
    spec = spec_of("dihedral5")
    audit = branch_audit(spec, analyze(spec), samples=4, seed=0)
    assert audit["generic"]["equal_r"] == 4
    (entry,) = audit["branch"]
    assert entry["below_r"] == 4
    assert audit["all_counts_at_most_r"]


def test_fiber_workload_outputs_are_correct(monkeypatch):
    # what perfbench/worker.py checks of each fiber request, on its specs
    # and sample counts, at one seed; the audit counts exactly, so it never
    # finds a root, and analyze, the audit and verify_report build one
    # Groebner basis per spec between them, the spec's lex basis
    import vrg.extension as extension_mod

    def no_roots(*args, **kwargs):
        raise AssertionError("branch_audit called mpmath.polyroots")

    monkeypatch.setattr(mpmath, "polyroots", no_roots)
    bases = []
    real = extension_mod.groebner
    monkeypatch.setattr(extension_mod, "groebner", lambda *args: bases.append(args) or real(*args))
    workload = {"sym2": 10, "mixed": 10, "powers": 10, "cusp": 5, "sym3": 5}
    for name, samples in workload.items():
        spec, _ = load_spec(ROOT / "perfbench" / "specs" / f"{name}.json")
        bases.clear()
        report = analyze(spec)
        audit = branch_audit(spec, report, samples=samples, seed=1515)
        assert audit["generic"]["equal_r"] == samples, name
        assert all(entry["below_r"] == samples for entry in audit["branch"]), name
        assert audit["all_counts_at_most_r"], name
        assert verify_report(report.with_audit(audit), spec).ok, name
        assert len(bases) == 1, name


@pytest.mark.parametrize("name", ["B3", "D3"])
def test_branch_audit_reach_specs_known_answers(name):
    # generic fibers have r points and branch fibers fewer; r is 48 and 24
    spec, _ = load_spec(ROOT / "perfbench" / "specs" / f"{name}.json")
    report = analyze(spec)
    audit = branch_audit(spec, report, samples=2, seed=7)
    assert audit["generic"]["equal_r"] == 2
    assert audit["branch"] and all(entry["below_r"] == 2 for entry in audit["branch"])
    assert audit["all_counts_at_most_r"]
    assert verify_report(report.with_audit(audit), spec).ok


# ---------------------------------------------------------------------------
# branch points as images of ramified points; generic counts certified mod p
# ---------------------------------------------------------------------------


def test_branch_points_are_rational_images_of_linear_ramified_primes():
    import vrg.fiber as fiber_mod

    cases = 0
    for entry in CORPUS:
        spec, r = entry.spec, entry.degree
        report = analyze(spec)
        tables = fiber_mod._tables(spec)
        for p in report.distinct_contractions():
            primes = [d.prime for d in report.ramification if d.contraction == p]
            if not any(q.degree_in(k) == 1 for q in primes for k in range(spec.n)):
                continue
            cases += 1
            rng = random.Random(f"image-{entry.name}")
            for _ in range(4):
                point = fiber_mod._branch_point(spec, report, p, rng)
                assert fiber_mod._modulus(point) == [0, 1], entry.name
                assert fiber_mod._vanishes_at(p, point), entry.name
                assert fiber_mod._count(point, tables) < r, entry.name
    assert cases >= 12


def test_branch_points_without_a_linear_prime_lie_on_a_line(cusp_spec, monkeypatch):
    # cusp's y1^2 - 4*y2 has only X^2 - Y^3 over it, nonlinear in X and Y:
    # its zero x0 = (alpha, c) on the line Y = c, alpha^2 = c^3, has the
    # rational image (2c^3, c^6)
    import vrg.fiber as fiber_mod

    report = analyze(cusp_spec)
    on_lines, points = [], []
    real_zero, real_point = fiber_mod.line_zero, fiber_mod._branch_point
    monkeypatch.setattr(
        fiber_mod,
        "line_zero",
        lambda q, draw: on_lines.append((q, zero := real_zero(q, draw))) or zero,
    )
    monkeypatch.setattr(
        fiber_mod, "_branch_point", lambda *args: points.append(point := real_point(*args)) or point
    )
    audit = branch_audit(cusp_spec, report, samples=3, seed=2)
    assert all(entry["below_r"] == 3 for entry in audit["branch"])
    nonlinear = [
        (q, zero, point)
        for (q, zero), point in zip(on_lines, points)
        if all(q.degree_in(k) != 1 for k in range(q.n))
    ]
    assert {fiber_mod.format_poly(q, cusp_spec.vars) for q, _, _ in nonlinear} == {"X^2 - Y^3"}
    assert len(nonlinear) == 3
    tags = fiber_mod.tag_table(cusp_spec)
    for q, x0, point in nonlinear:
        contraction = next(d.contraction for d in report.ramification if d.prime == q)
        assert fiber_mod.format_poly(contraction, tags) == "y1^2 - 4*y2"
        c = x0[1]
        assert _m(x0) == Poly(1, {(2,): 1, (0,): -(c**3)})
        assert fiber_mod._modulus(point) == [0, 1]
        assert fiber_mod._complex(point) == (2 * c**3, c**6)
        assert fiber_mod._vanishes_at(contraction, point)


def test_branch_point_off_its_contraction_is_a_theorem_violation(sym2_spec):
    # X - Y lies over y1^2 - 4*y2, not over y2: a report that says otherwise
    # draws the image of a zero of X - Y, which is off Z(y2)
    report = analyze(sym2_spec)
    (datum,) = report.ramification
    wrong = dataclasses.replace(datum, contraction=Poly(2, {(0, 1): 1}))
    claimed = dataclasses.replace(report, ramification=(wrong,))
    with pytest.raises(TheoremViolationError, match="off that branch hypersurface"):
        branch_audit(sym2_spec, claimed, samples=2, seed=0)


@pytest.mark.parametrize("entry", CORPUS, ids=lambda entry: entry.name)
def test_certificate_agrees_with_the_exact_count(entry):
    # full rank mod p at a rational point exactly when the exact count is
    # len(basis): at generic points, and never at points of the branch locus;
    # dihedral4's images of X^2 + Y^2 are over Q(i), so that class takes a
    # rational zero of its contraction y1 + 2*y2^2 instead
    import vrg.fiber as fiber_mod

    spec = entry.spec
    report = analyze(spec)
    contractions = report.distinct_contractions()
    tables = fiber_mod._tables(spec)
    modular = fiber_mod._form_mod_p(tables)
    assert modular is not None
    irrational = set()
    for seed in range(4):
        rng = random.Random(seed)
        points = [fiber_mod._generic_point(spec, contractions, rng) for _ in range(5)]
        for p in contractions:
            point = fiber_mod._branch_point(spec, report, p, rng)
            if fiber_mod._modulus(point) != [0, 1]:
                irrational.add(fiber_mod.format_poly(p, fiber_mod.tag_table(spec)))
                point = line_zero(p, lambda: fiber_mod._random_rational(rng))
                assert fiber_mod._modulus(point) == [0, 1] and not p.evaluate(point)
            points.append(point)
        for u in points:
            exact = fiber_mod._count(u, tables)
            assert fiber_mod._full_rank_mod_p(u, modular) == (exact == len(tables[0])), u
    assert irrational == ({"y1 + 2*y2^2"} if entry.name == "dihedral4" else set())


def test_audit_without_the_certificate_is_identical(monkeypatch):
    # a short rank mod p sends every generic sample to the exact count
    import vrg.fiber as fiber_mod

    cases = [(entry.spec, seed) for entry in CORPUS for seed in (0, 1)]
    certified = [branch_audit(spec, analyze(spec), samples=4, seed=seed) for spec, seed in cases]
    monkeypatch.setattr(fiber_mod, "_full_rank_mod_p", lambda u, modular: False)
    exact = [branch_audit(spec, analyze(spec), samples=4, seed=seed) for spec, seed in cases]
    assert repr(certified) == repr(exact)


def test_a_denominator_divisible_by_p_falls_back_to_the_exact_count(xy11, monkeypatch):
    import vrg.fiber as fiber_mod

    p = fiber_mod._P
    with pytest.raises(ValueError):
        fiber_mod._mod_p(Fraction(3, 2 * p))
    assert fiber_mod._mod_p(Fraction(3, 2)) == 3 * (p + 1) // 2 % p
    sym2 = ExtensionSpec(xy11, (parse("X+Y", xy11), parse("X*Y", xy11)))
    modular = fiber_mod._form_mod_p(fiber_mod._tables(sym2))
    assert fiber_mod._full_rank_mod_p((Fraction(1), Fraction(-1)), modular)
    assert not fiber_mod._full_rank_mod_p((Fraction(1, p), Fraction(-1)), modular)
    # Y^2 = f1*Y - f2/p, so Tr(Y^2) = y1^2 - 2*y2/p: a coefficient of the
    # form with p in its denominator
    spec = ExtensionSpec(xy11, (parse("X+Y", xy11), parse(f"{p}*X*Y", xy11)))
    tables = fiber_mod._tables(spec)
    assert tables.form[(0, 2)] == Poly(2, {(2, 0): 1, (0, 1): Fraction(-2, p)})
    assert fiber_mod._form_mod_p(tables) is None
    report = analyze(spec)
    audit = branch_audit(spec, report, samples=5, seed=3)
    assert audit["generic"]["equal_r"] == 5
    monkeypatch.setattr(fiber_mod, "_full_rank_mod_p", lambda u, modular: False)
    assert branch_audit(spec, report, samples=5, seed=3) == audit


@pytest.mark.parametrize("entry", CORPUS, ids=lambda entry: entry.name)
def test_trace_form_over_a_specializes_to_the_pointwise_traces(entry):
    # the form over A, evaluated at a point, equals the traces of the normal
    # forms over that point; Tr(1) = r, and each entry Tr(x^g) is
    # weighted-homogeneous of tag degree wdeg(g), as the tables are graded
    import vrg.fiber as fiber_mod
    from vrg.ideals import tag_table
    from vrg.poly import weighted_degree

    spec, r = entry.spec, entry.degree
    tables = fiber_mod._tables(spec)
    tags = tag_table(spec)
    assert tables.form[(0,) * spec.n] == Poly.const(spec.n, r)
    for g, p in tables.form.items():
        if p:
            wd = weighted_degree(p, tags)
            assert (wd.degree, wd.homogeneous) == (spec.vars.wdeg(g), True), g
    rng = random.Random(f"form-{entry.name}")
    draw = lambda: fiber_mod._random_rational(rng)
    points = [tuple(draw() for _ in range(spec.n)) for _ in range(3)]
    points.append(fiber_mod._exact_point(tuple((draw(), draw()) for _ in range(spec.n))))
    assert fiber_mod._modulus(points[-1]) == [1, 0, 1]
    for y in points:
        size = len(fiber_mod._modulus(y)) - 1
        nf = fiber_mod._normal_forms(tables.basis, tables.border, y)
        trace = [sum(nf(g).get(l, 0) for l, g in enumerate(row)) for row in tables.products]

        def value(x):
            c = fiber_mod._coefficients(x)
            return tuple(c) + (0,) * (size - len(c))

        for g, p in tables.form.items():
            assert value(p.evaluate(y)) == value(fiber_mod._trace(nf(g), trace)), (y, g)


@pytest.mark.parametrize("entry", CORPUS, ids=lambda entry: entry.name)
def test_algebra_at_the_integer_point_gives_the_traces_and_rank_at_y(entry):
    # _algebra evaluates the form at a = (c^(w_i)*y_i), c the lcm of the
    # denominators in y; its traces and rank are those at y itself, from
    # the normal forms over y, at rational points with large denominators
    # and at a Gaussian one
    import vrg.fiber as fiber_mod
    from vrg.ideals import _eliminate

    spec = entry.spec
    tables = fiber_mod._tables(spec)
    rng = random.Random(f"denominators-{entry.name}")
    big = lambda: Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**5))
    points = [tuple(big() for _ in range(spec.n)) for _ in range(2)]
    points.append(fiber_mod._exact_point(tuple((big(), big()) for _ in range(spec.n))))
    assert fiber_mod._modulus(points[-1]) == [1, 0, 1]
    for point in points:
        size = len(fiber_mod._modulus(point)) - 1
        sums = fiber_mod._power_sums(fiber_mod._modulus(point), 3 * size - 2)
        nf = fiber_mod._normal_forms(tables.basis, tables.border, point)
        trace = [sum(nf(g).get(l, 0) for l, g in enumerate(row)) for row in tables.products]

        def to_q(x, t):  # the trace to Q of alpha^t*x
            return sum(v * sums[t + e] for e, v in enumerate(fiber_mod._coefficients(x)))

        traces, rank = fiber_mod._algebra(point, tables)
        assert traces == [to_q(x, t) for x in trace for t in range(size)], point
        form = (
            {
                (l, u): v
                for l, g in enumerate(row)
                for u in range(size)
                if (v := to_q(fiber_mod._trace(nf(g), trace), t + u))
            }
            for row in tables.products
            for t in range(size)
        )
        assert rank == len(_eliminate((row, {}) for row in form)[0]), point


@pytest.mark.parametrize("entry", CORPUS, ids=lambda entry: entry.name)
def test_counts_are_invariant_under_the_weighted_scaling(entry):
    # f_i(lambda^v*x) = lambda^(w_i)*f_i(x) for the variable weights v and
    # the generator weights w, so x -> lambda^v*x maps the fiber over u onto
    # the fiber over (lambda^(w_i)*u_i): the counts agree, at generic and
    # at branch points
    import vrg.fiber as fiber_mod
    from vrg.ideals import tag_table

    spec = entry.spec
    weights = tag_table(spec).weights
    report = analyze(spec)
    contractions = report.distinct_contractions()
    tables = fiber_mod._tables(spec)
    rng = random.Random(f"scaling-{entry.name}")
    points = [fiber_mod._generic_point(spec, contractions, rng) for _ in range(2)]
    points += [fiber_mod._branch_point(spec, report, p, rng) for p in contractions for _ in range(2)]
    branch = 0
    for point in points:
        count = fiber_mod._count(point, tables)
        branch += count < entry.degree
        for scale in (2, Fraction(-1, 3), Fraction(5, 7)):
            y = tuple(x * scale**w for x, w in zip(point, weights))
            if fiber_mod._modulus(point) == [0, 1]:
                assert fiber_count(spec, point).count == count
                assert fiber_count(spec, y).count == count, (point, scale)
            else:
                assert fiber_mod._count(y, tables) == count
    assert branch == 2 * len(contractions)


@pytest.mark.parametrize("name", ["cusp3", "sym3", "dihedral5"])
def test_branch_audit_builds_the_normal_forms_once(name, monkeypatch):
    # the form over A is the only normal-form recursion of an audit: each
    # sample, generic or branch, evaluates the form instead; a fresh copy of
    # the spec has no tables yet
    import vrg.fiber as fiber_mod

    spec = dataclasses.replace(spec_of(name))
    report = analyze(spec)
    calls = []
    real = fiber_mod._normal_forms
    monkeypatch.setattr(
        fiber_mod, "_normal_forms", lambda *args: calls.append(args[2]) or real(*args)
    )
    audit = branch_audit(spec, report, samples=3, seed=4)
    assert audit["generic"]["equal_r"] == 3
    assert all(entry["below_r"] == 3 for entry in audit["branch"])
    assert calls == [[Poly.variable(spec.n, j) for j in range(spec.n)]]


def test_a_second_count_on_one_spec_builds_no_tables(monkeypatch):
    # the tables are kept on the spec, as its lex basis is: fiber_count and
    # fiber_points on the same spec build them once between them
    import vrg.fiber as fiber_mod

    spec = dataclasses.replace(spec_of("dihedral4"))
    calls = []
    real = fiber_mod._tables
    monkeypatch.setattr(fiber_mod, "_tables", lambda spec: calls.append(spec) or real(spec))
    assert fiber_count(spec, (1, 2)).count == 8
    assert fiber_count(spec, (3, -1)).count == 8
    assert fiber_points(spec, (1, 2)) is not None
    assert calls == [spec]
    assert fiber_count(dataclasses.replace(spec), (1, 2)).count == 8
    assert len(calls) == 2


def test_audits_in_one_process_match_fresh_processes():
    # nothing of one spec's tables carries over to the next audit
    import json
    import os
    import subprocess
    import sys

    names = ["sym3", "dihedral4", "mixed2"]
    in_process = {}
    for name in names + names[::-1]:
        in_process.setdefault(name, []).append(
            branch_audit(spec_of(name), analyze(spec_of(name)), samples=4, seed=5)
        )
    script = (
        "import json, sys; from corpus import spec_of; from vrg import analyze, branch_audit;"
        " name = sys.argv[1];"
        " print(json.dumps(branch_audit(spec_of(name), analyze(spec_of(name)), samples=4, seed=5)))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])}
    for name in names:
        command = [sys.executable, "-c", script, name]
        fresh = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
        for audit in in_process[name]:
            assert json.dumps(audit) == fresh.stdout.strip(), name


# ---------------------------------------------------------------------------
# the per-point lex basis, as an oracle for the specialized tables
# ---------------------------------------------------------------------------


def _in_s(x, n):
    """An element of Q[s]/(m), a rational or a residue, as a polynomial in
    the last of n variables, s."""
    c = x.c if isinstance(x, _Residue) else (x,)
    return Poly(n, {(0,) * (n - 1) + (e,): v for e, v in enumerate(c)})


def _m(point):
    """The m of a point, as a polynomial in s."""
    import vrg.fiber as fiber_mod

    return Poly(1, {(e,): c for e, c in enumerate(fiber_mod._modulus(point))})


def _basis(spec, point):
    """Reduced lex basis of the fibers over y(alpha) for all roots alpha of
    m: the ideal of ``f_j(x) - y_j(s)`` and ``m(s)`` in the n + 1 variables
    x, s, whose standard monomials span ``B (x)_A Q[s]/(m)``."""
    n = spec.n + 1
    vars = VarTable(spec.vars.names + ("s",), spec.vars.weights + (1,))
    lift = lambda f: Poly(n, {e + (0,): c for e, c in f.items()})
    gens = [lift(f) - _in_s(y, n) for f, y in zip(spec.generators, point)]
    gens.append(Poly(n, {(0,) * spec.n + e: c for e, c in _m(point).items()}))
    return groebner(gens, vars)


def _rank(matrix):
    rows = [list(row) for row in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            c = Fraction(rows[i][col]) / rows[rank][col]
            rows[i] = [x - c * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _oracle_count(spec, point):
    """The Hermite rank on the standard monomials of the lex basis over the
    point, over deg m."""
    gb = _basis(spec, point)
    monomials = _standard_monomials(gb, spec.n + 1)

    def nf(e):
        return normal_form(Poly(spec.n + 1, {e: 1}), gb)

    def add(e, f):
        return tuple(x + y for x, y in zip(e, f))

    trace = [sum(nf(add(b, c)).coefficient(c) for c in monomials) for b in monomials]
    form = [
        [sum(v * trace[monomials.index(e)] for e, v in nf(add(b, c)).items()) for c in monomials]
        for b in monomials
    ]
    return _rank(form) // _m(point).degree_in(0)


SMALL_SPECS = [entry.name for entry in CORPUS if entry.spec.n <= 3]
_small = st.fractions(min_value=-6, max_value=6, max_denominator=4)


# the small specs with a ramified prime or a contraction of degree at least
# 2 in every variable: the Phi factors of dihedral3 and dihedral5, X^2 + Y^2
# of dihedral4, and the discriminants of dihedral3, dihedral5 and sym3
NONLINEAR_SPECS = ["dihedral3", "dihedral4", "dihedral5", "sym3"]


def _nonlinear(p):
    return all(p.degree_in(k) != 1 for k in range(p.n))


@functools.lru_cache(maxsize=None)
def _nonlinear_polys(name):
    """The nonlinear ramified primes, each with True, and the nonlinear
    contractions, each with False."""
    report = analyze(spec_of(name))
    primes = [(d.prime, True) for d in report.ramification if _nonlinear(d.prime)]
    return primes + [(p, False) for p in report.distinct_contractions() if _nonlinear(p)]


def _line_point(spec, q, image, rng):
    """The point from line_zero on q: the image ``f(x0)`` of its zero x0 when
    q is a ramified prime (image true), else x0 itself, on a contraction."""
    import vrg.fiber as fiber_mod

    x0 = line_zero(q, lambda: fiber_mod._random_rational(rng))
    return tuple(f.evaluate(x0) for f in spec.generators) if image else x0


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    name=st.sampled_from(SMALL_SPECS),
    real=st.lists(_small, min_size=3, max_size=3),
    imag=st.lists(_small, min_size=3, max_size=3),
)
def test_fiber_algebras_are_flat(name, real, imag):
    # B is free of rank r over A: over any base point, rational or
    # Gaussian-rational, the lex basis of the fiber has r*deg m standard
    # monomials, and there are at most r distinct points over each root of m
    import vrg.fiber as fiber_mod

    spec = spec_of(name)
    r = BY_NAME[name].degree
    point = fiber_mod._exact_point(tuple(zip(real, imag))[: spec.n])
    degree = _m(point).degree_in(0)
    gb = _basis(spec, point)
    assert len(_standard_monomials(gb, spec.n + 1)) == r * degree
    assert 1 <= fiber_mod._count(point, fiber_mod._tables(spec)) <= r


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(("rational", "gaussian", "hypersurface")),
    data=st.data(),
    real=st.lists(_small, min_size=3, max_size=3),
    imag=st.lists(_small, min_size=3, max_size=3),
    seed=st.integers(0, 2**32),
)
def test_specialized_tables_count_as_the_lex_basis_oracle(kind, data, real, imag, seed):
    # the count from the tables specialized at the point equals the Hermite
    # rank on the standard monomials of the point's own lex basis
    import vrg.fiber as fiber_mod

    name = data.draw(st.sampled_from(NONLINEAR_SPECS if kind == "hypersurface" else SMALL_SPECS))
    spec = spec_of(name)
    if kind == "hypersurface":
        # a point over an irreducible factor m of degree 2 or more
        polys = _nonlinear_polys(name)
        assert polys
        rng = random.Random(seed)
        q, image = polys[seed % len(polys)]
        for _ in range(20):
            point = _line_point(spec, q, image, rng)
            if _m(point).degree_in(0) >= 2:
                break
        assume(_m(point).degree_in(0) >= 2)
    else:
        parts = zip(real, imag) if kind == "gaussian" else real
        point = fiber_mod._exact_point(tuple(parts)[: spec.n])
    count = fiber_mod._count(point, fiber_mod._tables(spec))
    assert count == _oracle_count(spec, point)


# ---------------------------------------------------------------------------
# vanishing at a point, against division on its line
# ---------------------------------------------------------------------------


def _vanishes_by_division(p, point):
    """Whether m divides ``p(y(s))``, y's coordinates lifted to polynomials
    in s: the definition that evaluation in ``Q[s]/(m)`` replaces."""
    return _m(point).divides(p.compose([_in_s(y, 1) for y in point]))


@pytest.mark.parametrize("name", NONLINEAR_SPECS)
def test_vanishing_agrees_with_division_on_hypersurface_points(name):
    import vrg.fiber as fiber_mod

    spec = spec_of(name)
    contractions = analyze(spec).distinct_contractions()
    rng = random.Random(f"vanishes-{name}")
    polys = _nonlinear_polys(name)
    points = [_line_point(spec, q, image, rng) for q, image in polys for _ in range(8)]
    assert any(_m(point).degree_in(0) >= 2 for point in points)
    for point in points:
        assert any(fiber_mod._vanishes_at(q, point) for q in contractions)
        for q in contractions:
            assert fiber_mod._vanishes_at(q, point) == _vanishes_by_division(q, point)


def test_vanishing_agrees_with_division_at_gaussian_points():
    import vrg.fiber as fiber_mod

    (discriminant,) = analyze(spec_of("sym3")).distinct_contractions()
    rng = random.Random("vanishes-gaussian")
    for _ in range(8):
        a, b, c = _gaussian_rationals(rng, 3)
        on = _sym3_at_roots(a, a, b)
        cases = [(on, True), (_sym3_at_roots(a, b, c), False), (on[:2] + (on[2] + 2.0**-40,), False)]
        for u, expected in cases:
            point = fiber_mod._exact_point(u)
            assert _m(point).degree_in(0) == 2
            assert fiber_mod._vanishes_at(discriminant, point) is expected
            assert _vanishes_by_division(discriminant, point) is expected
