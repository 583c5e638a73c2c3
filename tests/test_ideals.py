import random
from fractions import Fraction

import pytest

from vrg import (
    ExtensionSpec,
    Poly,
    VarTable,
    analyze,
    canonical,
    check_finite,
    contract_prime,
    gcd,
    groebner,
    normal_form,
    parse,
    subalgebra_membership,
    tag_table,
)
from vrg.errors import ContractionError
from vrg.fiber import _symbolic_basis, combined_table

from corpus import CORPUS


def test_check_finite_pure_powers(xy11):
    spec = ExtensionSpec(xy11, (parse("X^2", xy11), parse("Y^2", xy11)))
    assert check_finite(spec)


def test_check_finite_rejects_axis(xy11):
    spec = ExtensionSpec(xy11, (parse("X", xy11), parse("X*Y", xy11)))
    assert not check_finite(spec)


def test_check_finite_mixed(mixed_spec):
    assert check_finite(mixed_spec)


def _spec(names, weights, gens):
    vars = VarTable(tuple(names), tuple(weights))
    return ExtensionSpec(vars, tuple(parse(g, vars) for g in gens))


XYZ = ("X", "Y", "Z")
FINITENESS_CASES = [pytest.param(e.spec, True, id=e.name) for e in CORPUS] + [
    pytest.param(
        _spec(("X1", "X2", "X3"), (1, 1, 1), ("X1^2+X2*X3", "X2^2+X1*X3", "X3^2+X1*X2")),
        True,
        id="cyclic-quadrics",
    ),
    pytest.param(
        _spec(XYZ, (1, 2, 3), ("X^2+Y", "Y^3+Z^2", "X^6+X^3*Z+Z^2")),
        True,
        id="mixedw-cross",
    ),
    pytest.param(_spec(XYZ, (1, 1, 1), ("X*Y", "Y*Z", "X*Z")), False, id="axes"),
    pytest.param(
        _spec(XYZ, (1, 1, 1), ("X^2-Y^2", "Y^2-Z^2", "X^2-Z^2")), False, id="lines"
    ),
    pytest.param(
        _spec(("X", "Y"), (2, 3), ("X^3-Y^2", "X^3*Y^2-Y^4")), False, id="curve"
    ),
]


@pytest.mark.parametrize("spec, finite", FINITENESS_CASES)
def test_check_finite_verdicts(spec, finite):
    assert check_finite(spec) is finite


def test_tag_table_weights_and_collision(cusp_spec):
    tags = tag_table(cusp_spec)
    assert tags.names == ("y1", "y2")
    assert tags.weights == (6, 12)
    # a user variable named y1 pushes the tags to the next candidate base
    vars = VarTable(("y1", "y2"), (1, 1))
    spec = ExtensionSpec(vars, (parse("y1+y2", vars), parse("y1*y2", vars)))
    assert tag_table(spec).names == ("t1", "t2")


def test_combined_table_layout(cusp_spec):
    table = combined_table(cusp_spec)
    assert table.names == ("X", "Y", "y1", "y2")
    assert table.weights == (3, 2, 6, 12)


# ---------------------------------------------------------------------------
# subalgebra membership
# ---------------------------------------------------------------------------


def test_membership_of_generator(cusp_spec):
    tags = tag_table(cusp_spec)
    rep = subalgebra_membership(parse("X^2*Y^3", cusp_spec.vars), cusp_spec)
    assert rep == parse("y2", tags)


def test_membership_derived_combination(cusp_spec):
    vars = cusp_spec.vars
    tags = tag_table(cusp_spec)
    f1, f2 = cusp_spec.generators
    # oracle: expand f1^2 - 4 f2 and compare with (X^2 - Y^3)^2 directly
    assert f1 ** 2 - 4 * f2 == parse("(X^2-Y^3)^2", vars)
    rep = subalgebra_membership(parse("(X^2-Y^3)^2", vars), cusp_spec)
    assert rep == parse("y1^2-4*y2", tags)


def test_membership_rejects_non_member(mixed_spec):
    p = parse("X^2*(Y-X^2)^2", mixed_spec.vars)
    assert subalgebra_membership(p, mixed_spec) is None


def test_membership_resubstitution_random(cusp_spec, mixed_spec, sym2_spec):
    rng = random.Random(41)
    for spec in (cusp_spec, mixed_spec, sym2_spec):
        tags = tag_table(spec)
        for _ in range(25):
            g = _random_tag_poly(rng, tags.n)
            p = g.compose(spec.generators)
            rep = subalgebra_membership(p, spec)
            assert rep == g
            assert rep.compose(spec.generators) == p


def _random_tag_poly(rng, n):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exp = tuple(rng.randint(0, 2) for _ in range(n))
        terms[exp] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    poly = Poly(n, terms)
    return poly if not poly.is_zero() else Poly.const(n, 1)


# ---------------------------------------------------------------------------
# contraction of primes
# ---------------------------------------------------------------------------


def test_contract_axis_prime(cusp_spec):
    tags = tag_table(cusp_spec)
    assert contract_prime(parse("X", cusp_spec.vars), cusp_spec) == parse("y2", tags)


def test_contract_cusp_prime(cusp_spec):
    vars = cusp_spec.vars
    tags = tag_table(cusp_spec)
    p = contract_prime(parse("X^2-Y^3", vars), cusp_spec)
    assert p == canonical(parse("y1^2-4*y2", tags), tags)
    # oracle: the pullback must expand to (X^2 - Y^3)^2 exactly
    f1, f2 = cusp_spec.generators
    assert f1 ** 2 - 4 * f2 == parse("(X^2-Y^3)^2", vars)


def test_contract_parabola_prime(mixed_spec):
    vars = mixed_spec.vars
    tags = tag_table(mixed_spec)
    p = contract_prime(parse("Y-X^2", vars), mixed_spec)
    assert p == canonical(parse("y2^2-4*y1", tags), tags)
    # oracle: (X^2 + Y)^2 - 4 X^2 Y = (X^2 - Y)^2
    f1, f2 = mixed_spec.generators
    assert f2 ** 2 - 4 * f1 == parse("(X^2-Y)^2", vars)


def test_contraction_pullback_divisible_by_prime(cusp_spec, mixed_spec):
    for spec in (cusp_spec, mixed_spec):
        for text in ("X", "Y"):
            q = parse(text, spec.vars)
            contraction = contract_prime(q, spec)
            pullback = contraction.compose(spec.generators)
            assert q.divides(pullback)


def test_contract_rejects_constant(cusp_spec):
    with pytest.raises(ValueError):
        contract_prime(parse("3", cusp_spec.vars), cusp_spec)


def test_contract_rejects_inhomogeneous(cusp_spec):
    with pytest.raises(ContractionError):
        contract_prime(parse("X+Y", cusp_spec.vars), cusp_spec)


# ---------------------------------------------------------------------------
# differential check against tag-variable elimination
# ---------------------------------------------------------------------------


def _lift(p, n):
    return Poly(2 * n, {exp + (0,) * n: c for exp, c in p.items()})


def _tag_part(polys, n):
    """The elements free of the original variables, in the tag ring."""
    return [
        Poly(n, {exp[n:]: c for exp, c in g.items()})
        for g in polys
        if not any(any(exp[:n]) for exp, _ in g.items())
    ]


def _oracle_membership(p, spec):
    # lex with the original variables first eliminates them from (y - f)
    nf = normal_form(_lift(p, spec.n), _symbolic_basis(spec))
    tag = _tag_part([nf], spec.n)
    return tag[0] if tag else None


def _oracle_contraction(q, spec):
    n = spec.n
    gens = [_lift(q, n), *_symbolic_basis(spec)]
    gb = groebner(gens, combined_table(spec))
    tags = tag_table(spec)
    members = _tag_part(gb, n)
    g = members[0]
    for m in members[1:]:
        g = gcd(g, m, tags)
    return canonical(g, tags)


@pytest.mark.parametrize(
    "entry", [e for e in CORPUS if e.spec.n <= 3], ids=lambda e: e.name
)
def test_graded_linear_algebra_matches_elimination(entry):
    spec = entry.spec
    report = analyze(spec)
    s_tilde_pullback = report.S_tilde.compose(spec.generators)
    for p in (report.R, s_tilde_pullback, s_tilde_pullback * report.S):
        assert subalgebra_membership(p, spec) == _oracle_membership(p, spec)
    for datum in report.ramification:
        assert contract_prime(datum.prime, spec) == _oracle_contraction(
            datum.prime, spec
        )
