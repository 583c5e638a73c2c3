import json
import math
import random
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vrg import (
    ExtensionSpec,
    Poly,
    VarTable,
    analyze,
    canonical,
    canonicalize,
    check_finite,
    contract_prime,
    degree,
    factor,
    gcd,
    groebner,
    jacobian,
    normal_form,
    parse,
    subalgebra_membership,
    tag_table,
    weighted_degree,
)
from vrg import ideals
from vrg.errors import ContractionError
from vrg.poly import content
from vrg.reportio import load_spec

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


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
def test_standard_monomials_at_the_origin_number_the_degree(entry):
    # B is free of rank r over A, so the fiber over the origin, Q[X]/(f),
    # has dimension r = prod(deg f_i) / prod(wt X_j)
    spec = entry.spec
    gb = groebner(spec.generators, spec.vars)
    assert len(ideals._standard_monomials(gb, spec.n)) == degree(spec) == entry.degree


# ---------------------------------------------------------------------------
# the shared eliminator
# ---------------------------------------------------------------------------

_value = st.one_of(
    st.integers(-5, 5), st.fractions(min_value=-5, max_value=5, max_denominator=6)
)


@st.composite
def _matrix_of_rank(draw):
    """Rows over 6 columns spanning a space of a known rank k: k rows in
    triangular form with nonzero diagonal and rational combinations of
    them, shuffled."""
    size = 6
    k = draw(st.integers(0, size))
    basis = []
    for i in range(k):
        row = [0] * i + [draw(_value.filter(bool))]
        basis.append(row + [draw(_value) for _ in range(size - i - 1)])
    rows = list(basis)
    for _ in range(draw(st.integers(0, 4)) if k else 0):
        weights = [draw(_value) for _ in basis]
        rows.append([sum(w * row[j] for w, row in zip(weights, basis)) for j in range(size)])
    return k, draw(st.permutations(rows))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=_matrix_of_rank())
def test_eliminator_finds_the_rank(case):
    k, rows = case
    sparse = [{j: v for j, v in enumerate(row) if v} for row in rows]
    pivots, kernel = ideals._eliminate((row, {}) for row in sparse)
    assert len(pivots) == k
    assert len(kernel) == len(rows) - k


_entry = st.one_of(
    st.integers(-(10**12), 10**12),
    st.fractions(max_denominator=10**6).map(lambda v: v * 7**5),
)


@st.composite
def _sparse_rows(draw):
    """Sparse rows with int and Fraction entries, some of them rational
    combinations of the rows before them, so that kernels occur."""
    rows = []
    for _ in range(draw(st.integers(0, 9))):
        if rows and draw(st.booleans()):
            row: dict = {}
            for other in draw(st.lists(st.sampled_from(rows), max_size=3)):
                c = draw(_entry)
                for j, v in other.items():
                    row[j] = row.get(j, 0) + c * v
            rows.append({j: v for j, v in row.items() if v})
        else:
            rows.append(draw(st.dictionaries(st.integers(0, 7), _entry.filter(bool), max_size=5)))
    return rows


def _combination(tag: dict, rows: list) -> dict:
    """``sum_i tag[i]*rows[i]``, with its zero entries dropped."""
    out: dict = {}
    for i, c in tag.items():
        for j, v in rows[i].items():
            out[j] = out.get(j, 0) + c * v
    return {j: v for j, v in out.items() if v}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_sparse_rows())
def test_eliminator_keeps_integer_pairs_that_combine_the_input_rows(rows):
    # each row i enters with the tag {i: 1}: a pivot's tag combines the
    # input rows to the pivot row, and a kernel tag combines them to zero
    pivots, kernel = ideals._eliminate((dict(row), {i: 1}) for i, row in enumerate(rows))
    assert len(pivots) + len(kernel) == len(rows)
    for lead, (row, tag) in pivots.items():
        assert row and max(row) == lead
        assert _combination(tag, rows) == row
        assert all(type(v) is int for v in (*row.values(), *tag.values()))
    for tag in kernel:
        assert tag and _combination(tag, rows) == {}
        assert all(type(v) is int for v in tag.values())


_MERSENNE = 2**61 - 1


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=_matrix_of_rank())
def test_eliminator_mod_p_finds_the_rank(case):
    # the rows, scaled to integers, are reduced mod p = 2^61 - 1; p divides
    # no nonzero minor of these small rows, so the rank mod p is the rank over Q
    k, rows = case
    scaled = []
    for row in rows:
        den = math.lcm(*(Fraction(v).denominator for v in row))
        scaled.append({j: int(v * den) % _MERSENNE for j, v in enumerate(row) if v})
    pivots = ideals._eliminate_mod(scaled, _MERSENNE)
    assert len(pivots) == k
    assert all(row[lead] == 1 for lead, row in pivots.items())


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


def test_contraction_error_names_the_prime(cusp_spec):
    # weighted degree 3 and r = 12: the kernel is searched up to degree 36
    with pytest.raises(ContractionError, match=r"of X \+ Y .* degree 36$"):
        contract_prime(parse("X+Y", cusp_spec.vars), cusp_spec)


@pytest.mark.parametrize("name", ["D3", "B3"])
def test_contraction_scans_only_degrees_dividing_the_norm(name, monkeypatch):
    # N(q) = P~^f has degree r * deg q, so no other degree can hold P~;
    # perfbench/ is only read here
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    spec, _ = load_spec(bench / "specs" / f"{name}.json")
    reference = json.loads((bench / "reference" / "algebra" / f"{name}.json").read_text())
    scanned = []
    real = ideals._graded_piece

    def recording(image, weights, d):
        scanned.append(d)
        return real(image, weights, d)

    monkeypatch.setattr(ideals, "_graded_piece", recording)
    for entry in reference["ramification"]:
        q = parse(entry["Q"], spec.vars)
        scanned.clear()
        assert contract_prime(q, spec) == parse(entry["contraction"], tag_table(spec))
        top = reference["degree"] * weighted_degree(q, spec.vars).degree
        assert scanned and all(top % d == 0 for d in scanned)


# ---------------------------------------------------------------------------
# differential check against tag-variable elimination
# ---------------------------------------------------------------------------


def combined_table(spec):
    """The original variables followed by the tag variables."""
    tags = tag_table(spec)
    return VarTable(spec.vars.names + tags.names, spec.vars.weights + tags.weights)


@lru_cache(maxsize=32)
def _symbolic_basis(spec):
    """Lex basis of the y_i - f_i, original variables first: the
    elimination oracle for membership and contraction."""
    n, fs = spec.n, spec.generators
    gens = [Poly.variable(2 * n, n + i) - _lift(f, n) for i, f in enumerate(fs)]
    return groebner(gens, combined_table(spec))


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


# ---------------------------------------------------------------------------
# stored coefficient form
# ---------------------------------------------------------------------------


def _stored_form(p):
    """Every coefficient is an int, or a Fraction that is not integral."""
    return all(
        type(c) is int or (type(c) is Fraction and c.denominator != 1)
        for _, c in p.items()
    )


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
def test_kernel_stores_integral_coefficients_as_int(entry):
    spec, f = entry.spec, entry.spec.generators
    product = f[0] * f[-1]
    third = product * Fraction(1, 3)
    gb = groebner(f, spec.vars)
    results = [*f, product, third, product.exact_div(f[-1]), third.exact_div(f[0]), *gb]
    results.append(normal_form(third + f[0], gb))
    jac, unit = canonicalize(jacobian(f, spec.vars), spec.vars)
    results += [contract_prime(q, spec) for q, _ in factor(jac, spec.vars).factors]
    results.append(subalgebra_membership(third + f[0], spec))
    assert all(_stored_form(p) for p in results)
    assert type(unit) is Fraction and type(content(third)) is Fraction
    assert type(analyze(spec).discarded_unit) is Fraction
