import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vrg import Poly, VarTable, canonicalize, format_poly, jacobian, parse, weighted_degree
from vrg.errors import DegreeCapExceededError, InputError, NotDivisibleError, ParseError
from vrg.poly import _Residue, coeff_str, read_int


def P(text, vars):
    return parse(text, vars)


# ---------------------------------------------------------------------------
# parsing and printing
# ---------------------------------------------------------------------------


def test_parse_basic_terms(xy11):
    p = P("X^2*Y + 3/2*Y^3", xy11)
    assert p.terms_dict() == {(2, 1): Fraction(1), (0, 3): Fraction(3, 2)}


def test_parse_zero(xy11):
    assert P("0", xy11).is_zero()


def test_parse_expands_products(xy11):
    assert P("(X-Y)*(X+Y)", xy11) == P("X^2-Y^2", xy11)


def test_parse_unary_minus_and_precedence(xy11):
    assert P("-X^2", xy11) == -P("X", xy11) ** 2
    assert P("2*X+3*Y*X", xy11) == P("X*Y*3+X*2", xy11)


def test_parse_rational_literals(xy11):
    assert P("2/4", xy11).constant_value() == Fraction(1, 2)
    with pytest.raises(ParseError):
        P("3/0", xy11)


def test_parse_rejects_implicit_multiplication(xy11):
    with pytest.raises(ParseError):
        P("2X", xy11)
    with pytest.raises(ParseError):
        P("2 X", xy11)
    with pytest.raises(ParseError):
        P("2(X+Y)", xy11)


def test_parse_unknown_variable_reports_position(xy11):
    with pytest.raises(ParseError) as err:
        P("X + Z", xy11)
    assert err.value.position == 4


def test_parse_syntax_errors(xy11):
    for bad in ("X +", "(X", "X^Y", "X^-2", "*X", "X^2^3", ""):
        with pytest.raises(ParseError):
            P(bad, xy11)


_IMPLICIT = "implicit multiplication is not allowed; write '*'"
_END = "unexpected end of expression"
_ABOVE_CAP = "power at position 6 has degree above the cap 200"

# (text, the terms it parses to, or the error class, message and position)
_PARSE_TABLE = [
    ("  X + 1", {(1, 0): 1, (0, 0): 1}),
    ("X + 1  ", {(1, 0): 1, (0, 0): 1}),
    ("X +\t 1", {(1, 0): 1, (0, 0): 1}),
    (" X\n*Y ", {(1, 1): 1}),
    ("X\xa0+　Y", {(1, 0): 1, (0, 1): 1}),
    ("3/ 4", {(0, 0): Fraction(3, 4)}),
    ("3 /4", {(0, 0): Fraction(3, 4)}),
    ("X^ 2", {(2, 0): 1}),
    ("٣", {(0, 0): 3}),  # a Unicode decimal digit reads as its value
    ("٣*X", {(1, 0): 3}),
    ("", (ParseError, "empty expression", 0)),
    ("   ", (ParseError, "empty expression", 0)),
    ("  X +", (ParseError, _END, 5)),
    ("X +   ", (ParseError, _END, 6)),
    (" 2 X", (ParseError, _IMPLICIT, 3)),
    ("\tX  Y", (ParseError, _IMPLICIT, 4)),
    ("2X", (ParseError, _IMPLICIT, 1)),
    ("X(", (ParseError, _IMPLICIT, 1)),
    ("X Y", (ParseError, _IMPLICIT, 2)),
    ("2 (X)", (ParseError, _IMPLICIT, 2)),
    ("()", (ParseError, "unexpected ')'", 1)),
    ("X + 1)", (ParseError, "unexpected ')'", 5)),
    ("(X", (ParseError, _END, 2)),
    ("(1/2/3)", (ParseError, "expected ')'", 4)),
    ("X^", (ParseError, _END, 2)),
    ("X^-1", (ParseError, "exponent must be a non-negative integer literal", 2)),
    ("X^Y", (ParseError, "exponent must be a non-negative integer literal", 2)),
    ("X ^ 2 ^ 3", (ParseError, "unexpected '^'", 6)),
    ("X**2", (ParseError, "unexpected '*'", 2)),
    ("*X", (ParseError, "unexpected '*'", 0)),
    ("-", (ParseError, _END, 1)),
    ("X/2", (ParseError, "unexpected '/'", 1)),
    ("3/4/5", (ParseError, "unexpected '/'", 3)),
    ("1/0", (ParseError, "zero denominator in rational literal", 2)),
    ("1/X", (ParseError, "denominator must be an integer literal", 2)),
    ("1/-2", (ParseError, "denominator must be an integer literal", 2)),
    ("Z", (ParseError, "unknown variable 'Z'", 0)),
    ("\xe9", (ParseError, "unexpected character '\xe9'", 0)),
    ("X + \xe9", (ParseError, "unexpected character '\xe9'", 4)),
    ("X + ) \xe9", (ParseError, "unexpected character '\xe9'", 6)),  # lexing comes first
    ("2^99999", (DegreeCapExceededError, "power at position 2 has over 65536 bits", None)),
    ("(X+1)^300", (DegreeCapExceededError, _ABOVE_CAP, None)),
    ("(X+1)^300 + )", (DegreeCapExceededError, _ABOVE_CAP, None)),  # refused as it is read
]


@pytest.mark.parametrize("text, expected", _PARSE_TABLE)
def test_parse_table_of_terms_and_errors(xy11, monkeypatch, text, expected):
    monkeypatch.delenv("VRG_MAX_DEGREE", raising=False)
    if isinstance(expected, dict):
        p = P(text, xy11)
        assert [(e, c, type(c)) for e, c in sorted(p.items())] == [
            (e, c, type(c)) for e, c in sorted(expected.items())
        ]
        return
    kind, message, position = expected
    with pytest.raises(kind) as err:
        P(text, xy11)
    assert type(err.value) is kind
    if position is None:
        assert str(err.value) == message
    else:
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position


@pytest.mark.parametrize("opening, closing", [("(", ")"), ("-", "")], ids=["parens", "minus"])
def test_parse_refuses_nesting_deeper_than_100_levels(xy11, opening, closing):
    assert P(opening * 100 + "X" + closing * 100, xy11) == P("X", xy11)
    for depth in (101, 3000):
        with pytest.raises(ParseError) as err:
            P(opening * depth + "X" + closing * depth, xy11)
        assert str(err.value) == "nesting deeper than 100 levels (at position 100)"
    with pytest.raises(ParseError, match="position 104"):
        P("X + " + "-(" * 51 + "X" + ")" * 51, xy11)


def test_variable_table_checks_names_and_weights():
    for names, weights, message in [
        ((["X"],), (1,), "variable names must be strings"),
        (("X", "Y"), (1, True), "weight of 'Y' must be a positive integer"),
        (("X",), (0,), "weight of 'X' must be a positive integer"),
        (("X", "X"), (1, 1), "variable names must be distinct"),
    ]:
        with pytest.raises(ValueError) as err:
            VarTable(names, weights)
        assert str(err.value) == message


def test_parse_refuses_powers_above_the_degree_cap(xy11, monkeypatch):
    monkeypatch.setenv("VRG_MAX_DEGREE", "8")
    # degree e * deg(base) is checked before expanding; constants, zero,
    # products of powers and monomials, which cost nothing to raise, pass
    assert P("(X+Y)^8", xy11) == P("(X+Y)^4", xy11) ** 2
    assert P("2^100", xy11) == Poly.const(2, 2**100)
    assert P("(X-X)^" + "9" * 5000, xy11).is_zero()
    assert P("X^8*Y^8", xy11).total_degree() == 16
    assert P("X^14 - 2*X^7*Y^7", xy11) == P("X^7", xy11) * P("X^7 - 2*Y^7", xy11)
    assert P("(-X*Y^2)^5", xy11) == -P("X^5*Y^10", xy11)
    assert P("X^" + "9" * 5000, xy11).total_degree() == read_int("9" * 5000)
    for bad in ("(2*X)^9", "(X^2+Y)^5", "(X+Y)^" + "9" * 5000):
        with pytest.raises(DegreeCapExceededError, match="cap 8"):
            P(bad, xy11)


def test_parse_refuses_huge_powers_of_constants(xy11):
    # a constant has degree 0, so the bit length of the power is bounded
    for bad in ("(1/3)^" + "9" * 30, "2^100000000000*X", "(2^60000)^2"):
        start = time.perf_counter()
        with pytest.raises(DegreeCapExceededError, match="position"):
            P(bad, xy11)
        assert time.perf_counter() - start < 1.0
    assert P("(-3/2)^5", xy11) == Poly.const(2, Fraction(-243, 32))
    assert P("(-1)^" + "9" * 30, xy11) == Poly.const(2, -1)


def test_monomial_powers_do_not_read_the_degree_cap(xy11, monkeypatch):
    monkeypatch.setenv("VRG_MAX_DEGREE", "many")
    assert P("X^2*Y^3", xy11).total_degree() == 5
    with pytest.raises(InputError, match="VRG_MAX_DEGREE"):
        P("(X+Y)^2", xy11)


def test_format_round_trip(xy11, xy32):
    for text in ("X^2*Y + 3/2*Y^3", "X^3*Y^2 - X*Y^5", "-X + Y", "7", "0", "X - 1/3"):
        for vars in (xy11, xy32):
            p = P(text, vars)
            assert P(format_poly(p, vars), vars) == p


_TABLES = {
    2: VarTable(("X", "Y"), (3, 2)),
    3: VarTable(("x1", "x2", "x_3"), (1, 2, 1)),
}


@st.composite
def _printed_pairs(draw):
    n = draw(st.sampled_from((2, 3)))
    big = st.integers(-(10**30), 10**30).filter(bool)
    coeffs = st.one_of(_coeffs, big, st.builds(Fraction, big, st.integers(1, 10**20)))
    exps = st.tuples(*[st.integers(0, 6)] * n)
    a, b = (draw(st.dictionaries(exps, coeffs, max_size=6).map(lambda t: Poly(n, t))) for _ in "ab")
    return _TABLES[n], a, b


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_printed_pairs())
def test_parse_inverts_format_and_builds_products_and_differences(case):
    vars, a, b = case
    text_a, text_b = format_poly(a, vars), format_poly(b, vars)
    for text, value in (
        (text_a, a),
        (f"({text_a})*({text_b})", a * b),
        (f"({text_a})-({text_b})", a - b),
        (f" ( {text_a} ) * ( {text_b} ) ", a * b),
    ):
        parsed = P(text, vars)
        assert parsed == value
        _assert_valid(parsed, vars.n)


def test_format_is_identity_on_canonical_strings(xy32):
    text = format_poly(P("X^2*Y^3 + X^2 + Y^3", xy32), xy32)
    assert format_poly(P(text, xy32), xy32) == text


# ---------------------------------------------------------------------------
# ring operations
# ---------------------------------------------------------------------------


def test_exact_div_examples(xy11):
    assert P("X^2-Y^2", xy11).exact_div(P("X-Y", xy11)) == P("X+Y", xy11)
    assert (P("X", xy11) * Poly.zero(2)).is_zero()
    with pytest.raises(NotDivisibleError):
        P("X^2+Y^2", xy11).exact_div(P("X", xy11))


def test_pow_rejects_negative(xy11):
    with pytest.raises(ValueError):
        P("X", xy11) ** -1


def test_mul_exact_div_round_trip_random(xy11):
    rng = random.Random(11)
    for _ in range(200):
        p = _random_poly(rng, 2)
        q = _random_poly(rng, 2)
        if q.is_zero():
            continue
        assert (p * q).exact_div(q) == p


def _random_poly(rng, n, max_exp=3, max_terms=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exp = tuple(rng.randint(0, max_exp) for _ in range(n))
        terms[exp] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return Poly(n, terms)


@pytest.mark.parametrize("bad", [0.5, 2.0, 1j, complex(3, 0)])
def test_float_and_complex_coefficients_rejected(bad):
    with pytest.raises(TypeError):
        Poly(1, {(1,): bad})
    with pytest.raises(TypeError):
        Poly.const(2, bad)


def test_integral_coefficients_are_stored_as_int(xy11):
    p = Poly(2, {(1, 0): Fraction(4, 2), (0, 1): Fraction(1, 3), (0, 0): 5})
    assert [type(c) for _, c in sorted(p.items())] == [int, Fraction, int]
    assert p == Poly(2, {(1, 0): 2, (0, 1): Fraction(1, 3), (0, 0): Fraction(5)})
    assert hash(p) == hash(P("2*X + 1/3*Y + 5", xy11))
    assert type(P("4/2*X", xy11).coefficient((1, 0))) is int


_coeffs = st.one_of(
    st.integers(-50, 50),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)
_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), _coeffs, max_size=5
).map(lambda terms: Poly(2, terms))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_polys, _polys)
def test_exact_div_inverts_mul_on_mixed_coefficients(p, q):
    assume(not q.is_zero())
    assert (p * q).exact_div(q) == p


def test_bad_exponent_vectors_rejected():
    for exp in ((1,), (1, 2, 3), (1, -1)):
        with pytest.raises(ValueError):
            Poly(2, {exp: 1})


def _assert_valid(r: Poly, n: int) -> None:
    """r is what the validating constructor would build from its own terms."""
    terms = sorted(r.items())
    assert all(c != 0 for _, c in terms)
    assert all(len(e) == n and min(e) >= 0 for e, _ in terms)
    rebuilt = sorted(Poly(n, dict(terms)).items())
    assert [(e, c, type(c)) for e, c in terms] == [(e, c, type(c)) for e, c in rebuilt]


def _mixed_polys(n, max_exp=3, max_size=5):
    exps = st.tuples(*[st.integers(0, max_exp)] * n)
    return st.dictionaries(exps, _coeffs, max_size=max_size).map(lambda t: Poly(n, t))


@st.composite
def _kernel_cases(draw):
    n = draw(st.sampled_from((2, 3)))
    p, q = draw(_mixed_polys(n)), draw(_mixed_polys(n))
    small = _mixed_polys(n, max_exp=1, max_size=3)
    args = [draw(small) for _ in range(n)]
    return n, p, q, args, draw(_coeffs.filter(bool)), draw(st.integers(0, 3))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_kernel_cases())
def test_arithmetic_results_keep_the_kernel_invariant(case):
    n, p, q, args, scalar, k = case
    results = [p + q, p - q, -p, p * q, p * scalar, p * 0, p / scalar, p**k]
    results += [3 - p, Fraction(1, 2) - p]  # __rsub__
    assert results[-2:] == [-(p - 3), -(p - Fraction(1, 2))]
    results += [p.derivative(j) for j in range(n)]
    results.append(Poly(n, dict(list(p.items())[:2])).compose(args))
    if q:
        results.append((p * q).exact_div(q))
    for r in results:
        _assert_valid(r, n)


# the residue rings Q[s]/(m) for m = s^2 + 1 and the irreducible cubic
# s^3 - s - 1 (it has no rational root), coefficients lowest degree first
_MODULI = ([1, 0, 1], [-1, -1, 0, 1])


@st.composite
def _ring_values(draw):
    """n values in a ring containing Q, with the map that takes an element
    of that ring, or a rational in it, to a form that == compares."""
    n = draw(st.sampled_from((2, 3)))
    ring = draw(st.sampled_from(("fraction", "poly", "residue")))
    if ring == "fraction":
        return [draw(_coeffs) for _ in range(n)], Fraction
    if ring == "poly":
        values = [draw(_mixed_polys(2, max_exp=1, max_size=3)) for _ in range(n)]
        return values, lambda x: Poly.zero(2) + x
    m = draw(st.sampled_from(_MODULI))
    size = len(m) - 1
    values = [_Residue(tuple(draw(_coeffs) for _ in range(size)), m) for _ in range(n)]
    return values, lambda x: x.c if isinstance(x, _Residue) else (x,) + (0,) * (size - 1)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_ring_values(), st.data())
def test_evaluate_respects_sums_and_products(case, data):
    values, canonical_form = case
    p, q = (data.draw(_mixed_polys(len(values))) for _ in range(2))
    at_p, at_q = p.evaluate(values), q.evaluate(values)
    assert canonical_form((p + q).evaluate(values)) == canonical_form(at_p + at_q)
    assert canonical_form((p * q).evaluate(values)) == canonical_form(at_p * at_q)


def test_compose_of_a_constant_is_a_poly_over_the_arguments_ring():
    args = [Poly.variable(3, 0), Poly.variable(3, 2)]
    for c in (0, 5, Fraction(-2, 3)):
        composed = Poly.const(2, c).compose(args)
        assert isinstance(composed, Poly) and composed.n == 3
        assert composed == Poly.const(3, c)


def test_integral_products_of_fractions_are_ints():
    half_x = Poly(1, {(1,): Fraction(1, 2)})
    two_x = Poly(1, {(1,): 2})
    square = half_x * two_x
    for r in (square, half_x * 2, square.exact_div(half_x), half_x / Fraction(1, 2)):
        _assert_valid(r, 1)
    assert type(square.coefficient((2,))) is int


@pytest.mark.parametrize("digits", [1, 3999, 4000, 4001, 8000, 12345])
def test_coefficients_read_and_print_at_any_length(digits):
    text = "9" + "0" * (digits - 1)
    value = read_int(text)
    assert value == 9 * 10 ** (digits - 1)
    assert coeff_str(value) == text
    assert coeff_str(-value) == "-" + text
    num, den = value + 1, 2 * value + 1
    assert coeff_str(Fraction(-num, den)) == f"-{coeff_str(num)}/{coeff_str(den)}"
    assert coeff_str(Fraction(-value)) == "-" + text
    assert read_int(coeff_str(value * 3 + 1)) == value * 3 + 1


# ---------------------------------------------------------------------------
# weighted degree
# ---------------------------------------------------------------------------


def test_weighted_degree_cusp_generator(xy32):
    p = P("X^2+Y^3", xy32)
    # oracle: weighted degree of every term computed directly
    per_term = {2 * 3, 3 * 2}
    assert per_term == {6}
    wd = weighted_degree(p, xy32)
    assert wd.degree == 6 and wd.homogeneous


def test_weighted_degree_plain(xy11):
    assert weighted_degree(P("X+Y", xy11), xy11).degree == 1
    assert weighted_degree(P("X+Y", xy11), xy11).homogeneous
    wd = weighted_degree(P("X^2+Y", xy11), xy11)
    assert wd.degree == 2 and not wd.homogeneous


def test_weighted_degree_zero_undefined(xy11):
    with pytest.raises(ValueError):
        weighted_degree(Poly.zero(2), xy11)


def test_weighted_degree_multiplicative_on_homogeneous(xy32):
    rng = random.Random(5)
    for _ in range(50):
        d1, d2 = rng.randint(1, 4), rng.randint(1, 4)
        p = _random_homogeneous(rng, xy32, d1 * 6)
        q = _random_homogeneous(rng, xy32, d2 * 6)
        if p.is_zero() or q.is_zero():
            continue
        assert (
            weighted_degree(p * q, xy32).degree
            == weighted_degree(p, xy32).degree + weighted_degree(q, xy32).degree
        )


def _random_homogeneous(rng, vars, wdeg):
    terms = {}
    for ex in range(0, wdeg + 1):
        rem = wdeg - ex * vars.weights[0]
        if rem < 0 or rem % vars.weights[1]:
            continue
        if rng.random() < 0.6:
            terms[(ex, rem // vars.weights[1])] = Fraction(rng.randint(-4, 4))
    return Poly(2, terms)


# ---------------------------------------------------------------------------
# derivatives and the Jacobian determinant
# ---------------------------------------------------------------------------


def test_partial_derivative(xy11):
    assert P("X^2*Y^3", xy11).derivative(1) == P("3*X^2*Y^2", xy11)
    assert P("7", xy11).derivative(0).is_zero()
    assert P("X^2+Y^3", xy11).derivative(0) == P("2*X", xy11)


def test_jacobian_sym2(xy11):
    # oracle: det [[1, 1], [Y, X]] assembled by hand from the partials
    f1, f2 = P("X+Y", xy11), P("X*Y", xy11)
    oracle = f1.derivative(0) * f2.derivative(1) - f1.derivative(1) * f2.derivative(0)
    assert oracle == P("X-Y", xy11)
    assert jacobian([f1, f2], xy11) == oracle


def test_jacobian_cusp_matches_known_value(xy32):
    jac = jacobian([P("X^2+Y^3", xy32), P("X^2*Y^3", xy32)], xy32)
    assert jac == P("6*X*Y^2*(X^2-Y^3)", xy32)


def test_jacobian_mixed_matches_known_value(xy12):
    jac = jacobian([P("X^2*Y", xy12), P("X^2+Y", xy12)], xy12)
    assert jac == P("2*X*(Y-X^2)", xy12)


def test_jacobian_multilinear_in_rows(xy11):
    rng = random.Random(23)
    for _ in range(30):
        f1, g1, f2 = (_random_poly(rng, 2) for _ in range(3))
        lhs = jacobian([f1 + g1, f2], xy11)
        rhs = jacobian([f1, f2], xy11) + jacobian([g1, f2], xy11)
        assert lhs == rhs


def test_jacobian_three_variables():
    vars = VarTable(("X1", "X2", "X3"), (1, 1, 1))
    fs = [parse(t, vars) for t in ("X1", "X2^2", "X3^3")]
    assert jacobian(fs, vars) == parse("6*X2*X3^2", vars)


# ---------------------------------------------------------------------------
# canonical associate
# ---------------------------------------------------------------------------


def test_canonicalize_recorded_unit(xy32):
    p = P("6*X^3*Y^2 - 6*X*Y^5", xy32)
    c, unit = canonicalize(p, xy32)
    assert unit == 6
    assert c == P("X^3*Y^2 - X*Y^5", xy32)
    assert c * unit == p


def test_canonicalize_negative_lead_and_content(xy12):
    p = P("2*X*Y - 2*X^3", xy12)
    c, unit = canonicalize(p, xy12)
    assert unit == -2
    assert c == P("X^3 - X*Y", xy12)


def test_canonicalize_rational_content(xy11):
    c, unit = canonicalize(P("1/2*X + 3/4*Y", xy11), xy11)
    assert unit == Fraction(1, 4)
    assert c == P("2*X + 3*Y", xy11)
