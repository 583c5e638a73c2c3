import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from vrg import (
    Poly,
    VarTable,
    analyze,
    canonical,
    gcd,
    lcm,
    load_spec,
    parse,
    squarefree,
    valuation,
)
from vrg.factor import factor, line_zero
from vrg.poly import _Residue

from corpus import CORPUS

ROOT = Path(__file__).resolve().parent.parent


def test_the_package_does_not_shadow_the_factor_and_groebner_modules():
    # the package exports neither function of that name, so the names
    # vrg.factor and vrg.groebner are the submodules
    import vrg.factor as factor_module
    import vrg.groebner as groebner_module

    assert factor_module is sys.modules["vrg.factor"]
    assert groebner_module is sys.modules["vrg.groebner"]


def test_gcd_difference_of_squares(xy11):
    assert gcd(parse("X^2-Y^2", xy11), parse("X-Y", xy11), xy11) == parse("X-Y", xy11)


def test_gcd_coprime(xy11):
    assert gcd(parse("X", xy11), parse("Y", xy11), xy11) == parse("1", xy11)


def test_gcd_shared_factor(xy12):
    # oracle: divide both arguments by the candidate and check the
    # quotients have no common factor left
    p = parse("X^2*Y*(Y-X^2)^2", xy12)
    q = parse("X*(Y-X^2)", xy12)
    g = gcd(p, q, xy12)
    assert g == canonical(parse("X*(Y-X^2)", xy12), xy12)
    pq, qq = p.exact_div(g), q.exact_div(g)
    assert gcd(pq, qq, xy12) == parse("1", xy12)


def test_gcd_divides_both_and_any_common_divisor_divides_it(xy11):
    rng = random.Random(9)
    pool = [parse(t, xy11) for t in ("X", "Y", "X-Y", "X+Y", "X^2+Y^3")]
    for _ in range(60):
        shared = _pick_product(rng, pool, 2)
        p = shared * _pick_product(rng, pool, 2)
        q = shared * _pick_product(rng, pool, 2)
        g = gcd(p, q, xy11)
        assert g.divides(p) and g.divides(q)
        # the constructed shared part is a common divisor, so it divides g
        assert shared.divides(g * Fraction(1))


def _pick_product(rng, pool, count, n=2):
    out = Poly.const(n, rng.randint(1, 3))
    for _ in range(rng.randint(0, count)):
        out = out * rng.choice(pool) ** rng.randint(1, 2)
    return out


def test_heuristic_gcd_agrees_with_the_remainder_sequence():
    # the pseudo-remainder sequence is the heuristic gcd's fallback, so both
    # must give the same gcd up to a unit
    from vrg.factor import _heuristic_gcd, _prs_gcd

    vars = VarTable(("X", "Y", "Z"), (1, 1, 1))
    rng = random.Random(23)
    pool = [parse(t, vars) for t in ("X - Y", "X^2 + Y*Z", "Y^3 - 2*Z^3", "X + 3*Z", "Z")]
    for _ in range(25):
        shared = _pick_product(rng, pool, 2, vars.n)
        p = shared * _pick_product(rng, pool, 2, vars.n) * parse("X", vars)
        q = shared * _pick_product(rng, pool, 2, vars.n) * parse("Y", vars)
        expected = canonical(_prs_gcd(p, q), vars)
        assert canonical(_heuristic_gcd(p, q), vars) == expected
        assert shared.divides(expected)
    # the first evaluation point is a root of the first input (xi = 4 for
    # both pairs), so its image is zero and the point must be skipped
    for p, q in (("(X - Y)*(Z - 4)", "X - Y"), ("(X*Z + 1)*(Z - 4)", "X*Z + 1")):
        p, q = parse(p, vars), parse(q, vars)
        assert canonical(_prs_gcd(p, q), vars) == canonical(q, vars)
        assert canonical(_heuristic_gcd(p, q), vars) == canonical(q, vars)


def test_gcd_when_an_image_vanishes(xy11):
    # 2 * min(max |coefficient|) + 2 = 4 is the first evaluation point of Y,
    # where the first input vanishes
    p, q = parse("(X*Y+1)*(Y-4)", xy11), parse("X*Y+1", xy11)
    assert gcd(p, q, xy11) == q
    assert lcm(p, q, xy11) == canonical(p, xy11)


def test_gcd_by_the_remainder_sequence_alone(monkeypatch):
    # the subresultant sequence is what gcd falls back on when the heuristic
    # gives up; with the heuristic switched off it must give the same gcds
    import vrg.factor as factor_module

    vars = VarTable(("X", "Y", "Z"), (1, 1, 1))
    rng = random.Random(31)
    pool = [parse(t, vars) for t in ("X - Y", "X^2 + Y*Z", "Y^3 - 2*Z^3", "X + 3*Z", "Z")]
    cases = []
    for _ in range(20):
        shared = _pick_product(rng, pool, 2, vars.n)
        p = shared * _pick_product(rng, pool, 2, vars.n)
        q = shared * _pick_product(rng, pool, 2, vars.n)
        cases.append((p, q, gcd(p, q, vars)))
    # a square-free split: gcd with the derivative in every variable
    p = parse("(X^2 + Y*Z)^2*(X - Y)*(Y^3 - 2*Z^3)^3", vars)
    for j in range(vars.n):
        cases.append((p, p.derivative(j), gcd(p, p.derivative(j), vars)))
    monkeypatch.setattr(factor_module, "_heuristic_gcd", lambda f, g: None)
    for p, q, expected in cases:
        assert gcd(p, q, vars) == expected
    assert squarefree(p, vars).factors == (
        (parse("X - Y", vars), 1),
        (parse("X^2 + Y*Z", vars), 2),
        (parse("Y^3 - 2*Z^3", vars), 3),
    )


def test_gcd_of_zeros_rejected(xy11):
    with pytest.raises(ValueError):
        gcd(Poly.zero(2), Poly.zero(2), xy11)
    assert gcd(Poly.zero(2), parse("2*X", xy11), xy11) == parse("X", xy11)


def test_lcm_basic(xy11):
    assert lcm(parse("X*Y", xy11), parse("Y", xy11), xy11) == parse("X*Y", xy11)
    assert lcm(parse("X", xy11), parse("Y", xy11), xy11) == parse("X*Y", xy11)
    assert lcm(Poly.zero(2), parse("X", xy11), xy11) == Poly.zero(2)
    assert lcm(parse("X", xy11), Poly.zero(2), xy11) == Poly.zero(2)


def test_squarefree_square(xy11):
    fac = squarefree(parse("(X-Y)^2", xy11), xy11)
    assert fac.factors == ((parse("X-Y", xy11), 2),)
    assert fac.unit == 1


def test_squarefree_known_mixed_product(xy12):
    fac = squarefree(parse("X^2*Y*(Y-X^2)^2", xy12), xy12)
    got = {(f, m) for f, m in fac.factors}
    assert got == {
        (parse("X", xy12), 2),
        (parse("Y", xy12), 1),
        (canonical(parse("Y-X^2", xy12), xy12), 2),
    }
    assert fac.expand(2) == parse("X^2*Y*(Y-X^2)^2", xy12)


def test_squarefree_already_squarefree(xy11):
    fac = squarefree(parse("X^2-Y^2", xy11), xy11)
    assert fac.factors == ((parse("X^2-Y^2", xy11), 1),)


def test_factor_jacobian_of_cusp(xy32):
    fac = factor(parse("6*X*Y^2*(X^2-Y^3)", xy32), xy32)
    assert fac.unit == 6
    assert set(fac.factors) == {
        (parse("X", xy32), 1),
        (parse("Y", xy32), 2),
        (parse("X^2-Y^3", xy32), 1),
    }


def test_factor_difference_of_squares(xy11):
    fac = factor(parse("X^2-Y^2", xy11), xy11)
    assert set(fac.factors) == {
        (parse("X-Y", xy11), 1),
        (parse("X+Y", xy11), 1),
    }
    assert fac.unit == 1


def test_factor_mixed_jacobian(xy12):
    p = parse("2*X*(Y-X^2)", xy12)
    fac = factor(p, xy12)
    # canonicalizing Y - X^2 flips its sign, which the unit absorbs
    assert fac.unit == -2
    assert set(fac.factors) == {
        (parse("X", xy12), 1),
        (canonical(parse("Y-X^2", xy12), xy12), 1),
    }
    assert fac.expand(2) == p


def test_factor_refines_squarefree(xy11):
    rng = random.Random(17)
    pool = [parse(t, xy11) for t in ("X", "Y", "X-Y", "X+Y", "X^2+Y^3", "X-2*Y")]
    for _ in range(40):
        p = Poly.const(2, rng.randint(1, 4))
        for q in rng.sample(pool, rng.randint(1, 3)):
            p = p * q ** rng.randint(1, 3)
        fac = factor(p, xy11)
        sq = squarefree(p, xy11)
        # group both outputs by multiplicity; the products must agree
        def group(factors):
            out: dict[int, Poly] = {}
            for f, m in factors:
                out[m] = out.get(m, Poly.const(2, 1)) * f
            return {m: canonical(f, xy11) for m, f in out.items()}

        assert group(sq.factors) == group(fac.factors)


def test_valuation_examples(xy32):
    p = parse("X^2*Y^3", xy32)
    assert valuation(parse("X", xy32), p) == 2
    assert valuation(parse("Y", xy32), p) == 3
    assert valuation(parse("X-Y", xy32), parse("X+Y", xy32)) == 0


def test_valuation_additive(xy11):
    rng = random.Random(31)
    q = parse("X-Y", xy11)
    pool = [parse(t, xy11) for t in ("X", "Y", "X-Y", "X+Y")]
    for _ in range(60):
        p1 = _pick_product(rng, pool, 2) + Poly.const(2, 0)
        p2 = _pick_product(rng, pool, 2)
        assert valuation(q, p1 * p2) == valuation(q, p1) + valuation(q, p2)


# ---------------------------------------------------------------------------
# a zero of a prime where a rational line meets it
# ---------------------------------------------------------------------------

LINE = VarTable(("s",), (1,))


def _lift(x):
    """An element of Q[s]/(m), a rational or a residue, as a polynomial in s."""
    c = x.c if isinstance(x, _Residue) else (x,)
    return Poly(1, {(e,): v for e, v in enumerate(c)})


def _free(q):
    """The variable line_zero solves for: the first of least positive degree."""
    return min((k for k in range(q.n) if q.degree_in(k)), key=q.degree_in)


def _modulus(zero, j):
    """The m of line_zero's zero, as a polynomial in s: the one zero[j]
    carries, or ``s - zero[j]`` when zero[j] is rational."""
    x = zero[j]
    if isinstance(x, _Residue):
        return Poly(1, {(d,): c for d, c in enumerate(x.m)})
    return Poly.variable(1, 0) - x


def test_line_zero_solves_for_a_linear_variable(xy11):
    # X*Y + Y^3 - 2 is linear in X with coefficient Y, which the first draw
    # makes 0, so Y is drawn again
    p = parse("X*Y + Y^3 - 2", xy11)
    draws = iter([Fraction(0), Fraction(1, 2)])
    zero = line_zero(p, lambda: next(draws))
    assert zero == (Fraction(15, 4), Fraction(1, 2))  # X = (2 - Y^3)/Y
    assert _modulus(zero, 0) == parse("s - 15/4", LINE)
    assert p.evaluate(zero) == 0
    # X*Y + 1 is constant on every line X = s with Y = 0; a constant has no zero
    assert line_zero(parse("X*Y + 1", xy11), lambda: 0) is None
    assert line_zero(Poly.const(2, 3), lambda: 1) is None
    # at Y = 1 the line meets X^2 - Y^3 where s^2 - 1 = 0; m is one factor
    q = parse("X^2 - Y^3", xy11)
    zero = line_zero(q, lambda: 1)
    assert _modulus(zero, 0).degree_in(0) == 1 and q.evaluate(zero) == 0


def test_line_zero_of_a_linear_prime_is_rational(xy11):
    # sym2's X - Y at the draws 1, 2, ...: Y = 1, so X = 1, over m = s - 1
    zero = line_zero(parse("X - Y", xy11), itertools.count(1).__next__)
    assert zero == (1, 1)
    assert _modulus(zero, 0) == parse("s - 1", LINE)
    for entry in CORPUS:
        for d in analyze(entry.spec).ramification:
            q = d.prime
            j = _free(q)
            if q.degree_in(j) == 1:
                zero = line_zero(q, itertools.count(1).__next__)
                assert all(type(c) in (int, Fraction) for c in zero), (entry.name, q)
                assert not q.evaluate(zero), (entry.name, q)


def test_line_zero_of_a_nonlinear_prime_lies_over_an_irreducible_m(xy11, xy32):
    # X^2 + Y^2 meets the line Y = 1 at s = +-i
    zero = line_zero(parse("X^2 + Y^2", xy11), itertools.count(1).__next__)
    assert _modulus(zero, 0) == parse("s^2 + 1", LINE)
    assert zero[1] == 1 and zero[0].c == (0, 1)
    # X^2 - Y^3 meets Y = c where s^2 = c^3, and its image under cusp's
    # generators X^2 + Y^3, X^2*Y^3 is the rational point (2c^3, c^6)
    q = parse("X^2 - Y^3", xy32)
    generators = [parse("X^2 + Y^3", xy32), parse("X^2*Y^3", xy32)]
    for c in (2, 3, Fraction(-1, 2), 5):
        zero = line_zero(q, lambda: c)
        assert _modulus(zero, 0) == Poly(1, {(2,): 1, (0,): -(c**3)})
        image = [_lift(f.evaluate(zero)) for f in generators]
        assert image == [Poly.const(1, 2 * c**3), Poly.const(1, c**6)]


def _every_prime():
    specs = [entry.spec for entry in CORPUS]
    specs += [load_spec(path)[0] for path in sorted((ROOT / "perfbench" / "specs").glob("*.json"))]
    for spec in specs:
        for d in analyze(spec).ramification:
            yield d.prime


def test_line_zero_is_a_zero_of_every_prime():
    # Q(x0) is 0 in Q[s]/(m), and m divides Q on the line through x0;
    # m is monic and irreducible over Q
    rng = random.Random(17)
    draw = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 3))
    degrees = set()
    for q in _every_prime():
        for seed_draw in (itertools.count(1).__next__, draw):
            zero = line_zero(q, seed_draw)
            m = _modulus(zero, _free(q))
            assert not q.evaluate(zero), q
            assert m.divides(q.compose([_lift(x) for x in zero])), q
            assert m.leading()[1] == 1
            assert factor(m, LINE).factors == ((canonical(m, LINE), 1),), m
            degrees.add(m.degree_in(0))
    assert degrees >= {1, 2}


def _line_zero_by_factor(q, draw):
    """line_zero's draws and m, with q on the line as a polynomial in s and
    m from the general factor: the reference for its univariate route."""
    j = _free(q)
    for _ in range(200):
        x = [Poly.variable(1, 0) if k == j else draw() for k in range(q.n)]
        on_line = q.evaluate(x)
        if on_line.is_constant():
            continue
        if on_line.degree_in(0) > 1:
            on_line = factor(on_line, LINE).factors[0][0]
        return tuple(x[:j] + x[j + 1 :]), on_line / on_line.leading()[1]
    return None


def test_line_zero_takes_the_first_factor_of_factor(xy11):
    # line restrictions with a factor s, repeated factors, and several
    # factors of one degree, which factor orders by their printed form
    made = [
        "X^3 - X*Y^4",  # s*(s - c^2)*(s + c^2)
        "X^2*Y - Y^3",  # c*(s - c)*(s + c)
        "(X^2 - 3*Y^4)^2*(X^2 + Y^4)",
        "X^2*(X - Y)^3*(X^3 - 2*Y^3)",
        "(X^2 + X*Y + Y^2)*(X^2 - 5*Y^2)*(X - 7*Y)^2",
    ]
    primes = [parse(text, xy11) for text in made] + list(_every_prime())
    for q in primes:
        for seed in range(3):
            draws = [random.Random(seed), random.Random(seed)]
            draw = [lambda rng=rng: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for rng in draws]
            zero = line_zero(q, draw[0])
            j = _free(q)
            assert (zero[:j] + zero[j + 1 :], _modulus(zero, j)) == _line_zero_by_factor(
                q, draw[1]
            ), (q, seed)

