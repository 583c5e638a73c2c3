import itertools
import random
from fractions import Fraction

import pytest

from vrg import Poly, VarTable, canonical, groebner, normal_form, parse
from vrg.errors import DegreeCapExceededError


def basis_set(gb, vars):
    return {canonical(g, vars) for g in gb}


def test_lex_basis_of_linear_pair(xy11):
    gb = groebner([parse("X-Y", xy11), parse("Y", xy11)], xy11)
    assert basis_set(gb, xy11) == {parse("X", xy11), parse("Y", xy11)}


def test_single_power_is_its_own_basis(xy11):
    gb = groebner([parse("X^2", xy11)], xy11)
    assert basis_set(gb, xy11) == {parse("X^2", xy11)}


def test_lex_elimination_example():
    # oracle: substituting Y = X^2 into X^2*Y gives X^4, and the S-pair of
    # {Y - X^2, X^4} reduces to zero by hand, so that set is the basis
    vars = VarTable(("Y", "X"), (1, 1))
    y_rel = parse("Y-X^2", vars)
    gb = groebner([y_rel, parse("X^2*Y", vars)], vars)
    assert basis_set(gb, vars) == {
        canonical(y_rel, vars),
        parse("X^4", vars),
    }


def test_zero_ideal_gives_empty_basis(xy11):
    gb = groebner([Poly.zero(2)], xy11)
    assert len(gb) == 0
    assert normal_form(parse("X+1", xy11), gb) == parse("X+1", xy11)


def test_normal_form_examples(xy11):
    gb_x = groebner([parse("X", xy11)], xy11)
    assert normal_form(parse("X^2", xy11), gb_x).is_zero()
    gb_y = groebner([parse("Y", xy11)], xy11)
    assert normal_form(parse("X+1", xy11), gb_y) == parse("X+1", xy11)
    vars = VarTable(("Y", "X"), (1, 1))
    gb = groebner([parse("Y-X^2", vars)], vars)
    # oracle: X^2*Y = X^2*(Y - X^2) + X^4
    assert normal_form(parse("X^2*Y", vars), gb) == parse("X^4", vars)


def test_normal_form_zero_iff_member_random(xy11):
    rng = random.Random(3)
    gens = [parse("X^2+Y", xy11), parse("X*Y-1", xy11)]
    gb = groebner(gens, xy11)
    for _ in range(40):
        combo = Poly.zero(2)
        for g in gens:
            h = Poly(
                2,
                {
                    (rng.randint(0, 2), rng.randint(0, 2)): Fraction(
                        rng.randint(-3, 3)
                    )
                },
            )
            combo = combo + h * g
        assert normal_form(combo, gb).is_zero()
    # and something visibly outside the ideal
    assert not normal_form(parse("X", xy11), gb).is_zero()


def test_basis_invariant_under_generator_permutation(xy11):
    gens = [parse(t, xy11) for t in ("X^2+Y^3", "X^2*Y^3", "X*Y-Y^2")]
    reference = None
    for perm in itertools.permutations(gens):
        gb = groebner(list(perm), xy11)
        if reference is None:
            reference = gb.generators
        assert gb.generators == reference


def test_buchberger_on_nontrivial_system(xy11):
    # oracle: the ideal (X^2 + Y^2 - 1, X - Y) contains 2*Y^2 - 1
    gb = groebner([parse("X^2+Y^2-1", xy11), parse("X-Y", xy11)], xy11)
    assert normal_form(parse("2*Y^2-1", xy11), gb).is_zero()
    assert basis_set(gb, xy11) == {parse("X-Y", xy11), parse("2*Y^2-1", xy11)}


def test_degree_cap(xy11):
    with pytest.raises(DegreeCapExceededError):
        groebner([parse("X^9+Y", xy11), parse("Y^9+X", xy11)], xy11, max_degree=8)


def test_degree_cap_from_environment(xy11, monkeypatch):
    monkeypatch.setenv("VRG_MAX_DEGREE", "3")
    with pytest.raises(DegreeCapExceededError):
        groebner([parse("X^9+Y", xy11)], xy11)
    monkeypatch.delenv("VRG_MAX_DEGREE")
    groebner([parse("X^9+Y", xy11)], xy11)
