"""The in-house factorization over Q against sympy's, used only as an oracle.

sympy is a test dependency; the library never imports it, which the last
test checks in a fresh process.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.rings import ring

import vrg.analyzer as analyzer_mod
from vrg import Poly, VarTable, analyze, canonical, load_spec, parse, verify_report
from vrg.factor import factor

from corpus import CORPUS

ROOT = Path(__file__).resolve().parent.parent
BENCH_SPECS = sorted((ROOT / "perfbench" / "specs").glob("*.json"))


def _oracle(p: Poly, vars: VarTable):
    """sympy's factor list as canonical factors with multiplicities, and the unit."""
    R, *_ = ring(list(vars.names), QQ)
    sp = R.from_dict({e: QQ(Fraction(c).numerator, Fraction(c).denominator) for e, c in p.items()})
    _, raw = sp.factor_list()
    factors = {
        (
            canonical(
                Poly(p.n, {e: Fraction(int(QQ.numer(c)), int(QQ.denom(c))) for e, c in f.terms()}),
                vars,
            ),
            k,
        )
        for f, k in raw
    }
    rebuilt = Poly.const(p.n, 1)
    for f, k in factors:
        rebuilt = rebuilt * f**k
    return factors, p.exact_div(rebuilt).constant_value()


def _assert_matches_oracle(p: Poly, vars: VarTable):
    fac = factor(p, vars)
    factors, unit = _oracle(p, vars)
    assert set(fac.factors) == factors
    assert len(fac.factors) == len(factors)
    assert fac.unit == unit


def _pipeline_inputs():
    """Every polynomial analyze and verify_report factor over the corpus
    and the benchmark specs, without repeats."""
    seen = {}
    original = analyzer_mod.factor

    def recording(p, vars):
        seen[(p, vars)] = None
        return original(p, vars)

    specs = [e.spec for e in CORPUS] + [load_spec(path)[0] for path in BENCH_SPECS]
    analyzer_mod.factor = recording
    try:
        for spec in specs:
            assert verify_report(analyze(spec), spec).ok
    finally:
        analyzer_mod.factor = original
    return list(seen)


def test_pipeline_inputs_match_oracle():
    inputs = _pipeline_inputs()
    assert len(inputs) >= 40
    for p, vars in inputs:
        _assert_matches_oracle(p, vars)


@pytest.mark.parametrize(
    "names, weights, text",
    [
        # irreducible over Q, yet split modulo every prime
        (("X",), (1,), "X^4 + 1"),
        (("X", "Y"), (1, 1), "X^4 + Y^4"),
        (("X",), (1,), "X^4 - 10*X^2 + 1"),
        # weighted forms with images that split at some points: x^2 - a^3
        # whenever a is a square
        (("X", "Y"), (3, 2), "X^2 - Y^3"),
        (("X", "Y"), (1, 2), "X^8 - 10*X^4*Y^2 + Y^4"),
        # the first images are -5*(z^2 - c^2): only lifting proves it prime
        (("X", "Y", "Z"), (1, 1, 1), "3*X^2 - 3*X*Y - Y^2 - 5*Z^2"),
        # at the first point, X = -3, the lifted factors Y ± sqrt((X+3)^2 + 4)
        # have no term of degree 3 in X + 3, so only division rejects them
        (("X", "Y"), (1, 1), "X^2 - Y^2 + 6*X + 13"),
    ],
)
def test_irreducibles_with_split_images(names, weights, text):
    vars = VarTable(names, weights)
    p = parse(text, vars)
    fac = factor(p, vars)
    assert fac.factors == ((p, 1),)
    _assert_matches_oracle(p, vars)


@pytest.mark.parametrize(
    "names, weights, text",
    [
        (("X",), (1,), "X^12 - 1"),
        (("X", "Y"), (1, 1), "X^8 - Y^8"),
        (("X", "Y", "Z"), (1, 1, 1), "(X^2 + Y*Z)^2*(X - Y)^3*(Y^3 - 2*Z^3)*X*Z^2"),
        (("X", "Y", "Z", "W"), (1, 2, 3, 1), "2/3*(X^2 - Y)*(X^3 + X*Y + Z)^2*(Z - W^3)*W"),
        # the leading coefficient in Z is X, not a constant
        (("X", "Y", "Z"), (1, 1, 1), "(X*Z + Y^2)*(X*Z - Y^2)"),
    ],
)
def test_known_products(names, weights, text):
    vars = VarTable(names, weights)
    _assert_matches_oracle(parse(text, vars), vars)


def _monomials_of_degree(weights, d):
    if not weights:
        return [()] if d == 0 else []
    *head, w = weights
    return [
        a + (k,) for k in range(d // w + 1) for a in _monomials_of_degree(tuple(head), d - k * w)
    ]


@st.composite
def _weighted_products(draw):
    n = draw(st.integers(1, 3))
    weights = tuple(draw(st.sampled_from((1, 1, 2, 3))) for _ in range(n))
    vars = VarTable(tuple(f"X{i}" for i in range(n)), weights)
    coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=3).filter(bool)
    p = Poly.const(n, draw(coeffs))
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(1, 4))
        support = _monomials_of_degree(weights, d)
        if not support:
            continue
        chosen = draw(st.lists(st.sampled_from(support), min_size=1, max_size=3, unique=True))
        q = Poly(n, {e: draw(coeffs) for e in chosen})
        p = p * q ** draw(st.integers(1, 2))
    monomial = tuple(draw(st.integers(0, 2)) for _ in range(n))
    return p * Poly(n, {monomial: 1}), vars


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_weighted_products())
def test_weighted_homogeneous_products_match_oracle(case):
    p, vars = case
    if p.is_constant():
        return
    _assert_matches_oracle(p, vars)


def test_library_never_imports_sympy():
    script = f"""
import contextlib, io, json, sys
sys.path.insert(0, {str(ROOT / "tests")!r})
from vrg import analyze, verify_report
from vrg.cli import main
from corpus import CORPUS
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["analyze", {str(ROOT / "specs" / "sym3.json")!r}, "--fiber", "2"]),
             main(["analyze", {str(ROOT / "specs" / "cusp.json")!r}])]
ok = all(verify_report(analyze(e.spec), e.spec).ok for e in CORPUS)
print(json.dumps({{"codes": codes, "ok": ok, "sympy": "sympy" in sys.modules}}))
"""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    ).stdout
    result = json.loads(out.splitlines()[-1])
    assert result == {"codes": [0, 0], "ok": True, "sympy": False}
