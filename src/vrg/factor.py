"""Exact gcd, square-free decomposition, factorization, and valuations.

The gcd is a primitive pseudo-remainder sequence over recursively smaller
coefficient rings, and the square-free decomposition is Yun's algorithm
applied to the chosen main variable with recursion on the content; both
are self-contained.  Complete irreducible factorization over the
rationals is delegated to sympy's multivariate factorizer, then converted
back, re-normalized, and verified by exact re-multiplication, so a wrong
answer cannot propagate silently.

All ramification-theoretic consumers work at the level of rational
irreducibility.  A rational irreducible factor may split further over the
complex numbers; callers surface that as a reported assumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import NotDivisibleError, TheoremViolationError
from .poly import Poly, VarTable, canonical, format_poly, weighted_degree

__all__ = [
    "Factorization",
    "factor",
    "gcd",
    "lcm",
    "squarefree",
    "valuation",
]


@dataclass(frozen=True)
class Factorization:
    """unit * prod(factor^multiplicity) == the factored polynomial, exactly."""

    unit: Fraction
    factors: tuple[tuple[Poly, int], ...]

    def expand(self, n: int) -> Poly:
        out = Poly.const(n, self.unit)
        for f, m in self.factors:
            out = out * f ** m
        return out


def _sort_factors(factors, vars: VarTable):
    def sort_key(item):
        f, _ = item
        return (weighted_degree(f, vars).degree, format_poly(f, vars))

    return tuple(sorted(factors, key=sort_key))


# ---------------------------------------------------------------------------
# gcd
# ---------------------------------------------------------------------------


def _coeff_in(p: Poly, v: int, k: int) -> Poly:
    """Coefficient of v^k, as a polynomial with the v-slot zeroed."""
    out = {}
    for exp, c in p.items():
        if exp[v] == k:
            e = list(exp)
            e[v] = 0
            out[tuple(e)] = c
    return Poly(p.n, out)


def _shift(p: Poly, v: int, k: int) -> Poly:
    """Multiply by v^k."""
    out = {}
    for exp, c in p.items():
        e = list(exp)
        e[v] += k
        out[tuple(e)] = c
    return Poly(p.n, out)


def _content_in(p: Poly, v: int) -> Poly:
    """gcd of the coefficients of powers of v."""
    coeffs = [_coeff_in(p, v, k) for k in range(p.degree_in(v) + 1)]
    coeffs = [c for c in coeffs if not c.is_zero()]
    g = coeffs[0]
    for c in coeffs[1:]:
        if g.is_constant():
            break
        g = _gcd_raw(g, c)
    return g


def _prem(a: Poly, b: Poly, v: int) -> Poly:
    """Pseudo-remainder of a by b with respect to variable v."""
    db = b.degree_in(v)
    lb = _coeff_in(b, v, db)
    r = a
    while not r.is_zero() and r.degree_in(v) >= db:
        dr = r.degree_in(v)
        lr = _coeff_in(r, v, dr)
        r = r * lb - _shift(lr, v, dr - db) * b
    return r


def _gcd_raw(p: Poly, q: Poly) -> Poly:
    """gcd up to a rational unit (no sign/content normalization)."""
    if p.is_zero():
        return q
    if q.is_zero():
        return p
    if p.is_constant() or q.is_constant():
        return Poly.const(p.n, 1)
    used = p.variables_used() | q.variables_used()
    v = max(used)
    dp, dq = p.degree_in(v), q.degree_in(v)
    if dp == 0:
        return _gcd_raw(p, _content_in(q, v))
    if dq == 0:
        return _gcd_raw(_content_in(p, v), q)
    cont_p = _content_in(p, v)
    cont_q = _content_in(q, v)
    c = _gcd_raw(cont_p, cont_q)
    a = p.exact_div(cont_p)
    b = q.exact_div(cont_q)
    if a.degree_in(v) < b.degree_in(v):
        a, b = b, a
    while True:
        r = _prem(a, b, v)
        if r.is_zero():
            break
        r = r.exact_div(_content_in(r, v))
        if r.degree_in(v) == 0:
            return c
        a, b = b, r
    return c * b.exact_div(_content_in(b, v))


def gcd(p: Poly, q: Poly, vars: VarTable) -> Poly:
    """Canonical-associate gcd; defined unless both arguments are zero."""
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    return canonical(_gcd_raw(p, q), vars)


def lcm(p: Poly, q: Poly, vars: VarTable) -> Poly:
    if p.is_zero() or q.is_zero():
        return Poly.zero(p.n)
    return canonical((p * q).exact_div(_gcd_raw(p, q)), vars)


# ---------------------------------------------------------------------------
# square-free decomposition (Yun)
# ---------------------------------------------------------------------------


def _squarefree_raw(p: Poly) -> list[tuple[Poly, int]]:
    """Square-free split of a nonzero p, factors up to units, unsorted."""
    if p.is_constant():
        return []
    v = max(p.variables_used())
    cont = _content_in(p, v)
    parts = _squarefree_raw(cont)
    pp = p.exact_div(cont)
    # Yun's algorithm on the v-primitive part; every factor of pp has
    # positive v-degree, so d(pp)/dv separates multiplicities in char 0.
    dp = pp.derivative(v)
    g = _gcd_raw(pp, dp)
    w = pp.exact_div(g)
    y = dp.exact_div(g)
    i = 1
    while not w.is_constant():
        z = y - w.derivative(v)
        h = _gcd_raw(w, z)
        if not h.is_constant():
            parts.append((h, i))
        w = w.exact_div(h)
        y = z.exact_div(h)
        i += 1
    return parts


def squarefree(p: Poly, vars: VarTable) -> Factorization:
    """Yun-style decomposition: factors square-free and pairwise coprime."""
    if p.is_zero():
        raise ValueError("cannot decompose the zero polynomial")
    parts = [(canonical(f, vars), m) for f, m in _squarefree_raw(p)]
    rebuilt = Poly.const(p.n, 1)
    for f, m in parts:
        rebuilt = rebuilt * f ** m
    unit = p.exact_div(rebuilt).constant_value()
    return Factorization(unit=unit, factors=_sort_factors(parts, vars))


# ---------------------------------------------------------------------------
# irreducible factorization over Q
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _sympy_ring(names: tuple[str, ...]):
    from sympy import QQ
    from sympy.polys.rings import ring

    R, *_ = ring(list(names), QQ)
    return R, QQ


def factor(p: Poly, vars: VarTable) -> Factorization:
    """Complete irreducible factorization over Q, verified by re-multiplication."""
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if p.is_constant():
        return Factorization(unit=p.constant_value(), factors=())
    R, QQ = _sympy_ring(vars.names)
    sp = R.from_dict({exp: QQ(c.numerator, c.denominator) for exp, c in p.items()})
    _, raw_factors = sp.factor_list()
    parts = []
    for f, mult in raw_factors:
        terms = {
            monom: Fraction(int(QQ.numer(c)), int(QQ.denom(c)))
            for monom, c in f.terms()
        }
        parts.append((canonical(Poly(p.n, terms), vars), mult))
    # leading coefficients multiply under lex, so this is the unit whenever
    # the factors are right, and the re-multiplication below checks that
    lead = Fraction(1)
    for f, m in parts:
        lead *= f.leading()[1] ** m
    result = Factorization(p.leading()[1] / lead, _sort_factors(parts, vars))
    if result.expand(p.n) != p:
        raise TheoremViolationError(
            f"factorization of {format_poly(p, vars)} failed re-multiplication"
        )
    return result


def valuation(q: Poly, p: Poly) -> int:
    """Largest k with q^k dividing p, by repeated exact division."""
    if p.is_zero():
        raise ValueError("valuation of the zero polynomial is undefined")
    if q.is_zero() or q.is_constant():
        raise ValueError("valuation requires a nonconstant divisor")
    k = 0
    try:
        while True:
            p = p.exact_div(q)
            k += 1
    except NotDivisibleError:
        return k
