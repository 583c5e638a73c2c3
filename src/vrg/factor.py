"""Exact gcd, square-free decomposition, factorization, and valuations.

Everything here is self-contained.  The gcd is heuristic (evaluation at a
large integer, checked by division), with the subresultant remainder
sequence over recursively smaller coefficient rings when that fails.  The
square-free decomposition is Yun's algorithm in the last variable, with
recursion on the content.

Complete irreducible factorization over the rationals splits off the
content and the monomial part, then the square-free parts, and factors
each part over Z: a univariate by Zassenhaus, a multivariate by Hensel
lifting the factors of one univariate image (:mod:`vrg._zfactor`).  The
result is re-normalized and verified by exact re-multiplication, so a
wrong product cannot propagate silently.

All ramification-theoretic consumers work at the level of rational
irreducibility.  A rational irreducible factor may split further over the
complex numbers; callers surface that as a reported assumption.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from ._zfactor import (
    factor_squarefree,
    is_squarefree,
    lift,
    rational_factors,
    recombine,
    series_mul,
    series_quotient,
    squarefree_part,
)
from .errors import NotDivisibleError, TheoremViolationError
from .poly import Poly, VarTable, canonical, content, format_poly, residue, weighted_degree

__all__ = [
    "Factorization",
    "factor",
    "gcd",
    "lcm",
    "line_zero",
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


def _factor_key(f: Poly, vars: VarTable) -> tuple:
    """Where f comes in a factorization's list: by weighted degree, then as
    printed."""
    return weighted_degree(f, vars).degree, format_poly(f, vars)


def _sort_factors(factors, vars: VarTable):
    return tuple(sorted(factors, key=lambda item: _factor_key(item[0], vars)))


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
    return Poly._clean(p.n, out)


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
    """Pseudo-remainder in variable v: the remainder of
    ``lc(b)^(deg a - deg b + 1) * a`` on division by b."""
    db = b.degree_in(v)
    lb = _coeff_in(b, v, db)
    r = a
    steps = a.degree_in(v) - db + 1
    while not r.is_zero() and r.degree_in(v) >= db:
        dr = r.degree_in(v)
        lr = _coeff_in(r, v, dr)
        r = r * lb - lr * Poly.variable(r.n, v) ** (dr - db) * b
        steps -= 1
    return r * lb**steps


def _gcd_raw(p: Poly, q: Poly) -> Poly:
    """gcd up to a rational unit (no sign/content normalization)."""
    if p.is_zero():
        return q
    if q.is_zero():
        return p
    if p.is_constant() or q.is_constant():
        return Poly.const(p.n, 1)
    g = _heuristic_gcd(p / content(p), q / content(q))
    return _prs_gcd(p, q) if g is None else g


def _integer_gcd(p: Poly) -> int:
    return math.gcd(*(c for _, c in p.items()))


def _heuristic_gcd(f: Poly, g: Poly) -> Poly | None:
    """gcd over Z of two nonzero integer polynomials, or None when six
    evaluation points all fail (Char–Geddes–Gonnet's GCDHEU).

    The last variable is evaluated at an integer xi above twice the smaller
    coefficient bound, the gcd of the images is taken recursively, and its
    balanced xi-adic digits are read back as coefficients.  A candidate whose
    primitive part divides both inputs is then their gcd.
    """
    cf, cg = _integer_gcd(f), _integer_gcd(g)
    cont = math.gcd(cf, cg)
    if f.is_constant() or g.is_constant():
        return Poly.const(f.n, cont)
    f, g = f / cf, g / cg
    v = max(f.variables_used() | g.variables_used())
    xi = 2 * min(max(abs(c) for _, c in f.items()), max(abs(c) for _, c in g.items())) + 2
    for _ in range(6):
        fx, gx = _specialize(f, v, xi), _specialize(g, v, xi)
        # a zero image has every integer as its gcd with the other one
        if fx.is_zero() or gx.is_zero():
            xi = 2 * xi + 1
            continue
        h = _heuristic_gcd(fx, gx)
        if h is None:
            return None
        terms = {}
        for exp, c in h.items():
            for i in itertools.count():
                if not c:
                    break
                d = c % xi
                if 2 * d > xi:
                    d -= xi
                terms[exp[:v] + (i,) + exp[v + 1 :]] = d
                c = (c - d) // xi
        candidate = Poly(f.n, terms)
        candidate = candidate / _integer_gcd(candidate)
        if candidate.divides(f) and candidate.divides(g):
            return candidate * cont
        xi = 2 * xi + 1
    return None


def _specialize(p: Poly, v: int, value: int) -> Poly:
    """p with ``value`` put for variable v."""
    # not compose: an algebra and a fiber pass make 234 calls, 1.4 ms here, 11 ms so (2-core x86-64)
    out: dict = {}
    for exp, c in p.items():
        e = exp[:v] + (0,) + exp[v + 1 :]
        out[e] = out.get(e, 0) + c * value ** exp[v]
    return Poly(p.n, out)


def _prs_gcd(p: Poly, q: Poly) -> Poly:
    """gcd of nonconstant p and q up to a rational unit, by the subresultant
    remainder sequence in the last variable (Cohen, *A Course in
    Computational Algebraic Number Theory*, Algorithm 3.3.1).

    Each pseudo-remainder is divided by a known factor ``g * h^delta``
    instead of by its content, so no content is taken inside the loop.
    """
    v = max(p.variables_used() | q.variables_used())
    if p.degree_in(v) == 0:
        return _gcd_raw(p, _content_in(q, v))
    if q.degree_in(v) == 0:
        return _gcd_raw(_content_in(p, v), q)
    cont_p = _content_in(p, v)
    cont_q = _content_in(q, v)
    c = _gcd_raw(cont_p, cont_q)
    a = p.exact_div(cont_p)
    b = q.exact_div(cont_q)
    if a.degree_in(v) < b.degree_in(v):
        a, b = b, a
    # lc(gcd) divides this, so scaling the last remainder to have it as its
    # leading coefficient leaves only a small content to take off
    lead = _gcd_raw(_coeff_in(a, v, a.degree_in(v)), _coeff_in(b, v, b.degree_in(v)))
    g = h = Poly.const(p.n, 1)
    while True:
        delta = a.degree_in(v) - b.degree_in(v)
        r = _prem(a, b, v)
        if r.is_zero():
            break
        if r.degree_in(v) == 0:
            return c
        a, b = b, r.exact_div(g * h**delta)
        g = _coeff_in(a, v, a.degree_in(v))
        if delta:
            h = (g**delta).exact_div(h ** (delta - 1))
    b = (b * lead).exact_div(_coeff_in(b, v, b.degree_in(v)))
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
    """Square-free split of a nonzero p, factors up to units, unsorted.

    Each part is primitive in its last variable: the parts of the content
    by recursion, and the others as factors of the primitive part.
    """
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


def factor(p: Poly, vars: VarTable) -> Factorization:
    """Complete irreducible factorization over Q, verified by re-multiplication."""
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if p.is_constant():
        return Factorization(unit=p.constant_value(), factors=())
    mono = tuple(min(exp[j] for exp, _ in p.items()) for j in range(p.n))
    parts = [(Poly.variable(p.n, j), e) for j, e in enumerate(mono) if e]
    rest = Poly._clean(p.n, {tuple(a - b for a, b in zip(exp, mono)): c for exp, c in p.items()})
    for part, mult in _squarefree_raw(rest):
        for q in _irreducible_factors(canonical(part, vars)):
            parts.append((canonical(q, vars), mult))
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


def _irreducible_factors(f: Poly) -> list[Poly]:
    """The irreducible factors of an integer polynomial f that is square-free
    and primitive in its last variable x, as :func:`_squarefree_raw`'s parts are.

    A univariate f goes to Zassenhaus.  Otherwise f is evaluated at integer
    points of the other variables y, from a fixed sequence, where the image
    keeps its degree in x and stays square-free, and only the first such
    image is factored.  An irreducible image proves f irreducible: a split
    ``f = g*h`` would give images of positive degree.  Else the image's
    factors are lifted over ``Q[[y - a]]`` and the true factors are
    recombined from subsets.  Factoring further images could only pick one
    with fewer factors, or an irreducible one when f is irreducible but its
    first image splits; neither saved as much as the factoring cost.
    """
    used = sorted(f.variables_used())
    x, ys = used[-1], used[:-1]
    if not ys:
        return [
            Poly(f.n, {tuple(i if j == x else 0 for j in range(f.n)): c for i, c in enumerate(g)})
            for g in factor_squarefree(_on_line(f, x, {}))
        ]
    n = f.degree_in(x)
    for a in _points(len(ys)):
        image = _on_line(f, x, dict(zip(ys, a)))
        if image[n] and is_squarefree(image):
            break
    unit = math.gcd(*image) * (1 if image[n] > 0 else -1)
    factors = factor_squarefree([c // unit for c in image])
    if len(factors) == 1:
        return [f]
    return _lift_and_recombine(f, x, ys, a, factors)


def _on_line(f: Poly, j: int, x) -> list:
    """f on the line where x_j is free and each other variable x_k is
    ``x[k]``, for x a list or a dict by variable index: its coefficients in
    x_j, lowest degree first."""
    # not p.compose: this gives the coefficient list that vrg._zfactor works on
    out = [0] * (f.degree_in(j) + 1)
    for exp, c in f.items():
        for k, e in enumerate(exp):
            if e and k != j:
                c = c * x[k] ** e
        out[exp[j]] += c
    return out


def _points(m: int):
    """Integer points with nonzero coordinates, from a fixed sequence whose
    range widens as it goes on."""
    rng = random.Random(1)
    for t in itertools.count():
        bound = 3 + t // 4
        yield tuple(rng.choice((-1, 1)) * rng.randint(1, bound) for _ in range(m))


def _lift_and_recombine(f: Poly, x: int, ys: list[int], a: tuple, factors) -> list[Poly]:
    m = len(ys)
    shift = dict(zip(ys, a))
    # the series are in y - a: p(y + a) goes in, and s(y - a) comes out
    there, back = (
        [Poly.variable(f.n, j) + sign * shift.get(j, 0) for j in range(f.n)] for sign in (1, -1)
    )

    def series(p: Poly) -> dict:
        out: dict = {}
        for exp, c in p.compose(there).items():
            coeffs = out.setdefault(tuple(exp[j] for j in ys), [])
            coeffs.extend([0] * (exp[x] + 1 - len(coeffs)))
            coeffs[exp[x]] = c
        return out

    def from_series(s: dict) -> Poly:
        terms = {}
        for e, coeffs in s.items():
            for i, c in enumerate(coeffs):
                exp = [0] * f.n
                exp[x] = i
                for j, ej in zip(ys, e):
                    exp[j] = ej
                terms[tuple(exp)] = c
        return Poly(f.n, terms).compose(back)

    def y_degree(p: Poly) -> int:
        return max(sum(exp[j] for j in ys) for exp, _ in p.items())

    def lead(p: Poly) -> Poly:
        return _coeff_in(p, x, p.degree_in(x))

    # a true factor g comes out as lead(f)/lead(g) * g, of degree at most k
    # in y; one degree more tells most false candidates apart cheaply
    k = y_degree(f) + y_degree(lead(f)) + 1
    monic = series_quotient(series(f), series(lead(f)), m, k)
    lifted = lift(monic, [[Fraction(c, g[-1]) for c in g] for g in factors], m, k)

    def candidate(f: Poly, subset: list[dict]) -> tuple | None:
        h = series(lead(f))
        for u in subset:
            h = series_mul(h, u, k)
        bound = y_degree(f) + y_degree(lead(f))
        if any(sum(e) > bound for e in h):
            return None
        g = from_series(h)
        g = g.exact_div(_content_in(g, x))
        try:
            return g, f.exact_div(g)
        except NotDivisibleError:
            return None

    return recombine(f, lifted, candidate)


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


def line_zero(q: Poly, draw: Callable[[], Fraction]) -> tuple | None:
    """A zero ``x0`` of q over ``Q[s]/(m)``, for a monic irreducible m: x_j
    is the first variable of least positive degree in q, the others are
    drawn in order, again while q is constant on the line ``x_j = s``, and m
    is q on that line when it is linear, else its first irreducible factor
    over Q, in :func:`factor`'s order.  ``x0[j]`` is the residue of s, which
    carries m, or the root of m when m is linear.  None when q is constant,
    or after 200 draws."""
    j = min((k for k in range(q.n) if q.degree_in(k)), key=q.degree_in, default=None)
    if j is None:
        return None
    for _ in range(200):
        x = [0 if k == j else draw() for k in range(q.n)]
        on_line = _on_line(q, j, x)
        while on_line and not on_line[-1]:
            on_line.pop()
        if len(on_line) < 2:
            continue
        m = _first_factor(on_line) if len(on_line) > 2 else on_line
        x[j] = residue([Fraction(c, m[-1]) for c in m])
        return tuple(x)
    return None


_LINE = VarTable(("s",), (1,))


def _first_factor(f: list) -> list:
    """The coefficients of ``factor(f).factors[0][0]`` for a rational f in s
    of degree 2 or more, both lowest degree first, from the square-free part
    of f over Q and the Zassenhaus factors of that part."""
    return min(
        rational_factors(squarefree_part(f)),
        key=lambda g: _factor_key(Poly(1, {(d,): c for d, c in enumerate(g)}), _LINE),
    )
