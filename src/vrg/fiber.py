"""Fiber counts of the generator map over exact base points.

Every base point is held exactly, as its coordinates ``y``: rationals and
:class:`~vrg.poly._Residue` values in ``Q[s]/(m)``, for a monic irreducible
``m`` in ``Q[s]`` that each residue carries (:func:`_modulus`).  The point
is y at a root ``alpha`` of m.  A rational point has ``m = s``; a complex
coordinate ``p + q*i`` is ``p + q*alpha`` with ``m = s^2 + 1``.  A branch
point of the audit for a contraction ``P~`` is the image ``u = f(x0)`` of a
zero x0 of a ramified prime Q over ``P~``, the one of least positive degree
in a variable: Q divides ``P~(f)``, so u is on ``P~ = 0``.  x0 is where a
rational line meets ``Z(Q)`` (:func:`~vrg.factor.line_zero`), over
``Q[s]/(m)``, rational when m is linear, as it is for a Q linear in a
variable; u is evaluated there, and is rational, with ``m = s``, when every
coordinate is.  A point is on ``p = 0`` when ``p(y)`` is 0 in ``Q[s]/(m)``.

The count is exact.  ``B`` is free of rank ``r`` over ``A`` on the standard
monomials ``b_l`` of the generators' lex basis, the spec's own, so the
fibers over all roots of ``m`` make up the algebra ``B (x)_A Q[s]/(m)``,
with Q-basis ``b_l*alpha^t``.  :func:`_tables` writes each border monomial ``x_j*b_k`` as
``sum_l c_l(f)*b_l`` once per spec, by the graded elimination of
:mod:`vrg.ideals` on the rows ``f^a*b_l``, which also checks that B is free.
From those tables it builds, also once per spec, the trace form over A: one
run of :func:`_normal_forms` with the tags as the point gives, for each
product exponent ``g = b_k + b_l``, the tag polynomial ``Tr(x^g)``.
:func:`_algebra` evaluates the form at the point, in ``Q[s]/(m)``, and needs
no Groebner basis or normal form of its own.  The rank of the trace form
``Tr(v*w)`` on the basis ``b_l*alpha^t`` is the number of distinct points
over all roots of ``m`` (Pedersen-Roy-Szpirglas 1993; Cox-Little-O'Shea,
*Using Algebraic Geometry*, ch. 2 section 5), and conjugate fibers have
equal size.  The rank is taken by the same fraction-free row reduction in
integers that solves the graded pieces, at the point ``a_i = c^(w_i)*y_i``
with integer coefficients, for c the lcm of the denominators in y and ``w_i`` the tags'
weights; one power table of a serves every entry of the form.  That is
exact: each entry ``Tr(x^g)`` is weighted-homogeneous of degree
``wdeg(g)``, so its value at y is ``c^(-wdeg(g))`` times its value at a, and
the form at y is ``D*H*D`` for the form H at a and the invertible diagonal
``D = diag(c^(-wdeg(b_k)))``, of the same rank.  The audit's generic
samples first try a cheaper proof: the form over A with its coefficients
mod the prime ``2^61 - 1``, evaluated at the point mod that prime.  Each coefficient of the form is a
sum of products of the tables' coefficients, so when the prime divides no
denominator of the form or of the point, the form mod p is the image of the
form over Q, whose rank is at least as large; so full rank mod p proves full
rank over Q, and the count ``len(basis)``.  A short rank proves nothing, and
the exact rank decides.

:func:`fiber_points`, the listing that ``vrg fiber`` prints, reads the points
off the same trace algebra by the rational univariate representation
(Rouillier 1999), with the normal forms of the border tables specialized at
the point, over ``Q[s]/(m)``; their traces to Q come from the traces
``Tr(b_l*alpha^t)`` that :func:`_algebra` returns.  For ``L = sum_j c^j
x_j``, ``c = 1, 2, ...``, the power sums ``Tr(L^i)`` give the
characteristic polynomial of ``L`` (Newton's identities), and ``L``
separates the points exactly when its square-free part ``f`` has the
counted number of roots.  At most ``(n-1)*N(N-1)/2`` values
of c fail to separate N points, so a search past them stops with a
:class:`~vrg.errors.TheoremViolationError`: the rank is not the count.  A
point is then ``x_j = g_j(t)/g_0(t)`` at a root ``t`` of ``f``, with
``g_v = sum_i Tr(v*L^i)*H_(D-1-i)`` over the Horner polynomials ``H`` of
``f``.  A linear factor of ``f`` gives an exact rational point; only
irreducible factors of degree two or more are solved numerically (mpmath
polyroots, 50 digits), each once.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from numbers import Real
from operator import add
from typing import Callable, Mapping, NamedTuple, Sequence

import mpmath

from ._zfactor import rational_factors, squarefree_part
from .errors import FiberProbeError, TheoremViolationError
from .extension import ExtensionSpec, validate
from .factor import line_zero
from .ideals import (
    _eliminate,
    _eliminate_mod,
    _graded_piece,
    _power_images,
    _standard_monomials,
    tag_table,
)
from .poly import Exponent, Poly, _Residue, evaluator, format_poly, reduce_leading, residue

DEFAULT_DPS = 50

Component = Fraction | complex

@dataclass(frozen=True)
class FiberSample:
    """One base point with its exactly counted fiber."""

    u: tuple[Component, ...]
    count: int
    classification: str  # "generic" | "branch"
    on_branch_of: tuple[int, ...]


def _modulus(y: tuple) -> list:
    """The monic m of the point y, lowest degree first: the one its
    residues share, or ``s`` when every coordinate is rational."""
    return next((x.m for x in y if isinstance(x, _Residue)), [0, 1])


def _complex(y: tuple) -> tuple[Component, ...]:
    """The point y at alpha, the root of m of largest imaginary part (i for
    ``s^2 + 1``): a rational coordinate stays exact, a residue is complex."""
    alpha = _roots(_modulus(y))[0]
    return tuple(complex(_at(x, alpha)) if isinstance(x, _Residue) else x for x in y)


def _roots(p: list) -> tuple:
    """The roots of a square-free rational polynomial, lowest degree first:
    exact when it is linear, else to DEFAULT_DPS digits, largest imaginary
    part first."""
    if len(p) == 2:
        return (Fraction(-p[0], p[1]),)
    with mpmath.workdps(DEFAULT_DPS):
        try:
            roots = mpmath.polyroots(p[::-1], maxsteps=100, extraprec=60)
        except mpmath.libmp.libhyper.NoConvergence as exc:
            raise FiberProbeError("root finding did not converge") from exc
    return tuple(sorted(roots, key=lambda z: (-z.imag, z.real)))


def _at(x, alpha):
    """The value of x in ``Q[s]/(m)`` at a root alpha of m, by Horner's rule."""
    return reduce(lambda value, c: value * alpha + c, reversed(_coefficients(x)))


def _rational(x) -> Fraction:
    """The exact value of a finite rational, float or mpmath mpf."""
    if not isinstance(x, Real):
        raise FiberProbeError(f"base point component {x!r} is not a number")
    if not mpmath.isfinite(x):
        raise FiberProbeError(f"base point component {x} is not finite")
    if hasattr(x, "man_exp"):  # an mpf, whose value is +-man * 2**exp
        man, exp = x.man_exp
        return Fraction(-man if x < 0 else man) * Fraction(2) ** exp
    return Fraction(x)


def _exact_point(u) -> tuple:
    """A base point from its coordinates; a float, complex or mpmath
    coordinate is its exact binary value, and a pair ``(p, q)`` is
    ``p + q*i``, with i the residue of s modulo ``s^2 + 1``."""
    parts = [
        value if isinstance(value, tuple) and len(value) == 2
        else (getattr(value, "real", value), getattr(value, "imag", 0))
        for value in u
    ]
    a = tuple(_rational(p) for p, _ in parts)
    b = tuple(_rational(q) for _, q in parts)
    if not any(b):
        return a
    i = residue([1, 0, 1])
    return tuple(p + q * i if q else p for p, q in zip(a, b))


class _Tables(NamedTuple):
    """B as a free A-module, built by :func:`_tables` once per spec, which
    keeps it as ``ExtensionSpec.fiber_tables``."""

    basis: list  # the origin basis b_k, exponents with b_0 = 1
    border: dict  # x_j*b_k outside it: {l: c_l}, x_j*b_k = sum_l c_l(f)*b_l
    products: list  # the exponents of b_k*b_l, row k
    form: dict  # Tr(x^g) in the tags, for each distinct product g
    weights: tuple  # the tags' weights, those of the generators
    degrees: list  # wdeg(b_k)


def _tables(spec: ExtensionSpec) -> _Tables:
    """B as a free A-module, once per spec: the origin basis ``b_k``, the
    standard monomials of the generators' lex basis, and for each border
    monomial ``x_j*b_k`` outside it, its coordinates ``{l: c_l}`` with
    ``x_j*b_k = sum_l c_l(f)*b_l``, each ``c_l`` a polynomial in the tags.
    They are found by graded elimination of the rows ``f^a*b_l`` in each
    degree of a border monomial.  Then the trace form over A,
    ``Tr(b_k*b_l)``: :func:`_normal_forms` with the tags as the point.

    The spec is validated first, and the origin basis is read off its lex
    basis, built once per spec.  Freeness of rank r is checked here, once
    per spec: the origin basis has r elements, no degree has a linear
    relation among its rows, and every border monomial reduces to zero
    against them.
    """
    n = spec.n
    r = validate(spec)
    basis = _standard_monomials(spec.lex_basis, n)
    if len(basis) != r:
        raise TheoremViolationError(
            f"the origin basis has {len(basis)} standard monomials, not"
            f" r = {r}: B is not free of rank {r} over A"
        )
    border = {_step(b, j, 1) for b in basis for j in range(n)} - set(basis)
    power = _power_images(spec, lambda g: g)

    def image(a: Exponent, l: int) -> Poly:  # f^a*b_l
        return Poly._clean(n, {tuple(map(add, e, basis[l])): c for e, c in power(a).items()})

    weights, shifts = tag_table(spec).weights, [spec.vars.wdeg(b) for b in basis]
    table = {}
    for d in sorted({spec.vars.wdeg(g) for g in border}):
        rows, kernel = _graded_piece(image, weights, d, shifts)
        if kernel:
            raise TheoremViolationError(
                f"the rows f^a*b_l of degree {d} are linearly dependent:"
                " B is not free over A on the origin basis"
            )
        for g in (g for g in border if spec.vars.wdeg(g) == d):
            rest, tag = {g: 1}, {}
            reduce_leading(rest, tag, rows.get)
            if rest:
                raise TheoremViolationError(
                    f"the border monomial {format_poly(Poly._clean(n, {g: 1}), spec.vars)}"
                    " is not in the span of the origin basis over A: B is not free over A on it"
                )
            coordinates: dict = {}
            for (a, l), c in tag.items():  # g - tag(f, b) == rest == 0
                coordinates.setdefault(l, {})[a] = -c
            table[g] = {l: Poly._clean(n, terms) for l, terms in coordinates.items()}
    products = [[tuple(map(add, bk, bl)) for bl in basis] for bk in basis]
    nf = _normal_forms(basis, table, [Poly.variable(n, j) for j in range(n)])
    trace = [sum(nf(g).get(l, 0) for l, g in enumerate(row)) for row in products]  # Tr(b_k)
    zero = Poly.zero(n)  # a trace of 0 is the int 0
    form = {g: zero + _trace(nf(g), trace) for g in set(itertools.chain(*products))}
    return _Tables(basis, table, products, form, weights, shifts)


def _count(y: tuple, tables: _Tables) -> int:
    """The number of points over y at alpha: the trace form's rank over
    ``deg m``, as conjugate fibers have equal size."""
    return _algebra(y, tables)[1] // (len(_modulus(y)) - 1)


def _coefficients(x) -> tuple:
    """The coefficients of ``x`` in Q[s]/(m), lowest degree first; a
    rational is its constant term."""
    return x.c if isinstance(x, _Residue) else (x,)


def _power_sums(m: list, count: int) -> list:
    """``Tr(alpha^e)``, the sum of ``alpha^e`` over the roots of the monic m
    (lowest degree first), for ``e < count``, by Newton's identities."""
    size = len(m) - 1
    p = [size]
    for k in range(1, count):
        total = sum(m[size - i] * p[k - i] for i in range(1, min(k, size + 1)))
        p.append(-(total + k * m[size - k] if k <= size else total))
    return p


def _normal_forms(basis: list, border: dict, y: Sequence) -> Callable:
    """The normal-form map of the fiber algebra over ``y``, with the border
    tables specialized at y, in any commutative ring containing Q: the tags
    themselves for the form over A, or a point's coordinates.

    A normal form is a sparse vector ``{k: coefficient of b_k}``, memoized
    per exponent g and built a variable at a time: ``NF(x^g) = sum_k c_k
    NF(x_j*b_k)`` where ``NF(x^(g - e_j)) = sum_k c_k b_k``.  Only sums and
    products are taken, so specializing the form over A at a point gives
    the values this map would give there.
    """
    memo: dict[Exponent, dict[int, object]] = {e: {k: 1} for k, e in enumerate(basis)}
    at = evaluator(y)

    def nf(g: Exponent) -> dict[int, object]:
        if g in memo:
            return memo[g]
        if g in border:
            out = {l: v for l, c in border[g].items() if (v := at(c))}
        else:
            j = next(j for j, e in enumerate(g) if e)
            v = nf(_step(g, j, -1))
            out = _combine(v, {k: nf(_step(basis[k], j, 1)) for k in v})
        memo[g] = out
        return out

    return nf


def _algebra(y: tuple, tables: _Tables) -> tuple[list, int]:
    """The traces ``Tr(b_l*alpha^t)`` on the Q-basis ``b_l*alpha^t`` of the
    fiber algebra ``B (x)_A Q(alpha)`` over the point, of dimension ``r*deg
    m`` over Q, and the rank of its trace form, the number of distinct
    points over all roots of m.

    The form over A is evaluated at the point ``a_i = c^(w_i)*y_i`` with
    integer coefficients, c the lcm of the denominators in y, where its
    rank is that at y, as the module docstring shows.  The trace to Q of
    ``alpha^t*v`` is ``sum_e v_e Tr(alpha^(t+e))``, and ``Tr(b_l)`` at y is
    the form's entry at ``b_l = b_l*b_0`` at a, times ``c^(-wdeg(b_l))``.
    """
    m = _modulus(y)
    size = len(m) - 1
    sums = _power_sums(m, 3 * size - 2)
    c = math.lcm(*(v.denominator for x in y for v in _coefficients(x)))
    at = evaluator([_times(x, c**w) for x, w in zip(y, tables.weights)])

    def to_q(x, t: int):  # the trace to Q of alpha^t*x
        return sum(v * sums[t + e] for e, v in enumerate(_coefficients(x)))

    # for each distinct product g, the traces to Q of alpha^t*Tr(x^g)(a), t < 2D - 1
    trace_of = {
        g: [to_q(x, t) for t in range(2 * size - 1)] for g, p in tables.form.items() for x in [at(p)]
    }
    rows = (
        {j * size + u: v for j, g in enumerate(row) for u in range(size) if (v := trace_of[g][t + u])}
        for row in tables.products
        for t in range(size)
    )
    rank = len(_eliminate((row, {}) for row in rows)[0])
    traces = [
        Fraction(trace_of[b][t], c**d) for b, d in zip(tables.basis, tables.degrees) for t in range(size)
    ]
    return traces, rank


def _times(x, k: int):
    """``k*x`` for x in ``Q[s]/(m)``, whose coefficients are integers: stored as ints."""
    scaled = tuple(int(v * k) for v in _coefficients(x))
    return _Residue(scaled, x.m) if isinstance(x, _Residue) else scaled[0]


def _combine(v: dict, rows) -> dict:
    """The sparse vector ``sum_k v[k]*rows[k]``."""
    out: dict = {}
    for k, c in v.items():
        for l, d in rows[k].items():
            out[l] = out.get(l, 0) + c * d
    return {l: c for l, c in out.items() if c}


def _trace(v: dict, weights: list):
    """``sum_k v[k]*weights[k]``: Tr(v) when weights[k] = Tr(b_k)."""
    return sum(c * weights[k] for k, c in v.items())


def _step(e: Exponent, j: int, by: int) -> Exponent:
    return e[:j] + (e[j] + by,) + e[j + 1 :]


def fiber_count(
    spec: ExtensionSpec,
    u: Sequence,
    contractions: Sequence[Poly] | None = None,
) -> FiberSample:
    """Count the distinct solutions of f(x) = u, exactly.

    A coordinate of ``u`` is an int, a Fraction, a float, a complex number
    (Python's or mpmath's) or a pair ``(p, q)`` of reals for ``p + q*i``; a
    float part is taken as its exact binary value.  ``contractions``
    (tag-variable polynomials) are only used to annotate which branch
    hypersurfaces the base point lies on.
    """
    return _probe(spec, u, contractions, 0)[0]


def _probe(spec: ExtensionSpec, u: Sequence, contractions, list_up_to: float) -> tuple:
    """:func:`fiber_count`'s sample and, if its count is at most ``list_up_to``,
    :func:`fiber_points`' listing (else None), both from one fiber algebra."""
    if len(u) != spec.n:
        raise FiberProbeError(f"base point needs {spec.n} components")
    y = _exact_point(u)
    tables = spec.fiber_tables
    r = len(tables.basis)
    traces, rank = _algebra(y, tables)
    count = rank // (len(_modulus(y)) - 1)
    sample = FiberSample(
        u=_complex(y),
        count=count,
        classification="generic" if count == r else "branch",
        on_branch_of=tuple(idx for idx, p in enumerate(contractions or ()) if _vanishes_at(p, y)),
    )
    listing = _listing(spec, y, tables, traces, rank) if count <= list_up_to else None
    return sample, listing


def _vanishes_at(p: Poly, y: tuple) -> bool:
    """Whether p vanishes at the point y, decided exactly in ``Q[s]/(m)``."""
    return not p.evaluate(y)


def fiber_points(spec: ExtensionSpec, u: Sequence):
    """The points over u and the largest ``|f(x) - u|`` among them; None when
    root finding gives up or is off, or a value is not a finite float.  ``u``
    is read as :func:`fiber_count` reads it, and the points are counted by
    the same trace form.  The points are tuples of complex numbers, in a
    fixed order."""
    return _probe(spec, u, (), math.inf)[1]


def _listing(spec: ExtensionSpec, y: tuple, tables: _Tables, traces: list, distinct: int):
    m = _modulus(y)
    nf = _normal_forms(tables.basis, tables.border, y)
    with mpmath.workdps(DEFAULT_DPS):
        try:
            targets = [[_at(x, alpha) for x in y] for alpha in _roots(m)]
            points = _rur_points(spec, nf, tables.basis, len(m) - 1, traces, distinct)
        except FiberProbeError:  # root finding gave up
            return None
        # the points over alpha = roots[0] are those where f is nearest
        # y at alpha of the conjugate points, y at each root
        solutions, offs = [], []
        for x in points:
            values = list(map(evaluator(x), spec.generators))
            off = [max(mpmath.mpmathify(abs(v - t)) for v, t in zip(values, ts)) for ts in targets]
            if off[0] == min(off):
                solutions.append(tuple(complex(mpmath.mpmathify(v)) for v in x))
                offs.append(float(off[0]))
    residual = max(offs)
    # the conjugate fibers have equal size, so a count off means a bad root
    finite = all(map(mpmath.isfinite, [residual, *itertools.chain(*solutions)]))
    if len(solutions) * (len(m) - 1) != len(points) or not finite:
        return None
    return tuple(solutions), residual


def _rur_points(
    spec: ExtensionSpec, nf: Callable, basis: list, size: int, traces: list, distinct: int
) -> list[tuple]:
    """The points over all roots of m, of degree size, as many as the trace
    form's rank, by the rational univariate representation; a rational
    L-value gives an exact point.  ``nf`` is the normal-form map over
    ``Q[s]/(m)`` and ``traces[k*size + t]`` the trace to Q of ``b_k*alpha^t``.

    ``L(p) - L(q)`` is a nonzero polynomial of degree at most ``n - 1`` in c
    for two points p and q, so at most ``(n-1)*N(N-1)/2`` values of c fail
    to separate N points; when the next value fails too, the rank is not
    the number of points, a :class:`TheoremViolationError`."""
    n = spec.n

    def to_q(v: dict):  # the trace to Q of sum_k v[k]*b_k
        return sum(
            c * traces[k * size + t] for k, x in v.items() for t, c in enumerate(_coefficients(x))
        )

    times = [[nf(_step(b, j, 1)) for b in basis] for j in range(n)]  # NF(x_j*b_k)
    tries = (n - 1) * distinct * (distinct - 1) // 2 + 1
    for c in range(1, tries + 1):
        times_l = [  # NF(L*b_k)
            _combine({j: c**j for j in range(n)}, [row[k] for row in times])
            for k in range(len(basis))
        ]
        powers = [nf((0,) * n)]  # NF(L^i), up to the dimension over Q
        while len(powers) <= len(basis) * size:
            powers.append(_combine(powers[-1], times_l))
        chi = _newton([to_q(v) for v in powers[1:]])
        f = squarefree_part(chi)
        if len(f) - 1 == distinct:
            break
    else:
        raise TheoremViolationError(
            f"fiber listing: no L = sum c^j*x_j with c = 1..{tries} separates the"
            f" points, so the trace form's rank {distinct} is not their number"
        )
    # Tr(v*L^i) for i < distinct and v = 1, x_1, ..., x_n
    sums = [[to_q(v) for v in powers[:distinct]]] + [
        [to_q(_combine(v, row)) for v in powers[:distinct]] for row in times
    ]
    points = []
    for q in rational_factors(f):
        for t in _roots(q):
            horner = [1]  # H_i(t), with H_0 = 1 and H_i = t*H_(i-1) + f_(D-i)
            for i in range(1, distinct):
                horner.append(t * horner[-1] + f[distinct - i])
            g = [sum(s * h for s, h in zip(row, reversed(horner))) for row in sums]
            points.append(tuple(gj / g[0] for gj in g[1:]))
    return points


def _newton(power_sums: list) -> list:
    """The monic polynomial, lowest degree first, whose roots have the power
    sums ``p_1, ..., p_N`` (Newton's identities)."""
    e = [Fraction(1)]  # the elementary symmetric functions
    for k in range(1, len(power_sums) + 1):
        e.append(sum((-1) ** (i - 1) * e[k - i] * power_sums[i - 1] for i in range(1, k + 1)) / k)
    size = len(power_sums)
    return [(-1) ** (size - d) * e[size - d] for d in range(size + 1)]


# ---------------------------------------------------------------------------
# branch audit
# ---------------------------------------------------------------------------


def _random_rational(rng: random.Random) -> Fraction:
    num = rng.randint(-24, 24)
    while num == 0:
        num = rng.randint(-24, 24)
    return Fraction(num, rng.randint(1, 4))


def _generic_point(spec, contractions, rng) -> tuple[Fraction, ...]:
    for _ in range(200):
        u = tuple(_random_rational(rng) for _ in range(spec.n))
        if all(value != 0 for value in map(evaluator(u), contractions)):
            return u
    raise FiberProbeError("could not sample a point off the branch locus")


# a Mersenne prime, for the generic samples' certificate
_P = 2**61 - 1


def _mod_p(c) -> int:
    """The image of the rational c in the integers mod _P; ValueError when _P
    divides its denominator."""
    return c.numerator * pow(c.denominator, -1, _P) % _P


def _form_mod_p(tables: _Tables) -> tuple | None:
    """The products and the trace form over A with every coefficient taken
    mod _P, once per audit; None when _P divides a denominator of one."""
    try:
        return tables.products, {
            g: Poly._clean(p.n, {e: r for e, c in p.items() if (r := _mod_p(c))})
            for g, p in tables.form.items()
        }
    except ValueError:
        return None


def _full_rank_mod_p(u: tuple[Fraction, ...], modular: tuple | None) -> bool:
    """Whether the trace form at the rational point u has full rank mod _P,
    from the form over A mod _P: proof that u has ``len(basis)`` points.
    Every coefficient of the form is a sum of products of the tables'
    coefficients, so when _P divides none of the form's denominators or u's,
    its entries at u mod _P are the images of the entries over Q, and the
    rank mod _P is at most the rank over Q, itself at most ``len(basis)``.
    False when _P divides a denominator, or the rank mod _P is short: the
    exact count then decides."""
    if modular is None:
        return False
    try:
        y = [_mod_p(c) for c in u]
    except ValueError:
        return False
    products, form = modular
    at = evaluator(y)
    value = {g: at(p) % _P for g, p in form.items()}
    rows = ({k: v for k, g in enumerate(row) if (v := value[g])} for row in products)
    return len(_eliminate_mod(rows, _P)) == len(products)


def _branch_point(spec: ExtensionSpec, report, p: Poly, rng: random.Random) -> tuple:
    """A point of the branch hypersurface ``p = 0`` of a contraction in the
    report: ``u = f(x0)`` at the zero x0 of :func:`~vrg.factor.line_zero`
    on the ramified prime Q over p of least positive degree in a variable, on
    it since Q divides ``p(f)``.  u is rational, with ``m = s``, when every
    coordinate is."""
    primes = [d.prime for d in report.ramification if d.contraction == p]
    q = min(primes, key=lambda q: min(filter(None, map(q.degree_in, range(q.n))), default=math.inf))
    x0 = line_zero(q, lambda: _random_rational(rng))
    if x0 is None:
        raise FiberProbeError("could not sample a point on the hypersurface")
    y = tuple(map(evaluator(x0), spec.generators))
    if not any(c for x in y for c in _coefficients(x)[1:]):  # a rational image
        y = tuple(Fraction(_coefficients(x)[0]) for x in y)
    if not _vanishes_at(p, y):
        raise TheoremViolationError(
            f"the image of a zero of {format_poly(q, spec.vars)}, a prime over"
            f" {format_poly(p, tag_table(spec))}, is off that branch hypersurface:"
            " the prime does not lie over the contraction"
        )
    return y


def passing_audit(spec: ExtensionSpec, report, samples: int, seed: int) -> dict:
    """The audit :func:`branch_audit` writes when every sample passes: one
    branch entry per distinct contraction of the report, in its order,
    printed in the tag ring, and no violation."""
    if isinstance(samples, bool) or not isinstance(samples, int) or samples < 0:
        raise FiberProbeError(f"the sample count must be a nonnegative integer, got {samples!r}")
    tags = tag_table(spec)

    def entry(head: dict, key: str) -> dict:
        return {**head, "requested": samples, key: samples, "violations": []}

    return {
        "seed": seed,
        "samples": samples,
        "degree": report.degree,
        "generic": entry({}, "equal_r"),
        "branch": [
            entry({"contraction": format_poly(p, tags)}, "below_r")
            for p in report.distinct_contractions()
        ],
        "all_counts_at_most_r": True,
    }


def is_passing_audit(spec: ExtensionSpec, report, audit: Mapping) -> bool:
    """Whether a stored audit is :func:`passing_audit` for its own samples and
    seed, both ints and samples nonnegative; the samples are not redrawn."""
    samples, seed = audit.get("samples"), audit.get("seed")
    return (
        all(isinstance(v, int) and not isinstance(v, bool) for v in (samples, seed))
        and samples >= 0
        and audit == passing_audit(spec, report, samples, seed)
    )


def branch_audit(spec: ExtensionSpec, report, samples: int = 20, seed: int = 0) -> dict:
    """Sampled evidence for the fiber-cardinality statements, counted exactly.

    Generic points must hit the full degree r; points on each branch
    hypersurface must stay below r.  The audit starts as
    :func:`passing_audit`, and each failed sample takes one off its entry's
    tally and adds a violation.  Generic points are drawn first.  Each
    is counted ``len(basis)`` when its trace form has full rank mod _P
    (:func:`_full_rank_mod_p`), and exactly otherwise.  A branch point of a
    contraction is the image of a zero of a ramified prime over it
    (:func:`_branch_point`), and is always counted exactly: its trace form
    is short by design.
    """
    audit = passing_audit(spec, report, samples, seed)
    r = report.degree
    contractions = report.distinct_contractions()
    tables = spec.fiber_tables
    modular = _form_mod_p(tables)
    rng = random.Random(seed)

    def fail(entry: dict, key: str, y: tuple, count: int) -> None:
        entry[key] -= 1
        entry["violations"].append({"u": list(map(str, _complex(y))), "count": count})
        # a count above r fails either test, so it is a violation
        audit["all_counts_at_most_r"] &= count <= r

    for _ in range(samples):
        y = _generic_point(spec, contractions, rng)
        count = len(tables.basis) if _full_rank_mod_p(y, modular) else _count(y, tables)
        if count != r:
            fail(audit["generic"], "equal_r", y, count)
    for entry, p in zip(audit["branch"], contractions):
        for _ in range(samples):
            y = _branch_point(spec, report, p, rng)
            if (count := _count(y, tables)) >= r:
                fail(entry, "below_r", y, count)
    return audit
