"""Fiber counts of the generator map over exact base points.

Every base point is held exactly, as rational vectors ``a`` and ``b`` and a
monic irreducible ``m`` in ``Q[s]``: the point is ``a + alpha*b`` for a root
``alpha`` of ``m``.  A rational point ``u`` is ``a = u, b = e_1, m = s``; a
complex one ``p + q*i`` is ``a = p, b = q, m = s^2 + 1``; a branch point of
the audit is where a rational line meets the branch hypersurface, with ``m``
an irreducible factor of the contraction restricted to the line.  With
``s = (f_k - a_k)/b_k`` for the first ``b_k != 0``, the fibers over all roots
of ``m`` are eliminated together by one lex Groebner basis over the
rationals, of ``f_j - a_j - b_j*s`` for ``j != k`` and ``m(s)``.

The count is exact.  ``B`` is free of rank ``r`` over ``A``, so the basis has
``r*deg m`` standard monomials, which every sample checks.  The rank of the
trace form ``Tr(b_i*b_j)`` on them is the number of distinct points over all
roots of ``m`` (Pedersen-Roy-Szpirglas 1993; Cox-Little-O'Shea, *Using
Algebraic Geometry*, ch. 2 section 5), and conjugate fibers have equal size.
The standard monomials are read by :mod:`vrg.ideals`, which also takes the
rank, by the same exact row reduction over Q that solves its graded pieces.

:func:`fiber_points`, the listing that ``vrg fiber`` prints, reads the points
off the same trace algebra by the rational univariate representation
(Rouillier 1999).  For ``L = sum_j c^j x_j``, ``c = 1, 2, ...``, the power
sums ``Tr(L^i)`` give the characteristic polynomial of ``L`` (Newton's
identities), and ``L`` separates the points exactly when its square-free part
``f`` has the counted number of roots.  A point is then ``x_j = g_j(t)/g_0(t)``
at a root ``t`` of ``f``, with ``g_v = sum_i Tr(v*L^i)*H_(D-1-i)`` over the
Horner polynomials ``H`` of ``f``.  A linear factor of ``f`` gives an exact
rational point; only irreducible factors of degree two or more are solved
numerically (mpmath polyroots, 50 digits), each once.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

import mpmath

from ._zfactor import _derivative, _divmod, _gcd, _primitive, factor_squarefree
from .errors import FiberProbeError, TheoremViolationError
from .extension import ExtensionSpec, validate
from .factor import factor
from .groebner import GroebnerBasis, groebner, normal_form
from .ideals import _eliminate, _standard_monomials, tag_table
from .poly import Exponent, Poly, VarTable, format_poly

DEFAULT_DPS = 50

Component = Fraction | complex

# the line parameter s of a base point
_LINE = VarTable(("s",), (1,))
_S = Poly.variable(1, 0)


@dataclass(frozen=True)
class FiberSample:
    """One base point with its exactly counted fiber."""

    u: tuple[Component, ...]
    count: int
    classification: str  # "generic" | "branch"
    on_branch_of: tuple[int, ...]


@dataclass(frozen=True)
class _Point:
    """The base point ``a + roots[0]*b`` for the monic irreducible ``m`` in
    ``Q[s]``; the roots are found only when asked for."""

    a: tuple[Fraction, ...]
    b: tuple[Fraction, ...]
    m: Poly

    @cached_property
    def roots(self) -> tuple:
        """The roots of m (exact when m is linear), largest imaginary part
        first: alpha = i for ``s^2 + 1``."""
        return _roots([self.m.coefficient((d,)) for d in range(self.m.degree_in(0) + 1)])

    @property
    def u(self) -> tuple[Component, ...]:
        alpha = self.roots[0]
        if self.m.degree_in(0) == 1:
            return tuple(ai + alpha * bi for ai, bi in zip(self.a, self.b))
        return tuple(complex(ai + alpha * bi) if bi else ai for ai, bi in zip(self.a, self.b))


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


def _rational_point(u: tuple[Fraction, ...]) -> _Point:
    return _Point(u, (1,) + (0,) * (len(u) - 1), _S)


def _line(a, b) -> list[Poly]:
    """The coordinates of ``a + s*b`` as polynomials in s."""
    return [Poly(1, {(0,): ai, (1,): bi}) for ai, bi in zip(a, b)]


def _rational(x) -> Fraction:
    """The exact value of a finite rational, float or mpmath mpf."""
    if not mpmath.isfinite(x):
        raise FiberProbeError(f"base point component {x} is not finite")
    if hasattr(x, "man_exp"):  # an mpf, whose value is +-man * 2**exp
        man, exp = x.man_exp
        return Fraction(-man if x < 0 else man) * Fraction(2) ** exp
    return Fraction(x)


def _exact_point(u) -> _Point:
    """A base point from its coordinates; a float, complex or mpmath
    coordinate is its exact binary value, and a pair ``(p, q)`` is
    ``p + q*i``."""
    parts = [value if isinstance(value, tuple) else (value.real, value.imag) for value in u]
    a = tuple(_rational(p) for p, _ in parts)
    b = tuple(_rational(q) for _, q in parts)
    if not any(b):
        return _rational_point(a)
    return _Point(a, b, _S**2 + 1)


def _basis(spec: ExtensionSpec, point: _Point) -> GroebnerBasis:
    """Reduced lex basis of the fibers over ``a + alpha*b`` for all roots alpha of m."""
    k = next(j for j, bj in enumerate(point.b) if bj)
    s = (spec.generators[k] - point.a[k]) / point.b[k]
    gens = [
        point.m.compose([s]) if j == k else f - point.a[j] - point.b[j] * s
        for j, f in enumerate(spec.generators)
    ]
    return groebner(gens, spec.vars)


def _count(spec: ExtensionSpec, point: _Point, r: int, algebra: tuple | None = None) -> int:
    """The number of points over ``a + alpha*b``, from the rank of the
    trace form on the standard monomials of the fiber basis."""
    monomials, _, _, rank = algebra or _algebra(spec, point)
    degree = point.m.degree_in(0)
    if len(monomials) != r * degree:
        raise TheoremViolationError(
            f"a fiber algebra has {len(monomials)} standard monomials, not"
            f" r*deg m = {r * degree}: B is not free of rank {r} over A"
        )
    return rank // degree


def _algebra(spec: ExtensionSpec, point: _Point) -> tuple[list, Callable, list, int]:
    """The algebra Q[X]/I of the fiber basis over the point: its standard
    monomials b_k, their normal forms, the traces ``Tr(b_k)``, and the rank
    of ``Tr(b_i*b_j)``, the number of distinct points over all roots of m.

    A normal form is a sparse vector ``{k: coefficient of b_k}``, memoized per
    exponent g and built a variable at a time: ``NF(x^g) = sum_k c_k
    NF(x_j*b_k)`` where ``NF(x^(g - e_j)) = sum_k c_k b_k``.  ``Tr(b_k)`` sums
    the ``b_l`` coefficients of ``NF(b_k*b_l)``, and ``Tr(v) = sum_k v_k
    Tr(b_k)``.
    """
    gb = _basis(spec, point)
    n = spec.n
    monomials = _standard_monomials(gb, n)
    index = {e: k for k, e in enumerate(monomials)}
    memo: dict[Exponent, dict[int, object]] = {e: {k: 1} for e, k in index.items()}

    def nf(g: Exponent) -> dict[int, object]:
        if g in memo:
            return memo[g]
        steps = [j for j in range(n) if g[j]]
        if any(_step(g, j, -1) in index for j in steps):  # next to the standard monomials
            out = {index[e]: c for e, c in normal_form(Poly._clean(n, {g: 1}), gb).items()}
        else:  # _combine inlined: every audit sample runs this
            out = {}
            for k, c in nf(_step(g, steps[0], -1)).items():
                for l, d in nf(_step(monomials[k], steps[0], 1)).items():
                    out[l] = out.get(l, 0) + c * d
            out = {l: c for l, c in out.items() if c}
        memo[g] = out
        return out

    products = [[tuple(map(sum, zip(bi, bj))) for bj in monomials] for bi in monomials]
    trace = [sum(nf(g).get(l, 0) for l, g in enumerate(row)) for row in products]
    # the trace form's rows, with one trace per distinct exponent
    trace_of = {g: _trace(nf(g), trace) for g in set(itertools.chain(*products))}
    rows = ({j: trace_of[g] for j, g in enumerate(row) if trace_of[g]} for row in products)
    return monomials, nf, trace, len(_eliminate((row, {}) for row in rows)[0])


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
    point = _exact_point(u)
    r = validate(spec)
    algebra = _algebra(spec, point)
    count = _count(spec, point, r, algebra)
    sample = FiberSample(
        u=point.u,
        count=count,
        classification="generic" if count == r else "branch",
        on_branch_of=tuple(
            idx for idx, p in enumerate(contractions or ()) if _vanishes_at(p, point)
        ),
    )
    return sample, _listing(spec, point, algebra) if count <= list_up_to else None


def _vanishes_at(p: Poly, point: _Point) -> bool:
    """Whether p vanishes at the point, decided exactly: whether m divides p
    on the line ``a + s*b``."""
    return point.m.divides(p.compose(_line(point.a, point.b)))


def fiber_points(spec: ExtensionSpec, u: Sequence):
    """The points over u and the largest ``|f(x) - u|`` among them; None when
    root finding gives up or is off, or a value is not a finite float.  ``u``
    is read as :func:`fiber_count` reads it, and the points are counted by
    the same trace form.  The points are tuples of complex numbers, in a
    fixed order."""
    return _probe(spec, u, (), math.inf)[1]


def _listing(spec: ExtensionSpec, point: _Point, algebra: tuple):
    with mpmath.workdps(DEFAULT_DPS):
        try:
            targets = [[a + alpha * b for a, b in zip(point.a, point.b)] for alpha in point.roots]
            points = _rur_points(spec, algebra)
        except FiberProbeError:  # root finding gave up
            return None
        # the points over alpha = roots[0] are those where f is nearest
        # a + alpha*b of the conjugate points a + root*b
        solutions, offs = [], []
        for x in points:
            values = [f.evaluate(x) for f in spec.generators]
            off = [max(mpmath.mpmathify(abs(v - t)) for v, t in zip(values, ts)) for ts in targets]
            if off[0] == min(off):
                solutions.append(tuple(complex(mpmath.mpmathify(v)) for v in x))
                offs.append(float(off[0]))
    residual = max(offs)
    # the conjugate fibers have equal size, so a count off means a bad root
    finite = all(map(mpmath.isfinite, [residual, *itertools.chain(*solutions)]))
    if len(solutions) * point.m.degree_in(0) != len(points) or not finite:
        return None
    return tuple(solutions), residual


def _rur_points(spec: ExtensionSpec, algebra: tuple) -> list[tuple]:
    """The points over all roots of m, as many as the trace form's rank, by
    the rational univariate representation; a rational L-value gives an exact point."""
    monomials, nf, trace, distinct = algebra
    n = spec.n
    times = [[nf(_step(b, j, 1)) for b in monomials] for j in range(n)]  # NF(x_j*b_k)
    for c in itertools.count(1):
        times_l = [  # NF(L*b_k)
            _combine({j: c**j for j in range(n)}, [row[k] for row in times])
            for k in range(len(monomials))
        ]
        powers = [nf((0,) * n)]  # NF(L^i)
        while len(powers) <= len(monomials):
            powers.append(_combine(powers[-1], times_l))
        chi = _newton([_trace(v, trace) for v in powers[1:]])
        f = _divmod(chi, _gcd(chi, _derivative(chi, 0), 0), 0)[0]  # square-free
        if len(f) - 1 == distinct:
            break
    # Tr(v*L^i) for i < distinct and v = 1, x_1, ..., x_n
    weights = [trace] + [[_trace(v, trace) for v in row] for row in times]
    sums = [[_trace(v, w) for v in powers[:distinct]] for w in weights]
    points = []
    den = math.lcm(*(c.denominator for c in f))
    for q in factor_squarefree(_primitive([int(c * den) for c in f])):
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
        if all(p.evaluate(u) != 0 for p in contractions):
            return u
    raise FiberProbeError("could not sample a point off the branch locus")


def _point_on_hypersurface(p: Poly, n: int, rng: random.Random) -> _Point:
    """A point with p = 0, where a random rational line parallel to axis j
    meets it: j is the first coordinate of lowest positive degree in p, and
    the point lies over the first irreducible factor of p on the line."""
    j = min((k for k in range(n) if p.degree_in(k) > 0), key=p.degree_in)
    axis = tuple(int(k == j) for k in range(n))
    for _ in range(200):
        a = tuple(Fraction(0) if k == j else _random_rational(rng) for k in range(n))
        on_line = p.compose(_line(a, axis))
        if on_line.is_constant():
            continue
        m = on_line if on_line.degree_in(0) == 1 else factor(on_line, _LINE).factors[0][0]
        return _Point(a, axis, m / m.leading()[1])
    raise FiberProbeError("could not sample a point on the hypersurface")


def branch_audit(spec: ExtensionSpec, report, samples: int = 20, seed: int = 0) -> dict:
    """Sampled evidence for the fiber-cardinality statements, counted exactly.

    Generic points must hit the full degree r; points on each branch
    hypersurface must stay below r.
    """
    r = report.degree
    contractions = report.distinct_contractions()
    tags = tag_table(spec)
    rng = random.Random(seed)

    def tally(head: dict, key: str, draw, passes) -> dict:
        entry = {**head, "requested": samples, key: 0, "violations": []}
        for _ in range(samples):
            point = draw()
            count = _count(spec, point, r)
            if passes(count):
                entry[key] += 1
            else:
                entry["violations"].append({"u": list(map(str, point.u)), "count": count})
        return entry

    generic = tally(
        {},
        "equal_r",
        lambda: _rational_point(_generic_point(spec, contractions, rng)),
        lambda count: count == r,
    )
    branch = [
        tally(
            {"contraction": format_poly(p, tags)},
            "below_r",
            lambda: _point_on_hypersurface(p, spec.n, rng),
            lambda count: count < r,
        )
        for p in contractions
    ]
    return {
        "seed": seed,
        "samples": samples,
        "degree": r,
        "generic": generic,
        "branch": branch,
        # a count above r fails either test, so it is a violation
        "all_counts_at_most_r": all(
            v["count"] <= r for entry in [generic, *branch] for v in entry["violations"]
        ),
    }
