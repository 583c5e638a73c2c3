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

Only :func:`fiber_points`, the listing that ``vrg fiber`` prints, is numeric
(mpmath, 50 digits).  It solves the unknowns last to first: for each partial
solution, the eligible basis element of lowest degree in the next unknown,
one whose leading coefficient does not vanish there, is specialized
(Gianni-Kalkbrener), after an element univariate in its unknown is made
square-free so that its repeated roots never reach Durand-Kerner.  Candidates
are filtered against every basis element and grouped by single linkage
into the counted number of points.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import mpmath

from .errors import FiberProbeError, TheoremViolationError
from .extension import ExtensionSpec, validate
from .factor import factor, gcd
from .groebner import GroebnerBasis, groebner, normal_form
from .ideals import tag_table
from .poly import Exponent, Poly, VarTable, format_poly

DEFAULT_DPS = 50
_CANDIDATE_CAP = 4096

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
        """The roots of m, largest imaginary part first: alpha = i for ``s^2 + 1``."""
        with mpmath.workdps(DEFAULT_DPS):
            roots = _poly_roots(*_univariate(self.m, 0, {}))
        return tuple(sorted(roots, key=lambda z: (-z.imag, z.real)))

    @property
    def u(self) -> tuple[Component, ...]:
        if self.m.degree_in(0) == 1:
            alpha = -self.m.coefficient((0,))
            return tuple(Fraction(ai + alpha * bi) for ai, bi in zip(self.a, self.b))
        alpha = self.roots[0]
        return tuple(
            complex(_to_mp(ai) + alpha * _to_mp(bi)) if bi else ai
            for ai, bi in zip(self.a, self.b)
        )


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


def _count(spec: ExtensionSpec, point: _Point, r: int) -> int:
    """The number of points over ``a + alpha*b``, from the rank of the
    trace form on the standard monomials of the fiber basis."""
    gb = _basis(spec, point)
    degree = point.m.degree_in(0)
    monomials = _standard_monomials(gb, spec.n)
    if len(monomials) != r * degree:
        raise TheoremViolationError(
            f"a fiber algebra has {len(monomials)} standard monomials, not"
            f" r*deg m = {r * degree}: B is not free of rank {r} over A"
        )
    return _rank(_trace_form(gb, monomials)) // degree


def _standard_monomials(gb: GroebnerBasis, n: int) -> list[Exponent]:
    """The exponents that no leading exponent of gb divides, inside the box
    of its pure powers (none when gb is not zero-dimensional)."""
    leads = [g.leading()[0] for g in gb]
    box = [min((lt[j] for lt in leads if sum(lt) == lt[j] > 0), default=0) for j in range(n)]
    return [
        e
        for e in itertools.product(*map(range, box))
        if not any(all(x <= y for x, y in zip(lt, e)) for lt in leads)
    ]


def _trace_form(gb: GroebnerBasis, monomials: list[Exponent]) -> list[list]:
    """The matrix ``Tr(b_i*b_j)`` of Q[X]/I on its standard monomials b_i.

    A normal form is a sparse vector ``{k: coefficient of b_k}``, memoized per
    exponent g and built a variable at a time: ``NF(x^g) = sum_k c_k
    NF(x_j*b_k)`` where ``NF(x^(g - e_j)) = sum_k c_k b_k``.  ``Tr(b_k)`` sums
    the ``b_l`` coefficients of ``NF(b_k*b_l)``; ``Tr(x^g) = sum_k c_k Tr(b_k)``.
    """
    n = gb.ambient.n
    index = {e: k for k, e in enumerate(monomials)}
    memo: dict[Exponent, dict[int, object]] = {e: {k: 1} for e, k in index.items()}

    def nf(g: Exponent) -> dict[int, object]:
        if g in memo:
            return memo[g]
        steps = [j for j in range(n) if g[j]]
        if any(_step(g, j, -1) in index for j in steps):  # next to the standard monomials
            out = {index[e]: c for e, c in normal_form(Poly(n, {g: 1}), gb).items()}
        else:
            out = {}
            for k, c in nf(_step(g, steps[0], -1)).items():
                for l, d in nf(_step(monomials[k], steps[0], 1)).items():
                    out[l] = out.get(l, 0) + c * d
            out = {l: c for l, c in out.items() if c}
        memo[g] = out
        return out

    products = [[tuple(map(sum, zip(bi, bj))) for bj in monomials] for bi in monomials]
    trace = [sum(nf(g).get(l, 0) for l, g in enumerate(row)) for row in products]
    trace_of = {
        g: sum(c * trace[k] for k, c in nf(g).items()) for g in set(itertools.chain(*products))
    }
    return [[trace_of[g] for g in row] for row in products]


def _step(e: Exponent, j: int, by: int) -> Exponent:
    return e[:j] + (e[j] + by,) + e[j + 1 :]


def _rank(rows: list[list]) -> int:
    """The rank of a square rational matrix, by Gaussian elimination over Q."""
    rank = 0
    for col in range(len(rows)):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for row in rows[rank + 1 :]:
            if row[col]:
                ratio = Fraction(row[col]) / top[col]
                for k in range(col, len(row)):
                    row[k] -= ratio * top[k]
        rank += 1
    return rank


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
    if len(u) != spec.n:
        raise FiberProbeError(f"base point needs {spec.n} components")
    point = _exact_point(u)
    r = validate(spec)
    count = _count(spec, point, r)
    return FiberSample(
        u=point.u,
        count=count,
        classification="generic" if count == r else "branch",
        on_branch_of=tuple(
            idx for idx, p in enumerate(contractions or ()) if _vanishes_at(p, point)
        ),
    )


def _vanishes_at(p: Poly, point: _Point) -> bool:
    """Whether p vanishes at the point, decided exactly: whether m divides p
    on the line ``a + s*b``."""
    return point.m.divides(p.compose(_line(point.a, point.b)))


def fiber_points(spec: ExtensionSpec, u: Sequence, count: int):
    """The ``count`` points over u, as :func:`fiber_count` counted them, and
    the largest ``|f(x) - u|`` among them; None when the numeric solve gives
    up.  ``u`` is read as :func:`fiber_count` reads it."""
    point = _exact_point(u)
    with mpmath.workdps(DEFAULT_DPS):
        try:
            kept = _solve_fiber(spec, point, count)
        except FiberProbeError:  # a numeric step gave up
            return None
    solutions = tuple(tuple(complex(v) for v in rep) for rep, _ in kept)
    return solutions, max(residual for _, residual in kept)


def _to_mp(value) -> mpmath.mpc:
    if isinstance(value, Fraction):
        return mpmath.mpc(mpmath.mpf(value.numerator) / mpmath.mpf(value.denominator))
    return mpmath.mpc(value)


def _poly_roots(coeffs_low_to_high: list, degree: int):
    coeffs = list(reversed(coeffs_low_to_high))
    if len(coeffs) != degree + 1 or coeffs[0] == 0:
        raise FiberProbeError("leading coefficient vanished")
    if degree == 0:
        return []
    for maxsteps, extraprec in ((100, 60), (400, 200)):
        try:
            return mpmath.polyroots(coeffs, maxsteps=maxsteps, extraprec=extraprec)
        except mpmath.libmp.libhyper.NoConvergence:
            continue
        except Exception as exc:  # mpmath raises plain exceptions on bad input
            raise FiberProbeError(str(exc)) from exc
    raise FiberProbeError("root finding did not converge")


def _univariate(g: Poly, j: int, assign: dict[int, mpmath.mpc]) -> tuple[list, int]:
    degree = g.degree_in(j)
    coeffs = [mpmath.mpc(0) for _ in range(degree + 1)]
    for exp, c in g.items():
        v = _to_mp(c)
        for slot, e in enumerate(exp):
            if slot == j or e == 0:
                continue
            v = v * assign[slot] ** e
        coeffs[exp[j]] += v
    return coeffs, degree


def _evaluate(g: Poly, assign: dict[int, mpmath.mpc]) -> tuple[mpmath.mpc, float]:
    """Value of g at the assignment plus a magnitude scale for thresholds."""
    total = mpmath.mpc(0)
    scale = 1.0
    for exp, c in g.items():
        v = _to_mp(c)
        for slot, e in enumerate(exp):
            if e:
                v = v * assign[slot] ** e
        total += v
        scale = max(scale, float(abs(v)))
    return total, scale


def _cluster(points: list[tuple], groups: int) -> list[tuple]:
    """The means of the points grouped by single linkage, closest pair
    merged first until ``groups`` remain, in order of first member."""
    if len(points) < groups:
        raise FiberProbeError(f"{len(points)} candidates for {groups} points")
    label = list(range(len(points)))  # the first member of each one's group
    pairs = sorted(
        (max(float(abs(x - y)) for x, y in zip(p, q)), i, j)
        for i, p in enumerate(points)
        for j, q in enumerate(points[:i])
    )
    left = len(points)
    for _, i, j in pairs:
        if left == groups:
            break
        if label[i] != label[j]:
            keep, drop = sorted((label[i], label[j]))
            label = [keep if x == drop else x for x in label]
            left -= 1
    members: dict[int, list[tuple]] = {}
    for first, p in zip(label, points):
        members.setdefault(first, []).append(p)
    return [tuple(sum(col) / len(group) for col in zip(*group)) for group in members.values()]


def _solve_fiber(spec, point, count):
    n = spec.n
    gb = _basis(spec, point)
    eps = mpmath.mpf(10) ** (-mpmath.mp.dps // 2)

    def vanishes(g, assign) -> bool:
        value, scale = _evaluate(g, assign)
        return abs(value) <= eps * scale

    candidates: list[dict[int, mpmath.mpc]] = [{}]
    for j in reversed(range(n)):
        # the elements free of X_0..X_{j-1} that involve X_j, lowest degree
        # in X_j first, each with its leading coefficient in X_j
        pool = []
        for g in sorted(gb, key=lambda g: g.degree_in(j)):
            used = g.variables_used()
            if not used or min(used) != j:
                continue
            if used == {j}:
                h = gcd(g, g.derivative(j), spec.vars)
                if not h.is_constant():
                    g = g.exact_div(h)
            top = g.degree_in(j)
            lead = {e[:j] + (0,) + e[j + 1 :]: c for e, c in g.items() if e[j] == top}
            pool.append((Poly(n, lead), g))
        extended = []
        for cand in candidates:
            g = next(
                (g for lead, g in pool if lead.is_constant() or not vanishes(lead, cand)),
                None,
            )
            if g is None:
                raise FiberProbeError(f"no basis element extends a solution in slot {j}")
            for root in _poly_roots(*_univariate(g, j, cand)):
                nxt = dict(cand)
                nxt[j] = mpmath.mpc(root)
                extended.append(nxt)
        candidates = extended
        if len(candidates) > _CANDIDATE_CAP:
            raise FiberProbeError("candidate explosion")

    survivors = [
        tuple(cand[j] for j in range(n))
        for cand in candidates
        if all(vanishes(g, cand) for g in gb)
    ]
    reps = _cluster(survivors, count * point.m.degree_in(0))
    # the solutions over alpha = roots[0] are those where f is nearest
    # a + alpha*b of the conjugate points a + root*b
    targets = [
        [_to_mp(ai) + root * _to_mp(bi) for ai, bi in zip(point.a, point.b)]
        for root in point.roots
    ]
    kept = []
    for rep in reps:
        assign = dict(enumerate(rep))
        values = [_evaluate(f, assign)[0] for f in spec.generators]
        off = [max(float(abs(v - t)) for v, t in zip(values, target)) for target in targets]
        if off[0] == min(off):
            kept.append((rep, off[0]))
    if len(kept) != count:
        raise FiberProbeError("the conjugate fibers differ in size")
    return kept


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
