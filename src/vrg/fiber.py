"""Fiber counts of the generator map over exact base points.

Every base point is held exactly, as rational vectors ``a`` and ``b`` and a
monic irreducible ``m`` in ``Q[s]``: the point is ``a + alpha*b`` for a root
``alpha`` of ``m``.  A rational point ``u`` is ``a = u, b = e_1, m = s``; a
complex one ``p + q*i`` is ``a = p, b = q, m = s^2 + 1``; a branch point of
the audit is where a rational line meets the branch hypersurface, with ``m``
an irreducible factor of the contraction restricted to the line.  With
``s = (f_k - a_k)/b_k`` for the first ``b_k != 0``, the fibers over all roots
of ``m`` are eliminated together by one lex Groebner basis over the
rationals, of ``f_j - a_j - b_j*s`` for ``j != k`` and ``m(s)``.  Conjugate
fibers have equal size, so the solutions over ``alpha`` are counted, and the
sample is indeterminate unless they are a ``1/deg m`` share of all.

Only the root extraction is numeric.  The unknowns are solved last to first.
For each partial solution, the basis elements free of the earlier unknowns
whose leading coefficient in the next unknown does not vanish there are
eligible, and the one of lowest degree is specialized (Gianni-Kalkbrener):
its roots are the extensions of that partial solution.  An element that is
univariate in its own unknown is first divided by its gcd with its
derivative.  That keeps its distinct roots and drops their multiplicities: a
branch point's fewer preimages are repeated roots, where Durand-Kerner
converges only linearly, often fails within its step budget, and at the
origin of a weighted-homogeneous system (one root of full multiplicity)
fails outright.

Root extraction works at high working precision (mpmath, default 50
digits) so that clustered roots on the branch locus stay well inside the
reporting tolerance; candidate points are filtered against every basis
element before clustering, so spurious candidates cannot inflate the count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath

from .errors import FiberProbeError
from .extension import ExtensionSpec, validate
from .factor import factor, gcd
from .groebner import GroebnerBasis, groebner
from .ideals import tag_table
from .poly import Poly, VarTable, format_poly

DEFAULT_CLUSTER_TOL = 1e-8
DEFAULT_RESIDUAL_TOL = 1e-6
DEFAULT_DPS = 50
MAX_DIMENSION = 3
_CANDIDATE_CAP = 4096

Component = Fraction | complex

# the line parameter s of a base point
_LINE = VarTable(("s",), (1,))
_S = Poly.variable(1, 0)


@dataclass(frozen=True)
class FiberSample:
    """One sampled base point with its counted fiber."""

    u: tuple[Component, ...]
    count: int
    classification: str  # "generic" | "branch" | "indeterminate"
    on_branch_of: tuple[int, ...]
    residual: float
    solutions: tuple[tuple[complex, ...], ...]


class _SolveFailed(FiberProbeError):
    """A numeric step gave up: the sample is indeterminate, and a branch
    point whose roots cannot be found is a probe error."""


@dataclass(frozen=True)
class _Point:
    """The base point ``a + roots[0]*b``, where ``roots`` are the roots of
    the monic irreducible ``m`` in ``Q[s]`` at working precision."""

    a: tuple[Fraction, ...]
    b: tuple[Fraction, ...]
    m: Poly
    roots: tuple

    @property
    def u(self) -> tuple[Component, ...]:
        if len(self.roots) == 1:
            return self.a
        alpha = self.roots[0]
        return tuple(
            complex(_to_mp(ai) + alpha * _to_mp(bi)) if bi else ai
            for ai, bi in zip(self.a, self.b)
        )


def _rational_point(u: tuple[Fraction, ...]) -> _Point:
    return _Point(u, (1,) + (0,) * (len(u) - 1), _S, (mpmath.mpc(0),))


def _line_point(a, b, m: Poly) -> _Point:
    """The point ``a + alpha*b`` for the roots alpha of m, monic and irreducible."""
    if m.degree_in(0) == 1:
        c = -m.coefficient((0,))
        return _rational_point(tuple(Fraction(ai + c * bi) for ai, bi in zip(a, b)))
    with mpmath.workdps(DEFAULT_DPS):
        roots = _poly_roots(*_univariate(m, 0, {}))
    return _Point(a, b, m, tuple(roots))


def _line(a, b) -> list[Poly]:
    """The coordinates of ``a + s*b`` as polynomials in s."""
    return [Poly(1, {(0,): ai, (1,): bi}) for ai, bi in zip(a, b)]


def _rational(x) -> Fraction:
    """The exact value of a finite rational, float or mpmath mpf."""
    if hasattr(x, "man_exp"):  # an mpf, whose value is +-man * 2**exp
        man, exp = x.man_exp
        return Fraction(-man if x < 0 else man) * Fraction(2) ** exp
    return Fraction(x)


def _exact_point(u) -> _Point:
    """A base point from its coordinates; a float, complex or mpmath
    coordinate is its exact binary value."""
    for value in u:
        if not mpmath.isfinite(value):
            raise FiberProbeError(f"base point component {value} is not finite")
    a = tuple(_rational(value.real) for value in u)
    b = tuple(_rational(value.imag) for value in u)
    if not any(b):
        return _rational_point(a)
    return _Point(a, b, _S**2 + 1, (mpmath.mpc(0, 1), mpmath.mpc(0, -1)))


def _basis(spec: ExtensionSpec, point: _Point) -> GroebnerBasis:
    """Reduced lex basis of the fibers over ``a + alpha*b`` for all roots alpha of m."""
    k = next(j for j, bj in enumerate(point.b) if bj)
    s = (spec.generators[k] - point.a[k]) / point.b[k]
    gens = [
        point.m.compose([s]) if j == k else f - point.a[j] - point.b[j] * s
        for j, f in enumerate(spec.generators)
    ]
    return groebner(gens, spec.vars)


def _to_mp(value) -> mpmath.mpc:
    if isinstance(value, Fraction):
        return mpmath.mpc(mpmath.mpf(value.numerator) / mpmath.mpf(value.denominator))
    return mpmath.mpc(value)


def _poly_roots(coeffs_low_to_high: list, degree: int):
    coeffs = list(reversed(coeffs_low_to_high))
    if len(coeffs) != degree + 1 or coeffs[0] == 0:
        raise _SolveFailed("leading coefficient vanished")
    if degree == 0:
        return []
    for maxsteps, extraprec in ((100, 60), (400, 200)):
        try:
            return mpmath.polyroots(coeffs, maxsteps=maxsteps, extraprec=extraprec)
        except mpmath.libmp.libhyper.NoConvergence:
            continue
        except Exception as exc:  # mpmath raises plain exceptions on bad input
            raise _SolveFailed(str(exc)) from exc
    raise _SolveFailed("root finding did not converge")


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


def _cluster(points: list[tuple], tol: float) -> tuple[list[tuple], float]:
    """Merge points closer than tol; returns representatives and the
    smallest surviving inter-cluster gap (inf when fewer than two)."""
    m = len(points)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def dist(p, q) -> float:
        return max(float(abs(a - b)) for a, b in zip(p, q))

    for i in range(m):
        for j in range(i + 1, m):
            if dist(points[i], points[j]) <= tol:
                parent[find(i)] = find(j)

    groups: dict[int, list[tuple]] = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(points[i])
    reps = []
    for members in groups.values():
        k = len(members)
        reps.append(tuple(sum(col) / k for col in zip(*members)))
    gap = float("inf")
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            gap = min(gap, dist(reps[i], reps[j]))
    return reps, gap


def fiber_count(
    spec: ExtensionSpec,
    u: Sequence,
    tol_cluster: float = DEFAULT_CLUSTER_TOL,
    contractions: Sequence[Poly] | None = None,
) -> FiberSample:
    """Count the distinct solutions of f(x) = u.

    A coordinate of ``u`` is an int, a Fraction, a float or a complex
    number (Python's or mpmath's); a float part is taken as its exact
    binary value.  ``contractions`` (tag-variable polynomials) are only
    used to annotate which branch hypersurfaces the base point lies on.
    """
    if len(u) != spec.n:
        raise FiberProbeError(f"base point needs {spec.n} components")
    return _fiber_sample(spec, _exact_point(u), validate(spec), tol_cluster, contractions)


def _fiber_sample(spec, point, r, tol_cluster, contractions) -> FiberSample:
    """:func:`fiber_count` for a spec already validated to have degree r."""
    if spec.n > MAX_DIMENSION:
        raise FiberProbeError(f"dimension exceeded: n={spec.n} > {MAX_DIMENSION}")
    on_branch = tuple(idx for idx, p in enumerate(contractions or ()) if _vanishes_at(p, point))

    with mpmath.workdps(DEFAULT_DPS):
        try:
            reps, gap, residual = _solve_fiber(spec, point, tol_cluster)
        except _SolveFailed:
            reps, gap, residual = [], float("inf"), float("nan")

    count = len(reps)
    solutions = tuple(tuple(complex(v) for v in rep) for rep in reps)
    ambiguous = gap < 10 * tol_cluster
    if not reps or ambiguous or residual > DEFAULT_RESIDUAL_TOL or count > r:
        classification = "indeterminate"
    elif count == r:
        classification = "generic"
    else:
        classification = "branch"
    return FiberSample(
        u=point.u,
        count=count,
        classification=classification,
        on_branch_of=on_branch,
        residual=residual,
        solutions=solutions,
    )


def _vanishes_at(p: Poly, point: _Point) -> bool:
    """Whether p vanishes at the point, decided exactly: at a point over
    the roots of m, whether m divides p on the line."""
    if len(point.roots) == 1:
        return p.evaluate(point.a) == 0
    return point.m.divides(p.compose(_line(point.a, point.b)))


def _solve_fiber(spec, point, tol_cluster):
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
                raise _SolveFailed(f"no basis element extends a solution in slot {j}")
            for root in _poly_roots(*_univariate(g, j, cand)):
                nxt = dict(cand)
                nxt[j] = mpmath.mpc(root)
                extended.append(nxt)
        candidates = extended
        if len(candidates) > _CANDIDATE_CAP:
            raise _SolveFailed("candidate explosion")

    survivors = [
        tuple(cand[j] for j in range(n))
        for cand in candidates
        if all(vanishes(g, cand) for g in gb)
    ]
    if not survivors:
        raise _SolveFailed("no candidate satisfied the full system")

    reps, gap = _cluster(survivors, tol_cluster)
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
    if len(reps) != len(point.roots) * len(kept):
        raise _SolveFailed("the conjugate fibers differ in size")
    return [rep for rep, _ in kept], gap, max(residual for _, residual in kept)


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
        return _line_point(a, axis, m / m.leading()[1])
    raise FiberProbeError("could not sample a point on the hypersurface")


def _component_str(value: Component) -> str:
    if isinstance(value, Fraction):
        return str(value)
    return str(complex(value))


def branch_audit(
    spec: ExtensionSpec,
    report,
    samples: int = 20,
    seed: int = 0,
    tol_cluster: float = DEFAULT_CLUSTER_TOL,
) -> dict:
    """Sampled evidence for the fiber-cardinality statements.

    Generic points must hit the full degree r; points on each branch
    hypersurface must stay below r.  Indeterminate samples are excluded
    from the pass counts but reported.
    """
    r = report.degree
    contractions = report.distinct_contractions()
    tags = tag_table(spec)
    rng = random.Random(seed)

    all_at_most_r = True
    max_residual = 0.0

    def run(point) -> FiberSample:
        nonlocal all_at_most_r, max_residual
        sample = _fiber_sample(spec, point, r, tol_cluster, contractions)
        if sample.count > r:
            all_at_most_r = False
        if sample.residual == sample.residual:  # skip NaN
            max_residual = max(max_residual, sample.residual)
        return sample

    generic = {"requested": samples, "equal_r": 0, "indeterminate": 0, "violations": []}
    for _ in range(samples):
        sample = run(_rational_point(_generic_point(spec, contractions, rng)))
        if sample.classification == "indeterminate":
            generic["indeterminate"] += 1
        elif sample.count == r:
            generic["equal_r"] += 1
        else:
            generic["violations"].append(
                {"u": [_component_str(c) for c in sample.u], "count": sample.count}
            )

    branch = []
    for idx, contraction in enumerate(contractions):
        entry = {
            "contraction": format_poly(contraction, tags),
            "requested": samples,
            "below_r": 0,
            "indeterminate": 0,
            "violations": [],
        }
        for _ in range(samples):
            sample = run(_point_on_hypersurface(contraction, spec.n, rng))
            if sample.classification == "indeterminate":
                entry["indeterminate"] += 1
            elif sample.count < r:
                entry["below_r"] += 1
            else:
                entry["violations"].append(
                    {"u": [_component_str(c) for c in sample.u], "count": sample.count}
                )
        branch.append(entry)

    return {
        "seed": seed,
        "samples": samples,
        "tol_cluster": tol_cluster,
        "tol_residual": DEFAULT_RESIDUAL_TOL,
        "degree": r,
        "generic": generic,
        "branch": branch,
        "all_counts_at_most_r": all_at_most_r,
        "max_residual": max_residual,
    }
