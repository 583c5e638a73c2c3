"""Numeric sampling of the fibers of the generator map.

For a base point with exact rational coordinates, the fiber system is
substituted exactly and eliminated with a lex Groebner basis over the
rationals; only the root extraction is numeric.  For float or complex
base points the elimination is done once symbolically (tag variables as
parameters, cached per spec) and the base point is substituted into the
resulting triangular set afterwards, which avoids running Buchberger on
floating-point coefficients.

Root extraction works at high working precision (mpmath, default 50
digits) so that clustered roots on the branch locus stay well inside the
reporting tolerance; candidate points are filtered against every basis
element before clustering, so spurious branches of the triangular set
cannot inflate the count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import mpmath

from .errors import FiberProbeError
from .extension import ExtensionSpec, validate
from .groebner import GroebnerBasis, groebner
from .ideals import tag_table
from .poly import Poly, VarTable, format_poly

DEFAULT_CLUSTER_TOL = 1e-8
DEFAULT_RESIDUAL_TOL = 1e-6
DEFAULT_DPS = 50
MAX_DIMENSION = 3
_CANDIDATE_CAP = 4096

Component = Fraction | complex | mpmath.mpf | mpmath.mpc


@dataclass(frozen=True)
class FiberSample:
    """One sampled base point with its counted fiber."""

    u: tuple[Component, ...]
    count: int
    classification: str  # "generic" | "branch" | "indeterminate"
    on_branch_of: tuple[int, ...]
    residual: float
    solutions: tuple[tuple[complex, ...], ...]


class _SolveFailed(Exception):
    pass


def combined_table(spec: ExtensionSpec) -> VarTable:
    """The original variables followed by the tag variables."""
    tags = tag_table(spec)
    return VarTable(spec.vars.names + tags.names, spec.vars.weights + tags.weights)


@lru_cache(maxsize=32)
def _symbolic_basis(spec: ExtensionSpec) -> GroebnerBasis:
    """Lex basis of the y_i - f_i, original variables first."""
    n, fs = spec.n, spec.generators
    lifted = [Poly(2 * n, {e + (0,) * n: c for e, c in f.items()}) for f in fs]
    gens = [Poly.variable(2 * n, n + i) - f for i, f in enumerate(lifted)]
    return groebner(gens, combined_table(spec))


def _exact_basis(spec: ExtensionSpec, u: tuple[Fraction, ...]) -> GroebnerBasis:
    gens = [f - Poly.const(spec.n, ui) for f, ui in zip(spec.generators, u)]
    return groebner(gens, spec.vars)


def _triangular(gb: GroebnerBasis, n_unknowns: int) -> list[Poly]:
    """One basis element per unknown whose leading term is a pure power."""
    best: dict[int, tuple[int, Poly]] = {}
    for g in gb:
        exp, _ = g.leading()
        nonzero = [i for i, e in enumerate(exp) if e]
        if len(nonzero) == 1 and nonzero[0] < n_unknowns:
            j, k = nonzero[0], exp[nonzero[0]]
            if j not in best or best[j][0] > k:
                best[j] = (k, g)
    missing = [j for j in range(n_unknowns) if j not in best]
    if missing:
        raise _SolveFailed(f"no pure-power element for slots {missing}")
    return [best[j][1] for j in range(n_unknowns)]


def _to_mp(value) -> mpmath.mpc:
    if isinstance(value, Fraction):
        return mpmath.mpc(mpmath.mpf(value.numerator) / mpmath.mpf(value.denominator))
    return mpmath.mpc(value)


def _coerce_component(value) -> Component:
    """Normalize one base-point coordinate, keeping precision when given."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if not isinstance(value, (mpmath.mpf, mpmath.mpc)):
        value = complex(value)
    if not mpmath.isfinite(value):
        raise FiberProbeError(f"base point component {value} is not finite")
    return value


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
    u: Sequence[Component],
    tol_cluster: float = DEFAULT_CLUSTER_TOL,
    tol_residual: float = DEFAULT_RESIDUAL_TOL,
    contractions: Sequence[Poly] | None = None,
) -> FiberSample:
    """Count the distinct solutions of f(x) = u.

    ``contractions`` (tag-variable polynomials) are only used to annotate
    which branch hypersurfaces the base point lies on.
    """
    n = spec.n
    if n > MAX_DIMENSION:
        raise FiberProbeError(f"dimension exceeded: n={n} > {MAX_DIMENSION}")
    if len(u) != n:
        raise FiberProbeError(f"base point needs {n} components")
    r = validate(spec)
    u = tuple(_coerce_component(ui) for ui in u)
    exact = all(isinstance(ui, Fraction) for ui in u)

    on_branch = _branch_membership(spec, u, contractions)

    with mpmath.workdps(DEFAULT_DPS):
        try:
            reps, gap, residual = _solve_fiber(spec, u, exact, tol_cluster)
        except _SolveFailed:
            return FiberSample(
                u=u,
                count=0,
                classification="indeterminate",
                on_branch_of=on_branch,
                residual=float("nan"),
                solutions=(),
            )

    count = len(reps)
    solutions = tuple(tuple(complex(v) for v in rep) for rep in reps)
    ambiguous = gap < 10 * tol_cluster
    if ambiguous or residual > tol_residual or count > r:
        classification = "indeterminate"
    elif count == r:
        classification = "generic"
    else:
        classification = "branch"
    return FiberSample(
        u=u,
        count=count,
        classification=classification,
        on_branch_of=on_branch,
        residual=residual,
        solutions=solutions,
    )


def _branch_membership(spec, u, contractions) -> tuple[int, ...]:
    if not contractions:
        return ()
    hits = []
    exact = all(isinstance(ui, Fraction) for ui in u)
    for idx, p in enumerate(contractions):
        if exact:
            if p.evaluate(u) == 0:
                hits.append(idx)
        else:
            with mpmath.workdps(DEFAULT_DPS):
                value = p.evaluate([_to_mp(ui) for ui in u])
                if abs(value) < 1e-9:
                    hits.append(idx)
    return tuple(hits)


def _solve_fiber(spec, u, exact, tol_cluster):
    n = spec.n
    if exact:
        gb = _exact_basis(spec, u)
        fixed: dict[int, mpmath.mpc] = {}
    else:
        gb = _symbolic_basis(spec)
        fixed = {n + i: _to_mp(ui) for i, ui in enumerate(u)}
    tri = _triangular(gb, n)

    candidates: list[dict[int, mpmath.mpc]] = [dict(fixed)]
    for j in reversed(range(n)):
        g = tri[j]
        extended = []
        for cand in candidates:
            coeffs, degree = _univariate(g, j, cand)
            for root in _poly_roots(coeffs, degree):
                nxt = dict(cand)
                nxt[j] = mpmath.mpc(root)
                extended.append(nxt)
        candidates = extended
        if len(candidates) > _CANDIDATE_CAP:
            raise _SolveFailed("candidate explosion")

    filter_eps = mpmath.mpf(10) ** (-mpmath.mp.dps // 2)
    survivors = []
    for cand in candidates:
        ok = True
        for g in gb:
            value, scale = _evaluate(g, cand)
            if abs(value) > filter_eps * scale:
                ok = False
                break
        if ok:
            survivors.append(tuple(cand[j] for j in range(n)))
    if not survivors:
        raise _SolveFailed("no candidate satisfied the full system")

    reps, gap = _cluster(survivors, tol_cluster)
    residual = 0.0
    for rep in reps:
        assign = dict(enumerate(rep))
        for f, ui in zip(spec.generators, u):
            value, _ = _evaluate(f, assign)
            residual = max(residual, float(abs(value - _to_mp(ui))))
    return reps, gap, residual


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


def _point_on_hypersurface(p: Poly, n: int, rng: random.Random):
    """A point with p = 0: exact when p is linear in some coordinate,
    otherwise numeric via high-precision root finding."""
    linear = [j for j in range(n) if p.degree_in(j) == 1]
    for _ in range(200):
        if linear:
            j = linear[0]
            others = {
                k: _random_rational(rng) for k in range(n) if k != j
            }
            lead = Fraction(0)
            rest = Fraction(0)
            for exp, c in p.items():
                v = c
                for k, e in enumerate(exp):
                    if k != j and e:
                        v *= others[k] ** e
                if exp[j] == 1:
                    lead += v
                else:
                    rest += v
            if lead == 0:
                continue
            value = -rest / lead
            return tuple(
                value if k == j else others[k] for k in range(n)
            )
        j = min(
            (k for k in range(n) if p.degree_in(k) > 0),
            key=lambda k: p.degree_in(k),
        )
        others = {k: _random_rational(rng) for k in range(n) if k != j}
        # keep the solved coordinate at (beyond) working precision; collapsing
        # it to a double would push the point ~1e-16 off the hypersurface and
        # split the multiple fiber roots right at the clustering tolerance
        with mpmath.workdps(2 * DEFAULT_DPS):
            assign = {k: _to_mp(v) for k, v in others.items()}
            coeffs, degree = _univariate(p, j, assign)
            while degree > 0 and abs(coeffs[degree]) == 0:
                coeffs.pop()
                degree -= 1
            if degree == 0:
                continue
            value = mpmath.mpc(_poly_roots(coeffs, degree)[0])
        return tuple(
            value if k == j else others[k] for k in range(n)
        )
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
    tol_residual: float = DEFAULT_RESIDUAL_TOL,
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

    def run(u) -> FiberSample:
        nonlocal all_at_most_r, max_residual
        sample = fiber_count(
            spec,
            u,
            tol_cluster=tol_cluster,
            tol_residual=tol_residual,
            contractions=contractions,
        )
        if sample.count > r:
            all_at_most_r = False
        if sample.residual == sample.residual:  # skip NaN
            max_residual = max(max_residual, sample.residual)
        return sample

    generic = {"requested": samples, "equal_r": 0, "indeterminate": 0, "violations": []}
    for _ in range(samples):
        u = _generic_point(spec, contractions, rng)
        sample = run(u)
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
            u = _point_on_hypersurface(contraction, spec.n, rng)
            sample = run(u)
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
        "tol_residual": tol_residual,
        "degree": r,
        "generic": generic,
        "branch": branch,
        "all_counts_at_most_r": all_at_most_r,
        "max_residual": max_residual,
    }
