"""Ideal-theoretic machinery: finiteness, membership, and contraction.

It shares with :mod:`vrg.fiber` the reading of a zero-dimensional lex basis
(:func:`_standard_monomials`) and the graded linear algebra: the pieces of a
free A-module (:func:`_graded_piece`) and exact row reduction in integers
(:func:`_eliminate`), which scales each row to integers and reduces without
division, so its pivots are integer multiples of those over Q.
:func:`_eliminate_mod` reduces rows over the integers mod a prime, whose
full rank certifies full rank over Q.

For a finite extension the generators are algebraically independent, so
``A = Q[f1..fn]`` is a polynomial ring (tag variable ``y_i`` of weight
``deg f_i`` stands for ``f_i``) whose graded piece ``A_d`` has the basis
``{f^a : sum(a_i * deg f_i) = d}``.  Membership in A and the contraction
``(q) ∩ A`` are therefore linear algebra over Q in one graded piece at a time.

Every monomial order here is lex, plain tuple order on exponents.  A linear
solve needs only some total order, and finiteness is decided by the pure
powers among the leading terms of a Groebner basis under any order, so the
lex basis of :mod:`vrg.groebner` serves and no order key is needed.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Sequence

from .errors import ContractionError
from .extension import ExtensionSpec, degree
from .groebner import GroebnerBasis, normal_form
from .poly import (
    Exponent,
    Poly,
    VarTable,
    canonical,
    exponents_of_degree,
    format_poly,
    reduce_leading,
    weighted_degree,
)


def check_finite(spec: ExtensionSpec) -> bool:
    """True iff the generators only vanish simultaneously at the origin.

    Zero-dimensionality test: every variable must appear as a pure power
    among the leading terms of the spec's lex basis of the generator ideal.
    No unit-ideal case is needed: ``validate`` refuses constant generators
    first, and homogeneous non-constant ones all vanish at the origin.
    """
    return all(_pure_power_box(spec.lex_basis, spec.n))


def _pure_power_box(gb: GroebnerBasis, n: int) -> list[int]:
    """For each variable x_j, the e with x_j^e a leading term of the reduced
    basis gb (there is at most one), or 0 when there is none."""
    box = [0] * n
    for g in gb:
        exp = g.leading()[0]
        if sum(exp) == max(exp):  # a pure power, or 1 for the unit ideal
            box[exp.index(max(exp))] = max(exp)
    return box


def _standard_monomials(gb: GroebnerBasis, n: int) -> list[Exponent]:
    """The exponents that no leading exponent of gb divides, inside the box
    of its pure powers (none when gb is not zero-dimensional)."""
    leads = [g.leading()[0] for g in gb]
    return [
        e
        for e in itertools.product(*map(range, _pure_power_box(gb, n)))
        if not any(all(x <= y for x, y in zip(lt, e)) for lt in leads)
    ]


def tag_table(spec: ExtensionSpec) -> VarTable:
    """Variable table for the subalgebra side (one tag per generator)."""
    weights = tuple(weighted_degree(f, spec.vars).degree for f in spec.generators)
    taken = set(spec.vars.names)
    for base in ("y", "t", "s", "w"):
        names = tuple(f"{base}{i + 1}" for i in range(spec.n))
        if not taken & set(names):
            return VarTable(names, weights)
    names = tuple(f"tag{i + 1}" for i in range(spec.n))
    return VarTable(names, weights)


# ---------------------------------------------------------------------------
# graded linear algebra in A
# ---------------------------------------------------------------------------


def _power_images(spec: ExtensionSpec, reduce: Callable) -> Callable:
    """``a -> reduce(f^a)``, memoized; built as ``reduce(f^(a - e_i) * f_i)``
    along a chain of smaller powers, walked without recursion."""
    memo = {(0,) * spec.n: Poly.const(spec.n, 1)}

    def image(a: Exponent) -> Poly:
        chain = []
        while a not in memo:
            i = next(j for j, e in enumerate(a) if e)
            chain.append((a, i))
            a = a[:i] + (a[i] - 1,) + a[i + 1 :]
        for b, i in reversed(chain):
            memo[b] = reduce(memo[a] * spec.generators[i])
            a = b
        return memo[a]

    return image


def _eliminate(pairs: Iterable[tuple[dict, dict]]) -> tuple[dict, list]:
    """Fraction-free Gaussian elimination on pairs ``(row, tag)`` of sparse
    vectors with int or Fraction entries: the pivot pairs, keyed by their
    row's leading key, and the tags whose row reduced to zero.  The number of
    pivot rows is the rank.

    Each pair is scaled to integers by the lcm of its denominators and
    reduced without division (Bareiss 1968): with ``g = gcd(a, b)`` for the
    leads a of the work row and b of the pivot, ``work = (b/g)*work -
    (a/g)*pivot`` on row and tag alike, and then the pair's content is
    divided out.  Every pivot and kernel tag holds only ints, and is a
    nonzero rational multiple of what elimination over Q gives; callers read
    them only up to that multiple."""
    rows: dict = {}
    kernel = []
    for pair in pairs:
        den = math.lcm(*(v.denominator for part in pair for v in part.values()))
        work, tag = (
            {e: v.numerator * (den // v.denominator) for e, v in part.items()} for part in pair
        )
        while work and (pivot := rows.get(lead := max(work))) is not None:
            a, b = work[lead], pivot[0][lead]
            g = math.gcd(a, b) if b > 0 else -math.gcd(a, b)  # so that b/g > 0
            a, b = a // g, b // g
            for target, part in (work, pivot[0]), (tag, pivot[1]):
                if b != 1:
                    for e in target:
                        target[e] *= b
                for e, v in part.items():
                    s = target.get(e, 0) - a * v
                    if s:
                        target[e] = s
                    else:
                        del target[e]
            content = math.gcd(*work.values(), *tag.values())
            if content > 1:
                for target in work, tag:
                    for e in target:
                        target[e] //= content
        if work:
            rows[lead] = work, tag
        else:
            kernel.append(tag)
    return rows, kernel


def _eliminate_mod(rows: Iterable[dict], p: int) -> dict:
    """Row reduction over the field of p elements, p a prime, on sparse
    vectors of ints in ``[0, p)``: the pivot rows, keyed by their leading key
    and scaled to lead with 1; their number is the rank.  Rows of p-integral
    rationals that are independent mod p are independent over Q, so a full
    rank here is a certificate of full rank there."""
    pivots: dict = {}
    for work in rows:
        while work:
            pivot = pivots.get(lead := max(work))
            if pivot is None:
                inverse = pow(work[lead], -1, p)
                pivots[lead] = {e: v * inverse % p for e, v in work.items()}
                break
            c = work[lead]
            for e, v in pivot.items():
                s = (work.get(e, 0) - c * v) % p
                if s:
                    work[e] = s
                else:
                    del work[e]
    return pivots


def _graded_piece(
    image: Callable, weights: tuple[int, ...], d: int, shifts: Sequence[int] = (0,)
) -> tuple:
    """:func:`_eliminate` on the pairs ``(image(a, l), y^a*e_l)`` that span
    degree d of the free A-module on basis elements ``e_l`` of degrees
    ``shifts``: the rows and a basis of the kernel of ``tag -> image`` in
    degree d.  The tag ``y^a*e_l`` is the key ``(a, l)``; A itself is the
    module with ``shifts = (0,)``."""
    return _eliminate(
        (image(a, l).terms_dict(), {(a, l): 1})
        for l, shift in enumerate(shifts)
        for a in exponents_of_degree(weights, d - shift)
    )


def subalgebra_membership(p: Poly, spec: ExtensionSpec) -> Poly | None:
    """Representation of p in the generators, or None.

    On success the returned polynomial g in the tag variables satisfies
    g(f_1, ..., f_n) == p exactly.  p is reduced against the rows of every
    degree it has; a leading term without a row proves p is not in A.
    """
    tags = tag_table(spec)
    image = _power_images(spec, lambda g: g)
    rows: dict = {}
    for d in {spec.vars.wdeg(exp) for exp, _ in p.items()}:
        rows.update(_graded_piece(lambda a, _: image(a), tags.weights, d)[0])
    rest, tag = p.terms_dict(), {}
    reduce_leading(rest, tag, rows.get)
    # the invariant rest - tag(f) == p leaves p == -tag(f) once rest is zero
    return None if rest else Poly._clean(tags.n, {a: -c for (a, _), c in tag.items()})


def contract_prime(q: Poly, spec: ExtensionSpec) -> Poly:
    """Generator of the contraction of the prime (q) to the subalgebra.

    Returns the canonical-associate tag polynomial whose pullback q divides,
    the lowest-degree piece of the kernel of ``A -> B/(q)``.  The norm of q,
    of degree ``r * deg q``, is a power of that generator, so only the
    degrees dividing ``r * deg q`` are scanned.  A homogeneous prime contracts to a
    principal prime of A, so that piece has dimension 1; anything else,
    including an inhomogeneous q, raises :class:`ContractionError`.
    """
    if q.is_zero() or q.is_constant():
        raise ValueError("contraction requires a nonconstant polynomial")
    low = weighted_degree(q, spec.vars).degree
    tags = tag_table(spec)
    # q alone is a Groebner basis of (q)
    modulus = GroebnerBasis((canonical(q, spec.vars),), spec.vars)
    image = _power_images(spec, lambda g: normal_form(g, modulus))
    top = degree(spec) * low
    for d in range(low, top + 1):
        if top % d:
            continue
        kernel = _graded_piece(lambda a, _: image(a), tags.weights, d)[1]
        if len(kernel) == 1:
            return canonical(Poly._clean(tags.n, {a: c for (a, _), c in kernel[0].items()}), tags)
        if kernel:
            raise ContractionError(
                f"contraction of {format_poly(q, spec.vars)} is not principal:"
                f" its kernel in degree {d} has dimension {len(kernel)}"
            )
    raise ContractionError(
        f"contraction of {format_poly(q, spec.vars)} is not principal:"
        f" no kernel up to the norm's degree {top}"
    )
