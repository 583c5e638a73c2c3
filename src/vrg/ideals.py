"""Ideal-theoretic machinery: finiteness, membership, and contraction.

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

from fractions import Fraction
from typing import Callable

from .errors import ContractionError
from .extension import ExtensionSpec, degree
from .groebner import GroebnerBasis, groebner, normal_form
from .poly import Exponent, Poly, VarTable, canonical, weighted_degree


def check_finite(spec: ExtensionSpec) -> bool:
    """True iff the generators only vanish simultaneously at the origin.

    Zero-dimensionality test: every variable must appear as a pure power
    among the leading terms of the lex Groebner basis of the generator ideal.
    """
    gb = groebner(spec.generators, spec.vars)
    pure = [False] * spec.n
    for g in gb:
        exp, _ = g.leading()
        nonzero = [j for j, e in enumerate(exp) if e]
        if len(nonzero) == 1:
            pure[nonzero[0]] = True
        elif len(nonzero) == 0:
            return True  # unit ideal; vacuously zero-dimensional
    return all(pure)


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


def _tag_monomials(weights: tuple[int, ...], d: int) -> list[Exponent]:
    """Exponent vectors a with sum(a_i * weights[i]) == d."""
    if not weights:
        return [()] if d == 0 else []
    *head, w = weights
    return [
        a + (k,)
        for k in range(d // w + 1)
        for a in _tag_monomials(tuple(head), d - k * w)
    ]


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


def _reduce(rows: dict, image: dict, tag: dict) -> None:
    """Subtract rows from the pair (image, tag) in place until the image is
    zero or its leading exponent has no row; ``image - tag(f)`` is kept."""
    while image and (lead := max(image)) in rows:
        row = rows[lead]
        c = image[lead] / row[0][lead]
        for target, part in zip((image, tag), row):
            for e, v in part.items():
                s = target.get(e, 0) - c * v
                if s:
                    target[e] = s
                else:
                    del target[e]


def _graded_piece(image: Callable, weights: tuple[int, ...], d: int) -> tuple:
    """Gaussian elimination over Q on the pairs ``(image(a), y^a)`` of A_d.

    Rows are keyed by the lex-leading exponent of their image.
    Returns the rows and the tags whose image reduced to zero, a basis of
    the kernel of ``tag -> image`` in degree d.
    """
    rows: dict = {}
    kernel = []
    for a in _tag_monomials(weights, d):
        pair = (image(a).terms_dict(), {a: Fraction(1)})
        _reduce(rows, *pair)
        if pair[0]:
            rows[max(pair[0])] = pair
        else:
            kernel.append(pair[1])
    return rows, kernel


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
        rows.update(_graded_piece(image, tags.weights, d)[0])
    rest, tag = p.terms_dict(), {}
    _reduce(rows, rest, tag)
    # the invariant rest - tag(f) == p leaves p == -tag(f) once rest is zero
    return None if rest else Poly(tags.n, {a: -c for a, c in tag.items()})


def contract_prime(q: Poly, spec: ExtensionSpec) -> Poly:
    """Generator of the contraction of the prime (q) to the subalgebra.

    Returns the canonical-associate tag polynomial whose pullback q divides,
    the lowest-degree piece of the kernel of ``A -> B/(q)``.  The norm of q
    bounds that degree by ``r * deg q``.  A homogeneous prime contracts to a
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
    for d in range(low, degree(spec) * low + 1):
        kernel = _graded_piece(image, tags.weights, d)[1]
        if len(kernel) == 1:
            return canonical(Poly(tags.n, kernel[0]), tags)
        if kernel:
            raise ContractionError(f"contraction not principal in degree {d}")
    raise ContractionError("contraction not principal: none up to the norm's degree")
