"""Buchberger's algorithm under lex, with the two standard pair criteria.

Desk-scale inputs (few variables, moderate degrees) do not need F4/F5;
plain Buchberger with the product (coprime leading terms) and chain
criteria, normal selection, and full interreduction is enough and keeps
the code auditable.

Lex (plain tuple order on exponents, the first variable largest) is the
only monomial order.  Bases serve two jobs, and any order would do for
both: the finiteness test, and the standard monomials that the fiber
tables take as a free basis of B over A.  So no order key is threaded
through: normal forms, Buchberger's reductions and exact division share the
one division loop, :func:`~vrg.poly.reduce_leading`, which takes the basis
as its divisors, and row reduction runs its own fraction-free step
(:func:`~vrg.ideals._reduce_pair`); both lead by ``max``.

The total degree of every input and intermediate polynomial is capped
(:func:`~vrg.poly.max_degree_cap`, the environment variable
``VRG_MAX_DEGREE``) so runaway inputs fail fast instead of consuming the
machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DegreeCapExceededError
from .poly import (
    Exponent,
    Poly,
    VarTable,
    canonical,
    coeff_div,
    coeff_str,
    max_degree_cap,
    reduce_leading,
)


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced Groebner basis; generators in canonical associate form."""

    generators: tuple[Poly, ...]
    ambient: VarTable

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)


def _lcm_exp(a: Exponent, b: Exponent) -> Exponent:
    return tuple(max(x, y) for x, y in zip(a, b))


def _divides_exp(a: Exponent, b: Exponent) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _monic(p: Poly) -> Poly:
    _, c = p.leading()
    return p / c


def _reduce(p: Poly, basis: list[tuple[Exponent, Poly]]) -> Poly:
    """Full normal form of p modulo the listed (leading exponent, poly) pairs;
    a lead that no leading exponent divides moves to the remainder."""
    work, out = p.terms_dict(), {}
    while (lead := reduce_leading(work, basis, {})) is not None:
        out[lead] = work.pop(lead)
    return Poly._clean(p.n, out)


def _spoly(f: Poly, g: Poly) -> Poly:
    ef, cf = f.leading()
    eg, cg = g.leading()
    l = _lcm_exp(ef, eg)
    mf = tuple(a - b for a, b in zip(l, ef))
    mg = tuple(a - b for a, b in zip(l, eg))
    tf = Poly._clean(f.n, {mf: coeff_div(1, cf)})
    tg = Poly._clean(g.n, {mg: coeff_div(1, cg)})
    return tf * f - tg * g


def groebner(gens: Sequence[Poly], ambient: VarTable) -> GroebnerBasis:
    """Reduced lex Groebner basis of the ideal generated by ``gens``.

    The zero ideal yields an empty basis.  Output generators are sorted by
    decreasing leading term and normalized to canonical associates, which
    makes the basis unique for a given ideal.
    """
    cap = max_degree_cap()
    G: list[Poly] = []
    for g in gens:
        if g.is_zero():
            continue
        if g.total_degree() > cap:
            raise DegreeCapExceededError(
                f"input degree {coeff_str(g.total_degree())} exceeds cap {cap}"
            )
        G.append(_monic(g))
    if not G:
        return GroebnerBasis((), ambient)

    lts: list[Exponent] = [g.leading()[0] for g in G]
    pairs = {(i, j) for i in range(len(G)) for j in range(i + 1, len(G))}

    def pair_key(ij):
        i, j = ij
        return (_lcm_exp(lts[i], lts[j]), ij)

    while pairs:
        i, j = min(pairs, key=pair_key)
        pairs.remove((i, j))
        li, lj = lts[i], lts[j]
        l = _lcm_exp(li, lj)
        # product criterion: coprime leading terms reduce to zero
        if all(a + b == c for a, b, c in zip(li, lj, l)):
            continue
        # chain criterion: a third element divides the lcm and both of its
        # pairs with i and j are already settled
        skip = False
        for k in range(len(G)):
            if k == i or k == j:
                continue
            if _divides_exp(lts[k], l):
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik not in pairs and pjk not in pairs:
                    skip = True
                    break
        if skip:
            continue
        basis = list(zip(lts, G))
        h = _reduce(_spoly(G[i], G[j]), basis)
        if h.is_zero():
            continue
        if h.total_degree() > cap:
            raise DegreeCapExceededError(
                f"intermediate degree {h.total_degree()} exceeds cap {cap}"
            )
        h = _monic(h)
        G.append(h)
        lts.append(h.leading()[0])
        new = len(G) - 1
        pairs.update((m, new) for m in range(new))

    # minimalize: drop generators whose leading term another one divides
    keep: list[int] = []
    for i in range(len(G)):
        li = lts[i]
        redundant = False
        for j in range(len(G)):
            if i == j:
                continue
            if _divides_exp(lts[j], li) and (lts[j] != li or j < i):
                redundant = True
                break
        if not redundant:
            keep.append(i)
    minimal = [G[i] for i in keep]

    # interreduce: fully reduce each generator against the others
    reduced: list[Poly] = []
    for i, g in enumerate(minimal):
        others = [(p.leading()[0], p) for k, p in enumerate(minimal) if k != i]
        r = _reduce(g, others)
        if not r.is_zero():
            reduced.append(_monic(r))
    reduced.sort(key=lambda p: p.leading()[0], reverse=True)
    final = tuple(canonical(p, ambient) for p in reduced)
    return GroebnerBasis(final, ambient)


def normal_form(p: Poly, gb: GroebnerBasis) -> Poly:
    """Unique remainder of p modulo the basis; zero iff p is in the ideal."""
    if p.n != gb.ambient.n:
        raise ValueError("polynomial and basis live over different variables")
    if not gb.generators:
        return p
    basis = [(g.leading()[0], g) for g in gb.generators]
    return _reduce(p, basis)
