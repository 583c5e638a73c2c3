"""Extension specifications: weighted variables plus homogeneous generators.

An :class:`ExtensionSpec` describes a polynomial subalgebra generated by n
weighted-homogeneous polynomials inside the full polynomial ring on n
weighted variables.  ``validate`` confirms homogeneity, finiteness (the
generators vanish simultaneously only at the origin), and that the degree
formula prod(generator weights)/prod(variable weights) yields an integer,
which is the rank of the big ring as a module over the subalgebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    InputError,
    NotFiniteError,
    NotHomogeneousError,
    TheoremViolationError,
)
from .poly import Poly, VarTable, format_poly, weighted_degree


@dataclass(frozen=True)
class ExtensionSpec:
    vars: VarTable
    generators: tuple[Poly, ...]

    def __post_init__(self) -> None:
        n = self.vars.n
        if len(self.generators) != n:
            raise InputError(
                f"need exactly {n} generators for {n} variables,"
                f" got {len(self.generators)}"
            )
        for f in self.generators:
            if f.n != n:
                raise InputError("generator arity does not match the variable table")

    @property
    def n(self) -> int:
        return self.vars.n


def generator_weights(spec: ExtensionSpec) -> tuple[int, ...]:
    """Weighted degrees of the generators; fails if any is inhomogeneous."""
    out = []
    for i, f in enumerate(spec.generators, start=1):
        if f.is_zero() or f.is_constant():
            raise NotHomogeneousError(f"generator {i} is constant")
        wd = weighted_degree(f, spec.vars)
        if not wd.homogeneous:
            raise NotHomogeneousError(
                f"not homogeneous (generator {i}):"
                f" {format_poly(f, spec.vars)} mixes weighted degrees"
            )
        out.append(wd.degree)
    return tuple(out)


def degree(spec: ExtensionSpec) -> int:
    """Module rank of the extension: prod(a_i) / prod(b_j)."""
    a = math.prod(generator_weights(spec))
    b = math.prod(spec.vars.weights)
    if a % b != 0:
        raise TheoremViolationError(
            f"degree not integral: {a}/{b};"
            " this cannot happen for a finite extension"
        )
    return a // b


def validate(spec: ExtensionSpec) -> int:
    """Full validation; returns the extension degree r."""
    from .ideals import check_finite

    generator_weights(spec)
    if not check_finite(spec):
        raise NotFiniteError(
            "extension not finite: the generators vanish on a positive-"
            "dimensional set"
        )
    return degree(spec)
