"""Monomial orders: weighted grevlex and lex.

An order exposes ``key(exp)`` returning a tuple; Python's tuple comparison
then realizes the order (larger key = larger monomial).  Both are total
orders compatible with monomial multiplication, and lex eliminates its
leading variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .poly import Exponent, grevlex_key


@dataclass(frozen=True)
class GrevlexOrder:
    """Graded reverse lex by weighted degree, ties by reverse lex."""

    weights: tuple[int, ...]
    kind: str = "grevlex"

    def key(self, exp: Exponent):
        return grevlex_key(exp, self.weights)


@dataclass(frozen=True)
class LexOrder:
    """Pure lexicographic order; the first variable is the largest."""

    nvars: int
    kind: str = "lex"

    def key(self, exp: Exponent):
        return tuple(exp)


MonomialOrder = GrevlexOrder | LexOrder


def grevlex(weights: Sequence[int]) -> GrevlexOrder:
    return GrevlexOrder(tuple(weights))


def lex(nvars: int) -> LexOrder:
    return LexOrder(nvars)

