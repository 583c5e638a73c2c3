"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a finite map from exponent vectors (one non-negative
integer per variable) to nonzero ``Fraction`` coefficients.  The zero
polynomial is the empty map.  Values are immutable after construction and
all operations are pure, so they are safe to share between threads.

Printing and "canonical associate" normalization use a weighted
graded-reverse-lexicographic order: terms are compared first by weighted
degree, ties broken reverse-lexicographically (the rightmost differing
exponent decides, smaller exponent winning).  The canonical associate of a
nonzero polynomial has integer coefficients with content 1 and a positive
leading coefficient; it is the representative used whenever two
polynomials only need to agree up to a nonzero scalar.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .errors import NotDivisibleError, ParseError

Exponent = tuple[int, ...]

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass(frozen=True)
class VarTable:
    """Ordered variable names with their positive integer weights."""

    names: tuple[str, ...]
    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.names) < 1:
            raise ValueError("a variable table needs at least one variable")
        if len(self.names) != len(self.weights):
            raise ValueError("names and weights must have the same length")
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be distinct")
        for name in self.names:
            if not _IDENT_RE.fullmatch(name):
                raise ValueError(f"invalid variable name: {name!r}")
        for w in self.weights:
            if not isinstance(w, int) or w < 1:
                raise ValueError("weights must be positive integers")

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None

    def wdeg(self, exp: Exponent) -> int:
        """Weighted degree of a single monomial."""
        return sum(e * w for e, w in zip(exp, self.weights))


def grevlex_key(exp: Exponent, weights: Sequence[int]):
    """Sort key realizing weighted grevlex: larger key = larger monomial."""
    return (
        sum(e * w for e, w in zip(exp, weights)),
        tuple(-e for e in reversed(exp)),
    )


class Poly:
    """Immutable sparse polynomial with rational coefficients.

    ``n`` is the number of variables; ``terms`` maps length-``n`` exponent
    tuples to nonzero coefficients.  Arithmetic never stores a zero
    coefficient.
    """

    __slots__ = ("n", "_terms", "_hash")

    def __init__(self, n: int, terms: Mapping[Exponent, Fraction] | None = None):
        clean: dict[Exponent, Fraction] = {}
        if terms:
            for exp, coeff in terms.items():
                c = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
                if c == 0:
                    continue
                if len(exp) != n or any(e < 0 for e in exp):
                    raise ValueError(f"bad exponent vector {exp!r} for n={n}")
                clean[tuple(exp)] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_hash", None)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Poly":
        return cls(n, {})

    @classmethod
    def const(cls, n: int, value) -> "Poly":
        return cls(n, {(0,) * n: Fraction(value)})

    @classmethod
    def variable(cls, n: int, j: int) -> "Poly":
        exp = [0] * n
        exp[j] = 1
        return cls(n, {tuple(exp): Fraction(1)})

    # -- inspection --------------------------------------------------------

    def items(self) -> Iterator[tuple[Exponent, Fraction]]:
        return iter(self._terms.items())

    def terms_dict(self) -> dict[Exponent, Fraction]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(not any(exp) for exp in self._terms)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self._terms.values()))

    def __len__(self) -> int:
        return len(self._terms)

    def total_degree(self) -> int:
        """Max unweighted total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(exp) for exp in self._terms)

    def degree_in(self, j: int) -> int:
        """Max exponent of variable j; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(exp[j] for exp in self._terms)

    def variables_used(self) -> frozenset[int]:
        used = set()
        for exp in self._terms:
            for j, e in enumerate(exp):
                if e:
                    used.add(j)
        return frozenset(used)

    def coefficient(self, exp: Exponent) -> Fraction:
        return self._terms.get(tuple(exp), Fraction(0))

    def leading(self, key=None) -> tuple[Exponent, Fraction]:
        """Leading (exponent, coefficient) under lex, or under ``key``."""
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        exp = max(self._terms, key=key)
        return exp, self._terms[exp]

    # -- equality / hashing ------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.n, frozenset(self._terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __setattr__(self, name, value):
        raise AttributeError("Poly instances are immutable")

    def __repr__(self) -> str:
        return f"Poly(n={self.n}, {self._terms!r})"

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "Poly | None":
        if isinstance(other, Poly):
            if other.n != self.n:
                raise ValueError("polynomials over different variable counts")
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(self.n, other)
        return None

    def __add__(self, other) -> "Poly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        out = dict(self._terms)
        for exp, c in q._terms.items():
            s = out.get(exp, Fraction(0)) + c
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        return Poly(self.n, out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(self.n, {exp: -c for exp, c in self._terms.items()})

    def __sub__(self, other) -> "Poly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self + (-q)

    def __rsub__(self, other) -> "Poly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return q + (-self)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return Poly.zero(self.n)
            return Poly(self.n, {exp: k * c for exp, k in self._terms.items()})
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        out: dict[Exponent, Fraction] = {}
        for ea, ca in self._terms.items():
            for eb, cb in q._terms.items():
                exp = tuple(x + y for x, y in zip(ea, eb))
                s = out.get(exp, Fraction(0)) + ca * cb
                if s:
                    out[exp] = s
                else:
                    del out[exp]
        return Poly(self.n, out)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Poly":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        c = Fraction(scalar)
        if c == 0:
            raise ZeroDivisionError("division of a polynomial by zero")
        return self * (1 / c)

    def __pow__(self, k: int) -> "Poly":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise ValueError("negative exponents are not allowed")
        result = Poly.const(self.n, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def exact_div(self, q: "Poly") -> "Poly":
        """Exact quotient self/q; raises NotDivisibleError otherwise.

        Leading terms are taken under lex: the exact quotient is unique, so
        any monomial order gives the same result.
        """
        if not isinstance(q, Poly) or q.n != self.n:
            raise ValueError("exact_div expects a polynomial over the same variables")
        if q.is_zero():
            raise ZeroDivisionError("exact division by the zero polynomial")
        if self.is_zero():
            return Poly.zero(self.n)
        q_exp, q_c = q.leading()
        rem = dict(self._terms)
        quot: dict[Exponent, Fraction] = {}
        while rem:
            exp = max(rem)
            c = rem[exp]
            diff = tuple(a - b for a, b in zip(exp, q_exp))
            if any(d < 0 for d in diff):
                raise NotDivisibleError("not divisible")
            factor = c / q_c
            quot[diff] = factor
            for eb, cb in q._terms.items():
                t = tuple(a + b for a, b in zip(diff, eb))
                s = rem.get(t, Fraction(0)) - factor * cb
                if s:
                    rem[t] = s
                else:
                    rem.pop(t, None)
        return Poly(self.n, quot)

    def divides(self, p: "Poly") -> bool:
        if self.is_zero():
            return p.is_zero()
        try:
            p.exact_div(self)
            return True
        except NotDivisibleError:
            return False

    # -- calculus / substitution -------------------------------------------

    def derivative(self, j: int) -> "Poly":
        """Formal partial derivative with respect to variable j (0-based)."""
        if not 0 <= j < self.n:
            raise IndexError(f"variable index {j} out of range")
        out: dict[Exponent, Fraction] = {}
        for exp, c in self._terms.items():
            e = exp[j]
            if e == 0:
                continue
            new = list(exp)
            new[j] = e - 1
            out[tuple(new)] = c * e
        return Poly(self.n, out)

    def compose(self, args: Sequence["Poly"]) -> "Poly":
        """Substitute args[j] for variable j.  All args share one ring."""
        if len(args) != self.n:
            raise ValueError("compose needs one polynomial per variable")
        if not args:
            raise ValueError("compose needs at least one argument")
        m = args[0].n
        if any(a.n != m for a in args):
            raise ValueError("compose arguments live in different rings")
        powers: list[dict[int, Poly]] = [{0: Poly.const(m, 1)} for _ in range(self.n)]

        def power(j: int, e: int) -> Poly:
            cache = powers[j]
            if e not in cache:
                cache[e] = power(j, e - 1) * args[j]
            return cache[e]

        total = Poly.zero(m)
        for exp, c in self._terms.items():
            term = Poly.const(m, c)
            for j, e in enumerate(exp):
                if e:
                    term = term * power(j, e)
            total = total + term
        return total

    def evaluate(self, values: Sequence) -> object:
        """Evaluate at a point; works for Fraction, complex, or mpmath values."""
        if len(values) != self.n:
            raise ValueError("evaluate needs one value per variable")
        powers = [dict() for _ in range(self.n)]

        def power(j: int, e: int):
            cache = powers[j]
            if e not in cache:
                cache[e] = values[j] ** e
            return cache[e]

        total = None
        for exp, c in self._terms.items():
            term = Fraction(c)
            for j, e in enumerate(exp):
                if e:
                    term = term * power(j, e)
            total = term if total is None else total + term
        return Fraction(0) if total is None else total


# ---------------------------------------------------------------------------
# weighted degree / homogeneity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightedDegree:
    degree: int
    homogeneous: bool


def weighted_degree(p: Poly, vars: VarTable) -> WeightedDegree:
    """Max weighted degree over terms, plus whether every term attains it."""
    if p.is_zero():
        raise ValueError("degree undefined for the zero polynomial")
    degrees = {vars.wdeg(exp) for exp, _ in p.items()}
    return WeightedDegree(degree=max(degrees), homogeneous=len(degrees) == 1)


# ---------------------------------------------------------------------------
# canonical associate
# ---------------------------------------------------------------------------


def content(p: Poly) -> Fraction:
    """Positive rational c with p/c integer-primitive; 0 for the zero poly."""
    if p.is_zero():
        return Fraction(0)
    num = 0
    den = 1
    for _, c in p.items():
        num = math.gcd(num, abs(c.numerator))
        den = den * c.denominator // math.gcd(den, c.denominator)
    return Fraction(num, den)


def canonicalize(p: Poly, vars: VarTable) -> tuple[Poly, Fraction]:
    """Split p into (canonical associate, discarded unit).

    The canonical associate has content 1 and positive leading coefficient
    under the printing order; ``unit * canonical == p`` exactly.  The zero
    polynomial canonicalizes to itself with unit 1.
    """
    if p.is_zero():
        return p, Fraction(1)
    unit = content(p)
    key = lambda exp: grevlex_key(exp, vars.weights)
    _, lead = p.leading(key)
    if lead < 0:
        unit = -unit
    return p / unit, unit


def canonical(p: Poly, vars: VarTable) -> Poly:
    return canonicalize(p, vars)[0]


# ---------------------------------------------------------------------------
# Jacobian determinant
# ---------------------------------------------------------------------------


def jacobian(fs: Sequence[Poly], vars: VarTable) -> Poly:
    """Determinant of the matrix of partials d(fs[i])/d(X_j), exact.

    Cofactor expansion along the first column; exact rational arithmetic
    keeps the result identical to any fraction-free scheme.
    """
    n = vars.n
    if len(fs) != n:
        raise ValueError(f"need exactly {n} polynomials, got {len(fs)}")
    if any(f.n != n for f in fs):
        raise ValueError("generators live in a different ring than the variables")
    matrix = [[f.derivative(j) for j in range(n)] for f in fs]
    return _det(matrix, n)


def _det(m: list[list[Poly]], n: int) -> Poly:
    size = len(m)
    if size == 1:
        return m[0][0]
    total = Poly.zero(n)
    for i in range(size):
        if m[i][0].is_zero():
            continue
        minor = [row[1:] for k, row in enumerate(m) if k != i]
        cof = m[i][0] * _det(minor, n)
        total = total + cof if i % 2 == 0 else total - cof
    return total


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^/()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.group("int") is not None:
            tokens.append(("int", m.group("int"), m.start("int")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive-descent parser for the expression grammar.

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | base ('^' INT)?
    base   := INT ('/' INT)? | IDENT | '(' expr ')'

    Implicit multiplication is rejected: "2X" is a syntax error.
    """

    def __init__(self, text: str, vars: VarTable):
        self.text = text
        self.vars = vars
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", len(self.text))
        self.i += 1
        return tok

    def expect_op(self, op: str):
        tok = self.next()
        if tok[0] != "op" or tok[1] != op:
            raise ParseError(f"expected {op!r}", tok[2])

    def parse(self) -> Poly:
        if not self.tokens:
            raise ParseError("empty expression", 0)
        p = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return p

    def expr(self) -> Poly:
        p = self.term()
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] in "+-":
                self.next()
                q = self.term()
                p = p + q if tok[1] == "+" else p - q
            else:
                return p

    def term(self) -> Poly:
        p = self.factor()
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] == "*":
                self.next()
                p = p * self.factor()
            elif tok and tok[0] in ("int", "ident"):
                raise ParseError(
                    "implicit multiplication is not allowed; write '*'", tok[2]
                )
            elif tok and tok[0] == "op" and tok[1] == "(":
                raise ParseError(
                    "implicit multiplication is not allowed; write '*'", tok[2]
                )
            else:
                return p

    def factor(self) -> Poly:
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "-":
            self.next()
            return -self.factor()
        p = self.base()
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "^":
            self.next()
            etok = self.next()
            if etok[0] != "int":
                raise ParseError("exponent must be a non-negative integer literal", etok[2])
            p = p ** int(etok[1])
        return p

    def base(self) -> Poly:
        tok = self.next()
        kind, value, pos = tok
        if kind == "int":
            num = int(value)
            nxt = self.peek()
            if nxt and nxt[0] == "op" and nxt[1] == "/":
                self.next()
                dtok = self.next()
                if dtok[0] != "int":
                    raise ParseError("denominator must be an integer literal", dtok[2])
                den = int(dtok[1])
                if den == 0:
                    raise ParseError("zero denominator in rational literal", dtok[2])
                return Poly.const(self.vars.n, Fraction(num, den))
            return Poly.const(self.vars.n, num)
        if kind == "ident":
            try:
                j = self.vars.index(value)
            except KeyError:
                raise ParseError(f"unknown variable {value!r}", pos) from None
            return Poly.variable(self.vars.n, j)
        if kind == "op" and value == "(":
            p = self.expr()
            self.expect_op(")")
            return p
        raise ParseError(f"unexpected {value!r}", pos)


def parse(text: str, vars: VarTable) -> Poly:
    """Parse an expression string into its expanded normal form."""
    return _Parser(text, vars).parse()


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def _format_monomial(exp: Exponent, vars: VarTable) -> str:
    parts = []
    for name, e in zip(vars.names, exp):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def format_poly(p: Poly, vars: VarTable) -> str:
    """Canonical expression string, re-parseable by :func:`parse`.

    Terms are printed in decreasing printing order (weighted grevlex).
    """
    if p.is_zero():
        return "0"
    key = lambda exp: grevlex_key(exp, vars.weights)
    pieces = []
    for idx, exp in enumerate(sorted(p.terms_dict(), key=key, reverse=True)):
        c = p.coefficient(exp)
        mono = _format_monomial(exp, vars)
        mag = abs(c)
        if mono:
            body = mono if mag == 1 else f"{mag}*{mono}"
        else:
            body = str(mag)
        if idx == 0:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(pieces)
