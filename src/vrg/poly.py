"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a finite map from exponent vectors (one non-negative
integer per variable) to nonzero rational coefficients.  The zero
polynomial is the empty map.  Values are immutable after construction and
all operations are pure, so they are safe to share between threads.

An integral coefficient is stored as an ``int`` and any other as a
``Fraction``: most polynomials here are integer-primitive, and ``int``
arithmetic is far cheaper.  ``int / int`` is a float, so coefficients are
divided with :func:`coeff_div`, and a ``float`` or ``complex`` coefficient
raises ``TypeError`` so that a division that skipped it fails loudly
instead of rounding.

Validation happens in the public constructor ``Poly(n, terms)``, the input
boundary of the library API: it checks each coefficient's type and each
exponent vector, and drops zero coefficients.  Arithmetic builds its results
with ``Poly._clean``, which trusts its terms to be nonzero under valid
exponents, as the loops that make them guarantee, and only stores an
integral ``Fraction`` as an ``int``.  So does :func:`parse`, which reads
every spec and report: it works on plain ``{exponent: coefficient}`` dicts,
sums each run of terms into one dict in place, and wraps the result once.

Coefficients are read and printed with :func:`read_int` and
:func:`coeff_str`, which work at any length: Python refuses to convert an
integer of more than 4300 decimal digits in one step.  The parser raises a
monomial to a power by scaling its exponent, and refuses any other power
``base^e`` whose total degree ``e * deg(base)`` exceeds the degree cap
(:func:`max_degree_cap`) before expanding it; a monomial above the cap is
refused where it is used, by the Groebner basis.  A power of a constant is
refused when its value would need more than ``_MAX_POWER_BITS`` bits.

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
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from numbers import Number
from operator import add, sub
from typing import Callable, Iterator, Mapping, Sequence

from .errors import DegreeCapExceededError, InputError, NotDivisibleError, ParseError

Exponent = tuple[int, ...]
Coeff = int | Fraction

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
        for name, w in zip(self.names, self.weights):
            if not isinstance(name, str):
                raise ValueError("variable names must be strings")
            if type(w) is not int or w < 1:
                raise ValueError(f"weight of {name!r} must be a positive integer")
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be distinct")
        for name in self.names:
            if not _IDENT_RE.fullmatch(name):
                raise ValueError(f"invalid variable name: {name!r}")

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


def coeff_div(a: Coeff, b: Coeff) -> Coeff:
    """Exact quotient of two coefficients, an ``int`` when it is integral."""
    if type(a) is int and type(b) is int:
        return a // b if a % b == 0 else Fraction(a, b)
    return a / b


def reduce_leading(work: dict, tag: dict, row_for: Callable) -> Exponent | None:
    """The one reducer of exact division and normal forms, and of a vector
    against the pivot rows of :func:`~vrg.ideals._eliminate` (which runs its
    own fraction-free loop to make them): while ``row_for(max(work))`` gives
    a pair ``(row, row_tag)`` whose row has that leading key, subtract
    ``c*row`` from ``work`` and ``c*row_tag`` from ``tag`` in place, ``c``
    cancelling the lead.  Returns the lead that no row reduces, or None once
    work is zero."""
    while work:
        pair = row_for(lead := max(work))
        if pair is None:
            return lead
        row, row_tag = pair
        c = coeff_div(work[lead], row[lead])
        for target, part in (work, row), (tag, row_tag):
            for e, v in part.items():
                s = target.get(e, 0) - c * v
                if s:
                    target[e] = s
                else:
                    del target[e]
    return None


# below Python's 4300-digit limit on one int <-> str conversion
_DIGITS = 4000
_CHUNK = 10**_DIGITS


def read_int(digits: str) -> int:
    """The value of a string of decimal digits, at any length."""
    head = len(digits) % _DIGITS or _DIGITS
    value = int(digits[:head])
    for i in range(head, len(digits), _DIGITS):
        value = value * _CHUNK + int(digits[i : i + _DIGITS])
    return value


DEFAULT_MAX_DEGREE = 200
_MAX_POWER_BITS = 1 << 16  # of the numerator or denominator of a constant's power


def max_degree_cap() -> int:
    """The cap on total degrees: ``VRG_MAX_DEGREE``, a positive integer, or 200."""
    raw = (os.environ.get("VRG_MAX_DEGREE") or str(DEFAULT_MAX_DEGREE)).strip()
    cap = read_int(raw) if raw.isdecimal() else 0
    if cap < 1:
        raise InputError(f"VRG_MAX_DEGREE must be a positive integer, got {raw!r}")
    return cap


def coeff_str(c: Coeff) -> str:
    """``str(c)`` for an ``int`` or ``Fraction`` of any length."""
    if c.denominator != 1:
        return f"{coeff_str(c.numerator)}/{coeff_str(c.denominator)}"
    rest = abs(c.numerator)
    pieces = []
    while rest >= _CHUNK:
        rest, low = divmod(rest, _CHUNK)
        pieces.append(f"{low:0{_DIGITS}d}")
    pieces.append(str(rest))
    if c < 0:
        pieces.append("-")
    return "".join(reversed(pieces))


def _coefficient(c) -> Coeff:
    """A coefficient in stored form: an ``int``, or a non-integral ``Fraction``."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"polynomial coefficients must be int or Fraction, got {c!r}")


def _add_terms(target: dict, terms: dict) -> dict:
    """``target + terms`` for term dicts, summed into ``target`` in place."""
    for exp, c in terms.items():
        s = target.get(exp, 0) + c
        if s:
            target[exp] = s
        else:
            del target[exp]
    return target


def _mul_terms(p: dict, q: dict) -> dict:
    """The product of two term dicts, as a new dict."""
    out: dict[Exponent, Coeff] = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            exp = tuple(map(add, ea, eb))
            s = out.get(exp, 0) + ca * cb
            if s:
                out[exp] = s
            else:
                del out[exp]
    return out


def _pow_terms(terms: dict, k: int, n: int) -> dict:
    """``terms^k`` for a term dict in n variables and ``k >= 0``, as a new
    dict, by repeated squaring."""
    result = {(0,) * n: 1}
    while k:
        if k & 1:
            result = _mul_terms(result, terms)
        terms = _mul_terms(terms, terms) if k > 1 else terms
        k >>= 1
    return result


class Poly:
    """Immutable sparse polynomial with rational coefficients.

    ``n`` is the number of variables; ``terms`` maps length-``n`` exponent
    tuples to nonzero coefficients.  Arithmetic never stores a zero
    coefficient.
    """

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Mapping[Exponent, Coeff] | None = None):
        clean: dict[Exponent, Coeff] = {}
        if terms:
            for exp, coeff in terms.items():
                c = _coefficient(coeff)
                if c == 0:
                    continue
                if len(exp) != n or any(e < 0 for e in exp):
                    raise ValueError(f"bad exponent vector {exp!r} for n={n}")
                clean[tuple(exp)] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", clean)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _clean(cls, n: int, terms: dict[Exponent, Coeff]) -> "Poly":
        """A polynomial that takes ownership of ``terms``, which must have
        nonzero int or Fraction coefficients under length-``n`` exponent
        tuples of non-negative ints; an integral Fraction is stored as int."""
        for exp, c in terms.items():
            if type(c) is not int and c.denominator == 1:
                terms[exp] = c.numerator
        p = object.__new__(cls)
        object.__setattr__(p, "n", n)
        object.__setattr__(p, "_terms", terms)
        return p

    @classmethod
    def zero(cls, n: int) -> "Poly":
        return cls(n, {})

    @classmethod
    def const(cls, n: int, value) -> "Poly":
        c = _coefficient(value)
        return cls._clean(n, {(0,) * n: c} if c else {})

    @classmethod
    def variable(cls, n: int, j: int) -> "Poly":
        exp = [0] * n
        exp[j] = 1
        return cls._clean(n, {tuple(exp): 1})

    # -- inspection --------------------------------------------------------

    def items(self) -> Iterator[tuple[Exponent, Coeff]]:
        return iter(self._terms.items())

    def terms_dict(self) -> dict[Exponent, Coeff]:
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
        return Fraction(next(iter(self._terms.values())))

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

    def coefficient(self, exp: Exponent) -> Coeff:
        return self._terms.get(tuple(exp), 0)

    def leading(self, key=None) -> tuple[Exponent, Coeff]:
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
        return hash((self.n, frozenset(self._terms.items())))

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
        return Poly._clean(self.n, _add_terms(dict(self._terms), q._terms))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._clean(self.n, {exp: -c for exp, c in self._terms.items()})

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
            if not other:
                return Poly.zero(self.n)
            return Poly._clean(self.n, {exp: k * other for exp, k in self._terms.items()})
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return Poly._clean(self.n, _mul_terms(self._terms, q._terms))

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Poly":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        if scalar == 0:
            raise ZeroDivisionError("division of a polynomial by zero")
        return Poly._clean(self.n, {exp: coeff_div(k, scalar) for exp, k in self._terms.items()})

    def __pow__(self, k: int) -> "Poly":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise ValueError("negative exponents are not allowed")
        return Poly._clean(self.n, _pow_terms(self._terms, k, self.n))

    def exact_div(self, q: "Poly") -> "Poly":
        """Exact quotient self/q; raises NotDivisibleError otherwise.

        Leading terms are taken under lex: the exact quotient is unique, so
        any monomial order gives the same result.
        """
        if not isinstance(q, Poly) or q.n != self.n:
            raise ValueError("exact_div expects a polynomial over the same variables")
        if q.is_zero():
            raise ZeroDivisionError("exact division by the zero polynomial")
        q_exp, q_terms = q.leading()[0], q._terms.items()

        def shifted(lead: Exponent):
            # q times the quotient monomial d, tagged -d so the tag is +quotient
            d = tuple(map(sub, lead, q_exp))
            if min(d) < 0:
                return None
            return {tuple(map(add, d, e)): v for e, v in q_terms}, {d: -1}

        quot: dict[Exponent, Coeff] = {}
        if reduce_leading(dict(self._terms), quot, shifted) is not None:
            raise NotDivisibleError("not divisible")
        return Poly._clean(self.n, quot)

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
        out: dict[Exponent, Coeff] = {}
        for exp, c in self._terms.items():
            e = exp[j]
            if e == 0:
                continue
            new = list(exp)
            new[j] = e - 1
            out[tuple(new)] = c * e
        return Poly._clean(self.n, out)

    def compose(self, args: Sequence["Poly"]) -> "Poly":
        """Substitute args[j] for variable j.  All args share one ring."""
        if len(args) != self.n:
            raise ValueError("compose needs one polynomial per variable")
        if not args:
            raise ValueError("compose needs at least one argument")
        m = args[0].n
        if any(a.n != m for a in args):
            raise ValueError("compose arguments live in different rings")
        return Poly.zero(m) + self.evaluate(args)

    def evaluate(self, values: Sequence) -> object:
        """The value at ``values``, one per variable, in any commutative ring
        containing Q: numbers, polynomials or residues modulo a polynomial."""
        return evaluator(values)(self)


def evaluator(values: Sequence) -> Callable[[Poly], object]:
    """``p -> p(values)``, as :meth:`Poly.evaluate`, with one power table
    shared by every p it is given.  Each power is made once: a number's by
    ``**``, which rounds a float or mpmath value once, any other's by
    multiplying the power below it."""
    powers = [[1, v] for v in values]

    def power(j: int, e: int):
        cache, v = powers[j], values[j]
        while len(cache) <= e:
            cache.append(v ** len(cache) if isinstance(v, Number) else cache[-1] * v)
        return cache[e]

    def at(p: Poly):
        if len(values) != p.n:
            raise ValueError("evaluate needs one value per variable")
        total = 0
        for exp, c in p._terms.items():
            for j, e in enumerate(exp):
                if e:
                    made = powers[j]
                    c = c * (made[e] if e < len(made) else power(j, e))
            total = total + c
        return total

    return at


class _Residue:
    """An element of ``Q[s]/(m)``, for a monic m of degree D >= 2: its D
    coefficients, lowest degree first, with those of m."""

    __slots__ = ("c", "m")

    def __init__(self, c: tuple, m: list):
        self.c, self.m = c, m

    def __add__(self, other) -> "_Residue":
        if isinstance(other, _Residue):
            return _Residue(tuple(map(add, self.c, other.c)), self.m)
        return _Residue((self.c[0] + other,) + self.c[1:], self.m)

    __radd__ = __add__

    def __mul__(self, other) -> "_Residue":
        if not isinstance(other, _Residue):
            return _Residue(tuple(c * other for c in self.c), self.m)
        size = len(self.c)
        out = [0] * (2 * size - 1)
        for i, x in enumerate(self.c):
            if x:
                for j, y in enumerate(other.c):
                    out[i + j] += x * y
        for k in range(2 * size - 2, size - 1, -1):  # s^k = s^(k-D)*(s^D - m)
            if out[k]:
                for e, me in enumerate(self.m[:size]):
                    out[k - size + e] -= out[k] * me
        return _Residue(tuple(out[:size]), self.m)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return any(self.c)


def residue(m: list):
    """The residue of s in ``Q[s]/(m)``, for the coefficients of a monic m,
    lowest degree first: the root of m when m is linear, else a
    :class:`_Residue`."""
    return -m[0] if len(m) == 2 else _Residue((0, 1) + (0,) * (len(m) - 3), m)


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


def exponents_of_degree(weights: tuple[int, ...], d: int) -> list[Exponent]:
    """Exponent vectors a with sum(a_i * weights[i]) == d."""
    if not weights:
        return [()] if d == 0 else []
    *head, w = weights
    return [
        a + (k,)
        for k in range(d // w + 1)
        for a in exponents_of_degree(tuple(head), d - k * w)
    ]


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

# the deepest nesting of '(' and unary '-' parsed, at up to four stack frames a level
_MAX_NESTING = 100

# an int, an identifier, an operator, or any other non-space character, refused
_TOKEN_RE = re.compile(
    r"(?P<int>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^/()])|(?P<bad>\S)"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """The tokens ``(kind, text, position)``, whitespace skipped, ending with
    the sentinel ``("end", "", len(text))``."""
    tokens = [(m.lastgroup, m.group(), m.start()) for m in _TOKEN_RE.finditer(text)]
    for kind, value, pos in tokens:
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", pos)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive-descent parser for the expression grammar.

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | base ('^' INT)?
    base   := INT ('/' INT)? | IDENT | '(' expr ')'

    Implicit multiplication is rejected: "2X" is a syntax error, and so is
    nesting of '(' and unary '-' deeper than ``_MAX_NESTING``.  Each rule
    returns a new term dict ``{exponent: coefficient}`` that it owns: a sum
    accumulates its terms in place, and :func:`parse` wraps the result once.
    """

    def __init__(self, text: str, vars: VarTable):
        self.vars = vars
        self.one = (0,) * vars.n  # the exponent of 1, then those of the variables
        self.units = [self.one[:j] + (1,) + self.one[j + 1 :] for j in range(vars.n)]
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0  # of the '(' and unary '-' being parsed
        self.cap: int | None = None  # read on the first power that expands

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        if tok[0] == "end":
            raise ParseError("unexpected end of expression", tok[2])
        self.i += 1
        return tok

    def nested(self, pos: int, rule) -> dict:
        """``rule()`` one level deeper, refused beyond ``_MAX_NESTING`` levels."""
        if self.depth == _MAX_NESTING:
            raise ParseError(f"nesting deeper than {_MAX_NESTING} levels", pos)
        self.depth += 1
        p = rule()
        self.depth -= 1
        return p

    def expect_op(self, op: str):
        tok = self.next()
        if tok[0] != "op" or tok[1] != op:
            raise ParseError(f"expected {op!r}", tok[2])

    def parse(self) -> dict:
        if self.peek()[0] == "end":
            raise ParseError("empty expression", 0)
        p = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {value!r}", pos)
        return p

    def expr(self) -> dict:
        p = self.term()
        while (tok := self.peek())[0] == "op" and tok[1] in "+-":
            self.next()
            q = self.term()
            _add_terms(p, q if tok[1] == "+" else {exp: -c for exp, c in q.items()})
        return p

    def term(self) -> dict:
        p = self.factor()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value == "*":
                self.next()
                p = _mul_terms(p, self.factor())
            elif kind in ("int", "ident") or (kind == "op" and value == "("):
                raise ParseError("implicit multiplication is not allowed; write '*'", pos)
            else:
                return p

    def factor(self) -> dict:
        tok = self.peek()
        if tok[0] == "op" and tok[1] == "-":
            self.next()
            return {exp: -c for exp, c in self.nested(tok[2], self.factor).items()}
        p = self.base()
        tok = self.peek()
        if tok[0] == "op" and tok[1] == "^":
            self.next()
            etok = self.next()
            if etok[0] != "int":
                raise ParseError("exponent must be a non-negative integer literal", etok[2])
            p = self.power(p, read_int(etok[1]), etok[2])
        return p

    def power(self, p: dict, e: int, pos: int) -> dict:
        """``p^e``.  A monomial with coefficient ±1 is raised by scaling its
        exponent, at no cost; before expanding, another constant is refused
        above ``_MAX_POWER_BITS`` bits and any other base above the degree cap."""
        if len(p) == 1:
            ((exp, c),) = p.items()
            if c in (1, -1):
                return {tuple(k * e for k in exp): c if e % 2 else 1}
            bits = max(c.numerator.bit_length(), c.denominator.bit_length())
            if not any(exp) and e * bits > _MAX_POWER_BITS:
                raise DegreeCapExceededError(
                    f"power at position {pos} has over {_MAX_POWER_BITS} bits"
                )
        if self.cap is None:
            self.cap = max_degree_cap()
        if e * max(map(sum, p), default=-1) > self.cap:
            raise DegreeCapExceededError(
                f"power at position {pos} has degree above the cap {coeff_str(self.cap)}"
            )
        return _pow_terms(p, e, self.vars.n)

    def base(self) -> dict:
        kind, value, pos = self.next()
        if kind == "int":
            num = read_int(value)
            nxt = self.peek()
            if nxt[0] == "op" and nxt[1] == "/":
                self.next()
                dtok = self.next()
                if dtok[0] != "int":
                    raise ParseError("denominator must be an integer literal", dtok[2])
                den = read_int(dtok[1])
                if den == 0:
                    raise ParseError("zero denominator in rational literal", dtok[2])
                num = coeff_div(num, den)
            return {self.one: num} if num else {}
        if kind == "ident":
            try:
                j = self.vars.index(value)
            except KeyError:
                raise ParseError(f"unknown variable {value!r}", pos) from None
            return {self.units[j]: 1}
        if kind == "op" and value == "(":
            p = self.nested(pos, self.expr)
            self.expect_op(")")
            return p
        raise ParseError(f"unexpected {value!r}", pos)


def parse(text: str, vars: VarTable) -> Poly:
    """Parse an expression string into its expanded normal form."""
    return Poly._clean(vars.n, _Parser(text, vars).parse())


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
        mag = coeff_str(abs(c))
        if mono:
            body = mono if mag == "1" else f"{mag}*{mono}"
        else:
            body = mag
        if idx == 0:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(pieces)
