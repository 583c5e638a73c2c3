"""Factoring over the integers: Zassenhaus for univariates, and the Hensel
lifting of a univariate image's factors for multivariates.

A univariate polynomial is a list of coefficients, lowest degree first,
with no trailing zero.  The arithmetic takes a modulus ``m``: coefficients
are reduced mod ``m``, or kept as exact rationals when ``m`` is 0.

The univariate factorizer is Zassenhaus's (von zur Gathen–Gerhard,
*Modern Computer Algebra*, ch. 14–15): distinct-degree and equal-degree
(Cantor–Zassenhaus) splitting mod a small prime, quadratic Hensel lifting
of the modular factors past a Mignotte bound, then recombination of
subsets by trial division over Z.

A multivariate ``F`` is a map from exponent vectors in the variables
``y`` to coefficient lists in the main variable ``x``.  :func:`lift` lifts
the monic factors of ``F(x, 0)`` to monic factors of ``F`` over the power
series ring ``Q[[y]]``, one total degree in ``y`` at a time.

Every prime and every splitting element comes from a fixed sequence, so
the results and their cost never depend on the process.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

from .poly import exponents_of_degree

# the modular images tried before lifting the one with the fewest factors
_PRIMES_TRIED = 3


# ---------------------------------------------------------------------------
# univariate arithmetic mod m (m = 0: over Q)
# ---------------------------------------------------------------------------


def _strip(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _reduce(a: list, m: int) -> list:
    return _strip([c % m for c in a] if m else a)


def _inverse(c, m: int):
    return pow(c, -1, m) if m else 1 / Fraction(c)


def _add(a: list, b: list, m: int) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _reduce(out, m)


def _sub(a: list, b: list, m: int) -> list:
    return _add(a, [-c for c in b], m)


def _mul(a: list, b: list, m: int) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    return _reduce(out, m)


def _scale(a: list, c, m: int) -> list:
    return _reduce([x * c for x in a], m)


def _divmod(a: list, b: list, m: int) -> tuple[list, list]:
    """Quotient and remainder; the leading coefficient of b is a unit mod m."""
    r = _reduce(list(a), m)
    db = len(b) - 1
    if len(r) <= db:
        return [], r
    inv = _inverse(b[-1], m)
    q = [0] * (len(r) - db)
    for i in range(len(r) - 1 - db, -1, -1):
        c = r[i + db] * inv
        if m:
            c %= m
        if c:
            q[i] = c
            for j, d in enumerate(b):
                r[i + j] -= c * d
    return _strip(q), _reduce(r[:db], m)


def _monic(a: list, m: int) -> list:
    return _scale(a, _inverse(a[-1], m), m)


def _gcd(a: list, b: list, p: int) -> list:
    """Monic gcd over the field Z/p, or Q when p is 0."""
    while b:
        a, b = b, _divmod(a, b, p)[1]
    return _monic(a, p)


def _gcdex(a: list, b: list, p: int) -> tuple[list, list]:
    """s, t with s*a + t*b = 1 over Z/p (or Q), for coprime a and b;
    deg s < deg b and deg t < deg a."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub(s0, _mul(q, s1, p), p)
        t0, t1 = t1, _sub(t0, _mul(q, t1, p), p)
    inv = _inverse(r0[0], p)  # r0 is a nonzero constant
    return _scale(s0, inv, p), _scale(t0, inv, p)


def _derivative(a: list, m: int) -> list:
    return _reduce([i * c for i, c in enumerate(a)][1:], m)


def _powmod(a: list, e: int, f: list, p: int) -> list:
    """a^e mod f over Z/p."""
    out = [1]
    a = _divmod(a, f, p)[1]
    while e:
        if e & 1:
            out = _divmod(_mul(out, a, p), f, p)[1]
        e >>= 1
        if e:
            a = _divmod(_mul(a, a, p), f, p)[1]
    return out


def is_squarefree(a: list) -> bool:
    """Whether a nonconstant a over Q has no repeated factor."""
    return len(_gcd(a, _derivative(a, 0), 0)) == 1


# ---------------------------------------------------------------------------
# factoring mod p
# ---------------------------------------------------------------------------


def _distinct_degree(f: list, p: int) -> list[tuple[list, int]]:
    """(product of all irreducible factors of degree d, d) for monic
    square-free f mod p."""
    out = []
    x = [0, 1]
    h = x
    d = 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _powmod(h, p, f, p)  # x^(p^d) mod f
        g = _gcd(f, _sub(h, x, p), p)
        if len(g) > 1:
            out.append((g, d))
            f = _divmod(f, g, p)[0]
            h = _divmod(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(f: list, d: int, p: int, rng: random.Random) -> list[list]:
    """The monic irreducible factors, all of degree d, of f mod an odd p."""
    n = len(f) - 1
    if n == d:
        return [f]
    e = (p**d - 1) // 2
    while True:
        a = _strip([rng.randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue
        g = _gcd(f, _sub(_powmod(a, e, f, p), [1], p), p)
        if 1 < len(g) < len(f):
            break
    return _equal_degree(g, d, p, rng) + _equal_degree(_divmod(f, g, p)[0], d, p, rng)


def _odd_primes():
    p = 3
    while True:
        if all(p % q for q in range(3, math.isqrt(p) + 1, 2)):
            yield p
        p += 2


# ---------------------------------------------------------------------------
# Hensel lifting and recombination over Z
# ---------------------------------------------------------------------------


def _hensel_step(m: int, f: list, g: list, h: list, s: list, t: list) -> tuple:
    """From f = g*h and s*g + t*h = 1 mod m, h monic, the same mod m^2
    (von zur Gathen–Gerhard, Algorithm 15.10)."""
    M = m * m
    e = _sub(f, _mul(g, h, M), M)
    q, r = _divmod(_mul(s, e, M), h, M)
    g = _add(g, _add(_mul(t, e, M), _mul(q, g, M), M), M)
    h = _add(h, r, M)
    b = _sub(_add(_mul(s, g, M), _mul(t, h, M), M), [1], M)
    c, d = _divmod(_mul(s, b, M), h, M)
    return g, h, _sub(s, d, M), _sub(_sub(t, _mul(t, b, M), M), _mul(c, g, M), M)


def _hensel_lift(f: list, factors: list[list], p: int, pl: int) -> list[list]:
    """Monic factors mod pl, a power of p, lifting ``factors``: monic,
    coprime, and f = lc(f) * prod(factors) mod p."""
    if len(factors) == 1:
        return [_scale(f, _inverse(f[-1], pl), pl)]
    k = len(factors) // 2
    g = [f[-1] % p]
    for u in factors[:k]:
        g = _mul(g, u, p)
    h = [1]
    for u in factors[k:]:
        h = _mul(h, u, p)
    s, t = _gcdex(g, h, p)
    m = p
    while m < pl:
        g, h, s, t = _hensel_step(m, f, g, h, s, t)
        m *= m
    return _hensel_lift(_reduce(g, pl), factors[:k], p, pl) + _hensel_lift(
        _reduce(h, pl), factors[k:], p, pl
    )


def _primitive(a: list) -> list:
    c = math.gcd(*a)
    if a[-1] < 0:
        c = -c
    return [x // c for x in a]


def squarefree_part(f: list) -> list:
    """The product of the distinct irreducible factors of f over Q: f over
    its gcd with f'."""
    return _divmod(f, _gcd(f, _derivative(f, 0), 0), 0)[0]


def rational_factors(f: list) -> list[list[int]]:
    """The irreducible factors over Z of a square-free f of positive degree
    with rational coefficients, each primitive with positive leading
    coefficient."""
    den = math.lcm(*(c.denominator for c in f))
    return factor_squarefree(_primitive([int(c * den) for c in f]))


def _exact_quotient(f: list, g: list) -> list | None:
    """f / g over Z, or None when g does not divide f."""
    r = list(f)
    dg = len(g) - 1
    q = [0] * (len(r) - dg)
    for i in range(len(r) - 1 - dg, -1, -1):
        c, rem = divmod(r[i + dg], g[-1])
        if rem:
            return None
        q[i] = c
        if c:
            for j, d in enumerate(g):
                r[i + j] -= c * d
    return None if any(r[:dg]) else q


def recombine(f, lifted: list, candidate) -> list:
    """The true factors of f from its lifted factors, the smallest subsets
    first.  ``candidate(f, subset)`` turns a list of lifted factors into a
    (factor, cofactor) pair when their product gives a factor of f, confirmed
    by trial division, and returns None otherwise."""
    found = []
    s = 1
    while 2 * s <= len(lifted):
        for subset in combinations(range(len(lifted)), s):
            split = candidate(f, [lifted[i] for i in subset])
            if split is not None:
                g, f = split
                found.append(g)
                lifted = [u for i, u in enumerate(lifted) if i not in subset]
                break
        else:
            s += 1
    return found + [f]


def factor_squarefree(f: list[int]) -> list[list[int]]:
    """Irreducible factors over Z of a primitive square-free f of positive
    degree and positive leading coefficient; each primitive with positive
    leading coefficient."""
    n = len(f) - 1
    if n == 1:
        return [f]
    best = None
    # the degrees a factor over Z can have: subset sums of the degrees of
    # the factors mod each prime tried
    degrees = set(range(n + 1))
    tried = 0
    for p in _odd_primes():
        fp = _reduce(list(f), p)
        if len(fp) != n + 1 or len(_gcd(fp, _derivative(fp, p), p)) > 1:
            continue
        split = _distinct_degree(_monic(fp, p), p)
        sums = {0}
        for h, d in split:
            sums |= {s + d * i for s in sums for i in range(1, (len(h) - 1) // d + 1)}
        degrees &= sums
        if degrees == {0, n}:
            return [f]
        count = sum((len(h) - 1) // d for h, d in split)
        if best is None or count < best[0]:
            best = (count, p, split)
        tried += 1
        if tried == _PRIMES_TRIED:
            break
    _, p, split = best
    rng = random.Random(0)  # the splitting elements' fixed sequence
    factors = [g for h, d in split for g in _equal_degree(h, d, p, rng)]
    # a factor's coefficients are below sqrt(n+1) * 2^n * max|f_i| (Mignotte),
    # and a candidate is one scaled to leading coefficient lc(f)
    bound = 2 * abs(f[-1]) * (math.isqrt(n + 1) + 1) * 2**n * max(map(abs, f))
    pl = p
    while pl <= bound:
        pl *= p

    def candidate(f: list, subset: list[list]) -> tuple | None:
        g = [f[-1]]
        for u in subset:
            g = _mul(g, u, pl)
        g = _primitive([c - pl if 2 * c > pl else c for c in g])
        q = _exact_quotient(f, g)
        return None if q is None else (g, q)

    return recombine(f, _hensel_lift(f, factors, p, pl), candidate)


# ---------------------------------------------------------------------------
# multivariate: power series in y with polynomial coefficients in x
# ---------------------------------------------------------------------------


def series_mul(a: dict, b: dict, k: int) -> dict:
    """a * b over Q, dropping every term of total degree above k in y."""
    out: dict = {}
    for ea, pa in a.items():
        da = sum(ea)
        for eb, pb in b.items():
            if da + sum(eb) <= k:
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = _add(out.get(e, []), _mul(pa, pb, 0), 0)
    return {e: c for e, c in out.items() if c}


def series_quotient(f: dict, lead: dict, m: int, k: int) -> dict:
    """f / lead up to total degree k in y, for lead a polynomial in y alone
    (each value a constant list) with a nonzero constant term."""
    inv = 1 / Fraction(lead[(0,) * m][0])
    rest = [(e, c[0]) for e, c in lead.items() if any(e)]
    out: dict = {}
    for d in range(k + 1):
        for e in exponents_of_degree((1,) * m, d):
            acc = f.get(e, [])
            for le, lc in rest:
                prior = tuple(x - y for x, y in zip(e, le))
                if min(prior) >= 0 and prior in out:
                    acc = _sub(acc, _scale(out[prior], lc, 0), 0)
            if acc:
                out[e] = _scale(acc, inv, 0)
    return out


def lift(f: dict, units: list[list], m: int, k: int) -> list[dict]:
    """Monic factors of f over Q[[y]] up to total degree k in y, lifting
    ``units``: monic, pairwise coprime, with product f(x, 0); f is monic
    in x up to degree k.

    Step d solves for the degree-d terms of every factor at once.  The
    products of the first j factors are kept by degree, and each step adds
    only their degree-d slices, so no product is ever recomputed.
    """
    zero = (0,) * m
    whole = [1]
    for u in units:
        whole = _mul(whole, u, 0)
    # s_i with sum(s_i * whole / u_i) = 1, so that e = sum(d_i * whole / u_i)
    # has the solution d_i = e * s_i mod u_i
    inverses = [_gcdex(_divmod(whole, u, 0)[0], u, 0)[0] for u in units]
    # factors[i][b] and prefix[j][b]: the degree-b terms of factor i and of
    # the product of factors 0..j
    factors = [[{zero: u}] for u in units]
    prefix = [factors[0]]
    for g in factors[1:]:
        prefix.append([series_mul(prefix[-1][0], g[0], 0)])
    for d in range(1, k + 1):
        for g in factors:
            g.append({})
        for j in range(1, len(units)):
            piece: dict = {}
            for a in range(1, d + 1):
                for ea, pa in prefix[j - 1][a].items():
                    for eb, pb in factors[j][d - a].items():
                        e = tuple(x + y for x, y in zip(ea, eb))
                        piece[e] = _add(piece.get(e, []), _mul(pa, pb, 0), 0)
            prefix[j].append({e: c for e, c in piece.items() if c})
        for e in exponents_of_degree((1,) * m, d):
            error = _sub(f.get(e, []), prefix[-1][d].get(e, []), 0)
            if not error:
                continue
            # the new terms change the prefix products' degree-d slices by
            # change_j = change_{j-1} * u_j + (u_0 ... u_{j-1}) * delta_j
            change = []
            for j, (g, u, s) in enumerate(zip(factors, units, inverses)):
                delta = _divmod(_mul(error, s, 0), u, 0)[1]
                if delta:
                    g[d][e] = delta
                if j:
                    change = _add(_mul(change, u, 0), _mul(prefix[j - 1][0][zero], delta, 0), 0)
                    total = _add(prefix[j][d].get(e, []), change, 0)
                    if total:
                        prefix[j][d][e] = total
                    else:
                        prefix[j][d].pop(e, None)
                else:
                    change = delta
    return [{e: c for piece in g for e, c in piece.items()} for g in factors]
