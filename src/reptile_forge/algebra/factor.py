"""Factorization of squarefree integer polynomials of any degree, by Zassenhaus.

A squarefree primitive f of degree n is factored modulo a small prime p
(distinct-degree, then Cantor-Zassenhaus equal-degree splitting), its monic
modular factors are Hensel-lifted on a binary factor tree to a modulus above
2 |lc(f)| 2^n ||f||_2, which bounds lc(f)/lc(g) * g for every factor g, and
subsets of the lifted factors are recombined by exact trial division over Z
(Zassenhaus, J. Number Theory 1969; von zur Gathen and Gerhard, Modern
Computer Algebra, ch. 15).  The one refusal: recombination past SUBSET_CAP
trials raises FactorError rather than run for exponential time.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import isqrt, prod

from . import intpoly as ip
from . import sturm
from .intpoly import Poly


class FactorError(ValueError):
    """Raised when recombining the modular factors would take too many trials."""


PRIME_TRIES = 5  # squarefree images tried; the one with fewest factors is kept
SUBSET_CAP = 2**15  # recombination trials before FactorError

# Polynomials modulo m are lists of residues in [0, m), lowest degree first,
# with no trailing zero.


def _trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _add(a: list[int], b: list[int], m: int, sign: int = 1) -> list[int]:
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return _trim([(x + sign * y) % m for x, y in zip(a, b)])


def _mul(a: list[int], b: list[int], m: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim([c % m for c in out])


def _divmod(a: list[int], b: list[int], m: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b modulo m; lc(b) must be a unit mod m."""
    r, db = list(a), len(b) - 1
    inv = pow(b[-1], -1, m)
    q = [0] * max(0, len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + db] * inv % m
        if c:
            for j in range(db):
                r[k + j] -= c * b[j]
    return _trim(q), _trim([c % m for c in r[:db]])


def _gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd modulo a prime p (a nonzero)."""
    while b:
        a, b = b, _divmod(a, b, p)[1]
    return _mul(a, [pow(a[-1], -1, p)], p)


def _powmod(a: list[int], e: int, g: list[int], p: int) -> list[int]:
    """a^e modulo (g, p)."""
    out, a = [1], _divmod(a, g, p)[1]
    while e:
        if e & 1:
            out = _divmod(_mul(out, a, p), g, p)[1]
        a = _divmod(_mul(a, a, p), g, p)[1]
        e >>= 1
    return out


def _primes():
    """Odd primes 3, 5, 7, ... by trial division: no input runs out of them."""
    p = 3
    while True:
        if all(p % q for q in range(3, isqrt(p) + 1, 2)):
            yield p
        p += 2


def _distinct_degree(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """(g, d) pairs: g is the product of the monic squarefree f's irreducible
    factors of degree d modulo p."""
    out, h, d = [], [0, 1], 0
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        h = _powmod(h, p, f, p)
        g = _gcd(f, _add(h, [0, 1], p, -1), p)
        if len(g) > 1:
            out.append((g, d))
            f = _divmod(f, g, p)[0]
            h = _divmod(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(g: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """The monic irreducible factors, each of degree d, of g modulo an odd p."""
    if len(g) - 1 == d:
        return [g]
    while True:
        a = _trim([rng.randrange(p) for _ in range(len(g) - 1)])
        if len(a) < 2:
            continue
        b = _gcd(g, a, p)
        if len(b) == 1:
            b = _gcd(g, _add(_powmod(a, (p**d - 1) // 2, g, p), [1], p, -1), p)
        if 1 < len(b) < len(g):
            return _equal_degree(b, d, p, rng) + _equal_degree(_divmod(g, b, p)[0], d, p, rng)


def _hensel_step(f, g, h, s, t, m):
    """Lift f = g h, s g + t h = 1 from modulus m to m^2 (MCA, Alg. 15.10)."""
    m *= m
    e = _add(f, _mul(g, h, m), m, -1)
    q, r = _divmod(_mul(s, e, m), h, m)
    g = _add(g, _add(_mul(t, e, m), _mul(q, g, m), m), m)
    h = _add(h, r, m)
    b = _add(_add(_mul(s, g, m), _mul(t, h, m), m), [1], m, -1)
    c, d = _divmod(_mul(s, b, m), h, m)
    return g, h, _add(s, d, m, -1), _add(_add(t, _mul(t, b, m), m, -1), _mul(c, g, m), m, -1)


def _lift(f: list[int], facs: list[list[int]], p: int, big: int) -> list[list[int]]:
    """Monic factors of the monic f modulo big = p^(2^j) that reduce to facs,
    pairwise coprime monic factors modulo p whose product is f."""
    if len(facs) == 1:
        return [f]
    half = len(facs) // 2
    g, h = (reduce(lambda a, b: _mul(a, b, p), part) for part in (facs[:half], facs[half:]))
    # Bezout coefficients s g + t h = 1 modulo p, by the extended Euclid
    r0, r1, s, s1, t, t1 = g, h, [1], [], [], [1]
    while r1:
        q, r = _divmod(r0, r1, p)
        r0, r1, s, s1, t, t1 = r1, r, s1, _add(s, _mul(q, s1, p), p, -1), t1, _add(t, _mul(q, t1, p), p, -1)
    s, t = _mul(s, [pow(r0[0], -1, p)], p), _mul(t, [pow(r0[0], -1, p)], p)
    m = p
    while m < big:
        g, h, s, t = _hensel_step(f, g, h, s, t, m)
        m *= m
    return _lift(g, facs[:half], p, big) + _lift(h, facs[half:], p, big)


def _recombine(f: Poly, lifted: list[list[int]], big: int) -> list[Poly]:
    """Zassenhaus recombination by exact trial division: for each factor g of
    f, lc(f) times the product of the lifted factors that g reduces to is
    lc(f)/lc(g) * g in the symmetric range mod big."""
    lc, rest, found, size, tried = f[-1], f, [], 1, 0
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            tried += 1
            if tried > SUBSET_CAP:
                raise FactorError(
                    f"factoring a degree-{ip.degree(f)} polynomial needs over {SUBSET_CAP} recombination trials"
                )
            # screen: a factor's constant term divides lc(f) * rest(0)
            c0 = lc * prod(lifted[i][0] for i in subset) % big
            c0 -= big if 2 * c0 > big else 0
            if rest[0] and (c0 == 0 or lc * rest[0] % c0):
                continue
            cand = reduce(lambda a, i: _mul(a, lifted[i], big), subset, [lc])
            cand = ip.primitive(ip.poly(c - big if 2 * c > big else c for c in cand))
            if ip.divides(cand, rest):
                found.append(cand)
                rest = ip.div_exact(rest, cand)
                lifted = [a for i, a in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    return sorted(found + [rest])


def factor_squarefree(f: Poly) -> list[Poly]:
    """Irreducible primitive factors of a squarefree primitive polynomial."""
    f = ip.primitive(f)
    n = ip.degree(f)
    if n <= 1:
        return [f] if n == 1 else []
    lc, images, checked = f[-1], [], False
    for p in _primes():
        if lc % p == 0:
            continue
        fp = _mul(list(f), [pow(lc, -1, p)], p)
        if len(_gcd(fp, _trim([i * c % p for i, c in enumerate(fp)][1:]), p)) > 1:
            # f is squarefree modulo all but finitely many primes, unless it
            # is not squarefree at all
            if not checked and ip.degree(ip.gcd_poly(f, ip.derivative(f))) > 0:
                raise ValueError("squarefree polynomial expected")
            checked = True
            continue
        ddf = _distinct_degree(fp, p)
        images.append((sum((len(g) - 1) // d for g, d in ddf), p, ddf))
        if images[-1][0] == 1 or len(images) == PRIME_TRIES:
            break
    count, p, ddf = min(images)
    if count == 1:
        return [f]
    rng = random.Random(0)
    facs = [a for g, d in ddf for a in _equal_degree(g, d, p, rng)]
    big, bound = p, 4 * lc * lc * 4**n * sum(c * c for c in f)
    while big * big <= bound:
        big *= big
    return _recombine(f, _lift(_mul(list(f), [pow(lc, -1, big)], big), facs, p, big), big)


def irreducible_factors(p: Poly) -> list[Poly]:
    """Distinct irreducible primitive factors of p (multiplicity dropped)."""
    return factor_squarefree(ip.squarefree_part(p))


def minimal_polynomial_on(
    p: Poly, lo: Fraction, hi: Fraction, factors: list[Poly] | None = None, seq: list[Poly] | None = None
) -> Poly:
    """The irreducible factor of p having a root in the isolating interval.

    The interval must isolate exactly one root of p's squarefree part.
    ``factors``, when given, must be ``irreducible_factors(p)``; a caller
    that places several roots of one polynomial then factors it once.
    ``seq``, when given, is p's Sturm chain, reused for a factor that is
    p's squarefree part ``seq[0]``.
    """
    for fac in irreducible_factors(p) if factors is None else factors:
        if lo == hi:
            if ip.eval_at(fac, lo) == 0:
                return fac
            continue
        chain = seq if seq is not None and seq[0] == fac else sturm.sturm_sequence(fac)
        if sturm.count_roots(chain, lo, hi) == 1:
            return fac
    raise ValueError("interval does not isolate a root of the polynomial")


def is_irreducible(p: Poly) -> bool:
    """Irreducibility over the rationals, for every degree."""
    f = ip.primitive(p)
    if ip.degree(f) < 1:
        raise ValueError("irreducibility undefined for constants")
    return ip.squarefree_part(f) == f and len(factor_squarefree(f)) == 1
