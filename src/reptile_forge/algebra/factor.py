"""Factorization of integer polynomials of degree at most eight.

The strategy is root-isolation guided: rational roots are found exactly,
and higher-degree factors are reconstructed from subsets of isolated real
roots of the monicized polynomial (integer factors of a monic integer
polynomial have integer coefficients, so a candidate is pinned down once
every elementary-symmetric enclosure is narrower than one).  Two screens
keep the subset search small: a real-rooted polynomial's smallest factor has
degree at most half its own, and a subset whose root-sum enclosure holds no
integer is skipped before its product is formed (the trace test of Abbott,
Shoup and Zimmermann, ISSAC 2000).  Quartics with complex roots fall back to
resolvent-cubic analysis.  This covers every polynomial arising from
arithmetic on totally real algebraic numbers; anything outside that domain
raises FactorError rather than guessing.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from . import intpoly as ip
from . import sturm
from .intpoly import Poly
from .linalg import rational_sqrt


class FactorError(ValueError):
    """Raised when a polynomial cannot be factored by the supported methods."""


MAX_DEGREE = 8

_IV = tuple[Fraction, Fraction]


def _iv_add(a: _IV, b: _IV) -> _IV:
    return (a[0] + b[0], a[1] + b[1])


def _iv_mul(a: _IV, b: _IV) -> _IV:
    vals = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(vals), max(vals))


def _product_coefficients(roots: list[_IV]) -> list[_IV]:
    """Interval coefficients of prod (x - r) over the given root enclosures."""
    coeffs: list[_IV] = [(Fraction(1), Fraction(1))]
    for lo, hi in roots:
        neg = (-hi, -lo)
        nxt: list[_IV] = [(Fraction(0), Fraction(0))] * (len(coeffs) + 1)
        for j, c in enumerate(coeffs):
            nxt[j + 1] = _iv_add(nxt[j + 1], c)
            nxt[j] = _iv_add(nxt[j], _iv_mul(c, neg))
        coeffs = nxt
    return coeffs


def _subset_factor(g: Poly) -> Poly | None:
    """Smallest-degree monic integer factor of g reconstructible from real
    roots, or None.  g must be monic, squarefree, degree >= 4, and free of
    rational roots; any factor found this way is irreducible."""
    n = ip.degree(g)
    intervals = sturm.isolate_roots(g)
    if len(intervals) < 2:
        return None
    refined = list(intervals)
    # elementary symmetric functions amplify root-enclosure widths by at
    # most n * (2B)^(n-1); refine below that before giving up
    bound = ip.root_bound(g)
    floor = Fraction(1, 16 * n) / (2 * bound + 2) ** n

    def refine_all(w: Fraction) -> None:
        for i, (lo, hi) in enumerate(refined):
            if hi - lo >= w:
                refined[i] = sturm.refine_root(g, lo, hi, w)

    # a real-rooted g has real-rooted cofactors, so its smallest factor has
    # degree <= n/2, and at n/2 one of each complementary pair holds root 0
    all_real = len(intervals) == n
    for k in range(2, n // 2 + 1 if all_real else n - 1):
        for subset in combinations(range(len(refined)), k):
            if all_real and 2 * k == n and subset[0]:
                break
            # trace screen: the root sum is minus a coefficient, an integer
            lo = sum(refined[i][0] for i in subset)
            hi = sum(refined[i][1] for i in subset)
            if hi - lo < 1 and math.ceil(lo) > hi:
                continue
            w = Fraction(1, 64)
            while True:
                refine_all(w)
                coeffs = _product_coefficients([refined[i] for i in subset])
                if any(hi - lo >= 1 for lo, hi in coeffs):
                    w /= 16
                    if w < floor / 256:
                        raise FactorError("root refinement failed to settle coefficients")
                    continue
                candidate = []
                for lo, hi in coeffs:
                    c = math.ceil(lo)
                    if c > hi:
                        candidate = None
                        break
                    candidate.append(c)
                if candidate is not None:
                    cand_poly = ip.poly(candidate)
                    if ip.degree(cand_poly) == k and ip.divides(cand_poly, g):
                        return cand_poly
                break
    return None


def _clear_denominators(coeffs: list[Fraction]) -> Poly:
    den = math.lcm(*(c.denominator for c in coeffs))
    return ip.poly(int(c * den) for c in coeffs)


def _quartic_quadratic_split(g: Poly) -> tuple[Poly, Poly] | None:
    """Split a primitive quartic with no rational roots into two integer
    quadratics, if possible, via the resolvent cubic."""
    if ip.degree(g) != 4:
        raise ValueError("quartic expected")
    gm, lc = ip.monicize(g)
    b, c, d, e = (Fraction(gm[3]), Fraction(gm[2]), Fraction(gm[1]), Fraction(gm[0]))
    # depressed form: y = z - b/4 gives z^4 + p z^2 + q z + r
    p = c - 3 * b * b / 8
    q = d - b * c / 2 + b**3 / 8
    r = e - b * d / 4 + b * b * c / 16 - 3 * b**4 / 256

    found: tuple[Fraction, Fraction, Fraction] | None = None
    if q == 0:
        root = rational_sqrt(p * p - 4 * r)
        if root is not None:
            found = (Fraction(0), (p + root) / 2, (p - root) / 2)
        else:
            rr = rational_sqrt(r)
            if rr is not None:
                for v in (rr, -rr):
                    u = rational_sqrt(2 * v - p)
                    if u is not None:
                        found = (u, v, v)
                        break
    else:
        # resolvent cubic in U = u^2:  U^3 + 2p U^2 + (p^2 - 4r) U - q^2 = 0
        res = _clear_denominators([-q * q, p * p - 4 * r, 2 * p, Fraction(1)])
        for u2 in sturm.rational_roots(res):
            if u2 <= 0:
                continue
            u = rational_sqrt(u2)
            if u is None:
                continue
            found = (u, (p + u2 - q / u) / 2, (p + u2 + q / u) / 2)
            break
    if found is None:
        return None
    u, v, w = found
    shift = b / 4

    def lift(uu: Fraction, vv: Fraction) -> Poly:
        # z^2 + uu z + vv with z = y + shift, then y = lc * x
        cs = [vv + uu * shift + shift * shift, uu + 2 * shift, Fraction(1)]
        q_int = _clear_denominators(cs)
        return ip.primitive(ip.compose_linear(q_int, lc, 0))

    f1, f2 = lift(u, v), lift(-u, w)
    if ip.primitive(ip.mul(f1, f2)) != ip.primitive(g):
        raise AssertionError("quartic split reconstruction mismatch")
    return f1, f2


def factor_squarefree(f: Poly) -> list[Poly]:
    """Irreducible primitive factors of a squarefree primitive polynomial."""
    f = ip.primitive(f)
    n = ip.degree(f)
    if n > MAX_DEGREE:
        raise FactorError(f"degree {n} exceeds the supported bound {MAX_DEGREE}")
    if n <= 0:
        return []
    if n == 1:
        return [f]
    factors: list[Poly] = []
    rest = f
    for r in sturm.rational_roots(f):
        lin = ip.primitive(ip.poly([-r.numerator, r.denominator]))
        factors.append(lin)
        rest = ip.div_exact(rest, lin)
    rest = ip.primitive(rest)
    while ip.degree(rest) > 0:
        d = ip.degree(rest)
        if d <= 3:
            # no rational roots remain, so degrees 2 and 3 are irreducible
            factors.append(rest)
            break
        gm, lc = ip.monicize(rest)
        hit = _subset_factor(gm)
        if hit is not None:
            fac = ip.primitive(ip.compose_linear(hit, lc, 0))
            factors.append(fac)
            rest = ip.primitive(ip.div_exact(rest, fac))
            continue
        if d == 4:
            split = _quartic_quadratic_split(rest)
            if split is None:
                factors.append(rest)
                break
            factors.append(split[0])
            rest = ip.primitive(ip.div_exact(rest, split[0]))
            continue
        # no all-real-rooted proper factor: if every root is real the
        # polynomial is irreducible, otherwise we cannot certify anything
        if len(sturm.isolate_roots(rest)) == d:
            factors.append(rest)
            break
        raise FactorError(
            f"cannot factor degree-{d} polynomial with complex conjugate roots"
        )
    return sorted(factors)


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
    """Irreducibility over the rationals for degrees 1 through 4.

    Degrees 2 and 3 reduce to the rational root test; degree 4 adds the
    resolvent-cubic test for a split into two integer quadratics.
    """
    f = ip.primitive(p)
    d = ip.degree(f)
    if d < 1:
        raise ValueError("irreducibility undefined for constants")
    if d > 4:
        raise ValueError("unsupported degree (only degrees 1..4)")
    if d == 1:
        return True
    if sturm.rational_roots(f):
        return False
    if d <= 3:
        return True
    if ip.squarefree_part(f) != f:
        return False
    return _quartic_quadratic_split(f) is None
