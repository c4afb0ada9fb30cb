"""The benchmark's own algebra, on sympy and mpmath rather than on the
package: minimal polynomials of rational-angle cosines, isolating
intervals, irreducibility and root counts.

Polynomials cross this module as integer coefficient lists, lowest degree
first, the order the package's JSON uses.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache

import mpmath
import sympy

X = sympy.Symbol("x")


def to_poly(coeffs) -> sympy.Poly:
    return sympy.Poly([int(c) for c in reversed(list(coeffs))], X, domain="ZZ")


def from_poly(p: sympy.Poly) -> list[int]:
    return [int(c) for c in reversed(p.all_coeffs())]


@lru_cache(maxsize=None)
def is_irreducible(coeffs: tuple) -> bool:
    p = to_poly(coeffs)
    return p.degree() >= 1 and p.is_irreducible


def cos_minpoly(p: int, q: int) -> list[int]:
    """Primitive minimal polynomial of cos(p pi / q), positive leading term."""
    mp = sympy.Poly(sympy.minimal_polynomial(sympy.cos(sympy.pi * sympy.Rational(p, q)), X), X)
    coeffs = from_poly(mp.primitive()[1])
    return coeffs if coeffs[-1] > 0 else [-c for c in coeffs]


def isolating_interval(coeffs, approx: float) -> tuple[Fraction, Fraction]:
    """A rational interval around the real root nearest approx that holds
    no other root."""
    ivs = to_poly(coeffs).intervals()
    (a, b), _ = min(ivs, key=lambda iv: abs((iv[0][0] + iv[0][1]) / 2 - sympy.Float(approx)))
    return Fraction(int(a.p), int(a.q)), Fraction(int(b.p), int(b.q))


def eval_sign(coeffs, x: Fraction) -> int:
    """Exact sign of the polynomial at a rational point."""
    v = sum(Fraction(c) * x**k for k, c in enumerate(coeffs))
    return (v > 0) - (v < 0)


def count_roots_open(coeffs, lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots in the open interval (lo, hi)."""
    p = to_poly(coeffs).sqf_part()
    n = p.count_roots(sympy.Rational(lo.numerator, lo.denominator), sympy.Rational(hi.numerator, hi.denominator))
    for end in (lo, hi):
        if eval_sign(from_poly(p), end) == 0:
            n -= 1
    return n


def has_rational_root(coeffs) -> bool:
    return any(r.is_rational for r in sympy.roots(to_poly(coeffs), filter="Q"))


def cos_pi(p: int, q: int, digits: int = 60):
    with mpmath.workdps(digits):
        return mpmath.cos(mpmath.pi * p / q)


def interval_holds_cos(lo: Fraction, hi: Fraction, p: int, q: int) -> bool:
    """Does [lo, hi] contain cos(p pi / q)?  Decided at 60 digits, with a
    1e-50 allowance for the endpoints; rational cosines are exact."""
    rational = {Fraction(0): 1, Fraction(1, 3): Fraction(1, 2), Fraction(1, 2): 0,
                Fraction(2, 3): Fraction(-1, 2), Fraction(1): -1}
    f = Fraction(p, q)
    if f in rational:
        return lo <= rational[f] <= hi
    with mpmath.workdps(60):
        v = cos_pi(p, q)
        slack = mpmath.mpf(10) ** -50
        return mpmath.mpf(lo.numerator) / lo.denominator - slack <= v <= mpmath.mpf(hi.numerator) / hi.denominator + slack


def irreducible_cubic_root(rng: random.Random) -> dict:
    """A root in (-1, 1) of an irreducible integer cubic whose value under
    x = y/2 has a non-unit leading coefficient after removing content, so
    2x is not an algebraic integer."""
    while True:
        lead = rng.choice((3, 5, 7, 9))
        coeffs = [rng.randint(-6, 6) for _ in range(3)] + [lead]
        if coeffs[0] == 0:
            continue
        doubled = [c * 2 ** (3 - k) for k, c in enumerate(coeffs)]
        if abs(doubled[-1] // math.gcd(*doubled)) == 1 or not is_irreducible(tuple(coeffs)):
            continue
        ivs = [iv for iv, _ in to_poly(coeffs).intervals() if -1 < iv[0] and iv[1] < 1]
        if not ivs:
            continue
        a, b = ivs[rng.randrange(len(ivs))]
        return {"minpoly": coeffs, "interval": [f"{a.p}/{a.q}", f"{b.p}/{b.q}"]}


def path_eliminant(t_minpoly) -> list[int]:
    """Resultant in t of the path-configuration determinant with t's
    minimal polynomial: the polynomial in s whose roots hold every s with
    det(s, t) = 0 for some conjugate t.  Primitive, positive leading term."""
    s, t = sympy.symbols("s t")
    m = sympy.Matrix([[-1, t, s, s], [t, -1, t, s], [s, t, -1, t], [s, s, t, -1]])
    d = sympy.Poly(m.det(), t)
    mt = sympy.Poly([int(c) for c in reversed(list(t_minpoly))], t)
    res = sympy.Poly(sympy.resultant(d.as_expr(), mt.as_expr(), t), s)
    coeffs = [int(c) for c in reversed(res.primitive()[1].all_coeffs())]
    return coeffs if coeffs[-1] > 0 else [-c for c in coeffs]
