"""Rational angles and their algebraic cosines.

The bridge between angles p/q*pi and exact cosine values: minimal
polynomials come from cyclotomic polynomials through the x + 1/x
substitution, the algebraic degree of cos(2*pi*m/n) is phi(n)/2, and the
catalogs enumerate every angle whose cosine has a prescribed degree.  A
value is cos(2*pi*k/n) exactly when its minimal polynomial is that of
cos(2*pi/n) (Watkins & Zeitlin, Amer. Math. Monthly 100, 1993), so matching
compares minimal polynomials, reads k from the root index, and scans no catalog.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .algebra import AlgebraicReal, euler_totient, totient_inverse
from .algebra import intpoly as ip
from .algebra.algebraic import _root_intervals
from .algebra.enclosure import acos_fraction_bounds, pi_bounds
from .algebra.intpoly import Poly


@dataclass(frozen=True, order=True)
class RationalAngle:
    """The angle (p/q) * pi, stored in lowest terms with 0 <= p/q <= 1."""

    p: int
    q: int

    def __post_init__(self):
        if self.q <= 0:
            raise ValueError("denominator must be positive")
        if math.gcd(abs(self.p), self.q) != 1:
            raise ValueError("angle must be in lowest terms")
        if not 0 <= Fraction(self.p, self.q) <= 1:
            raise ValueError("canonical angle must lie in [0, pi]")

    @staticmethod
    def of(p: int, q: int) -> "RationalAngle":
        """Angle (p/q)*pi folded into the canonical range [0, pi]."""
        f = Fraction(p, q) % 2
        if f > 1:
            f = 2 - f
        return RationalAngle(f.numerator, f.denominator)

    @property
    def fraction_of_pi(self) -> Fraction:
        return Fraction(self.p, self.q)

    @property
    def degrees(self) -> Fraction:
        return Fraction(self.p, self.q) * 180

    def two_pi_form(self) -> tuple[int, int]:
        """(m, n) with angle = 2*pi*m/n in lowest terms."""
        f = Fraction(self.p, 2 * self.q)
        return f.numerator, f.denominator

    def supplement(self) -> "RationalAngle":
        return RationalAngle.of(self.q - self.p, self.q)

    def enclosure(self, width: Fraction) -> tuple[Fraction, Fraction]:
        """Certified rational bracket of the angle in radians."""
        f = self.fraction_of_pi
        if f == 0:
            return Fraction(0), Fraction(0)
        lo, hi = pi_bounds(width / f)
        return lo * f, hi * f

    def __repr__(self) -> str:
        if self.p == 0:
            return "RationalAngle(0)"
        num = "pi" if self.p == 1 else f"{self.p}*pi"
        return f"RationalAngle({num}/{self.q})" if self.q > 1 else f"RationalAngle({num})"


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> Poly:
    """The n-th cyclotomic polynomial, by exact division of x^n - 1."""
    if n < 1:
        raise ValueError("cyclotomic index must be positive")
    num = ip.poly([-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            num = ip.div_exact(num, cyclotomic(d))
    return num


@lru_cache(maxsize=None)
def _half_chebyshev(j: int) -> Poly:
    """Polynomial expressing x^j + x^-j in terms of y = x + 1/x."""
    if j == 0:
        return (2,)
    if j == 1:
        return (0, 1)
    return ip.sub(ip.mul((0, 1), _half_chebyshev(j - 1)), _half_chebyshev(j - 2))


@lru_cache(maxsize=None)
def cos_two_pi_minpoly(n: int) -> Poly:
    """Minimal polynomial of cos(2*pi*k/n) for any k coprime to n.

    For n >= 3 the cyclotomic polynomial is palindromic of degree 2m with
    m = phi(n)/2; folding it through y = x + 1/x gives the minimal
    polynomial of 2*cos, which is then rescaled to cos.
    """
    if n == 1:
        return (-1, 1)
    if n == 2:
        return (1, 1)
    phi_n = euler_totient(n)
    if phi_n % 2 != 0:
        raise AssertionError("phi(n) must be even for n >= 3")
    m = phi_n // 2
    cyc = cyclotomic(n)
    folded: Poly = (cyc[m],)
    for j in range(1, m + 1):
        folded = ip.add(folded, ip.scale(_half_chebyshev(j), cyc[m + j]))
    # y = 2x
    return ip.primitive(ip.compose_linear(folded, 2, 0))


def _orders_of_degree(degree: int) -> list[int]:
    """Ascending n whose cos(2*pi*k/n) have this degree: phi(n) = 2*degree, or <= 2 for 1."""
    if degree == 1:
        return totient_inverse(1) + totient_inverse(2)
    return totient_inverse(2 * degree)


def _coprime_residues_half(n: int) -> list[int]:
    """Residues k coprime to n with 0 < k < n/2 (plus k = 0 for n = 1 and
    k = 1 for n = 2, the degenerate endpoint angles)."""
    if n == 1:
        return [0]
    if n == 2:
        return [1]
    return [k for k in range(1, (n + 1) // 2) if math.gcd(k, n) == 1 and 2 * k != n]


def cosine_of(angle: RationalAngle) -> AlgebraicReal:
    """Exact cosine of a canonical rational angle."""
    m, n = angle.two_pi_form()
    if n == 1:
        return AlgebraicReal.from_rational(1)
    if n == 2:
        return AlgebraicReal.from_rational(-1)
    k = m % n
    k = min(k, n - k)
    mp = cos_two_pi_minpoly(n)
    if ip.degree(mp) == 1:
        return AlgebraicReal.from_rational(Fraction(-mp[0], mp[1]))
    residues = _coprime_residues_half(n)
    roots = _root_intervals(mp)
    if len(roots) != len(residues):
        raise AssertionError("cosine minimal polynomial root count mismatch")
    # ascending residues are descending cosines
    idx = len(residues) - 1 - residues.index(k)
    lo, hi = roots[idx]
    return AlgebraicReal(mp, (lo, hi), _trusted=True)


def cosine_degree(angle: RationalAngle) -> int:
    """Algebraic degree of the cosine: phi(n)/2 for n >= 3, else 1."""
    _, n = angle.two_pi_form()
    phi_n = euler_totient(n)
    return 1 if phi_n <= 2 else phi_n // 2


@dataclass(frozen=True)
class CosineCatalog:
    """Every rational angle in [0, pi] whose cosine has a given degree."""

    degree: int
    entries: tuple[tuple[RationalAngle, AlgebraicReal], ...]

    def cosines(self) -> list[AlgebraicReal]:
        return [c for _, c in self.entries]

    def __len__(self) -> int:
        return len(self.entries)


@lru_cache(maxsize=None)
def catalog(degree: int) -> CosineCatalog:
    """Exhaustive cosine catalog for one algebraic degree (1 through 8).

    Degree 1 includes the degenerate angles 0 and pi (cosines +-1); callers
    with geometric constraints filter those.
    """
    if not 1 <= degree <= 8:
        raise ValueError("catalogs are supported for degrees 1 through 8")
    # distinct angles in [0, pi] have distinct cosines, so nothing repeats
    pairs: list[tuple[RationalAngle, AlgebraicReal]] = []
    for n in _orders_of_degree(degree):
        for k in _coprime_residues_half(n):
            ang = RationalAngle.of(2 * k, n)
            pairs.append((ang, cosine_of(ang)))
    pairs.sort(key=lambda pc: pc[0].fraction_of_pi, reverse=True)  # ascending cosine
    return CosineCatalog(degree, tuple(pairs))


def match_rational_angle(x) -> RationalAngle | None:
    """The rational angle in [0, pi] whose cosine equals x exactly, if any.

    Any algebraic degree can match; values outside [-1, 1] are a domain
    error.
    """
    if isinstance(x, (int, Fraction)):
        x = AlgebraicReal.from_rational(x)
    if x.compare(Fraction(-1)) < 0 or x.compare(Fraction(1)) > 0:
        raise ValueError("cosine values lie in [-1, 1]")
    for n in _orders_of_degree(x.degree):
        if cos_two_pi_minpoly(n) == x.minpoly:
            # roots ascend as residues descend (see cosine_of)
            residues = _coprime_residues_half(n)
            return RationalAngle.of(2 * residues[len(residues) - 1 - x._root_index()], n)
    return None


def acos_enclosure(x, width: Fraction) -> tuple[Fraction, Fraction]:
    """Certified bracket of arccos(x) for an exact value in [-1, 1]."""
    width = Fraction(width)
    if isinstance(x, (int, Fraction)):
        return acos_fraction_bounds(Fraction(x), width)
    w = width / 4
    while True:
        iv = x.refine_below(w)
        lo = acos_fraction_bounds(min(iv.hi, Fraction(1)), w)[0]
        hi = acos_fraction_bounds(max(iv.lo, Fraction(-1)), w)[1]
        if hi - lo < width:
            return lo, hi
        w /= 16
        if w < Fraction(1, 10**200):
            raise ArithmeticError("arccos enclosure failed to converge")
