"""Exact real algebraic numbers.

A value is an irreducible primitive integer minimal polynomial together
with a rational interval isolating one of its real roots.  Rationals are
the degree-1 case and compare/combine exactly.  Arithmetic goes through
resultants followed by minimality restoration; the product of the operand
degrees may not exceed 8 (a quartic times a quadratic is the largest
combination the geometry needs), and exceeding the cap is a hard error
rather than a silent float fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import intpoly as ip
from . import sturm
from .factor import minimal_polynomial_on
from .intpoly import Poly
from .linalg import interpolate

DEGREE_CAP = 8
_FLOAT_WIDTH = Fraction(1, 10**17)
_ratio = "{0.numerator}/{0.denominator}".format  # a Fraction as "p/q", as JSON spells it


class DegreeOverflowError(ArithmeticError):
    """Resultant degree would exceed the supported bound."""


@dataclass(frozen=True)
class Interval:
    """A closed rational interval lo <= hi."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __contains__(self, x) -> bool:
        return self.lo <= x <= self.hi

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


@lru_cache(maxsize=4096)
def _root_intervals(minpoly: Poly) -> tuple[tuple[Fraction, Fraction], ...]:
    return tuple(sturm.isolate_roots(minpoly))


class AlgebraicReal:
    """An exact real algebraic number (immutable value semantics).

    The stored enclosure only ever tightens around the same root, which is
    observationally pure; all other state is fixed at construction.
    """

    __slots__ = ("minpoly", "_iv", "_ridx")

    def __init__(self, minpoly, interval, _trusted: bool = False):
        if _trusted:
            lo, hi = interval
            object.__setattr__(self, "minpoly", minpoly)
            object.__setattr__(
                self,
                "_iv",
                (lo if type(lo) is Fraction else Fraction(lo), hi if type(hi) is Fraction else Fraction(hi)),
            )
            object.__setattr__(self, "_ridx", None)
            return
        built = AlgebraicReal.from_root(minpoly, Fraction(interval[0]), Fraction(interval[1]))
        object.__setattr__(self, "minpoly", built.minpoly)
        object.__setattr__(self, "_iv", built._iv)
        object.__setattr__(self, "_ridx", None)

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rational(r) -> "AlgebraicReal":
        r = Fraction(r)
        mp = ip.poly([-r.numerator, r.denominator])
        return AlgebraicReal(mp, (r, r), _trusted=True)

    @staticmethod
    def from_root(defining, lo, hi, factors=None) -> "AlgebraicReal":
        """Normalize (defining polynomial, isolating interval) to an exact value.

        The interval must contain exactly one real root of the polynomial;
        the minimal polynomial is the irreducible factor owning that root.
        ``factors`` may pass ``factor.irreducible_factors(defining)`` in, so
        several roots of one polynomial share one factorization.
        """
        lo, hi = Fraction(lo), Fraction(hi)
        defining = ip.poly(defining)
        if ip.degree(defining) < 1:
            raise ValueError("defining polynomial must have positive degree")
        if lo == hi:
            if ip.eval_at(defining, lo) != 0:
                raise ValueError("degenerate interval does not hit a root")
            return AlgebraicReal.from_rational(lo)
        seq = sturm.sturm_sequence(defining)
        p = seq[0]
        n_in = sturm.count_roots(seq, lo, hi)
        if n_in != 1:
            raise ValueError(f"interval must isolate exactly one root (found {n_in})")
        # pull endpoint roots inward so the endpoints get honest signs
        while ip.sign_at(p, lo) == 0 or ip.sign_at(p, hi) == 0:
            if ip.sign_at(p, hi) == 0:
                return AlgebraicReal.from_rational(hi)
            m = (lo + hi) / 2
            if ip.sign_at(p, m) == 0:
                return AlgebraicReal.from_rational(m)
            if sturm.count_roots(seq, m, hi) == 1:
                lo = m
            else:
                hi = m
        mp = minimal_polynomial_on(p, lo, hi, factors, seq)
        if ip.degree(mp) == 1:
            return AlgebraicReal.from_rational(Fraction(-mp[0], mp[1]))
        lo, hi = _shrink_to(mp, lo, hi, seq)
        return AlgebraicReal(mp, (lo, hi), _trusted=True)

    @staticmethod
    def sqrt_rational(q) -> "AlgebraicReal":
        """Exact square root of a nonnegative rational p/s in lowest terms:
        the rational root when p and s are squares, else the root of
        (-p, 0, s) in the bracket ``_sqrt_bounds(p/s, 1/16)``."""
        q = Fraction(q)
        num, den = q.numerator, q.denominator
        if num < 0:
            raise ValueError("square root of a negative rational")
        rn, rd = math.isqrt(num), math.isqrt(den)
        if rn * rn == num and rd * rd == den:
            return AlgebraicReal.from_rational(Fraction(rn, rd))
        return AlgebraicReal((-num, 0, den), _isqrt_bracket(num, den, 17), _trusted=True)

    # -- basic queries ------------------------------------------------

    @property
    def degree(self) -> int:
        return ip.degree(self.minpoly)

    @property
    def is_rational(self) -> bool:
        return len(self.minpoly) == 2

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("not a rational value")
        return Fraction(-self.minpoly[0], self.minpoly[1])

    def interval(self) -> Interval:
        return Interval(*self._iv)

    def refine_below(self, width) -> Interval:
        """Tighten the stored enclosure below the given width and return it."""
        width = Fraction(width)
        if width <= 0:
            raise ValueError("width must be positive")
        self._refine(width)
        return Interval(*self._iv)

    def _refine(self, width: Fraction) -> None:
        lo, hi = self._iv
        if hi - lo >= width:
            object.__setattr__(self, "_iv", sturm.refine_root(self.minpoly, lo, hi, width))

    def sign(self) -> int:
        if self.is_rational:
            v = self.as_fraction()
            return (v > 0) - (v < 0)
        lo, hi = self._iv
        while lo <= 0 <= hi:
            self._refine((hi - lo) / 4)
            lo, hi = self._iv
        return 1 if lo > 0 else -1

    def __bool__(self) -> bool:
        return not (self.is_rational and self.minpoly[0] == 0)

    def __float__(self) -> float:
        if self.is_rational:
            return float(self.as_fraction())
        # an irrational value is no rounding boundary, so the enclosure ends
        # round to one double once it is narrow enough: the value's
        # correctly rounded double, whatever the enclosure started as
        self._refine(_FLOAT_WIDTH)
        lo, hi = self._iv
        while float(lo) != float(hi):
            self._refine((hi - lo) / 4)
            lo, hi = self._iv
        return float(lo)

    def approx(self, digits: int = 12) -> Fraction:
        """A rational approximation within 10**-digits of the true value."""
        if self.is_rational:
            return self.as_fraction()
        return self.refine_below(Fraction(1, 10**digits)).mid

    # -- comparison ---------------------------------------------------

    def _root_index(self) -> int:
        if self._ridx is not None:
            return self._ridx
        if self.is_rational:
            object.__setattr__(self, "_ridx", 0)
            return 0
        homes = _root_intervals(self.minpoly)
        while True:
            lo, hi = self._iv
            for i, (a, b) in enumerate(homes):
                if a <= lo and hi <= b:
                    object.__setattr__(self, "_ridx", i)
                    return i
            self._refine((hi - lo) / 4)

    def compare(self, other) -> int:
        if isinstance(other, (int, Fraction)):
            # a rational is compared with the enclosure as it is, and only
            # self is refined, as against a degenerate enclosure
            if self.is_rational:
                # -c0 / c1 against p / q, both denominators positive
                c0, c1 = self.minpoly
                a, b = -c0 * other.denominator, other.numerator * c1
                return (a > b) - (a < b)
            while True:
                lo, hi = self._iv
                if hi < other:
                    return -1
                if other < lo:
                    return 1
                self._refine((hi - lo) / 4)
        other = as_algebraic(other)
        if self.is_rational and other.is_rational:
            a, b = self.as_fraction(), other.as_fraction()
            return (a > b) - (a < b)
        if self.minpoly == other.minpoly and (
            # an enclosure isolates one root of the minimal polynomial
            self._iv == other._iv or self._root_index() == other._root_index()
        ):
            return 0
        # distinct values: refine until the enclosures separate
        while True:
            a_lo, a_hi = self._iv
            b_lo, b_hi = other._iv
            if a_hi < b_lo:
                return -1
            if b_hi < a_lo:
                return 1
            if a_hi > a_lo:
                self._refine((a_hi - a_lo) / 4)
            if b_hi > b_lo:
                other._refine((b_hi - b_lo) / 4)

    def __eq__(self, other):
        if not isinstance(other, (AlgebraicReal, int, Fraction)):
            return NotImplemented
        return self.compare(other) == 0

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def __hash__(self):
        if self.is_rational:
            return hash(self.as_fraction())
        return hash((self.minpoly, self._root_index()))

    # -- arithmetic ---------------------------------------------------

    def __neg__(self) -> "AlgebraicReal":
        if self.is_rational:
            return AlgebraicReal.from_rational(-self.as_fraction())
        mp = ip.primitive(ip.compose_linear(self.minpoly, -1, 0))
        lo, hi = self._iv
        return AlgebraicReal(mp, (-hi, -lo), _trusted=True)

    def __abs__(self) -> "AlgebraicReal":
        return -self if self.sign() < 0 else self

    def __add__(self, other) -> "AlgebraicReal":
        return _arith(self, as_algebraic(other), "+")

    __radd__ = __add__

    def __sub__(self, other) -> "AlgebraicReal":
        return _arith(self, as_algebraic(other), "-")

    def __rsub__(self, other) -> "AlgebraicReal":
        return _arith(as_algebraic(other), self, "-")

    def __mul__(self, other) -> "AlgebraicReal":
        if isinstance(other, (int, Fraction)) and not self.is_rational:
            return _rational_affine(self, Fraction(other), "*")
        return _arith(self, as_algebraic(other), "*")

    __rmul__ = __mul__

    def __truediv__(self, other) -> "AlgebraicReal":
        return _arith(self, as_algebraic(other), "/")

    def __rtruediv__(self, other) -> "AlgebraicReal":
        return _arith(as_algebraic(other), self, "/")

    def inverse(self) -> "AlgebraicReal":
        if not self:
            raise ZeroDivisionError("inverse of zero")
        if self.is_rational:
            return AlgebraicReal.from_rational(1 / self.as_fraction())
        self.sign()  # refines the enclosure away from zero
        lo, hi = self._iv
        mp = ip.primitive(ip.reverse(self.minpoly))
        new_lo, new_hi = sorted((1 / hi, 1 / lo))
        return AlgebraicReal(mp, (new_lo, new_hi), _trusted=True)

    def sqrt(self) -> "AlgebraicReal":
        sgn = self.sign()
        if sgn < 0:
            raise ValueError("square root of a negative value")
        if sgn == 0:
            return AlgebraicReal.from_rational(0)
        if self.is_rational:
            return AlgebraicReal.sqrt_rational(self.as_fraction())
        res = ip.compose(self.minpoly, (0, 0, 1))

        def rng(iv: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
            return (
                _sqrt_bounds(max(iv[0], Fraction(0)), Fraction(1, 2**24))[0],
                _sqrt_bounds(iv[1], Fraction(1, 2**24))[1],
            )

        return _select_root(res, rng, self)

    # -- serialization ------------------------------------------------

    def to_json(self) -> dict:
        lo, hi = self._iv
        return {
            "minpoly": list(self.minpoly),
            "interval": [_ratio(lo), _ratio(hi)],
        }

    def __repr__(self) -> str:
        if self.is_rational:
            return f"AlgebraicReal({self.as_fraction()})"
        lo, hi = self._iv
        return f"AlgebraicReal({ip.to_string(self.minpoly)} ~ {float((lo + hi) / 2):.6g})"


def as_algebraic(x) -> AlgebraicReal:
    if isinstance(x, AlgebraicReal):
        return x
    if isinstance(x, (int, Fraction)):
        return AlgebraicReal.from_rational(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as an algebraic real")


def _shrink_to(mp: Poly, lo: Fraction, hi: Fraction, seq=None) -> tuple[Fraction, Fraction]:
    """Shrink (lo, hi) until it sign-isolates the root of the irreducible
    mp; a caller's Sturm chain ``seq`` is reused when it is mp's."""
    if seq is None or seq[0] != mp:
        seq = sturm.sturm_sequence(mp)
    while ip.sign_at(mp, lo) == 0 or ip.sign_at(mp, hi) == 0 or (
        ip.sign_at(mp, lo) == ip.sign_at(mp, hi)
    ):
        m = (lo + hi) / 2
        if sturm.count_roots(seq, lo, m) == 1:
            hi = m
        else:
            lo = m
    return lo, hi


def _sqrt_bounds(q, width: Fraction) -> tuple[Fraction, Fraction]:
    """Rational bracket of sqrt(q) for q >= 0."""
    q = Fraction(q)
    if q < 0:
        raise ValueError("negative radicand")
    if q == 0:
        return Fraction(0), Fraction(0)
    return _isqrt_bracket(q.numerator, q.denominator, max(1, int(1 / width) + 1))


def _isqrt_bracket(num: int, den: int, scale: int) -> tuple[Fraction, Fraction]:
    """(r, r + 1) / (den scale) with r = isqrt(num den scale^2): a bracket of
    sqrt(num / den) of width 1 / (den scale)."""
    r = math.isqrt(num * den * scale * scale)
    return Fraction(r, den * scale), Fraction(r + 1, den * scale)


def _interp_resultant(deg_bound: int, res_at) -> Poly:
    """Reconstruct an integer polynomial R with deg R <= deg_bound from
    exact evaluations R(x0) = res_at(x0) at small integer points."""
    pts: list[int] = []
    vals: list[int] = []
    x0 = 0
    while len(pts) < deg_bound + 1:
        pts.append(x0)
        vals.append(res_at(x0))
        x0 = -x0 + (1 if x0 <= 0 else 0)
    coeffs = interpolate(pts, vals)
    out = []
    for c in coeffs:
        if c.denominator != 1:
            raise AssertionError("resultant interpolation produced a non-integer")
        out.append(int(c))
    return ip.poly(out)


def _iv_combine(op: str, a: tuple[Fraction, Fraction], b: tuple[Fraction, Fraction]):
    alo, ahi = a
    blo, bhi = b
    if op == "+":
        return alo + blo, ahi + bhi
    if op == "-":
        return alo - bhi, ahi - blo
    if op == "*":
        vals = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
        return min(vals), max(vals)
    raise ValueError(op)


def _poly_range(p: Poly, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Interval evaluation of p over [lo, hi] by Horner."""
    out = (Fraction(0), Fraction(0))
    for a in reversed(p):
        out = _iv_combine("*", out, (lo, hi))
        out = (out[0] + a, out[1] + a)
    return out


def _select_root(defining: Poly, value_range, *operands: AlgebraicReal) -> AlgebraicReal:
    """Pick the root of `defining` that the exact operation produced.

    value_range maps the operands' current enclosures to an enclosure of
    the result; operands are refined until that enclosure isolates a
    single root with honest endpoint signs.
    """
    seq = sturm.sturm_sequence(defining)
    p = seq[0]
    while True:
        ivs = [x._iv for x in operands]
        lo, hi = value_range(*ivs)
        if lo > hi:
            lo, hi = hi, lo
        if (
            ip.sign_at(p, lo) != 0
            and ip.sign_at(p, hi) != 0
            and sturm.count_roots(seq, lo, hi) == 1
        ):
            return AlgebraicReal.from_root(p, lo, hi)
        for x in operands:
            a, b = x._iv
            if a != b:
                x._refine((b - a) / 8)


def _arith(x: AlgebraicReal, y: AlgebraicReal, op: str) -> AlgebraicReal:
    if op not in ("+", "-", "*", "/"):
        raise ValueError(f"unsupported operation {op!r}")
    if op == "/":
        if not y:
            raise ZeroDivisionError("division by zero")
        return _arith(x, y.inverse(), "*")
    if x.is_rational and y.is_rational:
        a, b = x.as_fraction(), y.as_fraction()
        return AlgebraicReal.from_rational(a + b if op == "+" else a - b if op == "-" else a * b)
    # one rational operand: exact affine substitution keeps irreducibility
    if y.is_rational:
        return _rational_affine(x, y.as_fraction(), op)
    if x.is_rational:
        if op == "-":
            return -_rational_affine(y, x.as_fraction(), "-")
        return _rational_affine(y, x.as_fraction(), op)
    m, n = x.degree, y.degree
    if m * n > DEGREE_CAP:
        raise DegreeOverflowError(
            f"operand degrees {m} and {n} exceed the supported resultant bound {DEGREE_CAP}"
        )
    f, g = x.minpoly, y.minpoly
    if op == "+":
        res = _interp_resultant(
            m * n, lambda x0: ip.sylvester_resultant(f, ip.compose_linear(g, -1, x0))
        )
    elif op == "-":
        res = _interp_resultant(
            m * n, lambda x0: ip.sylvester_resultant(f, ip.compose_linear(g, 1, -x0))
        )
    else:
        nd = ip.degree(g)

        def res_at(x0: int) -> int:
            h = tuple(g[nd - i] * x0 ** (nd - i) for i in range(nd + 1))
            return ip.sylvester_resultant(f, h)

        res = _interp_resultant(m * n, res_at)
    return _select_root(res, lambda a, b: _iv_combine(op, a, b), x, y)


def _rational_affine(x: AlgebraicReal, c: Fraction, op: str) -> AlgebraicReal:
    """x op c for rational c, via an exact affine substitution."""
    f = x.minpoly
    lo, hi = x._iv
    if op == "+":
        mp = ip.primitive(ip.compose_linear(f, c.denominator, -c.numerator, c.denominator))
        return AlgebraicReal(mp, (lo + c, hi + c), _trusted=True)
    if op == "-":
        return _rational_affine(x, -c, "+")
    if op == "*":
        if c == 0:
            return AlgebraicReal.from_rational(0)
        mp = ip.primitive(ip.compose_linear(f, c.denominator, 0, c.numerator))
        a, b = sorted((lo * c, hi * c))
        return AlgebraicReal(mp, (a, b), _trusted=True)
    raise ValueError(op)


def arith(x, y, op: str) -> AlgebraicReal:
    """Exact arithmetic on algebraic reals; op is one of '+', '-', '*', '/'."""
    return _arith(as_algebraic(x), as_algebraic(y), op)


def compare(x, y) -> int:
    """Exact trichotomy: -1, 0, or 1."""
    return as_algebraic(x).compare(as_algebraic(y))


def refine(x: AlgebraicReal, width) -> Interval:
    """Isolating interval of x narrowed below the requested width."""
    return x.refine_below(width)
