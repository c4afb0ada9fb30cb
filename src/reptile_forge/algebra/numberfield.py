"""Exact arithmetic in a real number field Q[x]/(m).

Elements are rational coordinates in the power basis of an irreducible
integer m (Cohen, GTM 138, section 4.2), so arithmetic never grows the
degree and zero tests are exact.  A rational bracket isolating one real
root of m fixes the embedding, which signs and AlgebraicReal values need.
The audit uses Q(phi) (``QPHI``) and Q(s) for each final-case root s.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import intpoly as ip
from . import linalg
from .algebraic import AlgebraicReal, _poly_range, _select_root

_RATIONAL = (int, Fraction)
_ZERO = Fraction(0)  # an empty slot: the first term is stored, not added to 0


class NumberField:
    """Q[x]/(m), with x the root of m inside the bracket (lo, hi); the
    bracket is fixed, and conversions refine a copy of it."""

    def __init__(self, minpoly, lo, hi, name: str = "x"):
        self.minpoly = ip.primitive(ip.poly(minpoly))
        self.degree = ip.degree(self.minpoly)
        if self.degree < 1:
            raise ValueError("a number field needs a nonconstant polynomial")
        self.lo, self.hi = Fraction(lo), Fraction(hi)
        # the JSON form of each power of x: "c0+c1*x+c2*x^2"
        self._terms = [""] + [f"*{name}" + (f"^{k}" if k > 1 else "") for k in range(1, self.degree)]
        # x^n = sum_i tail[i] x^i
        self._tail = tuple(Fraction(-a, self.minpoly[-1]) for a in self.minpoly[:-1])
        self.zero = FieldElement(self, (_ZERO,) * self.degree)
        self.one = self(1)
        self.gen = self.element([0, 1])

    def __call__(self, x) -> "FieldElement":
        """A rational or an element of this field, as an element."""
        if isinstance(x, FieldElement):
            if x.field is not self:
                raise ValueError("element of another number field")
            return x
        return FieldElement(self, (Fraction(x),) + self.zero.c[1:])

    def element(self, coeffs) -> "FieldElement":
        """The element sum_k coeffs[k] x^k, reduced modulo m."""
        return FieldElement(self, self._reduce([Fraction(c) for c in coeffs]))

    def _reduce(self, cs: list) -> tuple:
        """Coordinates of sum_k cs[k] x^k, folding powers x^n and up from
        the top; ``cs`` is consumed."""
        n, tail = self.degree, self._tail
        while len(cs) > n:
            top = cs.pop()
            if top:
                k = len(cs) - n
                for i, r in enumerate(tail):
                    if r:
                        t = top if r == 1 else top * r
                        cs[k + i] = t if cs[k + i] is _ZERO else cs[k + i] + t
        cs += [_ZERO] * (n - len(cs))
        return tuple(cs)

    def from_json(self, s: str) -> "FieldElement":
        parts = s.split("+")
        if len(parts) != self.degree or not all(p.endswith(t) for p, t in zip(parts, self._terms)):
            raise ValueError(f"malformed field literal: {s!r}")
        return FieldElement(self, tuple(Fraction(p[: len(p) - len(t)]) for p, t in zip(parts, self._terms)))


class FieldElement:
    """sum_k c[k] x^k in a NumberField, with rational coordinates c."""

    __slots__ = ("field", "c")

    def __init__(self, field: NumberField, c: tuple):
        self.field = field
        self.c = c

    def _coords(self, other) -> tuple | None:
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise ValueError("mixed number fields")
            return other.c
        if isinstance(other, _RATIONAL):
            return (other,) + self.field.zero.c[1:]
        return None

    @property
    def is_rational(self) -> bool:
        return not any(self.c[1:])

    def __bool__(self) -> bool:
        return any(self.c)

    def __add__(self, other):
        if isinstance(other, _RATIONAL):
            return FieldElement(self.field, (self.c[0] + other,) + self.c[1:])
        o = self._coords(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, tuple(x + y for x, y in zip(self.c, o)))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(-x for x in self.c))

    def __sub__(self, other):
        if isinstance(other, _RATIONAL):
            return FieldElement(self.field, (self.c[0] - other,) + self.c[1:])
        o = self._coords(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, tuple(x - y for x, y in zip(self.c, o)))

    def __rsub__(self, other):
        if isinstance(other, _RATIONAL):
            return FieldElement(self.field, (other - self.c[0],) + tuple(-x for x in self.c[1:]))
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, _RATIONAL):
            return FieldElement(self.field, tuple(x * other for x in self.c))
        b = self._coords(other)
        if b is None:
            return NotImplemented
        prod = [_ZERO] * (2 * len(b) - 1)
        for i, x in enumerate(self.c):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] = x * y if prod[i + j] is _ZERO else prod[i + j] + x * y
        return FieldElement(self.field, self.field._reduce(prod))

    __rmul__ = __mul__

    def _mul_matrix(self) -> list[list]:
        """The matrix of multiplication by self: column j holds the
        coordinates of self * x^j."""
        cols = [self.c]
        for _ in range(self.field.degree - 1):
            cols.append(self.field._reduce([_ZERO, *cols[-1]]))
        return [list(row) for row in zip(*cols)]

    def inverse(self) -> "FieldElement":
        if not self:
            raise ZeroDivisionError("inverse of zero in a number field")
        y = linalg.solve(self._mul_matrix(), [1] + [0] * (self.field.degree - 1))
        if y is None:
            raise ZeroDivisionError("element is a zero divisor (minimal polynomial reducible?)")
        return FieldElement(self.field, tuple(y))

    def __truediv__(self, other):
        if isinstance(other, _RATIONAL):
            return self * (1 / Fraction(other))
        if self._coords(other) is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        if isinstance(other, _RATIONAL):
            return self.inverse() * other
        return NotImplemented

    def __eq__(self, other):
        o = self._coords(other)
        if o is None:
            return NotImplemented
        return self.c == o

    def __hash__(self):
        return hash(self.c[0]) if self.is_rational else hash(self.c)

    def to_algebraic(self) -> AlgebraicReal:
        """The same value as an exact algebraic real: a root of the
        characteristic polynomial of the multiplication matrix, picked by
        evaluating self on a copy of the generator's bracket."""
        if self.is_rational:
            return AlgebraicReal.from_rational(self.c[0])
        cp = linalg.char_poly(self._mul_matrix())
        den = math.lcm(*(c.denominator for c in cp))
        f = self.field
        gen = AlgebraicReal(f.minpoly, (f.lo, f.hi), _trusted=True)
        return _select_root(ip.poly(int(c * den) for c in cp), lambda iv: _poly_range(self.c, *iv), gen)

    def sign(self) -> int:
        if self.is_rational:
            return (self.c[0] > 0) - (self.c[0] < 0)
        lo, hi = _poly_range(self.c, self.field.lo, self.field.hi)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        return self.to_algebraic().sign()

    def __float__(self) -> float:
        return float(self.to_algebraic())

    def to_json(self) -> str:
        return "+".join(f"{c}{t}" for c, t in zip(self.c, self.field._terms))

    def __repr__(self) -> str:
        return f"FieldElement({self.to_json()})"


def poly_gcd_in_t(p: list, q: list) -> list:
    """Monic gcd of two polynomials in t whose coefficients lie in one
    field, as coefficient lists (low first); [] when both are zero."""

    def trim(u: list) -> list:
        while u and not u[-1]:
            u.pop()
        return u

    a = trim(list(p))
    b = trim(list(q))
    while b:
        inv = b[-1].inverse()
        while len(a) >= len(b):
            k = len(a) - len(b)
            f = a[-1] * inv
            for i in range(len(b)):
                a[k + i] = a[k + i] - f * b[i]
            trim(a)
        a, b = b, a
    if not a:
        return []
    inv = a[-1].inverse()
    return [c * inv for c in a]


# Q(phi) with the Fibonacci-convergent bracket F(48)/F(47) < phi < F(47)/F(46)
QPHI = NumberField((-1, -1, 1), Fraction(4807526976, 2971215073), Fraction(2971215073, 1836311903), "phi")
PHI = QPHI.gen
INV_PHI = PHI - 1  # 1/phi = phi - 1
INV_PHI2 = 2 - PHI  # 1/phi^2 = 2 - phi
