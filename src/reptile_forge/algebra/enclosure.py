"""Certified rational enclosures of pi, cos, and arccos.

Everything here returns pairs of Fractions (lo, hi) that provably bracket
the true value: pi comes from Machin's formula with alternating-series
tails, cos from its Taylor series with an explicit remainder bound, and
arccos from interval bisection against certified cosines.  These power the
dihedral-angle-sum comparisons, where the verdict must be a certificate,
not a float.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

Bounds = tuple[Fraction, Fraction]


def _arctan_recip_bounds(m: int, width: Fraction) -> Bounds:
    """Alternating-series bracket of arctan(1/m) for integer m >= 2."""
    x = Fraction(1, m)
    total = Fraction(0)
    k = 0
    term = x
    while term >= width / 2:
        total += term if k % 2 == 0 else -term
        k += 1
        term = x ** (2 * k + 1) / (2 * k + 1)
    # next term bounds the tail; its sign depends on parity
    if k % 2 == 0:
        return total, total + term
    return total - term, total


@lru_cache(maxsize=None)
def _pi_bounds_scale(scale: int) -> Bounds:
    width = Fraction(1, 2**scale)
    w = width / 64
    a5 = _arctan_recip_bounds(5, w)
    a239 = _arctan_recip_bounds(239, w)
    lo = 16 * a5[0] - 4 * a239[1]
    hi = 16 * a5[1] - 4 * a239[0]
    return lo, hi


def pi_bounds(width: Fraction = Fraction(1, 10**12)) -> Bounds:
    """Rational lo < pi < hi with hi - lo < width."""
    scale = max(4, (Fraction(1) / width).numerator.bit_length() + 1)
    lo, hi = _pi_bounds_scale(scale)
    while hi - lo >= width:
        scale += 8
        lo, hi = _pi_bounds_scale(scale)
    return lo, hi


def cos_bounds(x: Fraction, width: Fraction) -> Bounds:
    """Taylor bracket of cos(x); intended for |x| <= about 8."""
    x = abs(Fraction(x))
    if x > 16:
        raise ValueError("cosine enclosure only supported for small arguments")
    x2 = x * x
    total = Fraction(0)
    term = Fraction(1)
    k = 0
    while True:
        total += term if k % 2 == 0 else -term
        k += 1
        nxt = term * x2 / ((2 * k - 1) * (2 * k))
        if nxt < term and nxt < width / 2:
            term = nxt
            break
        term = nxt
    if k % 2 == 0:
        lo, hi = total, total + term
    else:
        lo, hi = total - term, total
    return max(lo, Fraction(-1)), min(hi, Fraction(1))


def _dyadic_between(a: Fraction, b: Fraction) -> Fraction:
    """A dyadic rational strictly between a and b, with small denominator."""
    gap = b - a
    k = max(0, (gap.denominator // max(gap.numerator, 1)).bit_length() + 2)
    while True:
        q = 2**k
        n = (a * q).__floor__() + 1
        m = Fraction(n, q)
        if a < m < b:
            return m
        k += 1


def acos_fraction_bounds(c: Fraction, width: Fraction) -> Bounds:
    """Certified bracket of arccos(c) for rational -1 <= c <= 1.

    Bisection against certified cosines; termination for c != +-1 rests on
    cos of a nonzero rational never being rational (Lindemann).
    """
    if not -1 <= c <= 1:
        raise ValueError("arccos argument outside [-1, 1]")
    if c == 1:
        return Fraction(0), Fraction(0)
    if c == -1:
        return pi_bounds(width)
    pi_lo, pi_hi = pi_bounds(width / 8)
    lo, hi = Fraction(0), pi_hi
    # make sure cos(hi) certifiably lies below c before bisecting
    w = width / 8
    while True:
        chi = cos_bounds(hi, w)
        if chi[1] < c:
            break
        gap = c - Fraction(-1)
        pi_lo, pi_hi = pi_bounds(min(w, gap * gap / 8))
        hi = pi_hi
        w /= 4
        if w < Fraction(1, 10**80):
            raise ArithmeticError("arccos bisection failed to initialize")
    w = width / 8
    while hi - lo >= width:
        m = _dyadic_between(lo + (hi - lo) / 4, hi - (hi - lo) / 4)
        while True:
            cm = cos_bounds(m, w)
            if cm[0] > c:
                lo = m
                break
            if cm[1] < c:
                hi = m
                break
            w /= 16
            if w < Fraction(1, 10**200):
                raise ArithmeticError("arccos comparison undecidable")
    return lo, hi

