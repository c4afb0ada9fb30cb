"""Dense univariate integer polynomials.

A polynomial is a tuple of arbitrary-precision ints, lowest degree first,
with no trailing zero (the zero polynomial is the empty tuple).  All
routines are exact; division and remainders stay in the integers, and only
eval_at and root_bound return fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .linalg import det_int

Poly = tuple[int, ...]

ZERO: Poly = ()
ONE: Poly = (1,)


def poly(coeffs) -> Poly:
    """Build a polynomial from any iterable of ints, stripping trailing zeros."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    for a in c:
        if not isinstance(a, int):
            raise TypeError(f"integer coefficient expected, got {type(a).__name__}")
    return tuple(c)


def degree(p: Poly) -> int:
    """Degree; -1 for the zero polynomial."""
    return len(p) - 1


def is_zero(p: Poly) -> bool:
    return not p


def leading(p: Poly) -> int:
    if not p:
        raise ValueError("zero polynomial has no leading coefficient")
    return p[-1]


def add(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    return poly((p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n))


def sub(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    return poly((p[i] if i < len(p) else 0) - (q[i] if i < len(q) else 0) for i in range(n))


def neg(p: Poly) -> Poly:
    return tuple(-a for a in p)


def mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ZERO
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return poly(out)


def scale(p: Poly, c: int) -> Poly:
    if c == 0:
        return ZERO
    return tuple(a * c for a in p)


def pow_poly(p: Poly, n: int) -> Poly:
    out = ONE
    base = p
    while n:
        if n & 1:
            out = mul(out, base)
        base = mul(base, base)
        n >>= 1
    return out


def compose(p: Poly, q: Poly) -> Poly:
    """p(q(x)) by Horner over polynomials."""
    out: Poly = ZERO
    for a in reversed(p):
        out = add(mul(out, q), (a,) if a else ZERO)
    return out


def derivative(p: Poly) -> Poly:
    return poly(i * p[i] for i in range(1, len(p)))


def eval_at(p: Poly, x: Fraction | int) -> Fraction | int:
    out: Fraction | int = 0
    for a in reversed(p):
        out = out * x + a
    return out


def sign_at(p: Poly, x: Fraction | int) -> int:
    return sign_at_ratio(p, x.numerator, x.denominator)


def sign_at_ratio(p: Poly, a: int, b: int) -> int:
    """Sign of p(a/b) for b > 0, without building a Fraction.

    b^n * p(a/b) = sum of p_i a^i b^(n-i) is an integer with the sign of
    p(a/b); Horner from the top computes it with one power of b per step.
    """
    acc = 0
    bk = 1
    for c in reversed(p):
        acc = acc * a + c * bk
        bk *= b
    return (acc > 0) - (acc < 0)


def content(p: Poly) -> int:
    g = 0
    for a in p:
        g = gcd(g, a)
        if g == 1:
            return 1
    return g


def primitive(p: Poly) -> Poly:
    """Primitive part with positive leading coefficient."""
    if not p:
        return ZERO
    g = content(p)
    if p[-1] < 0:
        g = -g
    return tuple(a // g for a in p)


def _divide(p: Poly, q: Poly) -> tuple[list[int], Poly]:
    """Integer long division: (quotient, remainder) with p = quotient*q + remainder.

    Each step divides the top coefficient by q's leading one and must leave
    no remainder, else the quotient is not integral and ValueError is raised.
    A pseudo-remainder never raises: its dividend carries lc(q)^(d+1).
    """
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    dq = len(q) - 1
    lc = q[-1]
    quo = [0] * max(0, len(p) - dq)
    for k in range(len(quo) - 1, -1, -1):
        f, r = divmod(rem[k + dq], lc)
        if r:
            raise ValueError("quotient not integral")
        quo[k] = f
        if f:
            rem[k : k + dq] = [a - f * b for a, b in zip(rem[k : k + dq], q)]
    return quo, poly(rem[:dq])


def div_exact(p: Poly, q: Poly) -> Poly:
    """Exact division p / q over the integers; raises ValueError on nonzero remainder."""
    quo, rem = _divide(p, q)
    if rem:
        raise ValueError("inexact polynomial division")
    return poly(quo)


def pseudo_remainder(p: Poly, q: Poly, k: int) -> Poly:
    """Remainder of lc(q)^k * p on division by q; k >= deg p - deg q + 1."""
    return _divide(scale(p, q[-1] ** k), q)[1]


def divides(q: Poly, p: Poly) -> bool:
    try:
        div_exact(p, q)
        return True
    except ValueError:
        return False


def gcd_poly(p: Poly, q: Poly) -> Poly:
    """Primitive gcd via a primitive remainder sequence."""
    a, b = primitive(p), primitive(q)
    if not a:
        return b
    if not b:
        return a
    while b:
        # fraction-free pseudo-remainder, then strip content
        d = degree(a) - degree(b)
        if d < 0:
            a, b = b, a
            continue
        a, b = b, primitive(pseudo_remainder(a, b, d + 1))
    return primitive(a)


def squarefree_part(p: Poly) -> Poly:
    """p with repeated roots collapsed to simple ones (primitive)."""
    if degree(p) <= 1:
        return primitive(p)
    g = gcd_poly(p, derivative(p))
    if degree(g) == 0:
        return primitive(p)
    return primitive(div_exact(primitive(p), g))


def compose_linear(p: Poly, a: int, b: int, c: int = 1) -> Poly:
    """c^deg(p) * p((a*x + b) / c) as an integer polynomial.

    Used for exact shifts and rescalings of minimal polynomials: the image
    of an irreducible polynomial under an invertible affine substitution
    stays irreducible.
    """
    if c == 0 or a == 0:
        raise ValueError("substitution must be invertible")
    n = degree(p)
    if n < 0:
        return ZERO
    if b == 0:
        # a pure rescaling: coefficient k is p_k a^k c^(n - k)
        return tuple(p[k] * a**k * c ** (n - k) for k in range(n + 1))
    out: Poly = ZERO
    lin: Poly = (b, a)
    cp = 1
    for k in range(n, -1, -1):
        out = mul(out, lin)
        if p[k]:
            out = add(out, (p[k] * cp,))
        cp *= c
    return out


def reverse(p: Poly) -> Poly:
    """x^deg(p) * p(1/x); maps roots to their inverses."""
    return poly(reversed(p))


def sylvester_matrix(p, q) -> list[list[int]]:
    """Sylvester matrix of two coefficient lists (low first).  Each formal
    degree is the list's length minus one, so a zero leading coefficient
    keeps the matrix size fixed."""
    m, n = len(p) - 1, len(q) - 1
    size = m + n
    pc, qc = list(reversed(p)), list(reversed(q))
    return [[0] * i + pc + [0] * (size - m - 1 - i) for i in range(n)] + [
        [0] * i + qc + [0] * (size - n - 1 - i) for i in range(m)
    ]


def sylvester_resultant(p: Poly, q: Poly) -> int:
    """Resultant of two integer polynomials via fraction-free Bareiss."""
    m, n = degree(p), degree(q)
    if m < 0 or n < 0:
        return 0
    if m == 0:
        return p[0] ** n
    if n == 0:
        return q[0] ** m
    return det_int(sylvester_matrix(p, q))


def root_bound(p: Poly) -> Fraction:
    """Cauchy bound: every real root lies in (-B, B)."""
    if degree(p) < 0:
        raise ValueError("zero polynomial")
    lc = abs(p[-1])
    m = max((abs(a) for a in p[:-1]), default=0)
    return Fraction(m, lc) + 1


def to_string(p: Poly, var: str = "x") -> str:
    if not p:
        return "0"
    parts = []
    for i in range(degree(p), -1, -1):
        a = p[i]
        if a == 0:
            continue
        if i == 0:
            term = str(abs(a))
        else:
            coeff = "" if abs(a) == 1 else f"{abs(a)}*"
            term = f"{coeff}{var}" + (f"^{i}" if i > 1 else "")
        if not parts:
            parts.append(("-" if a < 0 else "") + term)
        else:
            parts.append(("- " if a < 0 else "+ ") + term)
    return " ".join(parts)
