"""The one elimination layer: determinants, characteristic polynomials, row
reduction, solves, interpolation and rational square roots.

``char_poly`` and ``det`` share one core, Berkowitz's algorithm (Inf.
Process. Lett. 18, 1984), which uses only ring operations: it serves
Fraction, AlgebraicReal, number-field elements and MPoly entries alike,
and keeps an integer matrix in integers.  ``det_int`` is
fraction-free Bareiss elimination (Math. Comp. 22, 1968), the faster route
for integer matrices; ``rref`` is its Gauss-Jordan form.  On integers it
stays in integers; any other exact ring divides with ``/``, with integers
promoted to Fraction first, because int / int is a float.  The Hill
margin program reads its pivots; ``solve`` scales rational rows to
integers before it, for number-field inverses.  Zero tests use ``not x``,
which is O(1) on AlgebraicReal where ``x != 0`` would refine an enclosure.  The one float routine,
``cholesky``, serves the coordinate output of reconstructed and framed
simplices, dimension <= 4.

This module imports nothing from the package.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _promote(x):
    return Fraction(x) if isinstance(x, int) else x


def _berkowitz(rows: list[list]) -> list:
    """[c_(n-1), ..., c_0] with det(lambda I - M) = lambda^n + c_(n-1)
    lambda^(n-1) + ... + c_0, by Berkowitz's algorithm: the characteristic
    polynomial of each leading k x k block is a Toeplitz matrix, built from
    the block's new row and column, times that of the block before it."""
    # ring operations keep integers exact; anything else is promoted
    if all(type(x) is int for r in rows for x in r):
        m = rows
    else:
        m = [[_promote(x) for x in r] for r in rows]
    p: list = []  # the coefficients below the leading 1, high first
    for k in range(len(m)):
        row, col = m[k][:k], [m[i][k] for i in range(k)]
        t = [-m[k][k]]  # -a_kk, -R C, -R A C, ..., -R A^(k-1) C
        for j in range(k):
            t.append(-_dot(row, col))
            if j < k - 1:
                col = [_dot(m[i][:k], col) for i in range(k)]
        new = []
        for r in range(k + 1):
            c = t[r]
            for j in range(r):
                c = c + t[r - 1 - j] * p[j]
            new.append(c + p[r] if r < k else c)
        p = new
    return p


def _dot(xs: list, ys: list):
    acc = xs[0] * ys[0]
    for x, y in zip(xs[1:], ys[1:]):
        acc = acc + x * y
    return acc


def det(rows: list[list]):
    """Determinant over the entries' ring: (-1)^n times the constant
    coefficient of the characteristic polynomial."""
    p = _berkowitz(rows)
    if not p:
        return Fraction(1)
    return _promote(-p[-1] if len(p) % 2 else p[-1])


def det_int(a: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free Bareiss elimination:
    every intermediate entry is itself a minor, so each division is exact."""
    a = [list(r) for r in a]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def char_poly(m: list[list]) -> list:
    """det(lambda I - M) over the entries' ring, low coefficients first."""
    return [_promote(c) for c in _berkowitz(m)[::-1]] + [Fraction(1)]


def rref(rows: list[list]) -> tuple[list[list], object, list[int]]:
    """(R, D, pivots) with R / D the reduced row echelon form, D > 0, by
    fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 1968), and
    its pivot columns, each the first usable entry of its column.  On
    integers every entry stays a minor of the input, so each division is
    exact and R and D are integers; other exact rings divide with ``/``.
    At the end each pivot entry is D."""
    exact = all(type(x) is int for r in rows for x in r)
    a = [list(r) if exact else [_promote(x) for x in r] for r in rows]
    m = len(a)
    width = len(a[0]) if a else 0
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(width):
        if r == m:
            break
        piv = next((i for i in range(r, m) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        p, pivot_row = a[r][c], a[r]
        for i in range(m):
            if i != r:
                f = a[i][c]
                if exact:
                    a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], pivot_row)]
                else:
                    a[i] = [(p * x - f * y) / prev for x, y in zip(a[i], pivot_row)]
        prev = p
        pivots.append(c)
        r += 1
    if prev < 0:
        a = [[-x for x in row] for row in a]
        prev = -prev
    return a, prev, pivots


def solve(rows: list[list], rhs: list) -> list | None:
    """One solution of rows . x = rhs, with every free coordinate 0, or None
    when the system is inconsistent.  Rational rows are scaled to integers
    first, which changes no solution, so ``rref`` runs in integers."""
    width = len(rows[0])
    aug = [[*r, b] for r, b in zip(rows, rhs)]
    if all(isinstance(x, (int, Fraction)) for r in aug for x in r):
        aug = [_integer_row(r) for r in aug]
    a, den, pivots = rref(aug)
    if pivots and pivots[-1] == width:
        return None
    x = [Fraction(0)] * width
    for i, pc in enumerate(pivots):
        x[pc] = _promote(a[i][width]) / den
    return x


def _integer_row(row: list) -> list[int]:
    """A rational row times the lcm of its denominators."""
    q = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (q // x.denominator) for x in row]


def interpolate(xs: list, ys: list) -> list:
    """Coefficients, low first, of the polynomial of degree below len(xs)
    through the points (xs[i], ys[i]); the xs are distinct rationals."""
    n = len(xs)
    coeffs: list = [Fraction(0)] * n
    for i in range(n):
        num = [Fraction(1)]
        den = Fraction(1)
        for j in range(n):
            if j == i:
                continue
            nxt = [Fraction(0)] * (len(num) + 1)
            for k, c in enumerate(num):
                nxt[k + 1] += c
                nxt[k] -= c * xs[j]
            num = nxt
            den *= xs[i] - xs[j]
        for k, c in enumerate(num):
            coeffs[k] += ys[i] * (c / den)
    return coeffs


def rational_sqrt(x) -> Fraction | None:
    """The rational square root of x, or None when x is negative or not the
    square of a rational."""
    x = Fraction(x)
    if x < 0:
        return None
    num, den = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if num * num == x.numerator and den * den == x.denominator:
        return Fraction(num, den)
    return None


def cholesky(g: list[list[float]]) -> list[list[float]]:
    """Lower-triangular L with L L^T = g, for symmetric positive definite g."""
    n = len(g)
    low = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            s = g[i][j] - sum(low[i][k] * low[j][k] for k in range(j))
            if i == j:
                if s <= 0:
                    raise ValueError("matrix is not positive definite")
                low[i][i] = math.sqrt(s)
            else:
                low[i][j] = s / low[j][j]
    return low

