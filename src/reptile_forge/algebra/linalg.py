"""The one elimination layer: determinants, characteristic polynomials, row
reduction, kernels, solves, interpolation and rational square roots.

``char_poly`` and ``det`` share one core, Berkowitz's algorithm (Inf.
Process. Lett. 18, 1984), which uses only ring operations: it serves
Fraction, AlgebraicReal, number-field elements, MPoly and float entries
alike.  ``det_int`` is fraction-free Bareiss elimination (Math. Comp. 22,
1968), the faster route for integer matrices.  The remaining exact routines
work over any field whose elements support the plain operators: Fraction,
AlgebraicReal (which mixes with Fraction), or float.  Integers are promoted
to Fraction first, because int / int is a float.  Zero tests use ``not x``,
which is O(1) on AlgebraicReal where ``x != 0`` would refine an enclosure;
``rref`` leaves zero entries as they are rather than spend an AlgebraicReal
operation on each.  In ``rref`` a float pivot must exceed FLOAT_PIVOT in
magnitude.  The float routines (``cholesky``, ``unit_normal``) serve
reconstructed and irrational-basis simplices of dimension at most 4.

This module imports nothing from the package.
"""

from __future__ import annotations

import math
from fractions import Fraction

FLOAT_PIVOT = 1e-12


def _promote(x):
    return Fraction(x) if isinstance(x, int) else x


def _is_zero(x) -> bool:
    if isinstance(x, float):
        return abs(x) <= FLOAT_PIVOT
    return not x


def _berkowitz(rows: list[list]) -> list:
    """[c_(n-1), ..., c_0] with det(lambda I - M) = lambda^n + c_(n-1)
    lambda^(n-1) + ... + c_0, by Berkowitz's algorithm: the characteristic
    polynomial of each leading k x k block is a Toeplitz matrix, built from
    the block's new row and column, times that of the block before it."""
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
    return -p[-1] if len(p) % 2 else p[-1]


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
    return _berkowitz(m)[::-1] + [Fraction(1)]


def rref(rows: list[list]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form by Gauss-Jordan elimination, and its pivot
    columns.  Each pivot is the first usable entry of its column."""
    a = [[_promote(x) for x in r] for r in rows]
    m = len(a)
    width = len(a[0]) if a else 0
    pivots: list[int] = []
    r = 0
    for c in range(width):
        if r == m:
            break
        piv = next((i for i in range(r, m) if not _is_zero(a[i][c])), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        p = a[r][c]
        a[r] = [x / p if x else x for x in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y if y else x for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def nullspace(rows: list[list]) -> list:
    """The kernel vector, with its free coordinate 1, of a matrix whose
    kernel is one-dimensional; ValueError otherwise."""
    width = len(rows[0])
    a, pivots = rref(rows)
    free = [c for c in range(width) if c not in pivots]
    if len(free) != 1:
        raise ValueError("nullity is not 1 (degenerate facet)")
    fc = free[0]
    v = [Fraction(0)] * width
    v[fc] = Fraction(1)
    for i, pc in enumerate(pivots):
        v[pc] = -a[i][fc]
    return v


def solve(rows: list[list], rhs: list) -> list | None:
    """One solution of rows . x = rhs, with every free coordinate 0, or None
    when the system is inconsistent."""
    width = len(rows[0])
    a, pivots = rref([list(r) + [b] for r, b in zip(rows, rhs)])
    if pivots and pivots[-1] == width:
        return None
    x = [Fraction(0)] * width
    for i, pc in enumerate(pivots):
        x[pc] = a[i][width]
    return x


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


def unit_normal(rows: list[list[float]]) -> list[float]:
    """Unit vector orthogonal to the d - 1 rows of a (d - 1) x d float
    matrix: the cofactors of the rows, the minors taken by ``det``."""
    width = len(rows[0])
    n = [
        (-1) ** k * det([r[:k] + r[k + 1 :] for r in rows])
        for k in range(width)
    ]
    norm = math.sqrt(sum(x * x for x in n))
    if norm == 0:
        raise ValueError("degenerate facet")
    return [x / norm for x in n]
