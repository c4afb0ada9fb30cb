"""The benchmark's own exact geometry over Fractions.

It builds inputs and checks outputs without importing reptile_forge:
facet normals, volumes, Hill bases and staircase cells, and interior
membership, in d = 2, 3, 4.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations, product


def det(rows) -> Fraction:
    a = [[Fraction(x) for x in r] for r in rows]
    n, sign = len(a), 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    out = Fraction(sign)
    for k in range(n):
        out *= a[k][k]
    return out


def edges(verts):
    return [[x - y for x, y in zip(v, verts[0])] for v in verts[1:]]


def volume(verts) -> Fraction:
    d = len(verts) - 1
    return abs(det(edges(verts))) / math.factorial(d)


def tetra_volume6(verts) -> Fraction:
    return det(edges(verts))


def normal_to(rows, dim: int) -> list[Fraction]:
    """The generalized cross product of dim-1 vectors: orthogonal to each."""
    out = []
    for k in range(dim):
        minor = [[r[c] for c in range(dim) if c != k] for r in rows]
        out.append((-1) ** k * det(minor) if minor else Fraction(1))
    return out


def facets(verts) -> list[tuple[list[Fraction], Fraction]]:
    """(inward normal n, offset b) per facet, opposite vertex i in order;
    interior points satisfy n.x > b for every facet."""
    dim = len(verts) - 1
    out = []
    for i in range(dim + 1):
        others = [verts[j] for j in range(dim + 1) if j != i]
        n = normal_to(edges(others), dim)
        b = sum(x * y for x, y in zip(n, others[0]))
        if sum(x * y for x, y in zip(n, verts[i])) < b:
            n, b = [-x for x in n], -b
        out.append((n, b))
    return out


def area_normals(verts) -> list[list[Fraction]]:
    """Inward facet normals of a tetrahedron with length twice the facet
    area; by Minkowski's relation they sum to zero."""
    return [n for n, _ in facets(verts)]


def is_square_fraction(x: Fraction) -> Fraction | None:
    if x < 0:
        return None
    a, b = math.isqrt(x.numerator), math.isqrt(x.denominator)
    return Fraction(a, b) if a * a == x.numerator and b * b == x.denominator else None


def cos_entry(num: Fraction, norm_product: Fraction) -> str:
    """num / sqrt(norm_product) as the CLI reads it: "p/q" or "[-]sqrt(p/q)"."""
    if num == 0:
        return "0"
    square = num * num / norm_product
    root = is_square_fraction(square)
    body = f"{root.numerator}/{root.denominator}" if root is not None else f"sqrt({square.numerator}/{square.denominator})"
    return ("-" if num < 0 else "") + body


def hill_basis(dim: int, c: Fraction) -> list[tuple[Fraction, ...]]:
    """dim vectors of equal length with pairwise cosine c.

    c = 0 gives the unit vectors.  Otherwise the cyclic shifts of (a, b) at
    d = 2, with c = 2ab / (a^2 + b^2), or of (a, b, 0) at d = 3, with
    c = ab / (a^2 + b^2); a/b is rational when 1 - c^2 (d = 2) or
    1 - 4c^2 (d = 3) is a rational square.
    """
    if c == 0:
        return [tuple(Fraction(int(i == j)) for j in range(dim)) for i in range(dim)]
    if dim == 2:
        r = is_square_fraction(1 - c * c)
        ratio = None if r is None else (1 + r) / c
    elif dim == 3:
        r = is_square_fraction(1 - 4 * c * c)
        ratio = None if r is None else (1 + r) / (2 * c)
    else:
        ratio = None
    if ratio is None:
        raise ValueError(f"no rational cyclic basis for c = {c} at d = {dim}")
    pattern = [Fraction(ratio.numerator), Fraction(ratio.denominator)] + [Fraction(0)] * (dim - 2)
    return [tuple(pattern[(j - i) % dim] for j in range(dim)) for i in range(dim)]


def hill_vertices(basis) -> list[tuple[Fraction, ...]]:
    dim = len(basis)
    acc = [Fraction(0)] * dim
    out = [tuple(acc)]
    for b in basis:
        acc = [x + y for x, y in zip(acc, b)]
        out.append(tuple(acc))
    return out


def staircase_pieces(basis, m: int):
    """The parent Hill simplex and its m^d staircase cells, in space
    coordinates: cell (a, sigma) starts at the grid point a and steps along
    the unit vectors in the order sigma, and belongs to the parent when
    every vertex y satisfies m >= y_1 >= ... >= y_d >= 0."""
    dim = len(basis)

    def inside(y) -> bool:
        return all(hi >= lo for hi, lo in zip((m,) + y, y + (0,)))

    def to_space(y):
        return tuple(sum(Fraction(y[i] * b[k], m) for i, b in enumerate(basis)) for k in range(dim))

    pieces = []
    for a in product(range(m), repeat=dim):
        for sigma in permutations(range(dim)):
            path = [tuple(a)]
            for k in sigma:
                path.append(tuple(x + (1 if i == k else 0) for i, x in enumerate(path[-1])))
            if all(inside(y) for y in path):
                pieces.append([to_space(y) for y in path])
    return hill_vertices(basis), pieces


def common_denominator(points) -> tuple[int, list[tuple[int, ...]]]:
    den = math.lcm(*(x.denominator for p in points for x in p))
    return den, [tuple(int(x * den) for x in p) for p in points]
