"""Shared test helpers."""

import math
import random
from fractions import Fraction
from itertools import combinations, permutations

from reptile_forge.simplex import Simplex

# draw 1 of the acceptance suite's soundness set: descaling its matrix JSON
# meets a num * den above 10^14, past the squarefree factoring cap
DRAW_1 = [(8, 1, Fraction(-9, 2)), (3, -2, -5), (2, -2, Fraction(5, 4)), (0, 4, -6)]
# draw 14 of the same set: its Fiedler kernel has entries near 10^3, so the
# unscaled reconstruction is tiny
DRAW_14 = [(0, -4, 7), (0, Fraction(7, 3), Fraction(-7, 3)), (Fraction(9, 4), 2, -2), (-2, -2, -3)]


def random_rational_tetrahedron(rng: random.Random) -> Simplex:
    while True:
        verts = [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(3)]
            for _ in range(4)
        ]
        try:
            return Simplex.exact(verts)
        except ValueError:
            continue


def similar_coordinates(a, b, tol: float = 1e-10) -> bool:
    """Whether the float vertex lists a and b are similar under a relabeling
    of b: each squared edge length over the sum of them agrees within tol."""

    def shape(vs, order):
        sq = [sum((x - y) ** 2 for x, y in zip(vs[order[i]], vs[order[j]])) for i, j in combinations(range(len(vs)), 2)]
        total = sum(sq)
        return [v / total for v in sq]

    want = shape(a, range(len(a)))
    return len(a) == len(b) and any(
        all(abs(x - y) <= tol for x, y in zip(want, shape(b, p))) for p in permutations(range(len(b)))
    )


def _rational_sqrt(x: Fraction):
    num, den = math.isqrt(x.numerator), math.isqrt(x.denominator)
    return Fraction(num, den) if num * num == x.numerator and den * den == x.denominator else None


def cos_matrix_json(verts) -> dict:
    """The matrix JSON of a rational tetrahedron as the CLI reads it.

    Entry (i, j) is -n_i . n_j / (|n_i| |n_j|) for the outward normals n_i of
    the facets opposite vertices i and j, written "p/q" or "[-]sqrt(p/q)".
    """
    verts = [[Fraction(x) for x in v] for v in verts]
    normals = []
    for i in range(4):
        a, b, c = (verts[j] for j in range(4) if j != i)
        u = [y - x for x, y in zip(a, b)]
        v = [y - x for x, y in zip(a, c)]
        n = [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]
        if sum(x * (y - z) for x, y, z in zip(n, verts[i], a)) > 0:
            n = [-x for x in n]
        normals.append(n)
    g = [[sum(x * y for x, y in zip(u, v)) for v in normals] for u in normals]

    def entry(i, j):
        if i == j:
            return "-1"
        num = -g[i][j]
        square = num * num / (g[i][i] * g[j][j])
        root = _rational_sqrt(square)
        body = f"sqrt({square.numerator}/{square.denominator})" if root is None else f"{root}"
        return ("-" if num < 0 else "") + body

    return {"dim": 3, "cos": [[entry(i, j) for j in range(4)] for i in range(4)]}
