"""Simplices, dihedral angles, volume, congruence and similarity.

A simplex keeps every coordinate a Fraction and computes its geometry
from one integer form: a denominator D and integer vertices D * x, which
give the determinant, the cofactor facet normals (and from them the
Fraction facets and the dihedral cosines, one square root per facet pair
held as an exact algebraic number), bounds and squared edge lengths.

A simplex may take its coordinates in a frame: d unit vectors with
one pairwise cosine c (a Fraction, or the generator of a NumberField when c
is irrational).  Only squared lengths and volumes read the frame; facets,
bounds and containment are affine and stay in coordinates.  Floats are
only an output format (``Simplex.as_float``); a float read in is read
exactly.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, permutations

from .algebra import AlgebraicReal, FieldElement, NumberField, exact_json
from .algebra.linalg import cholesky, det_int, rational_sqrt


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _edges(base, verts) -> list[list]:
    return [[x - y for x, y in zip(v, base)] for v in verts]


def frame_dot(u, v, c=0):
    """The inner product of coordinate vectors in the frame of d unit
    vectors with pairwise cosine c: u.v + c (sum(u) sum(v) - u.v)."""
    uv = _dot(u, v)
    return uv + c * (sum(u) * sum(v) - uv) if c else uv


def _fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _pair_lengths(verts, c=0) -> dict:
    """Squared distances keyed by vertex pair (i < j), in the frame c."""
    out = {}
    for i, j in combinations(range(len(verts)), 2):
        d = [a - b for a, b in zip(verts[i], verts[j])]
        out[(i, j)] = frame_dot(d, d, c)
    return out


# ---------------------------------------------------------------------------
# the simplex itself
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Simplex:
    """d+1 affinely independent vertices in d-space (2 <= d <= 4), with
    Fraction coordinates.

    The coordinates are taken in the frame of pairwise
    cosine ``frame`` (0, the default, is Cartesian).  The edge-matrix
    determinant, facets, per-axis bounds, squared edge lengths and integer
    form are computed once per instance; equality and hashing use the
    fields only.
    """

    dim: int
    vertices: tuple[tuple, ...]
    frame: Fraction | FieldElement = Fraction(0)

    def __post_init__(self):
        if not 2 <= self.dim <= 4:
            raise ValueError("supported dimensions are 2, 3, 4")
        if len(self.vertices) != self.dim + 1:
            raise ValueError("a d-simplex needs d+1 vertices")
        if any(len(v) != self.dim for v in self.vertices):
            raise ValueError("vertex arity mismatch")
        if self.signed_det == 0:
            raise ValueError("degenerate simplex (coplanar vertices)")

    @staticmethod
    def exact(vertices, frame=Fraction(0)) -> "Simplex":
        vs = tuple(tuple(_fraction(x) for x in v) for v in vertices)
        return Simplex(len(vs) - 1, vs, frame)

    @cached_property
    def signed_det(self) -> Fraction:
        """Determinant of the edge matrix: d! times the signed volume."""
        den, (v0, *rest) = self.lattice
        return Fraction(det_int(_edges(v0, rest)), den**self.dim)

    @cached_property
    def lattice(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(D, D * vertices): D > 0 is the lcm of the
        coordinate denominators, so the scaled vertices are integers."""
        den = math.lcm(*(x.denominator for v in self.vertices for x in v))
        return den, tuple(
            tuple(x.numerator * (den // x.denominator) for x in v) for v in self.vertices
        )

    @cached_property
    def lattice_facets(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Integer (inward normal, offset) per facet, opposite vertex i in
        order: the normal is the cofactor vector of the facet's edges, and
        interior points x satisfy n.(D x) > offset."""
        verts = self.lattice[1]
        out = []
        for i in range(self.dim + 1):
            base, *rest = [verts[j] for j in range(self.dim + 1) if j != i]
            rows = _edges(base, rest)
            n = [(-1) ** k * det_int([r[:k] + r[k + 1 :] for r in rows]) for k in range(self.dim)]
            if _dot(n, verts[i]) < _dot(n, base):
                n = [-x for x in n]
            out.append((tuple(n), _dot(n, base)))
        return tuple(out)

    @cached_property
    def lattice_bounds(self) -> tuple[tuple[int, int], ...]:
        """(min, max) of the integer vertex coordinates on each axis."""
        return tuple((min(c), max(c)) for c in zip(*self.lattice[1]))

    @cached_property
    def lattice_lengths(self) -> dict[tuple[int, int], int]:
        """D^2 times the squared edge lengths, keyed by (i, j); read only."""
        return _pair_lengths(self.lattice[1], self.frame)

    def squared_lengths(self) -> dict[tuple[int, int], Fraction | FieldElement]:
        """Squared edge lengths keyed by vertex pair (i < j); a fresh dict."""
        return dict(self._squared_lengths)

    @cached_property
    def _squared_lengths(self) -> dict[tuple[int, int], Fraction | FieldElement]:
        return _pair_lengths(self.vertices, self.frame)

    def scaled(self, r) -> "Simplex":
        r = Fraction(r)
        return Simplex(self.dim, tuple(tuple(r * x for x in v) for v in self.vertices), self.frame)

    def translated(self, t) -> "Simplex":
        vs = tuple(tuple(x + dx for x, dx in zip(v, t)) for v in self.vertices)
        return Simplex(self.dim, vs, self.frame)

    def as_float(self) -> tuple[tuple[float, ...], ...]:
        """The vertices as Cartesian float coordinates: a framed simplex goes
        through the rows of a float Cholesky factor of the frame's Gram
        matrix."""
        if not self.frame:
            return tuple(tuple(map(float, v)) for v in self.vertices)
        c, d = float(self.frame), self.dim
        rows = cholesky([[1.0 if i == j else c for j in range(d)] for i in range(d)])
        return tuple(
            tuple(sum(float(y) * r[k] for y, r in zip(v, rows)) for k in range(d)) for v in self.vertices
        )

    def facet_normal(self, i: int) -> list[Fraction]:
        """Inward normal of the facet opposite vertex i: the integer cofactor
        normal of ``lattice_facets`` over the absolute value of its last
        nonzero entry."""
        n = self.lattice_facets[i][0]
        a = abs(next(x for x in reversed(n) if x))
        return [Fraction(x, a) for x in n]

    @cached_property
    def facets(self) -> tuple[tuple[tuple, Fraction], ...]:
        """(inward normal, offset) per facet, opposite vertex i in order:
        interior points satisfy n.x > b."""
        out = []
        for i in range(self.dim + 1):
            n = tuple(self.facet_normal(i))
            base = self.vertices[(i + 1) % (self.dim + 1)]
            out.append((n, _dot(n, base)))
        return tuple(out)

    @cached_property
    def bounds(self) -> tuple[tuple, ...]:
        """(min, max) of the vertex coordinates on each axis."""
        return tuple((min(c), max(c)) for c in zip(*self.vertices))

    def contains_point(self, p, strict: bool = False) -> bool:
        """Point membership via the facet inequalities."""
        for i, (n, _) in enumerate(self.facets):
            base = self.vertices[(i + 1) % (self.dim + 1)]
            s = _dot(n, [x - y for x, y in zip(p, base)])
            if strict:
                if not s > 0:
                    return False
            elif s < 0:
                return False
        return True

    def to_json(self) -> dict:
        out = {"dim": self.dim, "mode": "exact", "vertices": exact_json(self.vertices)}
        c = self.frame
        if isinstance(c, FieldElement):  # the field's fixed bracket, never a refined one
            c = AlgebraicReal(c.field.minpoly, (c.field.lo, c.field.hi), _trusted=True)
        if c:
            out["frame"] = exact_json(c)
        return out


def as_frame(c) -> Fraction | FieldElement:
    """A pairwise cosine as a frame: a Fraction, or the generator of Q(c)
    with c's current bracket as the field's fixed one."""
    if not isinstance(c, AlgebraicReal):
        return Fraction(c)
    if c.is_rational:
        return c.as_fraction()
    return NumberField(c.minpoly, *c._iv).gen


# ---------------------------------------------------------------------------
# constructions used throughout the tests and CLI
# ---------------------------------------------------------------------------


def regular_tetrahedron() -> Simplex:
    return Simplex.exact([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)])


def orthoscheme(dim: int = 3) -> Simplex:
    """conv{0, e1, e1+e2, ...}: the prefix-sum simplex of the standard basis."""
    verts = [[0] * dim]
    acc = [0] * dim
    for i in range(dim):
        acc = list(acc)
        acc[i] += 1
        verts.append(acc)
    return Simplex.exact(verts)


def right_isosceles_triangle() -> Simplex:
    return Simplex.exact([(0, 0), (1, 0), (0, 1)])


# ---------------------------------------------------------------------------
# dihedral data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DihedralData:
    """Dihedral cosines of a simplex, facet-pair and edge indexed."""

    dim: int
    facet_cos: dict

    def ridge(self, i: int, j: int) -> tuple[int, ...]:
        """Vertex indices shared by facets i and j (the edge, for d = 3)."""
        return tuple(k for k in range(self.dim + 1) if k not in (i, j))

    def edge_cos(self) -> dict:
        return {self.ridge(i, j): c for (i, j), c in self.facet_cos.items()}

    def matrix(self) -> list[list]:
        n = self.dim + 1
        rows = [[Fraction(-1)] * n for _ in range(n)]
        for (i, j), c in self.facet_cos.items():
            rows[i][j] = rows[j][i] = c
        return rows


def _exact_cos(num: int, norm_product: int) -> AlgebraicReal:
    """num / sqrt(norm_product) as an exact value."""
    if num == 0:
        return AlgebraicReal.from_rational(0)
    root = AlgebraicReal.sqrt_rational(Fraction(num * num, norm_product))
    return root if num > 0 else -root


def normal_gram(s: Simplex) -> list[list[int]]:
    """The integer Gram matrix of the facet normals of ``lattice_facets``:
    the dihedral cosine of facets i and j is -g_ij / sqrt(g_ii g_jj) for a
    Cartesian simplex."""
    normals = [n for n, _ in s.lattice_facets]
    return [[_dot(u, v) for v in normals] for u in normals]


def dihedral_data(s: Simplex) -> DihedralData:
    """Dihedral cosines from inward normals: cos(i,j) = -<u_i, u_j>, for a
    Cartesian simplex (the normals' dot products ignore any frame), read
    from the integer normals (``normal_gram``); the cosine does not change
    under a positive scaling of either normal."""
    if s.frame:
        raise ValueError("dihedral data needs Cartesian coordinates, not a framed simplex")
    g = normal_gram(s)
    cos: dict = {}
    for i, j in combinations(range(s.dim + 1), 2):
        c = _exact_cos(-g[i][j], g[i][i] * g[j][j])
        if not (-1 < c < 1):
            raise ValueError("dihedral cosine outside (-1, 1)")
        cos[(i, j)] = c
    return DihedralData(s.dim, cos)


def volume(s: Simplex) -> Fraction | AlgebraicReal:
    """The Euclidean volume: |det| / d! of the edge matrix, times sqrt(det G)
    in a frame with Gram matrix G."""
    v, c, d = abs(s.signed_det) / math.factorial(s.dim), s.frame, s.dim
    # det G = (1 + (d - 1) c) (1 - c)^(d - 1) for G = (1 - c) I + c J
    return v * _exact_sqrt(math.prod([1 + (d - 1) * c] + [1 - c] * (d - 1))) if c else v


# ---------------------------------------------------------------------------
# congruence and similarity
# ---------------------------------------------------------------------------


def _weighted_lengths(s1: Simplex, s2: Simplex, w1, w2) -> tuple[dict, dict]:
    """D^2 times the squared lengths (``lattice_lengths``), s1's times w1
    and s2's times w2."""
    if s1.dim != s2.dim:
        raise ValueError("dimension mismatch")
    return (
        {k: v * w1 for k, v in s1.lattice_lengths.items()},
        {k: v * w2 for k, v in s2.lattice_lengths.items()},
    )


def _perm_matches(target: dict, sq2: dict, perm) -> bool:
    """Whether relabeling vertex i as perm[i] carries target onto sq2."""
    for (i, j), a in target.items():
        p, q = perm[i], perm[j]
        if a != sq2[(p, q) if p < q else (q, p)]:
            return False
    return True


def _match_permutation(target: dict, sq2: dict, n: int):
    """A relabeling of the n vertices carrying the lengths target onto sq2,
    or None.  The lengths are compared as multisets first, which needs no
    ordering, so number-field lengths work too."""
    if Counter(target.values()) != Counter(sq2.values()):
        return None
    return next((p for p in permutations(range(n)) if _perm_matches(target, sq2, p)), None)


def _orientation_sign(s: Simplex, order: tuple[int, ...]) -> int:
    """Sign of the determinant with the vertices taken in ``order``: the
    permutation's parity times the sign of ``s.signed_det``."""
    d = s.signed_det
    inversions = sum(a > b for a, b in combinations(order, 2))
    return ((d > 0) - (d < 0)) * (-1) ** inversions


def congruent(s1: Simplex, s2: Simplex, allow_reflection: bool = True) -> bool:
    """Exact congruence via squared-length matching over vertex relabelings.

    Reflections count as congruences by default; pass allow_reflection=False
    to demand an orientation-preserving isometry.
    """
    target, sq2 = _weighted_lengths(s1, s2, s2.lattice[0] ** 2, s1.lattice[0] ** 2)
    n = s1.dim + 1
    if _match_permutation(target, sq2, n) is None:
        return False
    if allow_reflection:
        return True
    # an orientation-preserving matching may differ from the first one found
    base_sign = _orientation_sign(s1, tuple(range(n)))
    return any(
        _orientation_sign(s2, p) == base_sign and _perm_matches(target, sq2, p)
        for p in permutations(range(n))
    )


def _exact_sqrt(x) -> Fraction | AlgebraicReal:
    """The square root of a nonnegative Fraction or field element: a
    Fraction when rational, an exact algebraic root otherwise."""
    if isinstance(x, FieldElement):
        r = x.to_algebraic().sqrt()
        return r.as_fraction() if r.is_rational else r
    r = rational_sqrt(x)  # a rational square needs no minimal polynomial
    return AlgebraicReal.sqrt_rational(x) if r is None else r


def similar(s1: Simplex, s2: Simplex):
    """Ratio r with s2 congruent to r * s1, or None.

    r^2 is the quotient of the sums of squared lengths, and a relabeling
    must carry s1's lengths times r^2 onto s2's.  r is a Fraction when r^2
    is a rational square and an exact algebraic root otherwise.
    """
    l1, l2 = _weighted_lengths(s1, s2, 1, 1)
    sum1, sum2 = sum(l1.values()), sum(l2.values())
    target, sq2 = _weighted_lengths(s1, s2, sum2, sum1)
    if _match_permutation(target, sq2, s1.dim + 1) is None:
        return None
    return _exact_sqrt(sum2 * Fraction(s1.lattice[0] ** 2) / (sum1 * s2.lattice[0] ** 2))
