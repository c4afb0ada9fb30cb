"""Simplices, dihedral angles, and combinatorial angle lemmas.

Exact mode keeps every coordinate a Fraction: facet normals, Gram data,
squared edge lengths, and dihedral cosines (one square root per facet
pair, held as an exact algebraic number), and an integer form: one
denominator D and integer vertices D * x, which give the determinant,
cofactor facet normals, bounds and squared edge lengths in integers.  Float
mode compares within FLOAT_TOL and is used for reconstructed or
irrational-basis simplices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key, lru_cache
from itertools import combinations, permutations

from .algebra import AlgebraicReal, as_algebraic
from .algebra import intpoly as ip
from .algebra.enclosure import pi_bounds
from .algebra.linalg import det, det_int, nullspace, unit_normal
from .trig import RationalAngle, _half_chebyshev, acos_enclosure, cosine_of, match_rational_angle

FLOAT_TOL = 1e-10


class InconclusiveComparison(ArithmeticError):
    """A certified comparison hit the refinement cap without deciding."""


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _edges(base, verts) -> list[list]:
    return [[x - y for x, y in zip(v, base)] for v in verts]


def _pair_lengths(verts) -> dict:
    """Squared distances keyed by vertex pair (i < j)."""
    out = {}
    for i, j in combinations(range(len(verts)), 2):
        d = [a - b for a, b in zip(verts[i], verts[j])]
        out[(i, j)] = _dot(d, d)
    return out


# ---------------------------------------------------------------------------
# the simplex itself
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Simplex:
    """d+1 affinely independent vertices in d-space (2 <= d <= 4).

    The edge-matrix determinant, facets, per-axis bounds, squared edge
    lengths and integer form are computed once per instance; equality and
    hashing use the fields only.
    """

    dim: int
    vertices: tuple[tuple, ...]
    mode: str = "exact"

    def __post_init__(self):
        if not 2 <= self.dim <= 4:
            raise ValueError("supported dimensions are 2, 3, 4")
        if len(self.vertices) != self.dim + 1:
            raise ValueError("a d-simplex needs d+1 vertices")
        if any(len(v) != self.dim for v in self.vertices):
            raise ValueError("vertex arity mismatch")
        if self.mode not in ("exact", "float"):
            raise ValueError("mode must be 'exact' or 'float'")
        d = self.signed_det
        if self.mode == "exact":
            if d == 0:
                raise ValueError("degenerate simplex (coplanar vertices)")
        else:
            # |det| of a well-shaped simplex scales as (longest edge)^dim
            longest = math.sqrt(max(self.squared_lengths().values()))
            if abs(d) <= FLOAT_TOL * longest**self.dim:
                raise ValueError("degenerate simplex (determinant below tolerance)")

    @staticmethod
    def exact(vertices) -> "Simplex":
        vs = tuple(tuple(Fraction(x) for x in v) for v in vertices)
        return Simplex(len(vs) - 1, vs, "exact")

    @staticmethod
    def floating(vertices) -> "Simplex":
        vs = tuple(tuple(float(x) for x in v) for v in vertices)
        return Simplex(len(vs) - 1, vs, "float")

    @cached_property
    def signed_det(self) -> Fraction | float:
        """Determinant of the edge matrix: d! times the signed volume."""
        if self.mode == "float":
            return det(_edges(self.vertices[0], self.vertices[1:]))
        den, (v0, *rest) = self.lattice
        return Fraction(det_int(_edges(v0, rest)), den**self.dim)

    @cached_property
    def lattice(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(D, D * vertices) of an exact simplex: D > 0 is the lcm of the
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
        return _pair_lengths(self.lattice[1])

    def squared_lengths(self) -> dict[tuple[int, int], Fraction | float]:
        """Squared edge lengths keyed by vertex pair (i < j); a fresh dict."""
        return dict(self._squared_lengths)

    @cached_property
    def _squared_lengths(self) -> dict[tuple[int, int], Fraction | float]:
        return _pair_lengths(self.vertices)

    def scaled(self, r) -> "Simplex":
        if self.mode == "exact":
            r = Fraction(r)
        else:
            r = float(r)
        return Simplex(self.dim, tuple(tuple(r * x for x in v) for v in self.vertices), self.mode)

    def translated(self, t) -> "Simplex":
        vs = tuple(tuple(x + dx for x, dx in zip(v, t)) for v in self.vertices)
        return Simplex(self.dim, vs, self.mode)

    def as_float(self) -> "Simplex":
        if self.mode == "float":
            return self
        return Simplex.floating(self.vertices)

    def facet_normal(self, i: int) -> list:
        """Inward normal (unnormalized; rational in exact mode) of the facet
        opposite vertex i."""
        base, *rest = [v for j, v in enumerate(self.vertices) if j != i]
        rows = _edges(base, rest)
        n = nullspace(rows) if self.mode == "exact" else unit_normal(rows)
        orient = _dot(n, [x - y for x, y in zip(self.vertices[i], base)])
        if orient == 0:
            raise ValueError("degenerate facet")
        if orient < 0:
            n = [-x for x in n]
        return n

    @cached_property
    def facets(self) -> tuple[tuple[tuple, Fraction | float], ...]:
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
        if self.mode == "exact":
            verts = [[f"{Fraction(x).numerator}/{Fraction(x).denominator}" for x in v] for v in self.vertices]
        else:
            verts = [[float(x) for x in v] for v in self.vertices]
        return {"dim": self.dim, "mode": self.mode, "vertices": verts}

    @staticmethod
    def from_json(obj: dict) -> "Simplex":
        mode = obj.get("mode", "exact")
        if mode == "exact":
            # one Fraction per coordinate; str() reads a float by its repr
            vs = tuple(tuple(Fraction(str(x)) for x in v) for v in obj["vertices"])
            return Simplex(len(vs) - 1, vs, "exact")
        return Simplex.floating(obj["vertices"])


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
    """Dihedral cosines of a simplex, facet-pair and edge indexed.

    ``gram`` retains the exact rational Gram matrix of the (unnormalized)
    inward normals in exact mode; realizability checks exploit it.
    """

    dim: int
    mode: str
    facet_cos: dict
    sq_lengths: dict
    gram: tuple | None

    def ridge(self, i: int, j: int) -> tuple[int, ...]:
        """Vertex indices shared by facets i and j (the edge, for d = 3)."""
        return tuple(k for k in range(self.dim + 1) if k not in (i, j))

    def edge_cos(self) -> dict:
        return {self.ridge(i, j): c for (i, j), c in self.facet_cos.items()}

    def matrix(self) -> list[list]:
        n = self.dim + 1
        minus_one = Fraction(-1) if self.mode == "exact" else -1.0
        rows = [[minus_one] * n for _ in range(n)]
        for (i, j), c in self.facet_cos.items():
            rows[i][j] = rows[j][i] = c
        return rows

    def angle_multiset(self) -> "AngleMultiset":
        groups: list[tuple] = []
        for c in self.facet_cos.values():
            for k, (rep, mult) in enumerate(groups):
                if _cos_equal(rep, c, self.mode):
                    groups[k] = (rep, mult + 1)
                    break
            else:
                groups.append((c, 1))
        entries = []
        for rep, mult in groups:
            ang = match_rational_angle(rep) if self.mode == "exact" else None
            entries.append((ang if ang is not None else rep, mult))
        return AngleMultiset(tuple(entries))


def _cos_equal(a, b, mode: str) -> bool:
    if mode == "float":
        return abs(float(a) - float(b)) <= FLOAT_TOL
    return as_algebraic(a).compare(as_algebraic(b)) == 0


def _exact_cos(num: Fraction, norm_product: Fraction) -> AlgebraicReal | Fraction:
    """num / sqrt(norm_product) as an exact value."""
    if num == 0:
        return AlgebraicReal.from_rational(0)
    q = num * num / norm_product
    root = AlgebraicReal.sqrt_rational(q)
    return root if num > 0 else -root

def dihedral_data(s: Simplex) -> DihedralData:
    """Dihedral cosines from inward normals: cos(i,j) = -<u_i, u_j>."""
    n = s.dim + 1
    normals = [s.facet_normal(i) for i in range(n)]
    cos: dict = {}
    gram = None
    if s.mode == "exact":
        g = [[_dot(normals[i], normals[j]) for j in range(n)] for i in range(n)]
        gram = tuple(tuple(r) for r in g)
        for i, j in combinations(range(n), 2):
            c = _exact_cos(-g[i][j], g[i][i] * g[j][j])
            if not (-1 < c < 1):
                raise ValueError("dihedral cosine outside (-1, 1)")
            cos[(i, j)] = c
    else:
        for i, j in combinations(range(n), 2):
            ni, nj = normals[i], normals[j]
            c = -_dot(ni, nj) / math.sqrt(_dot(ni, ni) * _dot(nj, nj))
            cos[(i, j)] = float(c)
    return DihedralData(s.dim, s.mode, cos, s.squared_lengths(), gram)


def volume(s: Simplex) -> Fraction | float:
    """|det| / d! of the edge matrix; exact in exact mode."""
    return abs(s.signed_det) / math.factorial(s.dim)


# ---------------------------------------------------------------------------
# congruence and similarity
# ---------------------------------------------------------------------------


def _scaled_lengths(s1: Simplex, s2: Simplex, ratio2) -> tuple[dict, dict]:
    """s1's squared lengths times ratio2, and s2's: for exact simplices as
    integers, cross-multiplied by ratio2 and both denominators squared."""
    if s1.mode == "float":
        return {k: v * ratio2 for k, v in s1._squared_lengths.items()}, s2._squared_lengths
    r = Fraction(ratio2)
    w1, w2 = r.numerator * s2.lattice[0] ** 2, r.denominator * s1.lattice[0] ** 2
    l1, l2 = s1.lattice_lengths, s2.lattice_lengths
    return {k: v * w1 for k, v in l1.items()}, {k: v * w2 for k, v in l2.items()}


def _perm_matches(target: dict, sq2: dict, perm, tol: float | None) -> bool:
    """Whether relabeling vertex i as perm[i] carries target onto sq2."""
    for (i, j), a in target.items():
        p, q = perm[i], perm[j]
        b = sq2[(p, q) if p < q else (q, p)]
        if tol is None:
            if a != b:
                return False
        elif abs(float(a) - float(b)) > tol * max(abs(float(a)), abs(float(b)), 1.0):
            return False
    return True


def _match_permutation(s1: Simplex, s2: Simplex, ratio2, tol: float | None):
    """A vertex relabeling carrying s1's squared lengths (times ratio2) to
    s2's, or None."""
    target, sq2 = _scaled_lengths(s1, s2, ratio2)
    if tol is None:
        if sorted(target.values()) != sorted(sq2.values()):
            return None
    else:
        m1 = sorted(float(v) for v in target.values())
        m2 = sorted(float(v) for v in sq2.values())
        scale = max(abs(m1[-1]), abs(m2[-1]), 1.0)
        if any(abs(a - b) > tol * scale for a, b in zip(m1, m2)):
            return None
    perms = permutations(range(s1.dim + 1))
    return next((p for p in perms if _perm_matches(target, sq2, p, tol)), None)


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
    if s1.dim != s2.dim:
        raise ValueError("dimension mismatch")
    if s1.mode != s2.mode:
        s1, s2 = s1.as_float(), s2.as_float()
    tol = None if s1.mode == "exact" else FLOAT_TOL
    perm = _match_permutation(s1, s2, 1, tol)
    if perm is None:
        return False
    if allow_reflection:
        return True
    # an orientation-preserving matching may differ from the first one found
    n = s1.dim + 1
    base_sign = _orientation_sign(s1, tuple(range(n)))
    target, sq2 = _scaled_lengths(s1, s2, 1)
    return any(
        _orientation_sign(s2, p) == base_sign and _perm_matches(target, sq2, p, tol)
        for p in permutations(range(n))
    )


def similar(s1: Simplex, s2: Simplex):
    """Ratio r with s2 congruent to r * s1, or None.

    In exact mode r^2 is an exact rational; r itself is rational when that
    quotient is a perfect square and an exact algebraic root otherwise.
    """
    if s1.dim != s2.dim:
        raise ValueError("dimension mismatch")
    if s1.mode != s2.mode:
        s1, s2 = s1.as_float(), s2.as_float()
    if s1.mode == "exact":
        l1, l2 = s1.lattice_lengths.values(), s2.lattice_lengths.values()
        ratio2 = Fraction(min(l2) * s1.lattice[0] ** 2, min(l1) * s2.lattice[0] ** 2)
        if _match_permutation(s1, s2, ratio2, None) is None:
            return None
        r = AlgebraicReal.sqrt_rational(ratio2)
        return r.as_fraction() if r.is_rational else r
    sq1 = sorted(s1.squared_lengths().values())
    sq2 = sorted(s2.squared_lengths().values())
    ratio2 = sq2[0] / sq1[0]
    if any(abs(b - a * ratio2) > FLOAT_TOL * max(abs(b), 1.0) for a, b in zip(sq1, sq2)):
        return None
    if _match_permutation(s1, s2, ratio2, FLOAT_TOL) is None:
        return None
    return math.sqrt(ratio2)


# ---------------------------------------------------------------------------
# per-vertex dihedral angle sums (certified)
# ---------------------------------------------------------------------------


def vertex_angle_check(s: Simplex, start_width: Fraction = Fraction(1, 10**4)) -> dict:
    """For each vertex of a tetrahedron, certify that the three adjacent
    dihedral angles sum to more than pi.

    Returns {vertex: {"interval": (lo, hi), "verdict": "greater"|"not_greater"}}.
    Raises InconclusiveComparison if the refinement cap is hit (a bug signal
    for nondegenerate input).
    """
    if s.dim != 3:
        raise ValueError("vertex angle sums are a tetrahedron check")
    dd = dihedral_data(s)
    edge_cos = dd.edge_cos()
    out = {}
    for v in range(4):
        cs = [edge_cos[e] for e in sorted(edge_cos) if v in e]
        if len(cs) != 3:
            raise AssertionError("each vertex meets exactly three edges")
        if s.mode == "float":
            total = sum(math.acos(max(-1.0, min(1.0, float(c)))) for c in cs)
            out[v] = {
                "interval": (total, total),
                "verdict": "greater" if total > math.pi else "not_greater",
            }
            continue
        w = Fraction(start_width)
        while True:
            lo = hi = Fraction(0)
            for c in cs:
                a, b = acos_enclosure(c, w)
                lo += a
                hi += b
            pi_lo, pi_hi = pi_bounds(w)
            if lo > pi_hi:
                out[v] = {"interval": (lo, hi), "verdict": "greater"}
                break
            if hi < pi_lo:
                out[v] = {"interval": (lo, hi), "verdict": "not_greater"}
                break
            w /= 2
            if w < Fraction(1, 10**30):
                raise InconclusiveComparison(
                    f"angle sum at vertex {v} undecided at maximum refinement"
                )
    return out


def edge_length_classes_by_angle(s: Simplex, angle) -> set:
    """Distinct squared lengths among the edges carrying the given angle.

    For d = 3 an angle sits at an edge (the ridge of its facet pair); for
    d = 2 it sits at a vertex and the flanking sides are counted.  The
    angle may be a RationalAngle or an exact cosine and must occur in the
    simplex.
    """
    if s.dim > 3:
        raise ValueError("edge classification is defined for d <= 3")
    target = angle
    if isinstance(angle, RationalAngle):
        target = cosine_of(angle)
    dd = dihedral_data(s)
    hits = [pair for pair, c in dd.facet_cos.items() if _cos_equal(c, target, s.mode)]
    if not hits:
        raise ValueError("angle does not occur in the simplex")
    edges = set()
    for i, j in hits:
        if s.dim == 3:
            edges.add(dd.ridge(i, j))
        else:
            # the two sides meeting at the shared vertex are the facets
            for f in (i, j):
                edges.add(tuple(k for k in range(3) if k != f))
    lengths = [dd.sq_lengths[e] for e in edges]
    if s.mode == "exact":
        return set(lengths)
    classes: list[float] = []
    for v in sorted(lengths):
        if not classes or abs(v - classes[-1]) > FLOAT_TOL * max(abs(v), 1.0):
            classes.append(v)
    return set(classes)


# ---------------------------------------------------------------------------
# angle multisets and combination lemmas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AngleMultiset:
    """Distinct angles with multiplicities; entries are RationalAngle or an
    exact cosine value (AlgebraicReal)."""

    entries: tuple

    def __post_init__(self):
        # 6 distinct angles for a tetrahedron; 10 facet pairs at d = 4
        if len(self.entries) > 10:
            raise ValueError("too many distinct dihedral angles for a supported simplex")

    def angles(self) -> list:
        return [a for a, _ in self.entries]


class _Ang:
    """Internal normalized angle: rational multiple of pi where possible,
    otherwise an exact cosine."""

    __slots__ = ("rat", "cos")

    def __init__(self, raw):
        if isinstance(raw, RationalAngle):
            self.rat: Fraction | None = raw.fraction_of_pi
            self.cos = None
            return
        c = as_algebraic(raw)
        matched = match_rational_angle(c)
        if matched is not None:
            self.rat = matched.fraction_of_pi
            self.cos = None
        else:
            self.rat = None
            self.cos = c

    @property
    def is_rational(self) -> bool:
        return self.rat is not None

    def cosine(self) -> AlgebraicReal:
        if self.cos is not None:
            return self.cos
        return cosine_of(RationalAngle.from_fraction_of_pi(self.rat))

    def enclosure(self, width: Fraction) -> tuple[Fraction, Fraction]:
        if self.rat is not None:
            return RationalAngle.from_fraction_of_pi(self.rat).enclosure(width)
        return acos_enclosure(self.cos, width)

    def compare(self, other: "_Ang") -> int:
        if self.rat is not None and other.rat is not None:
            return (self.rat > other.rat) - (self.rat < other.rat)
        if self.rat is not None and other.cos is not None:
            return -self.cosine().compare(other.cos)
        if self.cos is not None and other.rat is not None:
            return -self.cos.compare(other.cosine())
        return -self.cos.compare(other.cos)


@lru_cache(maxsize=None)
def _chebyshev_t(n: int):
    """T_n(c) = H_n(2c) / 2, with H_n(x + 1/x) = x^n + x^-n (trig._half_chebyshev)."""
    return tuple(c // 2 for c in ip.compose_linear(_half_chebyshev(n), 2, 0))


def _cos_sin_of_multiple(ang: _Ang, k: int, sin_cache: dict):
    """Exact (cos, sin) of k times the angle; sin sign certified by enclosure."""
    c = ang.cosine()
    ck = c.poly_image(_chebyshev_t(k))
    one_minus = AlgebraicReal.from_rational(1) - ck * ck
    sk_abs = one_minus.sqrt()
    if not sk_abs:
        return ck, sk_abs
    # sign of sin(k*theta): locate k*theta against multiples of pi
    w = Fraction(1, 64)
    while True:
        lo, hi = ang.enclosure(w)
        pi_lo, pi_hi = pi_bounds(w)
        klo, khi = k * lo, k * hi
        m_lo = (klo / pi_hi).__floor__()
        m_hi = (khi / pi_lo).__floor__()
        if m_lo == m_hi and klo > m_lo * pi_hi and khi < (m_lo + 1) * pi_lo:
            sign = 1 if m_lo % 2 == 0 else -1
            return ck, (sk_abs if sign > 0 else -sk_abs)
        w /= 16
        if w < Fraction(1, 10**60):
            raise InconclusiveComparison("sine sign undecided")


def _combination_equals(alpha: _Ang, betas: list[_Ang], coeffs: list[int]) -> bool:
    """Does sum coeffs[i] * betas[i] equal alpha exactly?"""
    rational_all = alpha.is_rational and all(b.is_rational for b in betas)
    if rational_all:
        total = sum(c * b.rat for c, b in zip(coeffs, betas))
        return total == alpha.rat
    # certified interval filter first
    w = Fraction(1, 10**4)
    while True:
        alo, ahi = alpha.enclosure(w)
        slo = shi = Fraction(0)
        for c, b in zip(coeffs, betas):
            blo, bhi = b.enclosure(w)
            slo += c * blo
            shi += c * bhi
        if shi < alo or ahi < slo:
            return False
        pi_lo, pi_hi = pi_bounds(w)
        if w < Fraction(1, 10**6) and shi < 2 * pi_lo - ahi:
            break
        w /= 16
        if w < Fraction(1, 10**40):
            raise InconclusiveComparison("combination comparison undecided")
    # exact confirmation through angle addition on (cos, sin) pairs
    cur = (AlgebraicReal.from_rational(1), AlgebraicReal.from_rational(0))
    for c, b in zip(coeffs, betas):
        if c == 0:
            continue
        ck, sk = _cos_sin_of_multiple(b, c, {})
        cur = (cur[0] * ck - cur[1] * sk, cur[1] * ck + cur[0] * sk)
    return cur[0].compare(alpha.cosine()) == 0 and cur[1].sign() >= 0


def greedy_indivisible_basis(d: AngleMultiset) -> list:
    """Ascending angles selected greedily: each new element is the smallest
    not expressible as a nonnegative-integer combination of those before."""
    raw = d.angles()
    angs = [_Ang(a) for a in raw]
    order = sorted(range(len(angs)), key=cmp_to_key(lambda i, j: angs[i].compare(angs[j])))
    betas: list[_Ang] = []
    chosen: list = []
    for idx in order:
        a = angs[idx]
        if betas and _is_combination(a, betas):
            continue
        if betas and a.compare(betas[-1]) == 0:
            continue
        betas.append(a)
        chosen.append(raw[idx])
    return chosen


def _is_combination(alpha: _Ang, betas: list[_Ang]) -> bool:
    # coefficient bounds: c_i <= alpha / beta_i, certified from enclosures
    bounds = []
    ahi = alpha.enclosure(Fraction(1, 1000))[1]
    for b in betas:
        blo = b.enclosure(Fraction(1, 1000))[0]
        if blo <= 0:
            raise ValueError("angles must be positive")
        bounds.append(int(ahi / blo) + 1)

    def rec(i: int, coeffs: list[int]) -> bool:
        if i == len(betas):
            if all(c == 0 for c in coeffs):
                return False
            return _combination_equals(alpha, betas, coeffs)
        for c in range(bounds[i] + 1):
            if rec(i + 1, coeffs + [c]):
                return True
        return False

    return rec(0, [])


def integer_combination_pi(d: AngleMultiset) -> dict | None:
    """Nonnegative integers i_a with sum i_a * a = pi, or None.

    All angles must be rational multiples of pi.
    """
    angs = []
    for a in d.angles():
        na = _Ang(a)
        if not na.is_rational:
            raise ValueError("integer combinations need rational angles")
        if na.rat <= 0:
            raise ValueError("angles must be positive")
        angs.append(na.rat)

    sol: list[int] | None = None

    def rec(i: int, remaining: Fraction, acc: list[int]) -> bool:
        nonlocal sol
        if remaining == 0 and i <= len(angs):
            sol = acc + [0] * (len(angs) - i)
            return True
        if i == len(angs) or remaining < 0:
            return False
        top = int(remaining / angs[i])
        for c in range(top, -1, -1):
            if rec(i + 1, remaining - c * angs[i], acc + [c]):
                return True
        return False

    if not rec(0, Fraction(1), []):
        return None
    return {a: c for a, c in zip(d.angles(), sol)}


def positive_rational_combination_pi(d: AngleMultiset) -> list[Fraction] | None:
    """Strictly positive rationals q_i with sum q_i * a_i = pi, or None.

    Rational feasibility only needs one positive angle; the witness spreads
    pi uniformly across the entries.
    """
    if not d.entries:
        return None
    fracs = []
    for a in d.angles():
        na = _Ang(a)
        if not na.is_rational:
            raise ValueError("rational combinations need rational angles")
        if na.rat <= 0:
            raise ValueError("angles must be positive")
        fracs.append(na.rat)
    n = len(fracs)
    return [Fraction(1, n) / u for u in fracs]
