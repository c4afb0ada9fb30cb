"""Hill simplices and their m^d reptile subdivisions, with an exact verifier.

A Hill simplex is the convex hull of the prefix sums of d equal-length
vectors sharing one pairwise angle in (0, 2*pi/3).  In basis coordinates
it is the order region {1 >= y_1 >= ... >= y_d >= 0}; cutting by the
hyperplane families y_i = j/m and y_i - y_j = l/m tiles it with m^d
staircase cells, each similar to the parent with ratio 1/m.  Where no
rational Cartesian basis exists, the basis vectors are the unit vectors of
a frame with the common cosine c, so vertices stay rational for every c
(the Freudenthal-Kuhn cells).  The verifier, not the generator, carries the
correctness burden: volume accounting, similarity, mutual congruence,
interior disjointness and containment are all certified exactly.

Interior disjointness has a certificate linear in the number of pieces
when the pieces meet facet to facet, as staircase cells do: every facet is
shared by two pieces on opposite sides of it or lies in the parent's
boundary (the pseudomanifold-plus-volume characterization of
triangulations; De Loera, Rambau and Santos, Triangulations, 2010).  Where
that certificate fails, every pair is decided in combinations order: a box
or facet-plane screen, else an exact rational feasibility program, and the
first overlapping pair is named with a common interior point.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import combinations, islice, permutations, product
from operator import mul

from .algebra import FieldElement, exact_json
from .algebra.linalg import rational_sqrt, rref
from .jsonio import load_subdivision
from .simplex import Simplex, _orientation_sign, as_frame, congruent, frame_dot, similar, volume


def _positive(x) -> bool:
    return x.sign() > 0 if isinstance(x, FieldElement) else x > 0


@dataclass(frozen=True)
class HillSpec:
    """Basis data for a Hill simplex, in the coordinates of the frame with
    pairwise cosine ``frame`` (0, the default, is Cartesian).

    All basis vectors share one squared length and one pairwise inner
    product in the frame; the common angle must lie strictly inside
    (0, 2*pi/3) and the Gram matrix must be positive definite, which makes
    the frame's Gram matrix positive definite too.
    """

    dim: int
    basis: tuple
    frame: Fraction | FieldElement = Fraction(0)

    def __post_init__(self):
        d, b = self.dim, self.basis
        if not 2 <= d <= 4:
            raise ValueError("supported dimensions are 2, 3, 4")
        if len(b) != d or any(len(v) != d for v in b):
            raise ValueError("need d basis vectors of arity d")
        norms = [frame_dot(v, v, self.frame) for v in b]
        dots = [frame_dot(b[i], b[j], self.frame) for i, j in combinations(range(d), 2)]
        if any(n != norms[0] for n in norms):
            raise ValueError("basis vectors must have equal length")
        if any(p != dots[0] for p in dots):
            raise ValueError("basis vectors must share one pairwise angle")
        n, p = norms[0], dots[0]
        # -1/2 < p / n < 1 with n > 0
        if not (_positive(n) and _positive(n - p) and _positive(n + 2 * p)):
            raise ValueError("pairwise angle must lie strictly inside (0, 2*pi/3)")
        # positive definiteness of (n - p) I + p J
        if not _positive(n + (d - 1) * p):
            raise ValueError("Gram matrix is not positive definite")

    @staticmethod
    def from_basis(vectors) -> "HillSpec":
        basis = tuple(tuple(Fraction(x) for x in v) for v in vectors)
        return HillSpec(len(basis), basis)

    @staticmethod
    def from_pair_cos(dim: int, c) -> "HillSpec":
        """A basis realizing the common cosine c (a rational or an exact
        algebraic real).

        A rational Cartesian basis is used where a two-term cyclic
        construction admits one; otherwise the basis is the unit vectors
        of the frame of pairwise cosine c.
        """
        c = as_frame(c)
        if isinstance(c, Fraction) and c and dim in (2, 3):
            found = _rational_cyclic_basis(dim, c)
            if found is not None:
                return HillSpec(dim, found)
        unit = tuple(tuple(Fraction(int(i == j)) for j in range(dim)) for i in range(dim))
        return HillSpec(dim, unit, c)


def _rational_cyclic_basis(dim: int, c: Fraction):
    """Cyclic shifts of a short pattern vector, when a rational one exists."""
    # d = 2: (a, b), (b, a) give cos = 2ab / (a^2 + b^2), a/b = (1 +- sqrt(1-c^2))/c;
    # d = 3: (a, b, 0) cyclic gives cos = ab / (a^2 + b^2), a/b = (1 +- sqrt(1-4c^2))/(2c)
    k = dim - 1
    r = rational_sqrt(1 - k * k * c * c)
    if r is None:
        return None
    x = (1 + r) / (k * c)
    pattern = [Fraction(x.numerator), Fraction(x.denominator)] + [Fraction(0)] * (dim - 2)
    # cyclic shifts only share one dot product when the pattern has
    # support 2 and dim <= 3; the HillSpec validator re-checks anyway
    return tuple(tuple(pattern[(j - i) % dim] for j in range(dim)) for i in range(dim))


def hill_simplex(spec: HillSpec) -> Simplex:
    """conv{0, b1, b1+b2, ..., b1+...+bd}."""
    return _cell_map(spec, 1)([[int(i < j) for i in range(spec.dim)] for j in range(spec.dim + 1)])


@dataclass(frozen=True)
class Subdivision:
    """A parent simplex cut into m^d candidate reptile pieces."""

    parent: Simplex
    pieces: tuple
    m: int

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "parent": self.parent.to_json(),
            "pieces": [p.to_json() for p in self.pieces],
        }

    @staticmethod
    def from_json(obj: dict) -> "Subdivision":
        """The subdivision of a JSON document (``jsonio.load_subdivision``)."""
        return Subdivision(*load_subdivision(obj))


def _staircase_cells(dim: int, m: int):
    """Yield the vertex tuples (in basis coordinates, scaled by m) of the
    staircase cells inside the order region.

    Each cell is (a, sigma): start at a, step by unit vectors in the order
    sigma.  Every vertex y satisfies m >= y_1 >= ... >= y_d >= 0 iff
    a_k >= a_{k+1} for each k and, where a_k == a_{k+1}, sigma steps k
    before k + 1.
    """
    for a in product(range(m), repeat=dim):
        if any(a[k] < a[k + 1] for k in range(dim - 1)):
            continue
        for sigma in permutations(range(dim)):
            if any(
                a[k] == a[k + 1] and sigma.index(k) > sigma.index(k + 1)
                for k in range(dim - 1)
            ):
                continue
            verts = [a]
            cur = list(a)
            for k in sigma:
                cur[k] += 1
                verts.append(tuple(cur))
            yield verts


def _cell_map(spec: HillSpec, den: int):
    """Integer basis coordinates ys -> the simplex with vertices
    (sum_i y_i b_i) / den in the spec's frame, the basis taken as integers
    over one lcm."""
    basis = spec.basis
    q = math.lcm(*(x.denominator for b in basis for x in b))
    columns = list(zip(*([x.numerator * (q // x.denominator) for x in b] for b in basis)))
    return lambda ys: Simplex.exact(
        [[Fraction(sum(map(mul, y, col)), q * den) for col in columns] for y in ys], spec.frame
    )


def subdivide(spec: HillSpec, m: int) -> Subdivision:
    """Cut the Hill simplex into m^d pieces similar to it with ratio 1/m."""
    if m < 2:
        raise ValueError("m must be at least 2")
    d = spec.dim
    parent = hill_simplex(spec)
    cell = _cell_map(spec, m)
    pieces = [cell(ys) for ys in _staircase_cells(d, m)]
    if len(pieces) != m**d:
        raise AssertionError(f"staircase cell count {len(pieces)} != m^d = {m**d}")
    return Subdivision(parent, tuple(pieces), m)


# ---------------------------------------------------------------------------
# exact interior-disjointness of convex pieces
# ---------------------------------------------------------------------------


def _plane_separates(s1: Simplex, s2: Simplex, strict: bool = False) -> bool:
    """Whether some facet plane of s1 has every vertex of s2 on its closed
    outer side, or with ``strict`` its open one; in integers, vertex V2 / D2
    is outside (n, b1) when D1 (n.V2) <= D2 b1 (< with ``strict``)."""
    d1, (d2, verts) = s1.lattice[0], s2.lattice
    slack = 0 if strict else 1  # integers: x <= y iff x < y + 1
    return any(
        all(d1 * sum(x * y for x, y in zip(n, v)) < d2 * b + slack for v in verts)
        for n, b in s1.lattice_facets
    )


def _bbox_disjoint(s1: Simplex, s2: Simplex, strict: bool = False) -> bool:
    """Whether the bounding boxes are disjoint on some axis: apart or
    sharing only a boundary, or with ``strict`` only apart."""
    d1, d2 = s1.lattice[0], s2.lattice[0]
    slack = 0 if strict else 1
    return any(
        hi1 * d2 < lo2 * d1 + slack or hi2 * d1 < lo1 * d2 + slack
        for (lo1, hi1), (lo2, hi2) in zip(s1.lattice_bounds, s2.lattice_bounds)
    )


def _max_margin_point(constraints: list[tuple[tuple, object]], dim: int):
    """Maximize tau subject to n.x - tau >= b over all constraints.

    Returns (tau, x) at the optimum; the polyhedron is pointed and bounded
    above in tau, so basic-solution enumeration is complete.  Each row is
    scaled to integers once and each basic system solved fraction-free;
    the first best basic solution in combinations order is kept.
    """
    nvar = dim + 1
    rows = []
    for n, b in constraints:
        row = [*n, -1, b]
        q = math.lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (q // x.denominator) for x in row])
    best = None  # (D, X): tau = X[dim] / D with D > 0
    for subset in combinations(rows, nvar):
        a, den, pivots = rref(subset)
        if pivots != list(range(nvar)):
            continue  # singular: not a basic solution
        xs = [r[nvar] for r in a]
        # zip stops at the nvar coefficients: r.x >= b, times D > 0
        if any(sum(c * v for c, v in zip(r, xs)) < r[nvar] * den for r in rows):
            continue
        if best is None or xs[dim] * best[0] > best[1][dim] * den:
            best = (den, xs)
    if best is None:
        raise AssertionError("margin program has no basic feasible point")
    den, xs = best
    return Fraction(xs[dim], den), tuple(Fraction(x, den) for x in xs[:dim])


def _vertex_outside(parent: Simplex, piece: Simplex, tested: dict | None = None):
    """The first vertex of piece outside parent, or None; in integers,
    vertex V / D is outside (n, b) when Dp (n.V) < D b.  ``tested`` keeps
    that verdict per (D, V) across the pieces of one parent, so a vertex
    the pieces share is tested once."""
    if tested is None:
        tested = {}
    dp, (d, verts) = parent.lattice[0], piece.lattice
    for v, big_v in zip(piece.vertices, verts):
        out = tested.get((d, big_v))
        if out is None:
            out = tested[d, big_v] = any(
                dp * sum(map(mul, n, big_v)) < d * b for n, b in parent.lattice_facets
            )
        if out:
            return v
    return None


def interiors_disjoint(s1: Simplex, s2: Simplex) -> tuple[bool, tuple | None]:
    """Exact decision whether two simplices have disjoint interiors.

    Returns (disjoint, witness_point): the witness is a common interior
    point when they overlap.
    """
    if _bbox_disjoint(s1, s2) or _plane_separates(s1, s2) or _plane_separates(s2, s1):
        return True, None
    tau, x = _max_margin_point(s1.facets + s2.facets, s1.dim)
    return (tau <= 0), (x if tau > 0 else None)


def _facets_match(parent: Simplex, pieces) -> bool:
    """Whether the pieces meet facet to facet inside the parent: with the
    pieces contained in the parent and their volumes summing to its
    volume, a certificate that their interiors are pairwise disjoint.

    Each facet is keyed by its sorted vertices over one common denominator,
    and its side is the orientation of (its sorted vertices, the opposite
    vertex): the sign of ``signed_det`` times the parity of that order.  The
    certificate holds iff every key is met at most twice, the two pieces
    of a key met twice lie on opposite sides, and every key met once lies
    in a facet plane of the parent.

    Proof: follow a generic path between two interior points of the
    parent; it crosses piece facets only in their relative interiors, one
    hyperplane H at a time.  H meets the parent's interior, so it is no
    facet plane of the parent and each facet in H through the crossing
    point is met twice; its twin has the same vertices and lies on the
    other side.  So as many pieces are entered as are left, and the number
    of pieces covering a point is constant on the parent's interior.  The
    pieces lie in the parent, so that number integrates to the volume sum,
    the parent's volume: it is 1, and no two interiors meet.  A tiling
    that is not face to face, such as one with a T-junction, fails the
    certificate though its interiors are disjoint.
    """
    big = math.lcm(*(p.lattice[0] for p in pieces))
    d = parent.dim
    sides: dict[tuple, int] = {}  # key -> the side met once, or 0 once matched
    for p in pieces:
        den, verts = p.lattice
        k = big // den
        scaled = [tuple(x * k for x in v) for v in verts]
        ranks = sorted(range(d + 1), key=scaled.__getitem__)
        order = [scaled[i] for i in ranks]
        # the orientation of the vertices in sorted order
        side = (1 if p.signed_det > 0 else -1) * (-1) ** sum(a > b for a, b in combinations(ranks, 2))
        for pos in range(d + 1):
            # moving the opposite vertex from pos to the end takes d - pos swaps
            key = tuple(order[:pos] + order[pos + 1 :])
            s = side * (-1) ** (d - pos)
            met = sides.get(key)
            if met is None:
                sides[key] = s
            elif met == -s:
                sides[key] = 0
            else:
                return False  # a third piece, or two on one side
    dp, planes = parent.lattice[0], parent.lattice_facets
    through: dict[tuple, int] = {}  # vertex -> bit set of the parent facet planes through it
    for key, s in sides.items():
        if not s:
            continue
        common = -1
        for v in key:
            if v not in through:
                through[v] = sum(
                    1 << i
                    for i, (n, b) in enumerate(planes)
                    if dp * sum(x * y for x, y in zip(n, v)) == big * b
                )
            common &= through[v]
        if not common:
            return False  # an unmatched facet inside the parent
    return True


# ---------------------------------------------------------------------------
# the verifier
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReptileReport:
    """Certificate log for one candidate reptile subdivision."""

    piece_count: int
    m: int
    volume_ok: bool
    similarity_ok: bool
    congruence_ok: bool
    disjointness_ok: bool
    containment_ok: bool
    union_ok: bool
    measured_ratio: object
    chirality: dict
    witnesses: dict
    mode = "exact"  # every check is exact; the JSON keeps the key

    @property
    def all_ok(self) -> bool:
        return (
            self.volume_ok
            and self.similarity_ok
            and self.congruence_ok
            and self.disjointness_ok
            and self.containment_ok
            and self.union_ok
        )

    def to_json(self) -> dict:
        return {
            "piece_count": self.piece_count,
            "m": self.m,
            "checks": {
                "volume": self.volume_ok,
                "similarity": self.similarity_ok,
                "congruence": self.congruence_ok,
                "interior_disjointness": self.disjointness_ok,
                "containment": self.containment_ok,
                "union": self.union_ok,
            },
            "all_ok": self.all_ok,
            "measured_ratio": exact_json(self.measured_ratio),
            "chirality": self.chirality,
            "witnesses": exact_json(self.witnesses),
            "mode": self.mode,
        }


def verify_reptile(sub: Subdivision) -> ReptileReport:
    """Certify the reptile property of a subdivision, check by check.

    Every check is exact: volume sum, similarity ratio, congruence matching,
    interior disjointness, and containment; the union equality follows from
    volume + disjointness + containment for closed pieces.  Volumes are
    compared in frame units, lengths in the frame's metric.

    Interior disjointness is certified by facet matching (``_facets_match``)
    when the volumes and containment hold: pieces that meet facet to facet
    inside the parent and fill its volume cover each interior point once.
    Otherwise every pair is decided exactly (``interiors_disjoint``, whose
    box screen drops most pairs at once), and the first overlapping pair in
    lexicographic order is the witness with a common interior point.
    """
    parent, pieces, m = sub.parent, sub.pieces, sub.m
    witnesses: dict = {}

    # |signed_det| numerators summed in integers per denominator
    totals: dict[int, int] = {}
    for v in (p.signed_det for p in pieces):
        totals[v.denominator] = totals.get(v.denominator, 0) + abs(v.numerator)
    vol_sum = sum(Fraction(t, den * math.factorial(parent.dim)) for den, t in totals.items())
    vol_parent = abs(parent.signed_det) / math.factorial(parent.dim)
    volume_ok = vol_sum == vol_parent
    if not volume_ok:
        witnesses["volume"] = (vol_sum, vol_parent)

    expected = Fraction(1, m)
    similarity_ok = True
    measured = None
    for idx, p in enumerate(pieces):
        r = similar(parent, p)
        if measured is None:
            measured = r
        if r != expected:
            similarity_ok = False
            witnesses["similarity"] = {"piece": idx, "ratio": r}
            break

    congruence_ok = True
    for idx in range(1, len(pieces)):
        if not congruent(pieces[0], pieces[idx]):
            congruence_ok = False
            witnesses["congruence"] = {"pieces": (0, idx)}
            break

    containment_ok = True
    tested: dict = {}
    for idx, p in enumerate(pieces):
        v = _vertex_outside(parent, p, tested)
        if v is not None:
            containment_ok = False
            witnesses["containment"] = {"piece": idx, "vertex": v}
            break

    # facet matching certifies disjointness in one pass; where it does not
    # hold, every pair is decided
    disjointness_ok = True
    if not (volume_ok and containment_ok and _facets_match(parent, pieces)):
        for i, j in combinations(range(len(pieces)), 2):
            ok, point = interiors_disjoint(pieces[i], pieces[j])
            if not ok:
                disjointness_ok = False
                witnesses["interior_disjointness"] = {"pieces": (i, j), "point": point}
                break

    union_ok = volume_ok and disjointness_ok and containment_ok

    order = tuple(range(parent.dim + 1))
    base_sign = _orientation_sign(parent, order)
    proper = sum(1 for p in pieces if _orientation_sign(p, order) == base_sign)
    chirality = {"orientation_preserving": proper, "mirrored": len(pieces) - proper}

    return ReptileReport(
        piece_count=len(pieces),
        m=m,
        volume_ok=volume_ok,
        similarity_ok=similarity_ok,
        congruence_ok=congruence_ok,
        disjointness_ok=disjointness_ok,
        containment_ok=containment_ok,
        union_ok=union_ok,
        measured_ratio=measured,
        chirality=chirality,
        witnesses=witnesses,
    )


# ---------------------------------------------------------------------------
# iterated growth
# ---------------------------------------------------------------------------


@dataclass
class GrowthReport:
    generations: int
    m: int
    cell_total: int
    cells_emitted: int
    truncated: bool
    volume_emitted: object
    volume_expected: object
    sampled_pairs: int
    sampled_disjoint_ok: bool
    adjacency: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return exact_json(asdict(self))


def grow_space_tiling(
    spec: HillSpec,
    generations: int,
    m: int = 2,
    budget: int = 20000,
    sample_pairs: int = 100,
    seed: int = 0,
):
    """Tile the m^g-scaled Hill simplex by unit-generation cells.

    Substituting the subdivision into itself g times is the same staircase
    cutting with parameter m^g; cells stream in deterministic order up to
    the piece budget.  Disjointness is verified on a random sample of pairs
    (the exact verifier is for single-generation subdivisions), each pair
    classed by the sign of its exact margin: touching pairs share boundary
    points, separated ones none.  Volumes are Euclidean.

    Returns (cells, report): cells is the materialized list (bounded by the
    budget), report a GrowthReport.
    """
    if generations < 1:
        raise ValueError("need at least one generation")
    if m < 2:
        raise ValueError("m must be at least 2")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    d = spec.dim
    big = m**generations
    total = big**d
    cell = _cell_map(spec, 1)

    cells = [cell(ys) for ys in islice(_staircase_cells(d, big), budget)]
    parent = hill_simplex(spec)
    vol_unit = volume(parent)  # Euclidean; the cells' volumes are rational multiples
    vol_emitted = vol_unit * Fraction(sum(abs(c.signed_det) for c in cells), abs(parent.signed_det))
    vol_expected = vol_unit * Fraction(big) ** d

    rng = random.Random(seed)
    ok = True
    adjacency = {"separated": 0, "touching": 0}
    if len(cells) >= 2:
        for _ in range(sample_pairs):
            a, b = (cells[k] for k in rng.sample(range(len(cells)), 2))
            # the sign of the margin tau: > 0 overlapping, 0 touching, < 0
            # separated; a strict gap between boxes or across a facet plane
            # gives tau < 0 (a closed one does not), a common vertex tau >= 0
            if _bbox_disjoint(a, b, True) or _plane_separates(a, b, True) or _plane_separates(b, a, True):
                tau = -1
            elif set(a.vertices) & set(b.vertices):
                tau = 0 if interiors_disjoint(a, b)[0] else 1
            else:
                tau = _max_margin_point(a.facets + b.facets, d)[0]
            if tau > 0:
                ok = False
                break
            adjacency["touching" if tau == 0 else "separated"] += 1
    report = GrowthReport(
        generations=generations,
        m=m,
        cell_total=total,
        cells_emitted=len(cells),
        truncated=len(cells) < total,
        volume_emitted=vol_emitted,
        volume_expected=vol_expected,
        sampled_pairs=sum(adjacency.values()),
        sampled_disjoint_ok=ok,
        adjacency=adjacency,
    )
    return cells, report
