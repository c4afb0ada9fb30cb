"""Hill simplices and their m^d reptile subdivisions, with an exact verifier.

A Hill simplex is the convex hull of the prefix sums of d equal-length
vectors sharing one pairwise angle in (0, 2*pi/3).  In basis coordinates
it is the order region {1 >= y_1 >= ... >= y_d >= 0}; cutting by the
hyperplane families y_i = j/m and y_i - y_j = l/m tiles it with m^d
staircase cells, each similar to the parent with ratio 1/m.  The verifier,
not the generator, carries the correctness burden: volume accounting,
similarity, mutual congruence, pairwise interior disjointness (an exact
rational feasibility program per pair), and containment are all certified.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, permutations, product

from .algebra.linalg import cholesky, rational_sqrt, rref
from .jsonio import InputFormatError, load_simplex
from .simplex import FLOAT_TOL, Simplex, _orientation_sign, congruent, similar, volume


@dataclass(frozen=True)
class HillSpec:
    """Basis data for a Hill simplex.

    All basis vectors share one squared length and one pairwise inner
    product; the common angle must lie strictly inside (0, 2*pi/3) and the
    Gram matrix must be positive definite.
    """

    dim: int
    basis: tuple
    mode: str = "exact"

    def __post_init__(self):
        d = self.dim
        if not 2 <= d <= 4:
            raise ValueError("supported dimensions are 2, 3, 4")
        if len(self.basis) != d or any(len(b) != d for b in self.basis):
            raise ValueError("need d basis vectors of arity d")
        norms = [sum(x * x for x in b) for b in self.basis]
        dots = [
            sum(x * y for x, y in zip(self.basis[i], self.basis[j]))
            for i, j in combinations(range(d), 2)
        ]
        if self.mode == "exact":
            if any(n != norms[0] for n in norms):
                raise ValueError("basis vectors must have equal length")
            if any(p != dots[0] for p in dots):
                raise ValueError("basis vectors must share one pairwise angle")
        else:
            tol = FLOAT_TOL * (abs(float(norms[0])) + 1)
            if any(abs(float(n - norms[0])) > tol for n in norms):
                raise ValueError("basis vectors must have equal length")
            if any(abs(float(p - dots[0])) > tol for p in dots):
                raise ValueError("basis vectors must share one pairwise angle")
        c = Fraction(dots[0], norms[0]) if self.mode == "exact" else dots[0] / norms[0]
        if not (-Fraction(1, 2) < c < 1 if self.mode == "exact" else -0.5 < c < 1):
            raise ValueError("pairwise angle must lie strictly inside (0, 2*pi/3)")
        # positive definiteness of (N - p) I + p J
        if not (norms[0] - dots[0] > 0 and norms[0] + (d - 1) * dots[0] > 0):
            raise ValueError("Gram matrix is not positive definite")

    @property
    def pair_cos(self):
        n0 = sum(x * x for x in self.basis[0])
        p = sum(x * y for x, y in zip(self.basis[0], self.basis[1]))
        return p / n0 if self.mode == "float" else Fraction(p, n0)

    @staticmethod
    def from_basis(vectors) -> "HillSpec":
        vs = [list(v) for v in vectors]
        exact = all(isinstance(x, (int, Fraction)) for v in vs for x in v)
        if exact:
            basis = tuple(tuple(Fraction(x) for x in v) for v in vs)
            return HillSpec(len(vs), basis, "exact")
        basis = tuple(tuple(float(x) for x in v) for v in vs)
        return HillSpec(len(vs), basis, "float")

    @staticmethod
    def from_pair_cos(dim: int, c) -> "HillSpec":
        """Build a basis realizing the requested common cosine.

        Rational coordinates are found where a two-term cyclic construction
        admits them; otherwise the Gram matrix is factored in floats.
        """
        c = Fraction(c) if not isinstance(c, float) else c
        if isinstance(c, Fraction) and c == 0:
            basis = tuple(
                tuple(Fraction(1) if i == j else Fraction(0) for j in range(dim))
                for i in range(dim)
            )
            return HillSpec(dim, basis, "exact")
        if isinstance(c, Fraction) and dim in (2, 3):
            found = _rational_cyclic_basis(dim, c)
            if found is not None:
                return HillSpec(dim, found, "exact")
        return HillSpec(dim, _float_gram_basis(dim, float(c)), "float")


def _rational_cyclic_basis(dim: int, c: Fraction):
    """Cyclic shifts of a short pattern vector, when a rational one exists."""
    if dim == 2:
        # (a, b), (b, a): cos = 2ab / (a^2 + b^2); a/b = (1 +- sqrt(1-c^2))/c
        r = rational_sqrt(1 - c * c)
        if r is None:
            return None
        x = (1 + r) / c
    else:
        # (a, b, 0) cyclic: cos = ab / (a^2 + b^2); a/b = (1 +- sqrt(1-4c^2))/(2c)
        r = rational_sqrt(1 - 4 * c * c)
        if r is None:
            return None
        x = (1 + r) / (2 * c)
    a, b = x.numerator, x.denominator
    pattern = [Fraction(a), Fraction(b)] + [Fraction(0)] * (dim - 2)
    basis = []
    for i in range(dim):
        basis.append(tuple(pattern[(j - i) % dim] for j in range(dim)))
    # cyclic shifts only share one dot product when the pattern has
    # support 2 and dim <= 3; the HillSpec validator re-checks anyway
    return tuple(basis)


def _float_gram_basis(dim: int, c: float):
    g = [[1.0 if i == j else c for j in range(dim)] for i in range(dim)]
    return tuple(tuple(row) for row in cholesky(g))


def hill_simplex(spec: HillSpec) -> Simplex:
    """conv{0, b1, b1+b2, ..., b1+...+bd}."""
    return _cell_map(spec, 1)([[int(i < j) for i in range(spec.dim)] for j in range(spec.dim + 1)])


@dataclass(frozen=True)
class Subdivision:
    """A parent simplex cut into m^d candidate reptile pieces."""

    parent: Simplex
    pieces: tuple
    m: int

    @property
    def ratio(self) -> Fraction:
        return Fraction(1, self.m)

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "parent": self.parent.to_json(),
            "pieces": [p.to_json() for p in self.pieces],
        }

    @staticmethod
    def from_json(obj: dict) -> "Subdivision":
        if not isinstance(obj, dict):
            raise InputFormatError("subdivision JSON must be an object")
        for key in ("m", "parent", "pieces"):
            if key not in obj:
                raise ValueError(f"subdivision JSON has no {key!r} key")
        m = obj["m"]
        if not isinstance(m, int) or isinstance(m, bool):
            raise ValueError(f"m must be a JSON integer, got {m!r}")
        if m < 2:
            raise ValueError("m must be at least 2")
        if not isinstance(obj["pieces"], list):
            raise InputFormatError("pieces must be a list of simplices")
        return Subdivision(
            load_simplex(obj["parent"]), tuple(load_simplex(p) for p in obj["pieces"]), m
        )


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
    (sum_i y_i b_i) / den, an exact basis taken as integers over one lcm."""
    d, basis, fden = spec.dim, spec.basis, float(den)
    if spec.mode == "float":
        return lambda ys: Simplex.floating(
            [[sum(yi * b[k] / fden for yi, b in zip(y, basis)) for k in range(d)] for y in ys]
        )
    q = math.lcm(*(x.denominator for b in basis for x in b))
    rows = [[x.numerator * (q // x.denominator) for x in b] for b in basis]
    return lambda ys: Simplex.exact(
        [[Fraction(sum(yi * b[k] for yi, b in zip(y, rows)), q * den) for k in range(d)]
         for y in ys]
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


def _plane_separates(s1: Simplex, s2: Simplex, tol) -> bool:
    """Whether some facet plane of s1 has every vertex of s2 on its closed
    outer side; in integers, vertex V2 / D2 is outside (n, b1) when
    D1 (n.V2) <= D2 b1."""
    if tol is None:
        d1, (d2, verts) = s1.lattice[0], s2.lattice
        return any(
            all(d1 * sum(x * y for x, y in zip(n, v)) <= d2 * b for v in verts)
            for n, b in s1.lattice_facets
        )
    return any(
        all(sum(x * y for x, y in zip(n, v)) <= b + tol for v in s2.vertices)
        for n, b in s1.facets
    )


def _bbox_disjoint(s1: Simplex, s2: Simplex) -> bool:
    if s1.mode == s2.mode == "exact":
        d1, d2 = s1.lattice[0], s2.lattice[0]
        return any(
            hi1 * d2 <= lo2 * d1 or hi2 * d1 <= lo1 * d2
            for (lo1, hi1), (lo2, hi2) in zip(s1.lattice_bounds, s2.lattice_bounds)
        )
    return any(
        hi1 <= lo2 or hi2 <= lo1
        for (lo1, hi1), (lo2, hi2) in zip(s1.bounds, s2.bounds)
    )


def _sweep_candidates(pieces):
    """Yield the index pairs i < j, in lexicographic order, whose bounding
    boxes overlap.

    Sweep-and-prune on axis 0 (Cohen et al., I-COLLIDE, 1995), in integers
    over the lcm of the denominators for exact pieces: pieces are visited by
    their lower bound, a piece leaves the active list once its upper bound
    is at most the current lower bound, and each pair met is box-tested.
    """
    if all(p.mode == "exact" for p in pieces):
        big = math.lcm(*(p.lattice[0] for p in pieces))
        extent = [[x * (big // p.lattice[0]) for x in p.lattice_bounds[0]] for p in pieces]
    else:
        extent = [p.bounds[0] for p in pieces]
    order = sorted(range(len(pieces)), key=lambda i: extent[i][0])
    later: list[list[int]] = [[] for _ in pieces]  # later[i]: partners j > i
    active: list[int] = []
    for j in order:
        lo = extent[j][0]
        active = [i for i in active if extent[i][1] > lo]
        for i in active:
            if not _bbox_disjoint(pieces[i], pieces[j]):
                later[min(i, j)].append(max(i, j))
        active.append(j)
    for i, partners in enumerate(later):
        for j in sorted(partners):
            yield i, j


def _max_margin_point(constraints: list[tuple[tuple, object]], dim: int, exact: bool):
    """Maximize tau subject to n.x - tau >= b over all constraints.

    Returns (tau, x) at the optimum; the polyhedron is pointed and bounded
    above in tau, so basic-solution enumeration is complete.
    """
    nvar = dim + 1
    rows = [list(n) + [-1, b] for n, b in constraints]
    if not exact:
        rows = [[float(x) for x in r] for r in rows]
    best = None
    for subset in combinations(range(len(rows)), nvar):
        a, pivots = rref([rows[i] for i in subset])
        if pivots != list(range(nvar)):
            continue  # singular: not a basic solution
        sol = [r[nvar] for r in a]
        feasible = True
        for r in rows:
            lhs = sum(c * v for c, v in zip(r[:nvar], sol))
            if exact:
                if lhs < r[nvar]:
                    feasible = False
                    break
            elif lhs < r[nvar] - 1e-9:
                feasible = False
                break
        if not feasible:
            continue
        tau = sol[dim]
        if best is None or tau > best[0]:
            best = (tau, tuple(sol[:dim]))
    if best is None:
        raise AssertionError("margin program has no basic feasible point")
    return best


def _vertex_outside(parent: Simplex, piece: Simplex, exact: bool):
    """The first vertex of piece outside parent, or None; in integers,
    vertex V / D is outside (n, b) when Dp (n.V) < D b."""
    if exact:
        dp, (d, verts) = parent.lattice[0], piece.lattice
        for v, big_v in zip(piece.vertices, verts):
            if any(
                dp * sum(x * y for x, y in zip(n, big_v)) < d * b
                for n, b in parent.lattice_facets
            ):
                return v
        return None
    for v in piece.vertices:
        for n, b in parent.facets:
            if float(sum(a * c for a, c in zip(n, v))) < float(b) - FLOAT_TOL:
                return v
    return None


def interiors_disjoint(s1: Simplex, s2: Simplex) -> tuple[bool, tuple | None]:
    """Exact decision whether two simplices have disjoint interiors.

    Returns (disjoint, witness_point): the witness is a common interior
    point when they overlap.
    """
    exact = s1.mode == "exact" and s2.mode == "exact"
    tol = None if exact else FLOAT_TOL
    if _bbox_disjoint(s1, s2):
        return True, None
    if _plane_separates(s1, s2, tol) or _plane_separates(s2, s1, tol):
        return True, None
    tau, x = _max_margin_point(s1.facets + s2.facets, s1.dim, exact)
    if exact:
        return (tau <= 0), (x if tau > 0 else None)
    scale = max(abs(float(v)) for s in (s1, s2) for vert in s.vertices for v in vert) + 1
    return (float(tau) <= FLOAT_TOL * scale), (x if float(tau) > FLOAT_TOL * scale else None)


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
    mode: str

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
            "measured_ratio": str(self.measured_ratio),
            "chirality": self.chirality,
            "witnesses": {k: str(v) for k, v in self.witnesses.items()},
            "mode": self.mode,
        }


def verify_reptile(sub: Subdivision) -> ReptileReport:
    """Certify the reptile property of a subdivision, check by check.

    Exact in exact mode: volume sum, similarity ratio, congruence matching,
    pairwise interior disjointness, and containment; the union equality
    follows from volume + disjointness + containment for closed pieces.
    """
    parent, pieces, m = sub.parent, sub.pieces, sub.m
    exact = parent.mode == "exact" and all(p.mode == "exact" for p in pieces)
    witnesses: dict = {}

    vol_parent = volume(parent)
    if exact:  # |signed_det| numerators summed in integers per denominator
        totals: dict[int, int] = {}
        for v in (p.signed_det for p in pieces):
            totals[v.denominator] = totals.get(v.denominator, 0) + abs(v.numerator)
        vol_sum = sum(Fraction(t, den * math.factorial(parent.dim)) for den, t in totals.items())
        volume_ok = vol_sum == vol_parent
    else:
        vol_sum = sum(volume(p) for p in pieces)
        volume_ok = abs(vol_sum - vol_parent) <= FLOAT_TOL * max(abs(vol_parent), 1.0)
    if not volume_ok:
        witnesses["volume"] = (vol_sum, vol_parent)

    expected = Fraction(1, m)
    similarity_ok = True
    measured = None
    for idx, p in enumerate(pieces):
        r = similar(parent, p)
        if measured is None:
            measured = r
        good = (r == expected) if exact else (r is not None and abs(r - 1 / m) < FLOAT_TOL)
        if not good:
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
    for idx, p in enumerate(pieces):
        v = _vertex_outside(parent, p, exact)
        if v is not None:
            containment_ok = False
            witnesses["containment"] = {"piece": idx, "vertex": v}
            break

    # the sweep drops only box-disjoint pairs and keeps combinations order,
    # so the first overlap found, and its witness, is the all-pairs loop's
    disjointness_ok = True
    for i, j in _sweep_candidates(pieces):
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
        mode="exact" if exact else "float",
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
        return {
            "generations": self.generations,
            "m": self.m,
            "cell_total": self.cell_total,
            "cells_emitted": self.cells_emitted,
            "truncated": self.truncated,
            "volume_emitted": str(self.volume_emitted),
            "volume_expected": str(self.volume_expected),
            "sampled_pairs": self.sampled_pairs,
            "sampled_disjoint_ok": self.sampled_disjoint_ok,
            "adjacency": self.adjacency,
        }


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
    (the exact verifier is for single-generation subdivisions).

    Returns (cells, report): cells is the materialized list (bounded by the
    budget), report a GrowthReport.
    """
    if generations < 1:
        raise ValueError("need at least one generation")
    d = spec.dim
    big = m**generations
    total = big**d
    scale = Fraction(big) if spec.mode == "exact" else float(big)
    cell = _cell_map(spec, 1)

    cells = []
    truncated = False
    for ys in _staircase_cells(d, big):
        if len(cells) >= budget:
            truncated = True
            break
        cells.append(cell(ys))
    vol_emitted = sum(volume(c) for c in cells)
    parent = hill_simplex(spec)
    vol_expected = volume(parent) * (scale**d)

    rng = random.Random(seed)
    ok = True
    adjacency = {"separated": 0, "touching": 0}
    pairs = 0
    if len(cells) >= 2:
        for _ in range(sample_pairs):
            i, j = rng.sample(range(len(cells)), 2)
            disjoint, _ = interiors_disjoint(cells[i], cells[j])
            if not disjoint:
                ok = False
                break
            pairs += 1
            if _bbox_disjoint(cells[i], cells[j]):
                adjacency["separated"] += 1
                continue
            exact = spec.mode == "exact"
            tau, _ = _max_margin_point(cells[i].facets + cells[j].facets, d, exact)
            touching = (tau == 0) if exact else abs(float(tau)) <= FLOAT_TOL
            adjacency["touching" if touching else "separated"] += 1
    report = GrowthReport(
        generations=generations,
        m=m,
        cell_total=total,
        cells_emitted=len(cells),
        truncated=truncated,
        volume_emitted=vol_emitted,
        volume_expected=vol_expected,
        sampled_pairs=pairs,
        sampled_disjoint_ok=ok,
        adjacency=adjacency,
    )
    return cells, report
