"""Seeded inputs for the four workloads.

Nothing here imports reptile_forge: every input is built from the seed with
the benchmark's own exact arithmetic, so the program under test only ever
sees the generated documents.  Each builder returns one pass, a list of op
descriptions; a run repeats whole passes.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

from refalg import cos_minpoly, irreducible_cubic_root, isolating_interval
from refgeom import area_normals, cos_entry, hill_basis, staircase_pieces, tetra_volume6

AUDIT_KMAX = 64

# -- audit ------------------------------------------------------------------


def audit_pass(seed: int) -> list[dict]:
    """The audit has no input besides kmax; the seed changes nothing."""
    return [{"kind": "audit", "kmax": AUDIT_KMAX}]


# -- hill -------------------------------------------------------------------

# A fixed cycle of exact specs: cosines with an exact cyclic Hill basis,
# where sqrt(1 - c^2) (d = 2) or sqrt(1 - 4 c^2) (d = 3) is rational.  At
# d = 4 only c = 0 is exact today.
HILL_SPECS = ((2, ("0", "3/5", "-5/13")), (3, ("0", "2/5", "-2/5")), (4, ("0",)))
# The pass's median falls among specs whose costs differ by a fifth from
# one to the next, and one timing of a 0.05 s op here varies by a third.
# Sixteen more ops of the middle spec make a plateau there, so op_p50_s is
# the median of many timings of one spec rather than of two or three
# different ones.  Two copies follow each of the eight dear specs (d >= 3,
# m >= 3), so the plateau's timings spread over the pass's time instead of
# falling in its first second.
HILL_MEDIAN_SPEC = (3, "2/5", 2)
HILL_MEDIAN_COPIES = 2  # after each dear spec


def hill_pass(seed: int) -> list[dict]:
    """Every spec of the cycle with m = 2, 3, 4, each dear one followed by
    copies of the median spec, and four corrupted subdivisions with d = 2,
    3 and m = 3.  The seed picks the corrupted piece and the
    probe points of the checks, never the specs, so the pass costs the same
    for every seed."""
    rng = random.Random(seed)

    def spec(dim, cos, m):
        return {"kind": "hill", "dim": dim, "cos": cos, "m": m, "probe_seed": rng.randrange(2**32)}

    ops = []
    for dim, cosines in HILL_SPECS:
        for cos in cosines:
            for m in (2, 3, 4):
                ops.append(spec(dim, cos, m))
                if dim >= 3 and m >= 3:
                    ops += [spec(*HILL_MEDIAN_SPEC) for _ in range(HILL_MEDIAN_COPIES)]
    ops.append(_corrupted(2, "3/5", 3, "overlap", rng))
    ops.append(_corrupted(2, "-5/13", 3, "outside", rng))
    # two dearer corruptions balance the pass around its median: as many
    # ops below the plateau of the median spec as above it
    ops.append(_corrupted(3, "0", 3, "outside", rng))
    ops.append(_corrupted(3, "2/5", 3, "outside", rng))
    return ops


def _corrupted(dim: int, cos: str, m: int, how: str, rng: random.Random) -> dict:
    """A subdivision the benchmark builds itself, with one piece damaged.

    "overlap" moves a piece onto a neighbour sharing a facet with it, which
    breaks only interior disjointness; "outside" translates a piece out of
    the parent, which breaks only containment.  The union check is the
    conjunction of volume, disjointness and containment, so it fails too.
    """
    basis = hill_basis(dim, Fraction(cos))
    parent, pieces = staircase_pieces(basis, m)
    i = rng.randrange(len(pieces))
    if how == "overlap":
        shared = [j for j in range(len(pieces)) if j != i and len(set(pieces[i]) & set(pieces[j])) == dim]
        pieces[i] = list(pieces[rng.choice(shared)])
        broken = ["interior_disjointness", "union"]
    else:
        shift = 1 + 3 * max(abs(x) for v in parent for x in v)
        pieces[i] = [tuple(x + (shift if k == 0 else 0) for k, x in enumerate(v)) for v in pieces[i]]
        broken = ["containment", "union"]
    doc = {
        "m": m,
        "parent": _simplex_json(parent),
        "pieces": [_simplex_json(p) for p in pieces],
    }
    return {"kind": "hill-corrupt", "dim": dim, "cos": cos, "m": m, "how": how, "piece": i,
            "document": doc, "broken": broken}


def _simplex_json(verts) -> dict:
    return {
        "dim": len(verts) - 1,
        "mode": "exact",
        "vertices": [[f"{x.numerator}/{x.denominator}" for x in v] for v in verts],
    }


# -- realize ----------------------------------------------------------------

REALIZE_SEEDED = 200  # integer tetrahedra per pass
REALIZE_COORD = 2  # seeded integer coordinates lie in [-2, 2]
SOUNDNESS_SEED = 20260808  # the acceptance suite's soundness draw
# Draws of the soundness set (1-based) that join every pass: draw 1 is the
# fault F1 tetrahedron, whose check takes the generic path; the others are
# the 15 draws of 200 whose matrices the rational descaling handles, among
# them draws 14 and 196, whose reconstruction hits fault F2.
SOUNDNESS_PICKS = (1, 5, 14, 25, 39, 61, 71, 77, 103, 125, 153, 159, 160, 188, 196, 197)
F2_PICKS = (14, 196)


def soundness_draws(count: int = 200) -> list[list[tuple[Fraction, ...]]]:
    """Tetrahedra drawn like the acceptance suite's soundness set."""
    rng = random.Random(SOUNDNESS_SEED)
    out = []
    while len(out) < count:
        verts = [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)) for _ in range(4)]
        if tetra_volume6(verts) != 0:
            out.append(verts)
    return out


def realize_pass(seed: int) -> list[dict]:
    """Seeded integer tetrahedra, a known non-realizable variant of every
    third one, and the fixed fractional draws of the soundness set."""
    rng = random.Random(seed)
    ops = []
    for n in range(REALIZE_SEEDED):
        while True:
            verts = [tuple(Fraction(rng.randint(-REALIZE_COORD, REALIZE_COORD)) for _ in range(3)) for _ in range(4)]
            if tetra_volume6(verts) != 0:
                break
        ops.append(_realize_op(verts, f"seeded-{n}"))
        if n % 3 == 2:
            ops.append(_broken_op(verts, f"seeded-{n}-raised"))
    draws = soundness_draws()
    for k in SOUNDNESS_PICKS:
        op = _realize_op(draws[k - 1], f"soundness-{k}")
        op["known_fault"] = "F2" if k in F2_PICKS else None
        ops.append(op)
    rng.shuffle(ops)
    return ops


def cosine_matrix(verts) -> list[list[str]]:
    """The CLI's matrix format: entry (i, j) is the cosine of the dihedral
    angle between the facets opposite vertices i and j."""
    normals = area_normals(verts)
    g = [[sum(a * b for a, b in zip(u, v)) for v in normals] for u in normals]
    return [
        ["-1" if i == j else cos_entry(-g[i][j], g[i][i] * g[j][j]) for j in range(4)]
        for i in range(4)
    ]


def _realize_op(verts, label: str) -> dict:
    return {
        "kind": "realize",
        "label": label,
        "vertices": [[str(x) for x in v] for v in verts],
        "matrix": {"dim": 3, "cos": cosine_matrix(verts)},
        "realizable": True,
    }


def _broken_op(verts, label: str) -> dict:
    """Raise the smallest nonzero dihedral cosine by a rational factor.

    With z the facet areas, Minkowski gives z^T (-A) z = 0; raising entry
    (i, j) from c to c' > c adds 2 (c - c') z_i z_j < 0, so -A' is not
    positive semidefinite and A' belongs to no simplex.  A factor with a
    small denominator keeps the entry in its square class and its numbers
    small, so the rational descaling still applies.
    """
    normals = area_normals(verts)
    g = [[sum(a * b for a, b in zip(u, v)) for v in normals] for u in normals]
    pairs = [(i, j) for i, j in combinations(range(4), 2) if g[i][j] != 0]
    sign = {key: 1 if g[key[0]][key[1]] < 0 else -1 for key in pairs}  # cos = -g_ij / |n_i||n_j|
    sq = {(i, j): g[i][j] ** 2 / (g[i][i] * g[j][j]) for i, j in pairs}
    i, j = min(pairs, key=lambda key: sign[key] * sq[key])
    if sign[(i, j)] < 0:
        factor = Fraction(1, 2)
    else:
        factor = next(f for f in (Fraction(3, 2), Fraction(9, 8), Fraction(17, 16), Fraction(33, 32))
                      if f * f * sq[(i, j)] < 1)
    rows = cosine_matrix(verts)
    rows[i][j] = rows[j][i] = cos_entry(Fraction(sign[(i, j)]), 1 / (factor * factor * sq[(i, j)]))
    op = _realize_op(verts, label)
    op.update(matrix={"dim": 3, "cos": rows}, realizable=False, raised={"pair": [i, j], "factor": str(factor)})
    return op


# -- angles -----------------------------------------------------------------

# Denominators q <= 60 grouped by (degree of cos(p pi / q), number of reduced
# angles): the members of one group cost about the same, so the seed picks
# one per group without moving the pass time.  q = 59 (degree 29) is alone.
SWEEP_GROUPS = ((59,), (7, 9), (13, 21), (25, 33), (35, 39, 45), (32, 34, 40, 48), (37, 57), (41, 55))
CATALOG_DEGREES = tuple(range(1, 9))
# Classify ops cost about one catalog build of the value's degree, so the
# mix is fixed per degree and per kind; the seed picks the values.
CLASSIFY_COSINE_DEGREES = (1, 2, 3, 4, 5, 6, 8)
CLASSIFY_COSINES_PER_DEGREE = 2
CLASSIFY_OTHERS_PER_KIND = 4
# Classifying cos(pi/9) costs about what the pass's middle op costs, while
# the seeded ops around the middle differ in cost by a factor of two or
# more.  Sixteen more ops classifying it make a plateau at the median, as
# HILL_MEDIAN_COPIES does for hill, so op_p50_s is the median of many
# timings of one op.
ANGLES_MEDIAN_ANGLE = (1, 9)
ANGLES_MEDIAN_COPIES = 16


def totient(n: int) -> int:
    out, k = n, 2
    while k * k <= n:
        if n % k == 0:
            while n % k == 0:
                n //= k
            out -= out // k
        k += 1
    if n > 1:
        out -= out // n
    return out


def cos_degree(p: int, q: int) -> int:
    """Degree of cos(p pi / q) for p/q in lowest terms: phi(n)/2 with
    p pi / q = 2 pi k / n in lowest terms, and 1 for n <= 2."""
    n = 2 * q // math.gcd(p, 2 * q)
    return 1 if n <= 2 else totient(n) // 2


def angles_pass(seed: int) -> list[dict]:
    rng = random.Random(seed)
    ops = [{"kind": "sweep", "q": rng.choice(group)} for group in SWEEP_GROUPS]
    ops += [{"kind": "catalog", "degree": d} for d in CATALOG_DEGREES]
    for degree in CLASSIFY_COSINE_DEGREES:
        angles = [(p, q) for q in range(2, 61) for p in range(1, q)
                  if math.gcd(p, q) == 1 and cos_degree(p, q) == degree]
        for p, q in rng.sample(angles, CLASSIFY_COSINES_PER_DEGREE):
            ops.append({"kind": "classify", "value": cosine_spec(p, q), "answer": f"{p}*pi/{q}"})
    for kind in ("rational", "surd", "cubic"):
        for _ in range(CLASSIFY_OTHERS_PER_KIND):
            ops.append({"kind": "classify", "value": non_cosine_spec(kind, rng), "answer": None})
    p, q = ANGLES_MEDIAN_ANGLE
    ops += [{"kind": "classify", "value": cosine_spec(p, q), "answer": f"{p}*pi/{q}"}
            for _ in range(ANGLES_MEDIAN_COPIES)]
    rng.shuffle(ops)
    return ops


def cosine_spec(p: int, q: int):
    """cos(p pi / q) in the CLI's input format: a rational string when the
    value is rational, else a minimal polynomial with an isolating interval."""
    exact = {(1, 2): "0", (1, 3): "1/2", (2, 3): "-1/2"}
    if (p, q) in exact:
        return exact[(p, q)]
    mp = cos_minpoly(p, q)
    lo, hi = isolating_interval(mp, math.cos(math.pi * p / q))
    return {"minpoly": mp, "interval": [str(lo), str(hi)]}


def non_cosine_spec(kind: str, rng: random.Random):
    """A value in (-1, 1) that is provably not the cosine of a rational angle.

    2 cos(r pi) is an algebraic integer for every rational r, so a value x
    for which 2x is not one cannot match: a rational p/q with q > 2, a
    surd sqrt(a)/b whose 2x has a minimal polynomial with non-unit leading
    coefficient, or a root of an irreducible cubic whose leading coefficient
    survives the substitution x = y/2.
    """
    if kind == "rational":
        while True:
            q = rng.randint(3, 40)
            p = rng.randint(-q + 1, q - 1)
            if math.gcd(p, q) == 1:
                return f"{p}/{q}"
    if kind == "surd":
        # x = sqrt(a)/b, 2x has minimal polynomial b^2 y^2 - 4a; not monic
        # unless b^2 | 4a, which b odd > 1 and a squarefree coprime to b rule out
        while True:
            b = rng.choice((3, 5, 7))
            a = rng.choice((2, 3, 5, 6, 7, 10, 11, 13))
            if a < b * b and a % b:
                return f"sqrt({a})/{b}"
    return irreducible_cubic_root(rng)


BUILDERS = {"audit": audit_pass, "hill": hill_pass, "realize": realize_pass, "angles": angles_pass}


def make_pass(workload: str, seed: int) -> list[dict]:
    return BUILDERS[workload](seed)
