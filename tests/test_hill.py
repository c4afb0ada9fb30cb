"""Hill simplices, subdivisions, the exact reptile verifier, growth."""

import json
import math
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reptile_forge.algebra import as_algebraic
from reptile_forge import hill as hill_mod
from reptile_forge.algebra.linalg import det
from reptile_forge.hill import (
    GrowthReport,
    HillSpec,
    Subdivision,
    _bbox_disjoint,
    _facets_match,
    _max_margin_point,
    _plane_separates,
    _staircase_cells,
    _vertex_outside,
    grow_space_tiling,
    hill_simplex,
    interiors_disjoint,
    subdivide,
    verify_reptile,
)
from reptile_forge.jsonio import parse_real
from reptile_forge.simplex import Simplex, congruent, dihedral_data, frame_dot, orthoscheme, similar, volume
from helpers import REPR_MARKS, assert_reads_back


def random_rational_hill_spec(rng: random.Random) -> HillSpec:
    """Cyclic integer triples give rational Hill bases with a shared angle."""
    while True:
        a, b, c = (rng.randint(0, 5) for _ in range(3))
        basis = [(a, b, c), (c, a, b), (b, c, a)]
        try:
            return HillSpec.from_basis(basis)
        except ValueError:
            continue


def pair_cos(spec: HillSpec):
    """The common cosine of the spec's basis vectors, in its frame."""
    b = spec.basis
    return frame_dot(b[0], b[1], spec.frame) / frame_dot(b[0], b[0], spec.frame)


class TestHillSpec:
    def test_orthonormal(self):
        spec = HillSpec.from_pair_cos(3, Fraction(0))
        assert pair_cos(spec) == 0

    def test_rational_circulant_for_half(self):
        spec = HillSpec.from_pair_cos(3, Fraction(1, 2))
        assert pair_cos(spec) == Fraction(1, 2)

    def test_float_fallback(self):
        spec = HillSpec.from_pair_cos(3, Fraction(1, 3))
        assert spec.frame == Fraction(1, 3)
        assert pair_cos(spec) == Fraction(1, 3)

    def test_boundary_angle_rejected(self):
        with pytest.raises(ValueError, match="2\\*pi/3|positive definite"):
            HillSpec.from_pair_cos(3, Fraction(-1, 2))
        with pytest.raises(ValueError):
            HillSpec.from_pair_cos(3, Fraction(1))

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            HillSpec.from_basis([(1, 0, 0), (0, 2, 0), (0, 0, 1)])

    def test_hill_simplex_is_orthoscheme_for_standard_basis(self):
        s = hill_simplex(HillSpec.from_pair_cos(3, Fraction(0)))
        assert s.vertices == orthoscheme(3).vertices


class TestSubdivide:
    def test_eight_pieces(self):
        sub = subdivide(HillSpec.from_pair_cos(3, Fraction(0)), 2)
        assert len(sub.pieces) == 8
        assert all(volume(p) == Fraction(1, 48) for p in sub.pieces)

    def test_27_pieces(self):
        sub = subdivide(HillSpec.from_pair_cos(3, Fraction(0)), 3)
        assert len(sub.pieces) == 27
        assert all(volume(p) == Fraction(1, 162) for p in sub.pieces)

    def test_d2_classic_four_reptile(self):
        sub = subdivide(HillSpec.from_pair_cos(2, Fraction(0)), 2)
        assert len(sub.pieces) == 4

    def test_m_guard(self):
        with pytest.raises(ValueError):
            subdivide(HillSpec.from_pair_cos(3, Fraction(0)), 1)

    @pytest.mark.parametrize("den", [1, 7])
    def test_vertices_are_the_rational_basis_map(self, den):
        rng = random.Random(den)
        for _ in range(3):
            base = random_rational_hill_spec(rng).basis
            spec = HillSpec.from_basis([[x / den for x in b] for b in base])
            sub = subdivide(spec, 3)
            # the Fraction map x = sum_i (y_i / m) b_i over each cell corner y
            for cell, piece in zip(_staircase_cells(3, 3), sub.pieces, strict=True):
                assert piece.vertices == tuple(
                    tuple(sum(Fraction(yi, 3) * b[k] for yi, b in zip(y, spec.basis)) for k in range(3))
                    for y in cell
                )

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_staircase_cells_are_the_admissible_ones(self, dim):
        def admissible(y, m):
            return all(a >= b for a, b in zip((m,) + y, y + (0,)))

        for m in (1, 2, 3, 4):
            brute = []
            for a in product(range(m), repeat=dim):
                for sigma in permutations(range(dim)):
                    verts = [a]
                    for k in sigma:
                        verts.append(tuple(x + (i == k) for i, x in enumerate(verts[-1])))
                    if all(admissible(y, m) for y in verts):
                        brute.append(verts)
            assert list(_staircase_cells(dim, m)) == brute
            assert len(brute) == m**dim

    def test_json_round_trip(self):
        sub = subdivide(HillSpec.from_pair_cos(3, Fraction(0)), 2)
        again = Subdivision.from_json(sub.to_json())
        assert again.m == 2
        assert again.parent.vertices == sub.parent.vertices
        assert [p.vertices for p in again.pieces] == [p.vertices for p in sub.pieces]


class TestVerifyReptile:
    @pytest.mark.parametrize("dim,m", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)])
    def test_orthonormal_bases_pass(self, dim, m):
        sub = subdivide(HillSpec.from_pair_cos(dim, Fraction(0)), m)
        rep = verify_reptile(sub)
        assert rep.all_ok, rep.witnesses
        assert rep.piece_count == m**dim
        assert rep.measured_ratio == Fraction(1, m)

    def test_random_rational_hill_bases(self):
        rng = random.Random(12)
        for i in range(5):
            spec = random_rational_hill_spec(rng)
            for m in (2, 3) if i < 2 else (2,):
                rep = verify_reptile(subdivide(spec, m))
                assert rep.all_ok, (spec, m, rep.witnesses)

    def test_pieces_share_parent_angles(self):
        sub = subdivide(HillSpec.from_pair_cos(3, Fraction(1, 2)), 2)
        parent_angles = sorted(float(c) for c in dihedral_data(sub.parent).facet_cos.values())
        for p in sub.pieces[:3]:
            angles = sorted(float(c) for c in dihedral_data(p).facet_cos.values())
            assert angles == pytest.approx(parent_angles, abs=1e-12)

    def test_corrupted_piece_caught(self):
        sub = subdivide(HillSpec.from_pair_cos(3, Fraction(0)), 2)
        pieces = list(sub.pieces)
        verts = [list(v) for v in pieces[5].vertices]
        verts[1][2] += Fraction(1, 13)
        pieces[5] = Simplex.exact(verts)
        rep = verify_reptile(Subdivision(sub.parent, tuple(pieces), 2))
        assert not rep.all_ok
        assert rep.witnesses

    def test_overlapping_pieces_witnessed(self):
        sub = subdivide(HillSpec.from_pair_cos(3, Fraction(0)), 2)
        pieces = list(sub.pieces)
        pieces[1] = pieces[0].translated((Fraction(1, 100), 0, 0))
        rep = verify_reptile(Subdivision(sub.parent, tuple(pieces), 2))
        assert not rep.disjointness_ok
        assert "interior_disjointness" in rep.witnesses

    def test_float_mode_verification(self):
        spec = HillSpec.from_pair_cos(3, Fraction(1, 3))
        rep = verify_reptile(subdivide(spec, 2))
        assert rep.all_ok and rep.mode == "exact" and spec.frame == Fraction(1, 3)

    def test_chirality_split_recorded(self):
        rep = verify_reptile(subdivide(HillSpec.from_pair_cos(3, Fraction(0)), 2))
        split = rep.chirality
        assert split["orientation_preserving"] + split["mirrored"] == 8
        assert split["mirrored"] > 0  # the staircase scheme uses mirrored cells


class TestInteriorsDisjoint:
    def test_far_apart(self):
        a = orthoscheme(3)
        b = a.translated((10, 0, 0))
        assert interiors_disjoint(a, b) == (True, None)

    def test_face_neighbors(self):
        sub = subdivide(HillSpec.from_pair_cos(3, Fraction(0)), 2)
        ok, _ = interiors_disjoint(sub.pieces[0], sub.pieces[1])
        assert ok

    def test_overlap_witness_point(self):
        a = orthoscheme(3)
        b = a.translated((Fraction(1, 50), 0, 0))
        ok, point = interiors_disjoint(a, b)
        assert not ok
        assert a.contains_point(point, strict=True)
        assert b.contains_point(point, strict=True)

    def test_self_overlap(self):
        a = orthoscheme(3)
        ok, point = interiors_disjoint(a, a)
        assert not ok and point is not None


class TestGrow:
    def test_one_generation_matches_subdivide(self):
        spec = HillSpec.from_pair_cos(3, Fraction(0))
        cells, rep = grow_space_tiling(spec, 1, m=2)
        sub = subdivide(spec, 2)
        assert len(cells) == 8
        # generation cells are the subdivision scaled back to parent size
        assert congruent(cells[0].scaled(Fraction(1, 2)), sub.pieces[0])
        assert rep.cell_total == 8 and not rep.truncated

    def test_two_generations(self):
        spec = HillSpec.from_pair_cos(3, Fraction(0))
        cells, rep = grow_space_tiling(spec, 2, m=2)
        assert rep.cell_total == 64 and rep.cells_emitted == 64
        assert rep.volume_emitted == rep.volume_expected
        assert rep.sampled_disjoint_ok
        assert rep.adjacency["touching"] + rep.adjacency["separated"] == rep.sampled_pairs

    def test_budget_truncation(self):
        spec = HillSpec.from_pair_cos(3, Fraction(0))
        cells, rep = grow_space_tiling(spec, 2, m=2, budget=10)
        assert rep.truncated and rep.cells_emitted == 10

    def test_four_generations_sampled(self):
        spec = HillSpec.from_pair_cos(3, Fraction(0))
        cells, rep = grow_space_tiling(spec, 4, m=2, budget=500, sample_pairs=100)
        assert rep.cell_total == 4096
        assert rep.truncated and rep.cells_emitted == 500
        assert rep.sampled_disjoint_ok


def _all_pairs_disjointness(pieces):
    """The verifier's disjointness check as a plain loop over every pair."""
    for i, j in combinations(range(len(pieces)), 2):
        ok, point = interiors_disjoint(pieces[i], pieces[j])
        if not ok:
            return False, {"pieces": (i, j), "point": point}
    return True, None


class TestSweep:
    """The verifier's pairwise fallback, behind the facet-matching certificate."""

    @pytest.mark.parametrize(
        "dim,cos,m",
        [(2, Fraction(3, 5), 3), (3, Fraction(2, 5), 2), (3, Fraction(0), 3), (4, Fraction(0), 2)],
    )
    def test_corrupted_reports_match_all_pairs(self, dim, cos, m):
        sub = subdivide(HillSpec.from_pair_cos(dim, cos), m)
        n = len(sub.pieces)
        rng = random.Random(dim * 100 + m)
        overlaps = 0
        for how in ("neighbour", "translate", "scale"):
            for _ in range(3):
                pieces = list(sub.pieces)
                i = rng.randrange(n)
                if how == "neighbour":
                    shared = [
                        j for j in range(n)
                        if j != i and len(set(pieces[i].vertices) & set(pieces[j].vertices)) == dim
                    ]
                    pieces[i] = pieces[rng.choice(shared)]
                elif how == "translate":
                    pieces[i] = pieces[i].translated(
                        [Fraction(rng.randint(-3, 3), 7 * m) for _ in range(dim)]
                    )
                else:
                    pieces[i] = pieces[i].scaled(Fraction(rng.choice((2, 3, 5)), rng.choice((2, 3, 4))))
                rep = verify_reptile(Subdivision(sub.parent, tuple(pieces), m))
                ok, witness = _all_pairs_disjointness(pieces)
                assert rep.disjointness_ok == ok
                assert rep.witnesses.get("interior_disjointness") == witness
                overlaps += not ok
        assert overlaps >= 3  # every "neighbour" corruption overlaps

    def test_facet_normals_computed_once_per_simplex(self, monkeypatch):
        sub = subdivide(HillSpec.from_pair_cos(4, Fraction(0)), 4)
        calls = 0
        original = Simplex.facet_normal

        def counting(self, i):
            nonlocal calls
            calls += 1
            return original(self, i)

        monkeypatch.setattr(Simplex, "facet_normal", counting)
        rep = verify_reptile(sub)
        assert rep.all_ok
        assert calls <= (256 + 1) * 5


class TestCachedGeometry:
    def test_squared_lengths_returns_a_copy(self):
        s = orthoscheme(3)
        first = s.squared_lengths()
        expected = dict(first)
        first[(0, 1)] = Fraction(99)
        del first[(2, 3)]
        assert s.squared_lengths() == expected

    def test_cache_leaves_equality_and_hash_alone(self):
        a = orthoscheme(3)
        _ = a.facets, a.bounds, a.squared_lengths()
        b = orthoscheme(3)
        assert a == b and hash(a) == hash(b)

    def test_facets_and_bounds(self):
        s = orthoscheme(3)
        assert s.bounds == ((0, 1), (0, 1), (0, 1))
        for i, (n, b) in enumerate(s.facets):
            assert list(n) == s.facet_normal(i)
            # the vertex opposite the facet is strictly inside its half-space
            assert sum(x * y for x, y in zip(n, s.vertices[i])) > b

    @pytest.mark.parametrize("cos", [Fraction(0), Fraction(1, 3)])
    def test_grow_volume_is_the_sum_of_cells(self, cos):
        spec = HillSpec.from_pair_cos(3, cos)
        cells, rep = grow_space_tiling(spec, 2, m=2, budget=10, sample_pairs=5)
        assert rep.volume_emitted == sum(volume(c) for c in cells)


# -- the integer screens against a plain Fraction reference ------------------

_rational = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3, 5, 7)))


def _edges(verts):
    return [[x - y for x, y in zip(v, verts[0])] for v in verts[1:]]


@st.composite
def rational_simplices(draw, dim):
    verts = draw(
        st.lists(st.tuples(*[_rational] * dim), min_size=dim + 1, max_size=dim + 1).filter(
            lambda vs: det(_edges(vs)) != 0
        )
    )
    return Simplex.exact(verts)


@st.composite
def simplex_pairs(draw):
    """Two exact simplices, mostly with unequal denominators: unrelated,
    sharing a facet (touching, or overlapping when the apex lies on the
    near side), sharing one vertex, or one shrunk inside the other."""
    dim = draw(st.sampled_from((2, 3, 4)))
    s1 = draw(rational_simplices(dim))
    how = draw(st.sampled_from(("free", "facet", "vertex", "shrunk")))
    if how == "free":
        return s1, draw(rational_simplices(dim))
    i = draw(st.integers(0, dim))
    vi = s1.vertices[i]
    if how == "facet":
        facet = [v for j, v in enumerate(s1.vertices) if j != i]
        c = [sum(xs) / dim for xs in zip(*facet)]
        t = draw(st.sampled_from([Fraction(p, q) for p, q in ((1, 7), (2, 3), (-1, 3), (-5, 7), (-9, 7))]))
        return s1, Simplex.exact(facet + [[ck + t * (ck - x) for ck, x in zip(c, vi)]])
    r = draw(st.sampled_from((Fraction(1, 3), Fraction(2, 7), Fraction(3, 5))))
    sign = -1 if how == "vertex" else 1  # point reflection through v_i, or not
    return s1, Simplex.exact([[a + sign * r * (x - a) for a, x in zip(vi, v)] for v in s1.vertices])


def _ref_facets(s):
    """(inward normal, offset) per facet: Fraction cofactors by linalg.det."""
    out = []
    for i in range(s.dim + 1):
        base, *rest = [v for j, v in enumerate(s.vertices) if j != i]
        rows = [[x - y for x, y in zip(v, base)] for v in rest]
        n = [(-1) ** k * det([r[:k] + r[k + 1 :] for r in rows]) for k in range(s.dim)]
        if sum(a * (x - y) for a, x, y in zip(n, s.vertices[i], base)) < 0:
            n = [-a for a in n]
        out.append((n, sum(a * x for a, x in zip(n, base))))
    return out


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _ref_box_disjoint(s1, s2):
    for c1, c2 in zip(zip(*s1.vertices), zip(*s2.vertices)):
        if max(c1) <= min(c2) or max(c2) <= min(c1):
            return True
    return False


def _ref_plane_separates(s1, s2):
    return any(all(_dot(n, v) <= b for v in s2.vertices) for n, b in _ref_facets(s1))


def _ref_vertex_outside(parent, piece):
    for v in piece.vertices:
        if any(_dot(n, v) < b for n, b in _ref_facets(parent)):
            return v
    return None


def _ref_similarity_ratio2(s1, s2):
    """r^2 with s2 congruent to r * s1, by Fraction lengths, or None."""
    sq1, sq2 = s1.squared_lengths(), s2.squared_lengths()
    ratio2 = min(sq2.values()) / min(sq1.values())
    for perm in permutations(range(s1.dim + 1)):
        if all(
            sq1[(i, j)] * ratio2 == sq2[tuple(sorted((perm[i], perm[j])))]
            for i, j in combinations(range(s1.dim + 1), 2)
        ):
            return ratio2
    return None


class TestIntegerScreens:
    @settings(max_examples=300, deadline=None)
    @given(simplex_pairs())
    def test_screens_match_the_fraction_reference(self, pair):
        s1, s2 = pair
        assert _bbox_disjoint(s1, s2) == _ref_box_disjoint(s1, s2)
        for a, b in ((s1, s2), (s2, s1)):
            assert _plane_separates(a, b) == _ref_plane_separates(a, b)
            assert _vertex_outside(a, b) == _ref_vertex_outside(a, b)
        ratio2 = _ref_similarity_ratio2(s1, s2)
        r = similar(s1, s2)
        assert (r is None) == (ratio2 is None)
        if r is not None:
            assert as_algebraic(r * r).compare(as_algebraic(ratio2)) == 0
        assert congruent(s1, s2) == (ratio2 == 1)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from((2, 3, 4)).flatmap(rational_simplices))
    def test_integer_form(self, s):
        den, verts = s.lattice
        assert den == math.lcm(*(x.denominator for v in s.vertices for x in v))
        assert [[Fraction(x, den) for x in v] for v in verts] == [list(v) for v in s.vertices]
        assert s.signed_det == det(_edges(s.vertices))
        assert s.signed_det * den**s.dim == det(_edges(verts))
        assert {k: Fraction(v, den * den) for k, v in s.lattice_lengths.items()} == s.squared_lengths()
        assert s.lattice_bounds == tuple((min(c), max(c)) for c in zip(*verts))

    def test_touching_pair_with_unequal_denominators(self):
        a = Simplex.exact([(0, 0), (1, 0), (0, 1)])
        b = Simplex.exact([(1, 0), (0, 1), (Fraction(4, 7), Fraction(5, 3))])  # across the hypotenuse
        assert a.lattice[0] == 1 and b.lattice[0] == 21
        assert not _bbox_disjoint(a, b)
        assert _plane_separates(a, b) and _plane_separates(b, a)
        assert interiors_disjoint(a, b) == (True, None)
        assert _vertex_outside(a, b) == (Fraction(4, 7), Fraction(5, 3))

    def test_d4_m4_verification_makes_no_fraction_determinant(self, monkeypatch):
        import reptile_forge.algebra.linalg as linalg_mod

        doc = subdivide(HillSpec.from_pair_cos(4, Fraction(0)), 4).to_json()
        calls = []
        real = linalg_mod.det

        def counting(rows):
            calls.append(1)
            return real(rows)

        monkeypatch.setattr(linalg_mod, "det", counting)
        rep = verify_reptile(Subdivision.from_json(doc))
        assert rep.all_ok
        assert rep.chirality == {"orientation_preserving": 136, "mirrored": 120}
        assert calls == []

    @pytest.mark.parametrize("dim,m,congruent_calls", [(4, 4, 24), (3, 4, 6)])
    def test_one_similarity_and_one_congruence_per_translation_class(self, dim, m, congruent_calls, monkeypatch):
        # the staircase cells are translates of the d! Kuhn simplices
        sub = subdivide(HillSpec.from_pair_cos(dim, Fraction(0)), m)
        calls = {"similar": 0, "congruent": 0}

        def counted(name, real):
            def wrapped(*args):
                calls[name] += 1
                return real(*args)

            return wrapped

        monkeypatch.setattr(hill_mod, "similar", counted("similar", similar))
        monkeypatch.setattr(hill_mod, "congruent", counted("congruent", congruent))
        assert verify_reptile(sub).all_ok
        assert calls == {"similar": 1, "congruent": congruent_calls}


# -- Hill simplices in the frame of their common cosine -----------------------

# specs with no rational Cartesian basis: their vertices are taken in the
# frame of d unit vectors with the common cosine
FRAMED = [(2, "1/2", 2), (2, "1/2", 3), (3, "1/4", 2), (3, "1/4", 3), (3, "-1/5", 2), (3, "-1/5", 3),
          (4, "1/3", 2), (4, "1/3", 3), (4, "1/3", 4), (3, "sqrt(2)/4", 2), (3, "sqrt(2)/4", 3)]


class TestFramedHill:
    @pytest.mark.parametrize("dim,cos,m", FRAMED)
    def test_exact_reptile_with_json_round_trip(self, dim, cos, m):
        spec = HillSpec.from_pair_cos(dim, parse_real(cos))
        assert spec.frame and pair_cos(spec) == spec.frame
        sub = subdivide(spec, m)
        doc = sub.to_json()
        again = Subdivision.from_json(doc)
        assert again.to_json() == doc
        assert all(p.frame is again.parent.frame for p in again.pieces)
        rep = verify_reptile(again)
        assert rep.all_ok and rep.mode == "exact", rep.witnesses
        assert rep.measured_ratio == Fraction(1, m) and rep.piece_count == m**dim

    def test_verifier_reads_the_frame(self):
        # pieces 1 and 2 fill a rhombus of the c = 1/2 frame; cutting it on
        # its other diagonal gives two equilateral triangles, which the same
        # y-coordinates in the Cartesian frame do not
        sub = subdivide(HillSpec.from_pair_cos(2, Fraction(1, 2)), 2)
        half = Fraction(1, 2)
        assert set(sub.pieces[1].vertices) | set(sub.pieces[2].vertices) == {
            (half, 0), (1, 0), (1, half), (half, half)}
        flipped = [((half, 0), (1, 0), (half, half)), ((1, 0), (1, half), (half, half))]

        def report(frame):
            pieces = [Simplex.exact(p.vertices, frame) for p in sub.pieces]
            pieces[1:3] = [Simplex.exact(v, frame) for v in flipped]
            return verify_reptile(Subdivision(Simplex.exact(sub.parent.vertices, frame), tuple(pieces), 2))

        framed = report(Fraction(1, 2)).to_json()["checks"]
        assert sorted(k for k, ok in framed.items() if not ok) == ["congruence", "similarity"]
        assert report(Fraction(0)).all_ok

    def test_squared_lengths_and_volume_are_euclidean(self):
        s = hill_simplex(HillSpec.from_pair_cos(3, Fraction(1, 3)))
        f = s.as_float()
        for (i, j), length in s.squared_lengths().items():
            d = [a - b for a, b in zip(f[i], f[j])]
            assert float(length) == pytest.approx(sum(x * x for x in d), abs=1e-12)
        # sqrt(det G) = sqrt(20/27) for G = (2/3) I + (1/3) J
        assert float(volume(s)) == pytest.approx(abs(det([f[k] for k in (1, 2, 3)])) / 6, abs=1e-12)
        assert volume(s) * volume(s) == Fraction(20, 27) / 36

    def test_dihedral_data_refuses_a_framed_simplex(self):
        s = hill_simplex(HillSpec.from_pair_cos(3, Fraction(1, 4)))
        with pytest.raises(ValueError, match="framed"):
            dihedral_data(s)
        assert dihedral_data(Simplex.exact(s.as_float())).dim == 3

    def test_grow_reports_exact_euclidean_volumes(self):
        _, rep = grow_space_tiling(HillSpec.from_pair_cos(3, Fraction(1, 3)), 2, m=2)
        doc = rep.to_json()
        assert doc["volume_emitted"] == doc["volume_expected"]
        assert set(doc["volume_emitted"]) == {"minpoly", "interval"}
        assert float(parse_real(doc["volume_emitted"])) == pytest.approx(9.18040496878795, abs=1e-9)

    def test_adjacency_is_the_all_pairs_margin_count(self):
        # every sampled pair classed by its margin tau alone, no screen
        cells, rep = grow_space_tiling(HillSpec.from_pair_cos(3, Fraction(0)), 2, m=2)
        rng = random.Random(0)
        want = {"separated": 0, "touching": 0}
        for _ in range(100):
            i, j = rng.sample(range(len(cells)), 2)
            tau, _ = _max_margin_point(cells[i].facets + cells[j].facets, 3)
            assert tau <= 0
            want["touching" if tau == 0 else "separated"] += 1
        assert rep.adjacency == want == {"separated": 56, "touching": 44}
        assert rep.sampled_pairs == 100 and rep.sampled_disjoint_ok
        # touching (tau = 0) is affine-invariant, so every frame counts alike
        for cos in (Fraction(1, 3), parse_real("sqrt(2)/4")):
            _, framed = grow_space_tiling(HillSpec.from_pair_cos(3, cos), 2, m=2)
            assert framed.adjacency == want


# -- disjointness by facet matching, with every pair checked as fallback -----

# the benchmark's cycle of Cartesian specs, and specs in a frame
CYCLE = [(d, c, m) for d, cs in ((2, ("0", "3/5", "-5/13")), (3, ("0", "2/5", "-2/5")), (4, ("0",)))
         for c in cs for m in (2, 3, 4)]
FRAMED_SPECS = [(3, "1/4", m) for m in (2, 3)] + [(4, "1/3", m) for m in (2, 3)] + [
    (3, "sqrt(2)/4", m) for m in (2, 3)]


CORRUPTED_SPECS = [(2, "3/5", 3), (2, "-5/13", 3), (3, "0", 3), (3, "2/5", 2), (3, "1/4", 2), (4, "0", 2)]


def _subdivision(dim, cos, m):
    return subdivide(HillSpec.from_pair_cos(dim, parse_real(cos)), m)


def _corrupted(sub, how, rng):
    """The pieces of sub with one piece damaged: moved onto a facet
    neighbour, translated, scaled about the origin, or one vertex moved."""
    pieces, dim, m = list(sub.pieces), sub.parent.dim, sub.m
    i = rng.randrange(len(pieces))
    if how == "neighbour":
        shared = [j for j in range(len(pieces))
                  if j != i and len(set(pieces[i].vertices) & set(pieces[j].vertices)) == dim]
        pieces[i] = pieces[rng.choice(shared)]
    elif how == "translate":
        pieces[i] = pieces[i].translated([Fraction(rng.randint(-3, 3), 7 * m) for _ in range(dim)])
    elif how == "scale":
        pieces[i] = pieces[i].scaled(Fraction(rng.choice((2, 3, 5)), rng.choice((2, 3, 4))))
    else:
        verts = [list(v) for v in pieces[i].vertices]
        verts[rng.randrange(dim + 1)][0] += Fraction(1, 9)
        pieces[i] = Simplex.exact(verts, sub.parent.frame)
    return Subdivision(sub.parent, tuple(pieces), m)


def _reference_shape_checks(sub):
    """Similarity and congruence decided piece by piece, as the verifier did
    before it matched once per translation class: (similarity_ok,
    congruence_ok, measured_ratio, witnesses)."""
    parent, pieces, m = sub.parent, sub.pieces, sub.m
    witnesses: dict = {}
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
    return similarity_ok, congruence_ok, measured, witnesses


def _reference_report(sub) -> dict:
    """The report with its similarity and congruence checks taken from
    ``_reference_shape_checks``."""
    rep = verify_reptile(sub)
    similarity_ok, congruence_ok, measured, shape = _reference_shape_checks(sub)
    others = {k: v for k, v in rep.witnesses.items() if k not in ("similarity", "congruence")}
    return replace(rep, similarity_ok=similarity_ok, congruence_ok=congruence_ok,
                   measured_ratio=measured, witnesses={**shape, **others}).to_json()


def _mirrored(p: Simplex) -> Simplex:
    # swapping two coordinates is a reflection in every frame of one pairwise cosine
    return Simplex.exact([(v[1], v[0], *v[2:]) for v in p.vertices], p.frame)


def _sheared(p: Simplex, t: Fraction) -> Simplex:
    # vertex 0 moved by t (v2 - v1), parallel to its opposite facet: the volume stays
    v = p.vertices
    moved = tuple(a + t * (c - b) for a, b, c in zip(v[0], v[1], v[2]))
    return Simplex.exact([moved, *v[1:]], p.frame)


def _translated(p: Simplex, rng) -> Simplex:
    return p.translated([Fraction(rng.randint(-3, 3), rng.choice((1, 2, 7))) for _ in range(p.dim)])


def _rotated(p: Simplex) -> Simplex:
    # a rotation through 45 degrees scaled by 1/sqrt(2), in the Cartesian plane
    return Simplex.exact([((x - y) / 2, (x + y) / 2) for x, y in p.vertices], p.frame)


# Cartesian specs of d = 2, 3, 4 and framed ones (c = 1/3, sqrt(2)/4)
SHAPE_SPECS = [(2, "0", 3), (2, "3/5", 3), (3, "0", 3), (3, "-2/5", 2), (4, "0", 2),
               (4, "1/3", 2), (3, "sqrt(2)/4", 2), (3, "sqrt(2)/4", 3)]


class TestShapeChecksPerTranslationClass:
    """The verifier's similarity and congruence checks, decided once for
    piece 0 and once per translation class, give the per-piece report."""

    @staticmethod
    def _damaged(sub, rng):
        """Seeded corruptions of sub by name, each a subdivision with one
        or two pieces replaced."""
        pieces, n = list(sub.pieces), len(sub.pieces)
        late = rng.randrange(n - n // 4, n)
        early = rng.randrange(1, n // 2)
        t = Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2, 3)))
        docs = {
            "mirror": {early: _mirrored(pieces[early])},
            "shear-late": {late: _sheared(pieces[late], t)},
            "mirror-then-shear": {early: _mirrored(pieces[early]), late: _sheared(pieces[late], t)},
            "translate": {early: _translated(pieces[early], rng)},
            "translate-then-shear": {early: _translated(pieces[early], rng), late: _sheared(pieces[late], t)},
            "piece-0-sheared": {0: _sheared(pieces[0], t)},
            "piece-0-scaled": {0: pieces[0].scaled(Fraction(2, 3))},
            "piece-0-mirrored": {0: _mirrored(pieces[0])},
            "piece-0-translated": {0: _translated(pieces[0], rng)},
            "piece-0-scaled-and-late-sheared": {0: pieces[0].scaled(Fraction(2, 3)), late: _sheared(pieces[late], t)},
            "late-scaled": {late: pieces[late].scaled(Fraction(3, 2))},
        }
        out = {}
        for name, changes in docs.items():
            damaged = list(pieces)
            for i, q in changes.items():
                damaged[i] = q
            out[name] = Subdivision(sub.parent, tuple(damaged), sub.m)
        return out

    @pytest.mark.parametrize("dim,cos,m", SHAPE_SPECS)
    def test_reports_equal_the_per_piece_loops(self, dim, cos, m):
        sub = _subdivision(dim, cos, m)
        assert verify_reptile(sub).to_json() == _reference_report(sub)
        rng = random.Random(dim * 1000 + m * 10 + len(cos))
        for name, doc in self._damaged(sub, rng).items():
            got = verify_reptile(doc).to_json()
            assert got == _reference_report(doc), name
            assert not got["all_ok"] or name in ("mirror", "translate"), name

    def test_irrational_ratio_witness(self):
        # a late piece similar to the parent with ratio 1/(3 sqrt 2)
        sub = _subdivision(2, "0", 3)
        pieces = list(sub.pieces)
        pieces[7] = _rotated(pieces[7])
        doc = Subdivision(sub.parent, tuple(pieces), 3)
        got = verify_reptile(doc).to_json()
        assert got == _reference_report(doc)
        assert got["witnesses"]["similarity"]["piece"] == 7
        assert "minpoly" in got["witnesses"]["similarity"]["ratio"]


class TestContainment:
    def test_each_distinct_vertex_is_tested_once(self):
        sub = _subdivision(4, "0", 4)
        tested: dict = {}
        assert all(_vertex_outside(sub.parent, p, tested) is None for p in sub.pieces)
        assert len(tested) == len({v for p in sub.pieces for v in p.vertices}) == 70

    @pytest.mark.parametrize("dim,cos,m", [(2, "3/5", 3), (3, "2/5", 2), (3, "1/4", 2), (4, "0", 2)])
    def test_shared_memo_finds_the_first_outside_vertex(self, dim, cos, m):
        sub = _subdivision(dim, cos, m)
        rng = random.Random(dim * 10 + m)
        for how in ("translate", "scale", "vertex") * 3:
            doc = _corrupted(sub, how, rng)
            tested: dict = {}
            got = next(((i, v) for i, p in enumerate(doc.pieces)
                        if (v := _vertex_outside(doc.parent, p, tested)) is not None), None)
            want = next(((i, v) for i, p in enumerate(doc.pieces)
                         if (v := _ref_vertex_outside(doc.parent, p)) is not None), None)
            assert got == want


class TestFacetMatching:
    @pytest.mark.parametrize("dim,cos,m", CYCLE + FRAMED_SPECS)
    def test_certificate_holds_and_reports_match_the_sweep(self, dim, cos, m, monkeypatch):
        sub = _subdivision(dim, cos, m)
        assert _facets_match(sub.parent, sub.pieces)
        certified = verify_reptile(sub).to_json()
        monkeypatch.setattr(hill_mod, "_facets_match", lambda parent, pieces: False)
        assert verify_reptile(sub).to_json() == certified
        assert certified["all_ok"]

    @pytest.mark.parametrize("dim,cos,m", CORRUPTED_SPECS)
    def test_corrupted_reports_match_the_sweep(self, dim, cos, m, monkeypatch):
        sub = _subdivision(dim, cos, m)
        rng = random.Random(dim * 100 + m)
        docs = [_corrupted(sub, how, rng) for how in ("neighbour", "translate", "scale", "vertex") for _ in range(2)]
        certified = [verify_reptile(doc).to_json() for doc in docs]
        monkeypatch.setattr(hill_mod, "_facets_match", lambda parent, pieces: False)
        assert [verify_reptile(doc).to_json() for doc in docs] == certified
        assert not any(rep["all_ok"] for rep in certified)
        assert not certified[0]["checks"]["interior_disjointness"]  # a neighbour copy overlaps

    @pytest.mark.parametrize("dim,cos,m", CORRUPTED_SPECS + [(3, "sqrt(2)/4", 2)])
    def test_corrupted_reports_read_back(self, dim, cos, m):
        # each printed witness and ratio parses to the report's exact value
        sub = _subdivision(dim, cos, m)
        rng = random.Random(dim * 100 + m)
        for how in ("neighbour", "translate", "scale", "vertex") * 2:
            rep = verify_reptile(_corrupted(sub, how, rng))
            text = json.dumps(rep.to_json())
            assert not any(mark in text for mark in REPR_MARKS), text
            printed = json.loads(text)
            assert_reads_back(printed["witnesses"], rep.witnesses)
            assert_reads_back(printed["measured_ratio"], rep.measured_ratio)

    def test_duplicated_piece_rejected(self):
        sub = _subdivision(2, "0", 2)
        pieces = list(sub.pieces)
        pieces[1] = pieces[0]
        assert not _facets_match(sub.parent, pieces)

    def test_facet_of_three_pieces_rejected(self):
        # two triangles on opposite sides of the edge (0,0)-(1,0), then a third on it
        parent = Simplex.exact([(-4, -4), (8, -4), (-4, 8)])
        tri = [Simplex.exact([(0, 0), (1, 0), apex]) for apex in ((0, 1), (0, -1), (1, 1))]
        assert not _facets_match(parent, tri)

    def test_two_pieces_on_one_side_rejected(self):
        parent = Simplex.exact([(-4, -4), (8, -4), (-4, 8)])
        tri = [Simplex.exact([(0, 0), (1, 0), apex]) for apex in ((0, 1), (1, 1))]
        assert not _facets_match(parent, tri)

    def test_folded_double_cover_caught_by_the_sweep(self):
        # the square (0,0)-(2,2) of the triangle (0,0), (4,0), (0,4), cut on
        # each diagonal: two layers whose every edge is met exactly twice,
        # with volume, containment, similarity and congruence all holding;
        # only the sides tell that the edges x = 2 and y = 2 are folds
        parent = Simplex.exact([(0, 0), (4, 0), (0, 4)])
        pieces = tuple(Simplex.exact(v) for v in (
            [(0, 0), (2, 0), (0, 2)], [(2, 0), (2, 2), (0, 2)],
            [(0, 0), (2, 0), (2, 2)], [(0, 0), (2, 2), (0, 2)]))
        assert not _facets_match(parent, pieces)
        rep = verify_reptile(Subdivision(parent, pieces, 2)).to_json()
        assert [k for k, ok in rep["checks"].items() if not ok] == ["interior_disjointness", "union"]
        assert rep["witnesses"]["interior_disjointness"]["pieces"] == [0, 2]

    def test_t_junction_falls_back_to_the_sweep(self):
        # a valid tiling of the triangle (0,0), (4,0), (0,4) whose edge
        # (0,0)-(2,2) meets two edges of the other side: not face to face
        parent = Simplex.exact([(0, 0), (4, 0), (0, 4)])
        pieces = tuple(Simplex.exact(v) for v in (
            [(0, 0), (2, 0), (2, 2)], [(2, 0), (4, 0), (2, 2)],
            [(0, 0), (1, 1), (0, 4)], [(1, 1), (2, 2), (0, 4)]))
        assert not _facets_match(parent, pieces)
        rep = verify_reptile(Subdivision(parent, pieces, 2)).to_json()
        assert rep["checks"]["interior_disjointness"] is True
        assert rep["checks"]["volume"] and rep["checks"]["containment"]
        assert "interior_disjointness" not in rep["witnesses"]

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([(2, "0", 2), (2, "3/5", 3), (3, "0", 2), (3, "2/5", 2)]),
        st.integers(0, 26),
        st.integers(0, 3),
        st.lists(st.integers(-2, 2), min_size=3, max_size=3),
    )
    def test_moved_vertex_certified_only_when_disjoint(self, spec, i, j, shift):
        sub = _subdivision(*spec)
        dim, m = sub.parent.dim, sub.m
        piece = sub.pieces[i % len(sub.pieces)]
        verts = [list(v) for v in piece.vertices]
        step = Fraction(1, 2 * m)
        verts[j % (dim + 1)] = [x + k * step for x, k in zip(verts[j % (dim + 1)], shift)]
        try:
            moved = Simplex.exact(verts)
        except ValueError:
            return  # a degenerate piece
        pieces = [moved if p is piece else p for p in sub.pieces]
        if _facets_match(sub.parent, pieces):
            assert _all_pairs_disjointness(pieces) == (True, None)
        if not any(shift[:dim]):
            assert _facets_match(sub.parent, pieces)


def _ref_max_margin_point(constraints, dim):
    """The margin program by sympy's rational Gauss-Jordan on every basic
    system."""
    sympy = pytest.importorskip("sympy")
    nvar = dim + 1
    rows = [list(n) + [-1, b] for n, b in constraints]
    best = None
    for subset in combinations(range(len(rows)), nvar):
        a, pivots = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in rows[i]] for i in subset]).rref()
        if pivots != tuple(range(nvar)):
            continue
        sol = [Fraction(int(a[i, nvar].p), int(a[i, nvar].q)) for i in range(nvar)]
        if any(sum(c * v for c, v in zip(r[:nvar], sol)) < r[nvar] for r in rows):
            continue
        if best is None or sol[dim] > best[0]:
            best = (sol[dim], tuple(sol[:dim]))
    return best


class TestMarginProgram:
    def test_grow_pairs_match_the_fraction_routine(self):
        cells, _ = grow_space_tiling(HillSpec.from_pair_cos(3, Fraction(0)), 1, m=2)
        assert len(cells) == 8
        for a, b in combinations(cells, 2):
            got = _max_margin_point(a.facets + b.facets, 3)
            assert got == _ref_max_margin_point(a.facets + b.facets, 3)
            assert all(type(x) is Fraction for x in (got[0], *got[1]))

    @pytest.mark.parametrize("dim,cos,m", [(2, "3/5", 3), (3, "0", 3), (3, "2/5", 2)])
    def test_overlap_corruptions_match_the_fraction_routine(self, dim, cos, m):
        sub = _subdivision(dim, cos, m)
        rng = random.Random(m)
        pieces = _corrupted(sub, "neighbour", rng).pieces
        screened = 0
        for a, b in combinations(pieces, 2):
            if _bbox_disjoint(a, b) or _plane_separates(a, b) or _plane_separates(b, a):
                continue
            screened += 1
            assert _max_margin_point(a.facets + b.facets, dim) == _ref_max_margin_point(a.facets + b.facets, dim)
        assert screened >= 1  # the copy and its original reach the program

    @settings(max_examples=60, deadline=None)
    @given(simplex_pairs())
    def test_random_pairs_match_the_fraction_routine(self, pair):
        s1, s2 = pair
        constraints = s1.facets + s2.facets
        assert _max_margin_point(constraints, s1.dim) == _ref_max_margin_point(constraints, s1.dim)
