"""Hill simplices, subdivisions, the exact reptile verifier, growth."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reptile_forge.algebra.linalg import det
from reptile_forge.hill import (
    GrowthReport,
    HillSpec,
    Subdivision,
    _bbox_disjoint,
    _sweep_candidates,
    grow_space_tiling,
    hill_simplex,
    interiors_disjoint,
    subdivide,
    verify_reptile,
)
from reptile_forge.simplex import Simplex, congruent, dihedral_data, orthoscheme, similar, volume


def random_rational_hill_spec(rng: random.Random) -> HillSpec:
    """Cyclic integer triples give rational Hill bases with a shared angle."""
    while True:
        a, b, c = (rng.randint(0, 5) for _ in range(3))
        basis = [(a, b, c), (c, a, b), (b, c, a)]
        try:
            return HillSpec.from_basis(basis)
        except ValueError:
            continue


class TestHillSpec:
    def test_orthonormal(self):
        spec = HillSpec.from_pair_cos(3, Fraction(0))
        assert spec.mode == "exact" and spec.pair_cos == 0

    def test_rational_circulant_for_half(self):
        spec = HillSpec.from_pair_cos(3, Fraction(1, 2))
        assert spec.mode == "exact" and spec.pair_cos == Fraction(1, 2)

    def test_float_fallback(self):
        spec = HillSpec.from_pair_cos(3, Fraction(1, 3))
        assert spec.mode == "float"
        assert spec.pair_cos == pytest.approx(1 / 3)

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
        assert rep.all_ok and rep.mode == "float"

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


# half-integer coordinates make touching extents (hi == lo) common
_coords = st.builds(Fraction, st.integers(-4, 4), st.just(2))


@st.composite
def exact_simplices(draw, dim):
    verts = draw(
        st.lists(st.tuples(*[_coords] * dim), min_size=dim + 1, max_size=dim + 1).filter(
            lambda vs: det([[x - y for x, y in zip(v, vs[0])] for v in vs[1:]]) != 0
        )
    )
    return Simplex.exact(verts)


@st.composite
def piece_lists(draw):
    dim = draw(st.sampled_from((2, 3, 4)))
    return draw(st.lists(exact_simplices(dim), min_size=0, max_size=12))


def _all_pairs_disjointness(pieces):
    """The verifier's disjointness check as a plain loop over every pair."""
    for i, j in combinations(range(len(pieces)), 2):
        ok, point = interiors_disjoint(pieces[i], pieces[j])
        if not ok:
            return False, {"pieces": (i, j), "point": point}
    return True, None


class TestSweep:
    @settings(max_examples=150, deadline=None)
    @given(piece_lists())
    def test_candidates_cover_every_box_overlap(self, pieces):
        pairs = list(_sweep_candidates(pieces))
        assert pairs == sorted(set(pairs))
        assert all(i < j for i, j in pairs)
        kept = set(pairs)
        for i, j in combinations(range(len(pieces)), 2):
            if (i, j) not in kept:
                assert _bbox_disjoint(pieces[i], pieces[j])

    def test_touching_extents_are_pruned(self):
        a = orthoscheme(2)
        b = a.translated((1, 0))
        assert list(_sweep_candidates([a, b])) == []
        assert list(_sweep_candidates([b, a.translated((Fraction(1, 2), 0))])) == [(0, 1)]

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
