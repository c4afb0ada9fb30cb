"""Geometry core: dihedral data, volumes, congruence, similarity."""

import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reptile_forge.algebra import AlgebraicReal
from reptile_forge.algebra.linalg import det
from reptile_forge.hill import HillSpec, subdivide
from reptile_forge.jsonio import load_simplex, parse_real, read_number
from reptile_forge.simplex import (
    Simplex,
    _exact_sqrt,
    as_frame,
    congruent,
    dihedral_data,
    orthoscheme,
    regular_tetrahedron,
    right_isosceles_triangle,
    similar,
    volume,
)

from helpers import random_rational_tetrahedron


def float_dihedral_oracle(vertices):
    """Independent oracle: unit inward normals via numpy cross products."""
    v = [np.array([float(x) for x in p]) for p in vertices]
    out = {}
    for i, j in combinations(range(4), 2):
        def normal(k):
            others = [a for a in range(4) if a != k]
            n = np.cross(v[others[1]] - v[others[0]], v[others[2]] - v[others[0]])
            if np.dot(n, v[k] - v[others[0]]) < 0:
                n = -n
            return n / np.linalg.norm(n)
        out[(i, j)] = -float(np.dot(normal(i), normal(j)))
    return out




class TestConstruction:
    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            Simplex.exact([(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)])

    def test_arity_checked(self):
        with pytest.raises(ValueError):
            Simplex.exact([(0, 0), (1, 0), (0, 1), (1, 1)])

    def test_json_round_trip(self):
        s = regular_tetrahedron()
        t = load_simplex(s.to_json())
        assert t.vertices == s.vertices and s.to_json()["mode"] == "exact"
        # a float document is read exactly, each float by its repr
        f = {"dim": 3, "mode": "float", "vertices": [list(v) for v in s.as_float()]}
        assert load_simplex(f) == s

    def test_small_float_simplex_accepted(self):
        s = Simplex.exact([(0, 0), (1e-5, 0), (0, 1e-5)])
        assert float(volume(s)) == pytest.approx(5e-11)

    def test_far_translated_float_simplex_accepted(self):
        s = Simplex.exact([(1e6, 1e6), (1e6 + 1, 1e6), (1e6, 1e6 + 1)])
        assert volume(s) == Fraction(1, 2)

    @pytest.mark.parametrize("scale", [1e-5, 1.0, 1e6])
    def test_collinear_float_points_refused(self, scale):
        # float coordinates are read exactly: only exact degeneracy is refused
        with pytest.raises(ValueError, match="degenerate"):
            Simplex.exact([(0, 0), (scale, scale), (3 * scale, 3 * scale)])
        with pytest.raises(ValueError, match="degenerate"):
            Simplex.exact([(0, 0, 0), (scale, 0, 0), (0, scale, 0), (scale, scale, 0)])

    def test_symmetric_pyramid_has_at_most_two_lengths(self):
        # equilateral base, apex on the axis: base angle edges + tripod edges
        s = Simplex.exact(
            [
                (1.0, 0.0, 0.0),
                (-0.5, math.sqrt(3) / 2, 0.0),
                (-0.5, -math.sqrt(3) / 2, 0.0),
                (0.0, 0.0, 1.25),
            ]
        )
        lengths = sorted(set(round(float(v), 9) for v in s.squared_lengths().values()))
        assert len(lengths) <= 2


class TestDihedralData:
    def test_regular_tetrahedron_all_one_third(self):
        dd = dihedral_data(regular_tetrahedron())
        assert all(c == Fraction(1, 3) for c in dd.facet_cos.values())

    def test_orthoscheme_multiset(self):
        dd = dihedral_data(orthoscheme(3))
        approx = sorted(round(float(c), 9) for c in dd.facet_cos.values())
        expected = sorted(
            [0.0, 0.0, 0.0, 0.5, round(math.sqrt(2) / 2, 9), round(math.sqrt(2) / 2, 9)]
        )
        assert approx == expected

    def test_right_isosceles_triangle(self):
        dd = dihedral_data(right_isosceles_triangle())
        vals = sorted(float(c) for c in dd.facet_cos.values())
        assert vals[0] == pytest.approx(0.0)  # the right angle
        assert vals[1] == vals[2] == pytest.approx(math.sqrt(2) / 2)  # two 45s

    def test_matches_float_oracle_on_random_tetrahedra(self):
        rng = random.Random(7)
        for _ in range(10):
            s = random_rational_tetrahedron(rng)
            dd = dihedral_data(s)
            oracle = float_dihedral_oracle(s.vertices)
            for key, cos in dd.facet_cos.items():
                assert float(cos) == pytest.approx(oracle[key], abs=1e-9)

    def test_cosines_strictly_inside_unit_interval(self):
        rng = random.Random(11)
        for _ in range(5):
            dd = dihedral_data(random_rational_tetrahedron(rng))
            for c in dd.facet_cos.values():
                assert -1 < float(c) < 1


def nullspace_facets(s: Simplex):
    """The reference facets: sympy's nullspace vector of each facet's
    edges, its free coordinate 1, turned toward the opposite vertex, and
    the offset through a facet vertex."""
    sympy = pytest.importorskip("sympy")
    out = []
    for i in range(s.dim + 1):
        base, *rest = [v for j, v in enumerate(s.vertices) if j != i]
        edges = sympy.Matrix([[sympy.Rational(x - y) for x, y in zip(v, base)] for v in rest])
        (kernel,) = edges.nullspace()
        n = [Fraction(int(x.p), int(x.q)) for x in kernel]
        if sum(a * (x - y) for a, x, y in zip(n, s.vertices[i], base)) < 0:
            n = [-a for a in n]
        out.append((tuple(n), sum(a * x for a, x in zip(n, base))))
    return tuple(out)


def nullspace_cosines(s: Simplex) -> dict:
    """The reference dihedral cosines, -<n_i, n_j> / (|n_i| |n_j|), from
    the reference normals, as exact-number JSON."""
    normals = [n for n, _ in nullspace_facets(s)]

    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    out = {}
    for i, j in combinations(range(s.dim + 1), 2):
        num = -dot(normals[i], normals[j])
        root = AlgebraicReal.sqrt_rational(num * num / (dot(normals[i], normals[i]) * dot(normals[j], normals[j])))
        out[(i, j)] = (root if num >= 0 else -root).to_json()
    return out


_rational = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3, 5, 7)))


@st.composite
def exact_simplices(draw):
    dim = draw(st.sampled_from((2, 3, 4)))
    verts = draw(
        st.lists(st.tuples(*[_rational] * dim), min_size=dim + 1, max_size=dim + 1).filter(
            lambda vs: det([[x - y for x, y in zip(v, vs[0])] for v in vs[1:]]) != 0
        )
    )
    return Simplex.exact(verts)


# framed Hill pieces: facets are affine, so they stay in coordinates
FRAMED_PIECES = [
    *subdivide(HillSpec.from_pair_cos(4, Fraction(1, 3)), 2).pieces,
    *subdivide(HillSpec.from_pair_cos(3, parse_real("sqrt(2)/4")), 3).pieces,
]


class TestIntegerFacets:
    """Facets and dihedral cosines from the integer form agree with the
    Fraction nullspace route."""

    @settings(max_examples=200, deadline=None)
    @given(exact_simplices())
    def test_facets_and_cosines_match_the_nullspace_route(self, s):
        assert s.facets == nullspace_facets(s)
        assert [s.facet_normal(i) for i in range(s.dim + 1)] == [list(n) for n, _ in s.facets]
        got = {k: c.to_json() for k, c in dihedral_data(s).facet_cos.items()}
        assert got == nullspace_cosines(s)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(FRAMED_PIECES))
    def test_framed_piece_facets_match_the_nullspace_route(self, s):
        assert s.frame
        assert s.facets == nullspace_facets(s)


class TestVolume:
    def test_unit_orthoscheme(self):
        assert volume(orthoscheme(3)) == Fraction(1, 6)

    def test_regular_tetrahedron(self):
        assert volume(regular_tetrahedron()) == Fraction(8, 3)

    def test_degenerate_is_rejected_at_construction(self):
        with pytest.raises(ValueError):
            Simplex.exact([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 23), st.integers(0, 2**10))
    def test_invariant_under_signed_permutation(self, perm_idx, signs):
        from itertools import permutations

        rng = random.Random(signs)
        s = random_rational_tetrahedron(rng)
        perm = list(permutations(range(3)))[perm_idx % 6]
        sgn = [1 if signs >> i & 1 else -1 for i in range(3)]
        mapped = Simplex.exact(
            [[sgn[k] * v[perm[k]] for k in range(3)] for v in s.vertices]
        )
        assert volume(mapped) == volume(s)

    def test_invariant_under_vertex_permutation(self):
        s = random_rational_tetrahedron(random.Random(3))
        from itertools import permutations

        for p in permutations(range(4)):
            assert volume(Simplex(3, tuple(s.vertices[i] for i in p))) == volume(s)

    def test_determinant_computed_once(self, monkeypatch):
        import reptile_forge.simplex as simplex_mod
        from reptile_forge.simplex import _orientation_sign

        vertices = random_rational_tetrahedron(random.Random(5)).vertices
        calls = []
        real = simplex_mod.det_int
        monkeypatch.setattr(simplex_mod, "det_int", lambda rows: calls.append(1) or real(rows))
        s = Simplex.exact(vertices)
        assert volume(s) == volume(s) == abs(s.signed_det) / 6
        assert _orientation_sign(s, (0, 1, 2, 3)) == (1 if s.signed_det > 0 else -1)
        # one integer determinant of the scaled edge matrix; the module has
        # no Fraction determinant to call
        assert len(calls) == 1 and not hasattr(simplex_mod, "det")
        assert s.signed_det == det([[x - y for x, y in zip(v, vertices[0])] for v in vertices[1:]])

    def test_orientation_sign_matches_reordered_determinant(self):
        from itertools import permutations

        from reptile_forge.simplex import _orientation_sign

        s = random_rational_tetrahedron(random.Random(8))
        for p in permutations(range(4)):
            d = Simplex(3, tuple(s.vertices[i] for i in p)).signed_det
            assert _orientation_sign(s, p) == (1 if d > 0 else -1)


class TestCongruence:
    def test_mirror_image(self):
        s = regular_tetrahedron()
        mirror = Simplex.exact([tuple((-v[0], v[1], v[2])) for v in s.vertices])
        assert congruent(s, mirror)

    def test_scaled_not_congruent(self):
        s = regular_tetrahedron()
        assert not congruent(s, s.scaled(2))

    def test_translation_rotation(self):
        s = orthoscheme(3)
        moved = s.translated((Fraction(5), Fraction(-7, 2), Fraction(1, 3)))
        assert congruent(s, moved)

    def test_orientation_flag(self):
        s = random_rational_tetrahedron(random.Random(5))
        mirror = Simplex.exact([tuple((-v[0], v[1], v[2])) for v in s.vertices])
        assert congruent(s, mirror, allow_reflection=True)
        # a generic tetrahedron is chiral: reflection-only matches must fail
        if not congruent(s, mirror, allow_reflection=False):
            assert congruent(s, s.translated((1, 2, 3)), allow_reflection=False)

    def test_unit_cube_ordering_cells_congruent(self):
        # two staircase cells of the unit cube: start at 0, walk the axes in
        # different orders; all such cells are congruent
        def cell(order):
            verts = [[0, 0, 0]]
            cur = [0, 0, 0]
            for k in order:
                cur = list(cur)
                cur[k] += 1
                verts.append(cur)
            return Simplex.exact(verts)

        a = cell((0, 1, 2))
        b = cell((2, 0, 1))
        c = cell((1, 2, 0))
        assert congruent(a, b) and congruent(b, c)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_equivalence_relation(self, seed):
        rng = random.Random(seed)
        a = random_rational_tetrahedron(rng)
        b = a.translated((rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3)))
        c = Simplex.exact([tuple(reversed(v)) for v in b.vertices])  # coordinate flip
        assert congruent(a, a)
        assert congruent(a, b) == congruent(b, a)
        if congruent(a, b) and congruent(b, c):
            assert congruent(a, c)


class TestSimilar:
    def test_half_scale(self):
        s = regular_tetrahedron()
        assert similar(s, s.scaled(Fraction(1, 2))) == Fraction(1, 2)

    def test_hill_piece_ratio(self):
        from reptile_forge.hill import HillSpec, subdivide

        sub = subdivide(HillSpec.from_pair_cos(3, Fraction(0)), 2)
        for p in sub.pieces:
            assert similar(sub.parent, p) == Fraction(1, 2)

    def test_incongruent_shapes(self):
        assert similar(regular_tetrahedron(), orthoscheme(3)) is None

    def test_rational_ratio_exact(self):
        s = random_rational_tetrahedron(random.Random(9))
        for r in (Fraction(3), Fraction(2, 7), Fraction(5, 3)):
            assert similar(s, s.scaled(r)) == r


class TestExactSqrt:
    @staticmethod
    def _reference(x):
        """The square root through AlgebraicReal for every input."""
        r = x.to_algebraic().sqrt() if not isinstance(x, Fraction) else AlgebraicReal.sqrt_rational(x)
        return r.as_fraction() if r.is_rational else r

    @pytest.mark.parametrize(
        "x", [Fraction(0), Fraction(1), Fraction(9, 16), Fraction(1, 36), Fraction(2), Fraction(3, 5), Fraction(20, 27)]
    )
    def test_rationals(self, x):
        got, want = _exact_sqrt(x), self._reference(x)
        assert type(got) is type(want)
        if isinstance(want, Fraction):
            assert got == want
        else:
            assert got.minpoly == want.minpoly and got.compare(want) == 0

    def test_negative_refused(self):
        with pytest.raises(ValueError):
            _exact_sqrt(Fraction(-1, 4))

    def test_field_elements(self):
        c = as_frame(parse_real("sqrt(2)/4"))  # c^2 = 1/8
        for x, rational in ((8 * c * c, True), (1 + 2 * c, False), (c * c / 2, True)):
            got, want = _exact_sqrt(x), self._reference(x)
            assert type(got) is type(want) and isinstance(got, Fraction) == rational
            assert got == want if rational else got.compare(want) == 0


class TestCoordinateParsing:
    """A string as Fraction(str(x)) reads it, accepted or refused alike, the
    "p/q" form by an integer split; but an exponent of more than four digits,
    which Fraction would expand, is refused.  A refusal is None, never an
    exception."""

    @pytest.mark.parametrize(
        "x",
        ["3/4", "-3/4", "-0/7", "007/010", "12/8", "1/0", "+3/4", " 3/4", "3/4 ", "3/4\n", "3 / 4", "3/-4",
         "--3/4", "1_0/3", "\u0661/\u0662", "3.5", "1e3", "-2", "0x1/2", "", "/", "3/", "abc", 7, -2, 0.5,
         " 1e-12", "1_000.5e-1_2", ".5", "1.", "1e9999"],
    )
    def test_same_as_fraction_of_str(self, x):
        try:
            want = Fraction(str(x))
        except (ValueError, ZeroDivisionError):
            want = None
        got = read_number(x)
        assert got == want and type(got) is type(want)

    @pytest.mark.parametrize("x", ["1e10000", "1e-10000", "1e1_0000", "1/1e3"])
    def test_long_exponent_refused(self, x):
        assert read_number(x) is None

    @settings(max_examples=200)
    @given(st.integers(-10**30, 10**30), st.integers(1, 10**30))
    def test_ratios(self, p, q):
        assert read_number(f"{p}/{q}") == Fraction(p, q)
