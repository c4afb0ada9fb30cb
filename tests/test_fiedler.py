"""Realizability decisions, row-space certificates, reconstruction."""

import hashlib
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reptile_forge.algebra import PHI, QPHI, AlgebraicReal, MPoly, as_algebraic, det, sturm
from reptile_forge.cli import main
from reptile_forge.fiedler import (
    CosMatrix,
    MalformedMatrixError,
    ReconstructionError,
    _descale,
    _squarefree_int,
    char_poly_symbolic,
    complement_matrix_symbolic,
    multiples_matrix_symbolic,
    path_eigenvalue_symbolic,
    path_matrix_symbolic,
    realizability_check,
    reconstruct_simplex,
    tripod_matrix_symbolic,
)
from reptile_forge.jsonio import load_matrix, parse_real
from reptile_forge.simplex import (
    Simplex,
    congruent,
    dihedral_data,
    orthoscheme,
    regular_tetrahedron,
)
from helpers import (
    DRAW_1,
    DRAW_14,
    assert_fiedler_reads_back,
    cos_matrix_json,
    random_rational_tetrahedron,
    record_verdicts,
    similar_coordinates,
)

PHI_M1 = AlgebraicReal.from_root([-1, 1, 1], 0, 1)  # phi - 1

ORTHO_235 = [(0, 0, 0), (2, 0, 0), (0, 3, 0), (0, 0, 5)]


def matrix_of(verts) -> CosMatrix:
    return CosMatrix.from_dihedral(dihedral_data(Simplex.exact(verts)))


def via_json(a: CosMatrix) -> CosMatrix:
    return load_matrix(json.loads(json.dumps(a.to_json())))


def tripod_rows(t, s):
    return [
        [-1, t, t, t],
        [t, -1, s, s],
        [t, s, -1, s],
        [t, s, s, -1],
    ]


def path_rows(t, s):
    return [
        [-1, t, s, s],
        [t, -1, t, s],
        [s, t, -1, t],
        [s, s, t, -1],
    ]


class TestCosMatrixValidation:
    def test_diagonal_enforced(self):
        rows = [[0 if i == j else Fraction(1, 3) for j in range(4)] for i in range(4)]
        with pytest.raises(MalformedMatrixError, match="diagonal"):
            CosMatrix.from_rows(rows)

    def test_symmetry_enforced(self):
        rows = tripod_rows(Fraction(1, 2), Fraction(1, 3))
        rows[0][1] = Fraction(1, 4)
        with pytest.raises(MalformedMatrixError, match="symmetric"):
            CosMatrix.from_rows(rows)

    def test_entry_range(self):
        rows = tripod_rows(Fraction(3, 2), Fraction(1, 3))
        with pytest.raises(MalformedMatrixError, match="-1, 1"):
            CosMatrix.from_rows(rows)


class TestRealizability:
    def test_regular_tetrahedron_matrix(self):
        a = CosMatrix.from_rows(
            [[-1 if i == j else Fraction(1, 3) for j in range(4)] for i in range(4)]
        )
        v = realizability_check(a)
        assert v.valid
        # kernel proportional to the all-ones vector
        k0 = v.kernel[0]
        assert all(as_algebraic(k).compare(k0) == 0 for k in v.kernel)
        # A z = 0 re-verified exactly in the rational field
        for i in range(4):
            total = sum(
                Fraction(1, 3) * 1 if i != j else Fraction(-1) for j in range(4)
            )
            assert total == 0

    def test_tripod_nonsingular_invalid(self):
        # 1 - 2s - 3t^2 != 0 keeps the matrix nonsingular, hence unrealizable
        a = CosMatrix.from_rows(tripod_rows(Fraction(1, 2), Fraction(1, 3)))
        v = realizability_check(a)
        assert not v.valid
        assert v.failure_witness["kind"] in ("nonsingular", "indefinite")

    def test_tripod_singular_realizable(self):
        # s chosen so 1 - 2s - 3t^2 = 0: the symmetric pyramid exists
        t = Fraction(1, 2)
        s = (1 - 3 * t**2) / 2
        a = CosMatrix.from_rows(tripod_rows(t, s))
        v = realizability_check(a)
        assert v.valid

    def test_path_golden_matrix_valid(self):
        a = CosMatrix.from_rows(path_rows(Fraction(0), PHI_M1))
        v = realizability_check(a)
        assert v.valid
        assert all(as_algebraic(k).sign() > 0 for k in v.kernel)

    def test_measured_data_round_trip(self):
        for s in (regular_tetrahedron(), orthoscheme(3)):
            a = CosMatrix.from_dihedral(dihedral_data(s))
            assert realizability_check(a).valid

    def test_dihedral_and_json_routes_give_one_verdict(self):
        # a matrix built from a simplex descales from its entries, as the
        # same matrix read from its JSON does: one scaling, one verdict
        rng = random.Random(606)
        for _ in range(12):
            s = random_rational_tetrahedron(rng)
            measured = realizability_check(CosMatrix.from_dihedral(dihedral_data(s)))
            read = realizability_check(load_matrix(cos_matrix_json(s.vertices)))
            assert measured.valid and read.valid
            assert measured.kernel == read.kernel
            assert measured.failure_witness == read.failure_witness
            assert measured.similar == read.similar

    def test_matrix_json_past_the_factoring_cap_takes_the_rational_path(self, monkeypatch):
        import reptile_forge.algebra.algebraic as algebraic_mod

        def no_resultant(*args):
            raise AssertionError("generic AlgebraicReal path")

        a = via_json(matrix_of(DRAW_1))
        assert any(not e.is_rational for row in a.entries for e in row)
        assert _descale(a) is not None
        monkeypatch.setattr(algebraic_mod, "_interp_resultant", no_resultant)
        v = realizability_check(a)
        assert v.valid
        assert all(as_algebraic(k).sign() > 0 for k in v.kernel)

    def test_soundness_on_random_tetrahedra(self):
        rng = random.Random(2024)
        for _ in range(25):
            s = random_rational_tetrahedron(rng)
            a = CosMatrix.from_dihedral(dihedral_data(s))
            v = realizability_check(a)
            assert v.valid
            assert all(as_algebraic(k).sign() > 0 for k in v.kernel)

    def test_kernel_matches_geometric_construction(self):
        # with the last vertex at the origin, the kernel direction is
        # (1/<u_i, v_i>, ..., |sum of those u_i scaled|): check proportionality
        import numpy as np

        rng = random.Random(4242)
        for _ in range(5):
            s = random_rational_tetrahedron(rng)
            s = s.translated([-x for x in s.vertices[3]])  # v_3 = 0
            a = CosMatrix.from_dihedral(dihedral_data(s))
            v = realizability_check(a)
            assert v.valid
            kernel = np.array([float(as_algebraic(k)) for k in v.kernel])
            units = []
            for i in range(4):
                n = np.array([float(x) for x in s.facet_normal(i)])
                units.append(n / np.linalg.norm(n))
            z_geo = [1.0 / float(np.dot(units[i], [float(x) for x in s.vertices[i]])) for i in range(3)]
            w = -sum(z * u for z, u in zip(z_geo, units[:3]))
            z_geo.append(float(np.linalg.norm(w)))
            ratio = kernel / np.array(z_geo)
            assert np.allclose(ratio, ratio[0], rtol=1e-9)

    def test_nonsingular_witness_det_is_det_of_a(self):
        # radical entries take the descaled path, whose rational matrix
        # B = diag(sqrt q) A diag(sqrt q) has det(B) = det(A) * prod(q)
        sympy = pytest.importorskip("sympy")
        rows = [
            ["-1", "-sqrt(1/8)", "-sqrt(1/12)"],
            ["-sqrt(1/8)", "-1", "-sqrt(1/24)"],
            ["-sqrt(1/12)", "-sqrt(1/24)", "-1"],
        ]
        a = load_matrix({"dim": 2, "cos": rows})
        assert _descale(a) is not None
        v = realizability_check(a)
        assert v.failure_witness["kind"] == "nonsingular"
        d = v.failure_witness["det"]
        want = sympy.Matrix([[sympy.sympify(x) for x in r] for r in rows]).det()
        assert sympy.Rational(d.numerator, d.denominator) == sympy.nsimplify(want)
        assert d == (-1) ** len(rows) * v.char_poly[0] == Fraction(-19, 24)

    def test_indefinite_witness_is_verifiable(self):
        a = CosMatrix.from_rows(tripod_rows(Fraction(9, 10), Fraction(9, 10)))
        v = realizability_check(a)
        if not v.valid and v.failure_witness["kind"] == "indefinite":
            x = [Fraction(c) for c in v.failure_witness["direction"]]
            q = v.failure_witness.get("scaling")
            rows = [[as_algebraic(e).as_fraction() for e in r] for r in a.entries]
            if q:
                b = [
                    [rows[i][j] * _sqrt_prod(q[i], q[j]) for j in range(4)]
                    for i in range(4)
                ]
            else:
                b = rows
            quad = sum(x[i] * b[i][j] * x[j] for i in range(4) for j in range(4))
            assert quad * -1 < 0  # x^T(-B)x < 0, i.e. x^T B x > 0


S2, NS2 = "sqrt(2)/2", "-sqrt(2)/2"

# (expected verdict, rows): entries in Q and Q*sqrt(2), so the algebraic
# branch stays under the degree cap; where unit normals are named above a
# case, -A is their Gram matrix
BRANCH_CASES = {
    # (1, 0), (0, 1), -(1, 1)/sqrt(2): kernel (1, 1, sqrt 2)
    "triangle": ("valid", [["-1", "0", S2], ["0", "-1", S2], [S2, S2, "-1"]]),
    "regular": ("valid", [["-1" if i == j else "1/3" for j in range(4)] for i in range(4)]),
    # (1, 0), (0, 1), (1, 1)/sqrt(2): kernel (1, 1, -sqrt 2)
    "half-plane": ("kernel_not_positive", [["-1", "0", NS2], ["0", "-1", NS2], [NS2, NS2, "-1"]]),
    # four unit normals in a plane: -A has rank 2 < 3
    "planar": (
        "rank_defect",
        [["-1", "0", NS2, S2], ["0", "-1", NS2, NS2], [NS2, NS2, "-1", "0"], [S2, NS2, "0", "-1"]],
    ),
    "wide-tripod": ("indefinite", tripod_rows("9/10", "9/10")),
    "radical-triangle": ("indefinite", [["-1", S2, S2], [S2, "-1", "1/2"], [S2, "1/2", "-1"]]),
    "near-identity": (
        "nonsingular",
        [["-1", "sqrt(2)/4", "1/3"], ["sqrt(2)/4", "-1", "-sqrt(2)/4"], ["1/3", "-sqrt(2)/4", "-1"]],
    ),
}


class TestBranchesAgree:
    """The descaled rational branch and the algebraic branch of
    realizability_check give the same verdict on the same matrix."""

    @pytest.mark.parametrize("name", sorted(BRANCH_CASES))
    def test_same_verdict(self, name, monkeypatch):
        want, rows = BRANCH_CASES[name]
        descaled, algebraic = self._both(load_matrix({"dim": len(rows) - 1, "cos": rows}), monkeypatch)
        assert (descaled.failure_witness or {"kind": "valid"})["kind"] == want
        self._assert_agree(descaled, algebraic)

    def test_orthoscheme_from_json(self, monkeypatch):
        self._assert_agree(*self._both(via_json(matrix_of(ORTHO_235)), monkeypatch))

    @staticmethod
    def _both(a, monkeypatch):
        import reptile_forge.fiedler as fiedler_mod

        assert _descale(a) is not None
        descaled = realizability_check(a)
        monkeypatch.setattr(fiedler_mod, "_descale", lambda a: None)
        algebraic = realizability_check(a)
        assert algebraic.similar_matrix is None
        return descaled, algebraic

    @staticmethod
    def _assert_agree(descaled, algebraic):
        assert descaled.valid == algebraic.valid
        if not descaled.valid:
            w1, w2 = descaled.failure_witness, algebraic.failure_witness
            assert w1["kind"] == w2["kind"]
            assert w1.get("rank") == w2.get("rank")
            return
        k1 = [as_algebraic(x) for x in descaled.kernel]
        k2 = [as_algebraic(x) for x in algebraic.kernel]
        assert all(x.sign() > 0 for x in k1 + k2)
        # k1 = c k2 with c > 0: every k1_i k2_0 - k1_0 k2_i vanishes
        assert all((k1[i] * k2[0]).compare(k1[0] * k2[i]) == 0 for i in range(len(k1)))


def _sqrt_prod(qi, qj):
    v = Fraction(qi) * Fraction(qj)
    r = AlgebraicReal.sqrt_rational(v)
    assert r.is_rational
    return r.as_fraction()


class TestReconstruction:
    def test_regular(self):
        a = CosMatrix.from_rows(
            [[-1 if i == j else Fraction(1, 3) for j in range(4)] for i in range(4)]
        )
        s = reconstruct_simplex(a)
        dd = dihedral_data(s)
        for c in dd.facet_cos.values():
            assert float(c) == pytest.approx(1 / 3, abs=1e-10)
        longest = max(s.squared_lengths().values())
        assert math.sqrt(longest) == pytest.approx(1.0, abs=1e-12)

    def test_orthoscheme_round_trip(self):
        o = orthoscheme(3)
        a = CosMatrix.from_dihedral(dihedral_data(o))
        rec = reconstruct_simplex(a)
        assert similar_coordinates(o.as_float(), rec.as_float())

    def test_path_matrix_reconstruction(self):
        a = CosMatrix.from_rows(path_rows(Fraction(0), PHI_M1))
        rec = reconstruct_simplex(a)
        dd = dihedral_data(rec)
        want = sorted([0.0, 0.0, 0.0] + [float(PHI_M1)] * 3)
        got = sorted(float(c) for c in dd.facet_cos.values())
        for a_, b_ in zip(got, want):
            assert a_ == pytest.approx(b_, abs=1e-10)

    def test_path_angles_form_disjoint_paths(self):
        # equal angles sit on two vertex-disjoint 3-edge paths
        a = CosMatrix.from_rows(path_rows(Fraction(0), PHI_M1))
        rec = reconstruct_simplex(a)
        dd = dihedral_data(rec)
        groups = {}
        for edge, c in dd.edge_cos().items():
            groups.setdefault(round(float(c), 6), []).append(edge)
        assert len(groups) == 2
        for edges in groups.values():
            assert len(edges) == 3
            degree = {}
            for u, v in edges:
                degree[u] = degree.get(u, 0) + 1
                degree[v] = degree.get(v, 0) + 1
            # a simple 3-edge path visits 4 vertices, two of degree 1
            assert sorted(degree.values()) == [1, 1, 2, 2]

    def test_invalid_matrix_raises_with_verdict(self):
        a = CosMatrix.from_rows(tripod_rows(Fraction(1, 2), Fraction(1, 3)))
        with pytest.raises(ReconstructionError) as exc:
            reconstruct_simplex(a)
        assert exc.value.verdict.failure_witness is not None

    @pytest.mark.parametrize("route", [lambda a: a, via_json], ids=["dihedral", "json"])
    def test_unnormalised_kernel(self, route):
        a = route(matrix_of(DRAW_14))
        rec = reconstruct_simplex(a)
        assert similar_coordinates(Simplex.exact(DRAW_14).as_float(), rec.as_float())
        longest = max(rec.squared_lengths().values())
        assert longest == pytest.approx(1.0, abs=1e-12)

    def test_round_trip_on_random_tetrahedra(self):
        rng = random.Random(31337)
        for _ in range(10):
            s = random_rational_tetrahedron(rng)
            a = CosMatrix.from_dihedral(dihedral_data(s))
            rec = reconstruct_simplex(a)
            assert similar_coordinates(s.as_float(), rec.as_float())
            got = dihedral_data(rec).facet_cos
            for (i, j), c in got.items():
                assert float(c) == pytest.approx(float(as_algebraic(a.entries[i][j])), abs=1e-10)


class TestCharPoly:
    @pytest.mark.parametrize("route", [lambda a: a, via_json], ids=["dihedral", "json"])
    def test_verdict_holds_char_poly_of_a(self, route):
        a = route(matrix_of(ORTHO_235))
        assert realizability_check(a).char_poly == (0, 2, 5, 4, 1)

    def test_verdict_char_poly_matches_eigenvalues(self):
        rng = random.Random(4242)
        for _ in range(10):
            a = CosMatrix.from_dihedral(dihedral_data(random_rational_tetrahedron(rng)))
            cp = realizability_check(a).char_poly
            want = np.poly(np.array([[float(x) for x in row] for row in a.entries]))
            assert [float(c) for c in reversed(cp)] == pytest.approx(list(want), abs=1e-9)

    def test_negative_identity(self):
        a = CosMatrix.from_rows(
            [[-1 if i == j else Fraction(0) for j in range(4)] for i in range(4)]
        )
        cp = realizability_check(a).char_poly
        # det(lambda I + I) = (lambda + 1)^4 = 1 + 4x + 6x^2 + 4x^3 + x^4
        assert cp == (1, 4, 6, 4, 1)

    def test_tripod_constant_term_is_det(self):
        t, s = Fraction(1, 5), Fraction(1, 3)
        a = CosMatrix.from_rows(tripod_rows(t, s))
        cp = realizability_check(a).char_poly
        det_expected = (1 + s) ** 2 * (1 - 2 * s - 3 * t**2)
        assert cp[0] == det_expected  # det(-A) = det(A) for 4x4

    def test_path_eigenvalue_is_root_symbolic(self):
        mat = path_matrix_symbolic(("s", "t", "L"))
        cp = char_poly_symbolic(mat, "L")
        lam1 = path_eigenvalue_symbolic(("s", "t", "L"))
        assert cp.substitute({"L": lam1}).is_zero


class TestSymbolicMatrices:
    def test_tripod_det_identity(self):
        mat = tripod_matrix_symbolic()
        d = det(mat)
        vars = mat[0][0].vars
        s = MPoly.variable(vars, "s", QPHI.one)
        t = MPoly.variable(vars, "t", QPHI.one)
        one = MPoly.constant(vars, QPHI.one)
        assert d == (one + s) ** 2 * (one - 2 * s - 3 * t**2)

    def test_multiples_rows_sum(self):
        mat = multiples_matrix_symbolic()
        vars = mat[0][0].vars
        t = MPoly.variable(vars, "t", QPHI.one)
        one = MPoly.constant(vars, QPHI.one)
        sums = [mat[0][j] + mat[3][j] for j in range(4)]
        assert sums[0] == t - one and sums[3] == t - one
        assert sums[1].is_zero and sums[2].is_zero

    def test_complement_rows_sum(self):
        mat = complement_matrix_symbolic()
        vars = mat[0][0].vars
        t = MPoly.variable(vars, "t", QPHI.one)
        one = MPoly.constant(vars, QPHI.one)
        sums = [mat[1][j] + mat[2][j] for j in range(4)]
        assert sums[1] == t - one and sums[2] == t - one
        assert sums[0].is_zero and sums[3].is_zero

    def test_path_det_golden_factorization(self):
        vars = ("s", "t")
        mat = path_matrix_symbolic(vars)
        d = det(mat)
        s = MPoly.variable(vars, "s", QPHI.one)
        t = MPoly.variable(vars, "t", QPHI.one)
        one = MPoly.constant(vars, QPHI.one)
        from reptile_forge.algebra import INV_PHI, INV_PHI2

        f1 = s**2 + t**2 + s * t + s + t - one
        f2 = s - MPoly.constant(vars, INV_PHI2) * t + MPoly.constant(vars, INV_PHI)
        f3 = t - MPoly.constant(vars, INV_PHI2) * s + MPoly.constant(vars, INV_PHI)
        phi2 = MPoly.constant(vars, PHI * PHI)
        assert d == -(phi2 * f1 * f2 * f3)
        # at t = 0 the determinant collapses to the golden quartic in s
        at0 = d.substitute({"t": QPHI.zero})
        expected = s**4 - 3 * s**2 + one
        assert at0 == expected

    def test_corrupted_tripod_identity_fails(self):
        mat = tripod_matrix_symbolic()
        vars = mat[0][0].vars
        t = MPoly.variable(vars, "t", QPHI.one)
        mat[0][1] = -t  # flip one sign
        mat[1][0] = -t
        d = det(mat)
        s = MPoly.variable(vars, "s", QPHI.one)
        one = MPoly.constant(vars, QPHI.one)
        assert d != (one + s) ** 2 * (one - 2 * s - 3 * t**2)


# a tetrahedron's matrix with +-sqrt(q) entries, as the CLI reads it
SQRT_MATRIX = cos_matrix_json([(2, 1, 1), (0, -2, -1), (-1, 0, -1), (-2, 2, -2)])


class TestMatrixIntake:
    def test_sqrt_entries_read_without_isolation_or_resultant(self, monkeypatch):
        import reptile_forge.algebra.algebraic as algebraic_mod
        import reptile_forge.algebra.sturm as sturm_mod

        def refuse(*args):
            raise AssertionError("called")

        algebraic_mod._root_intervals.cache_clear()
        monkeypatch.setattr(sturm_mod, "isolate_roots", refuse)
        monkeypatch.setattr(algebraic_mod, "_arith", refuse)
        a = load_matrix(SQRT_MATRIX)
        assert sum(not x.is_rational for row in a.entries for x in row) == 12

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(["", "+", "-"]),
        st.one_of(st.none(), st.integers(0, 40)),
        st.fractions(min_value=0, max_value=50, max_denominator=60),
        st.one_of(st.none(), st.integers(1, 40)),
    )
    def test_radical_forms_read_as_a_scaled_root(self, sign, coef, rad, den):
        spec = (
            sign
            + ("" if coef is None else f"{coef}*")
            + f"sqrt({rad.numerator}/{rad.denominator})"
            + ("" if den is None else f"/{den}")
        )
        scale = Fraction(1 if coef is None else coef, den or 1) * (-1 if sign == "-" else 1)
        want = AlgebraicReal.sqrt_rational(rad) * scale
        got = parse_real(spec)
        assert got.compare(want) == 0
        # the same enclosure as the scaled root, which the generic path prints
        assert (got.minpoly, got.interval()) == (want.minpoly, want.interval())

    # the minimal polynomials of sqrt(2), cos(2 pi / 7) and 2 cos(2 pi / 9),
    # and x^4 - 4x^2 + 2, irreducible with four real roots
    @pytest.mark.parametrize("coeffs", [(-2, 0, 1), (-1, -4, 4, 8), (1, -3, 0, 1), (2, 0, -4, 0, 1)])
    def test_distinct_roots_of_one_minpoly_compare_unequal(self, coeffs):
        roots = [AlgebraicReal.from_root(coeffs, lo, hi) for lo, hi in sturm.isolate_roots(coeffs)]
        twins = [AlgebraicReal.from_root(coeffs, lo, hi) for lo, hi in sturm.isolate_roots(coeffs)]
        assert len(roots) >= 2
        for i, x in enumerate(roots):
            for j, y in enumerate(twins):
                if j % 2:
                    y.refine_below(y.interval().width / 3)  # a different enclosure of the same root
                assert (x.compare(y) == 0) == (i == j)
                assert x.compare(y) == (i > j) - (i < j)


class TestCharPolyOnRead:
    def test_reconstruct_computes_no_char_poly(self, monkeypatch, tmp_path, capsys):
        from reptile_forge.algebra import linalg

        calls = []
        real = linalg.char_poly
        monkeypatch.setattr(linalg, "char_poly", lambda m: calls.append(m) or real(m))
        path = tmp_path / "m.json"
        path.write_text(json.dumps(SQRT_MATRIX), encoding="utf-8")
        assert main(["fiedler", "reconstruct", str(path)]) == 0
        assert calls == []
        capsys.readouterr()
        assert main(["fiedler", "check", str(path)]) == 0
        assert len(calls) == 1
        printed = json.loads(capsys.readouterr().out)["char_poly"]
        assert [parse_real(c) for c in printed] == list(realizability_check(load_matrix(SQRT_MATRIX)).char_poly)

    def test_verdict_char_poly_is_read_once(self, monkeypatch):
        from reptile_forge.algebra import linalg

        calls = []
        real = linalg.char_poly
        monkeypatch.setattr(linalg, "char_poly", lambda m: calls.append(m) or real(m))
        v = realizability_check(matrix_of(ORTHO_235))
        assert calls == []
        assert v.char_poly == (0, 2, 5, 4, 1) and v.char_poly == (0, 2, 5, 4, 1)
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# the integer decision of square-class matrices against the Fraction one
# ---------------------------------------------------------------------------


def _ref_squarefree_int(n: int) -> int:
    """_squarefree_int by trial division up to sqrt(n), as it was."""
    if n <= 0:
        raise ValueError("positive integer required")
    if n > 10**14:
        return n
    out = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e % 2:
                out *= p
        p += 1 if p == 2 else 2
    return out * n


class TestSquarefreeInt:
    def test_small_range_matches_trial_division(self):
        assert all(_squarefree_int(n) == _ref_squarefree_int(n) for n in range(1, 10**5 + 1))

    def test_large_forms_match_trial_division(self):
        def next_prime(n):
            while any(n % p == 0 for p in range(2, math.isqrt(n) + 1)):
                n += 1
            return n

        rng = random.Random(20261019)
        primes = [next_prime(rng.randint(10**6, 4 * 10**6)) for _ in range(6)]
        cases = [99999999999973, primes[0] ** 2, 2 * primes[1] ** 2, primes[2] * primes[3]]
        cases += [12 * primes[4] * primes[5]]
        cases += [10**14, 10**14 + 1, 2**46 * 3, 10**15 + 7]
        for n in cases:
            assert _squarefree_int(n) == _ref_squarefree_int(n), n


def _ref_congruence(m: list[list]) -> dict:
    """The Fraction congruence analysis of the descaled path, as it was,
    with the basis row at the one zero pivot as the kernel and the product
    of the pivots as the determinant."""
    n = len(m)
    a = [list(r) for r in m]
    basis = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    rank = 0
    zeros = []
    det = Fraction(1)
    for k in range(n):
        sk = (a[k][k] > 0) - (a[k][k] < 0)
        if sk < 0:
            return {"psd": False, "rank": None, "negative_direction": tuple(basis[k]), "kernel": None, "det": None}
        if sk == 0:
            bad = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
            if bad is not None:
                b = a[k][bad]
                c = a[bad][bad]
                t = -(c + 1) / (b * 2)
                x = [t * basis[k][i] + basis[bad][i] for i in range(n)]
                return {"psd": False, "rank": None, "negative_direction": tuple(x), "kernel": None, "det": None}
            zeros.append(k)
            det = Fraction(0)
            continue
        rank += 1
        det *= a[k][k]
        for i in range(k + 1, n):
            if a[i][k] == 0:
                continue
            f = a[i][k] / a[k][k]
            for j in range(n):
                a[i][j] -= f * a[k][j]
            for j in range(n):
                a[j][i] -= f * a[j][k]
            for j in range(n):
                basis[i][j] -= f * basis[k][j]
    kernel = tuple(basis[zeros[0]]) if len(zeros) == 1 else None
    return {"psd": True, "rank": rank, "negative_direction": None, "kernel": kernel, "det": det}


def _symmetric_cases(rng: random.Random):
    """Rational symmetric 3x3 and 4x4 matrices: Gram matrices of integer
    vectors over a rational scale (PSD, rank deficient when the vectors
    span less), the same with one entry moved (negative pivots, and zero
    pivots with a nonzero row: the 2x2 block), and random entries."""
    for n in (3, 4):
        for kind in range(3):
            for _ in range(60):
                span = rng.randint(1, n)
                vecs = [[rng.randint(-3, 3) for _ in range(span)] for _ in range(n)]
                if kind == 1 and n == 4:
                    vecs[2] = [2 * x - y for x, y in zip(vecs[0], vecs[1])]  # a singular leading block
                scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
                m = [[scale * sum(x * y for x, y in zip(u, v)) for v in vecs] for u in vecs]
                if kind == 1:
                    i = n - 1
                    j = rng.randrange(n - 1)
                    m[i][j] = m[j][i] = m[i][j] + Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                if kind == 2:
                    for i in range(n):
                        for j in range(i, n):
                            m[i][j] = m[j][i] = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                yield m


class TestIntegerCongruence:
    def test_matches_the_fraction_routine(self):
        from reptile_forge.fiedler import _congruence_int

        seen = set()
        for m in _symmetric_cases(random.Random(5)):
            den = math.lcm(*(x.denominator for row in m for x in row))
            ints = [[int(x * den) for x in row] for row in m]
            got = _congruence_int(ints, den)
            want = _ref_congruence(m)
            assert got == want
            assert all(type(x) is Fraction for x in got["negative_direction"] or ())
            direction = want["negative_direction"]
            if direction is None:
                seen.add(("psd", want["rank"] == len(m)))
            else:
                seen.add(("negative", direction[-1] == 0))  # the 2x2 block leaves e_bad's tail
                assert sum(direction[i] * m[i][j] * direction[j] for i in range(len(m)) for j in range(len(m))) < 0
        assert seen == {("psd", True), ("psd", False), ("negative", True), ("negative", False)}


@st.composite
def gram_matrices(draw):
    """(G, den): the Gram matrix G of n integer vectors, read as G / den.
    Vectors in n - 1 dimensions make G singular, of rank n - 1 unless they
    span less; one of them a combination of those before it puts the zero
    pivot there rather than last.  Vectors in n dimensions mostly make G
    nonsingular."""
    n = draw(st.integers(2, 5))
    full = draw(st.booleans())
    space = n if full else n - 1
    vecs = [draw(st.lists(st.integers(-3, 3), min_size=space, max_size=space)) for _ in range(n)]
    if not full and n >= 3 and draw(st.booleans()):
        k = draw(st.integers(1, n - 2))
        coef = draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k))
        vecs[k] = [sum(c * v[j] for c, v in zip(coef, vecs)) for j in range(space)]
    g = [[sum(x * y for x, y in zip(u, v)) for v in vecs] for u in vecs]
    return g, draw(st.integers(1, 6))


class TestCongruenceKernel:
    """The congruence of a PSD matrix gives its kernel and determinant: the
    basis row at the one zero pivot, and the last fraction-free pivot."""

    @settings(max_examples=200, deadline=None)
    @given(gram_matrices())
    # u, 2u, w: the zero pivot is the middle one
    @example(([[2, 4, 1], [4, 8, 2], [1, 2, 5]], 3))
    def test_kernel_and_determinant_match_sympy(self, case):
        sympy = pytest.importorskip("sympy")
        from reptile_forge.fiedler import _congruence_analysis, _congruence_int

        g, den = case
        n = len(g)
        exact = _congruence_int(g, den)
        field = _congruence_analysis([[Fraction(x, den) for x in row] for row in g])
        sg = sympy.Matrix(g)
        rank = sg.rank()
        assert exact["psd"] and field["psd"] and exact["rank"] == field["rank"] == rank
        assert exact["det"] == Fraction(int(sg.det()), den**n)
        if rank != n - 1:
            assert exact["kernel"] is None and field["kernel"] is None
            return
        (want,) = sg.nullspace()
        want = tuple(Fraction(int(x.p), int(x.q)) for x in want)
        assert exact["kernel"] == field["kernel"] == want
        assert all(type(x) is Fraction for x in exact["kernel"] + field["kernel"])


class TestOneElimination:
    def test_each_verdict_takes_one_congruence_and_nothing_else(self, monkeypatch):
        """With every other elimination refused, each matrix of both batches
        is decided by exactly one congruence."""
        from reptile_forge import fiedler as fiedler_mod
        from reptile_forge.algebra import linalg

        def refuse(*args):
            raise AssertionError("a second elimination")

        banned = (linalg.rref, linalg.solve, linalg.det, linalg.det_int)
        for mod in (linalg, fiedler_mod):
            for name, obj in list(vars(mod).items()):
                if any(obj is f for f in banned):
                    monkeypatch.setattr(mod, name, refuse)
        calls = []
        for name in ("_congruence_int", "_congruence_analysis"):
            real = getattr(fiedler_mod, name)
            monkeypatch.setattr(fiedler_mod, name, lambda *args, real=real: calls.append(1) or real(*args))
        kinds = set()
        for m in square_class_matrices() + generic_matrices():
            calls.clear()
            v = realizability_check(load_matrix(m))
            assert len(calls) == 1
            kinds.add("valid" if v.valid else v.failure_witness["kind"])
        assert kinds == {"valid", "nonsingular", "rank_defect", "indefinite", "kernel_not_positive"}


# ---------------------------------------------------------------------------
# fiedler check and reconstruct bytes on generated batches
# ---------------------------------------------------------------------------


def _unit_gram_entry(u, v) -> tuple[int, Fraction]:
    """(sign, square) of -u.v / (|u| |v|), the cosine whose negated matrix
    is the Gram matrix of the unit vectors along u and v."""
    dot = sum(x * y for x, y in zip(u, v))
    return (dot < 0) - (dot > 0), Fraction(dot * dot, sum(x * x for x in u) * sum(x * x for x in v))


def _square_class_text(sign: int, s: Fraction, style: int) -> str:
    """sign * sqrt(s) as the CLI reads it: "p/q" for a square, else
    "sqrt(p/q)" (style 0) or "[k*]sqrt(m)[/den]" (style 1)."""
    if sign == 0:
        return "0"
    minus = "-" if sign < 0 else ""
    top, bottom = math.isqrt(s.numerator), math.isqrt(s.denominator)
    if top * top == s.numerator and bottom * bottom == s.denominator:
        return f"{minus}{top}/{bottom}"
    if style == 0:
        return f"{minus}sqrt({s.numerator}/{s.denominator})"
    m, k = s.numerator * s.denominator, 1
    f = 2
    while f < 50 and f * f <= m:
        while m % (f * f) == 0:
            m //= f * f
            k *= f
        f += 1
    body = f"sqrt({m})" if k == 1 else f"{k}*sqrt({m})"
    return minus + (body if s.denominator == 1 else f"{body}/{s.denominator}")


def square_class_matrices(count: int = 100, seed: int = 20261019) -> list[dict]:
    """Matrix JSON with rational and signed square-root entries that
    descale: Gram matrices of unit vectors along integer vectors.  Kinds by
    index mod 5: 0 positively dependent vectors (valid), 1 one entry's
    square scaled by a rational square (indefinite, nonsingular), 2 vectors
    in a smaller space (rank defect), 3 the first three vectors in a plane
    and an entry of a later row moved (a zero pivot, the 2x2 block), 4
    random vectors (mostly kernel not positive).  Last, a matrix whose
    descaling meets a prime near 10^14."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        kind = len(out) % 5
        dim = rng.choice((2, 3, 3, 4))
        n = dim + 1
        space = dim - 1 if kind == 2 else dim
        vecs = [[rng.randint(-3, 3) for _ in range(space)] for _ in range(n)]
        if kind == 0:
            coef = [rng.randint(1, 3) for _ in range(dim)]
            vecs[dim] = [-sum(c * v[k] for c, v in zip(coef, vecs)) for k in range(space)]
        if kind == 3 and dim >= 3:
            vecs[2] = [2 * x - y for x, y in zip(vecs[0], vecs[1])]
        if not all(any(v) for v in vecs):
            continue
        vals = {(i, j): _unit_gram_entry(vecs[i], vecs[j]) for i in range(n) for j in range(i + 1, n)}
        if any(s >= 1 for _, s in vals.values()):
            continue  # parallel vectors: a cosine of +-1
        if kind in (1, 3):
            i = rng.randrange(3, n) if kind == 3 and n > 3 else rng.randrange(n)
            j = rng.choice([k for k in range(n) if k != i])
            key = (min(i, j), max(i, j))
            sign, s = vals[key]
            s = s * Fraction(rng.choice((1, 2, 3, 5)), rng.choice((2, 3, 4, 7))) ** 2
            if not 0 < s < 1:
                continue
            vals[key] = (sign or rng.choice((1, -1)), s)
        style = rng.randint(0, 1)
        rows = [["-1"] * n for _ in range(n)]
        for (i, j), (sign, s) in vals.items():
            rows[i][j] = rows[j][i] = _square_class_text(sign, s, style)
        out.append({"dim": dim, "cos": rows})
    big = "sqrt(1/99999999999973)"
    out.append({"dim": 2, "cos": [["-1", big, "0"], [big, "-1", "0"], ["0", "0", "-1"]]})
    return out


def _quadratic_json(a: Fraction, b: Fraction, r: int) -> dict:
    """{"minpoly", "interval"} of a + b sqrt(r), for b != 0 and r no square."""
    c = [a * a - b * b * r, -2 * a, Fraction(1)]  # (x - a)^2 - b^2 r
    den = math.lcm(*(x.denominator for x in c))
    ints = [int(x * den) for x in c]
    g = math.gcd(*ints)
    root = math.isqrt(r * 2**40)
    lo, hi = sorted((a + b * Fraction(root, 2**20), a + b * Fraction(root + 1, 2**20)))
    interval = [f"{lo.numerator}/{lo.denominator}", f"{hi.numerator}/{hi.denominator}"]
    return {"minpoly": [x // g for x in ints], "interval": interval}


def _generic_entry(rng: random.Random, radicand: int) -> dict:
    """A random a + b sqrt(2), or a + b phi = (a + b/2) + (b/2) sqrt(5), in (-1, 1)."""
    while True:
        a = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        b = Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 8))
        if radicand == 5:
            a, b = a + b / 2, b / 2
        if a != 0 and -0.97 < float(a) + float(b) * math.sqrt(radicand) < 0.97:
            return _quadratic_json(a, b, radicand)


# cos(k pi / 5) = a + b sqrt(5)
COS_FIFTHS = {
    1: (Fraction(1, 4), Fraction(1, 4)),
    2: (Fraction(-1, 4), Fraction(1, 4)),
    3: (Fraction(1, 4), Fraction(-1, 4)),
    4: (Fraction(-1, 4), Fraction(-1, 4)),
}


def generic_matrices(count: int = 100, seed: int = 5) -> list[dict]:
    """Matrix JSON that no scaling makes rational, so the generic path
    decides it: by index mod 10, 3x3 matrices over Q(sqrt 2) (0-2) and
    Q(phi) (3-5), triangles of angles k pi / 5 (6-8, valid for (1, 2, 2)
    and (1, 1, 3)), and a 4x4 matrix over one field (9, every other one
    of them a 3x3 over Q(phi))."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        kind = len(out) % 10
        if kind in (6, 7, 8):
            angles = rng.sample(rng.choice(((1, 2, 2), (1, 1, 3), (2, 2, 2), (1, 1, 2), (1, 3, 3))), 3)
            e = [_quadratic_json(*COS_FIFTHS[k], 5) for k in angles]
            out.append({"dim": 2, "cos": [["-1", e[2], e[1]], [e[2], "-1", e[0]], [e[1], e[0], "-1"]]})
            continue
        radicand = 2 if kind < 3 or (kind == 9 and len(out) % 40 == 9) else 5
        n = 4 if kind == 9 and len(out) % 20 == 9 else 3
        same_field = ("sqrt(2)/2", "-sqrt(1/2)", "sqrt(2)/3") if radicand == 2 else ("1/3",)
        rows = [["-1"] * n for _ in range(n)]
        generic = 0
        for i in range(n):
            for j in range(i + 1, n):
                pick = rng.random()
                if pick < 0.25 or (n == 4 and generic >= 2):
                    x = rng.choice(("0", "1/2", "-1/3", "1/4", "-1/2"))
                elif pick < 0.4:
                    x = rng.choice(same_field)
                else:
                    x = _generic_entry(rng, radicand)
                    generic += 1
                rows[i][j] = rows[j][i] = x
        if generic:
            out.append({"dim": n - 1, "cos": rows})
    return out


def _batch_digest(matrices, tmp_path, capsys, monkeypatch) -> str:
    """sha256 of (exit code, stdout, stderr) of check then reconstruct on
    each matrix, each printed exact value read back as the verdict's."""
    verdicts = record_verdicts(monkeypatch)
    path = tmp_path / "m.json"
    record = []
    for m in matrices:
        path.write_text(json.dumps(m), encoding="utf-8")
        for command in ("check", "reconstruct"):
            rc = main(["fiedler", command, str(path)])
            captured = capsys.readouterr()
            record.append([rc, captured.out, captured.err])
            assert_fiedler_reads_back(captured.out, verdicts)
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


class TestFiedlerBatchesPinned:
    """Bytes of fiedler check and reconstruct on two seeded batches, first
    pinned before the descaled path moved to integers and square roots to
    closed-form brackets, re-pinned when witnesses became JSON, and again
    when a refused reconstruction's stderr line named only the witness kind
    (stdout and exit codes unchanged)."""

    def test_square_class_batch(self, tmp_path, capsys, monkeypatch):
        mats = square_class_matrices()
        assert all(_descale(load_matrix(m)) is not None for m in mats)
        assert _batch_digest(mats, tmp_path, capsys, monkeypatch) == SQUARE_CLASS_DIGEST

    def test_generic_batch(self, tmp_path, capsys, monkeypatch):
        mats = generic_matrices()
        assert all(_descale(load_matrix(m)) is None for m in mats)
        assert _batch_digest(mats, tmp_path, capsys, monkeypatch) == GENERIC_DIGEST


SQUARE_CLASS_DIGEST = "68c4fd588d756b2c03a8a8bd952eef3a399943bbaa2854620817e05b73363f65"
GENERIC_DIGEST = "f9d805c18be0c02368ec5331353546dd3b774279f7068f8080345aa5c3d6a572"
