"""Realizability decisions, row-space certificates, reconstruction."""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reptile_forge.algebra import PHI, QPHI, AlgebraicReal, MPoly, as_algebraic, det, sturm
from reptile_forge.cli import main
from reptile_forge.fiedler import (
    CosMatrix,
    MalformedMatrixError,
    ReconstructionError,
    _descale,
    char_poly,
    char_poly_symbolic,
    complement_matrix_symbolic,
    multiples_matrix_symbolic,
    nonneg_rowspace_certificate,
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
    similar,
)
from helpers import DRAW_1, DRAW_14, cos_matrix_json, random_rational_tetrahedron

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
            assert nonneg_rowspace_certificate(a) is None

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


def _sqrt_prod(qi, qj):
    v = Fraction(qi) * Fraction(qj)
    r = AlgebraicReal.sqrt_rational(v)
    assert r.is_rational
    return r.as_fraction()


class TestRowspaceCertificate:
    def test_multiples_matrix(self):
        t, u = Fraction(3, 4), Fraction(1, 5)
        rows = [
            [-1, -t, t, t],
            [-t, -1, u, t],
            [t, u, -1, -t],
            [t, t, -t, -1],
        ]
        a = CosMatrix.from_rows(rows)
        c = nonneg_rowspace_certificate(a)
        assert c is not None
        y = [sum(Fraction(c[j]) * rows[j][i] for j in range(4)) for i in range(4)]
        assert (all(v >= 0 for v in y) or all(v <= 0 for v in y)) and any(y)

    def test_complement_matrix(self):
        t = Fraction(1, 3)
        rows = [
            [-1, t, -t, -t],
            [t, -1, t, -t],
            [-t, t, -1, t],
            [-t, -t, t, -1],
        ]
        a = CosMatrix.from_rows(rows)
        c = nonneg_rowspace_certificate(a)
        assert c is not None
        y = [sum(Fraction(c[j]) * rows[j][i] for j in range(4)) for i in range(4)]
        assert (all(v >= 0 for v in y) or all(v <= 0 for v in y)) and any(y)

    def test_realizable_matrix_has_no_certificate(self):
        a = CosMatrix.from_rows(
            [[-1 if i == j else Fraction(1, 3) for j in range(4)] for i in range(4)]
        )
        assert nonneg_rowspace_certificate(a) is None

    def test_completeness_pair(self):
        # wherever a certificate exists, realizability must fail
        rng = random.Random(99)
        found = 0
        for _ in range(40):
            t = Fraction(rng.randint(-8, 8), 10)
            u = Fraction(rng.randint(-8, 8), 10)
            rows = [
                [-1, -t, t, t],
                [-t, -1, u, t],
                [t, u, -1, -t],
                [t, t, -t, -1],
            ]
            try:
                a = CosMatrix.from_rows(rows)
            except MalformedMatrixError:
                continue
            c = nonneg_rowspace_certificate(a)
            if c is not None:
                found += 1
                assert not realizability_check(a).valid
        assert found > 0


class TestReconstruction:
    def test_regular(self):
        a = CosMatrix.from_rows(
            [[-1 if i == j else Fraction(1, 3) for j in range(4)] for i in range(4)]
        )
        s = reconstruct_simplex(a)
        dd = dihedral_data(s)
        for c in dd.facet_cos.values():
            assert c == pytest.approx(1 / 3, abs=1e-10)
        longest = max(s.squared_lengths().values())
        assert math.sqrt(longest) == pytest.approx(1.0, abs=1e-12)

    def test_orthoscheme_round_trip(self):
        o = orthoscheme(3)
        a = CosMatrix.from_dihedral(dihedral_data(o))
        rec = reconstruct_simplex(a)
        assert similar(o.as_float(), rec) is not None

    def test_path_matrix_reconstruction(self):
        a = CosMatrix.from_rows(path_rows(Fraction(0), PHI_M1))
        rec = reconstruct_simplex(a)
        dd = dihedral_data(rec)
        want = sorted([0.0, 0.0, 0.0] + [float(PHI_M1)] * 3)
        got = sorted(dd.facet_cos.values())
        for a_, b_ in zip(got, want):
            assert a_ == pytest.approx(b_, abs=1e-10)

    def test_path_angles_form_disjoint_paths(self):
        # equal angles sit on two vertex-disjoint 3-edge paths
        a = CosMatrix.from_rows(path_rows(Fraction(0), PHI_M1))
        rec = reconstruct_simplex(a)
        dd = dihedral_data(rec)
        groups = {}
        for edge, c in dd.edge_cos().items():
            groups.setdefault(round(c, 6), []).append(edge)
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

    @pytest.mark.parametrize("route", [lambda a: a, via_json], ids=["gram", "json"])
    def test_unnormalised_kernel(self, route):
        a = route(matrix_of(DRAW_14))
        rec = reconstruct_simplex(a)
        assert similar(Simplex.exact(DRAW_14).as_float(), rec) is not None
        longest = max(rec.squared_lengths().values())
        assert longest == pytest.approx(1.0, abs=1e-12)

    def test_round_trip_on_random_tetrahedra(self):
        rng = random.Random(31337)
        for _ in range(10):
            s = random_rational_tetrahedron(rng)
            a = CosMatrix.from_dihedral(dihedral_data(s))
            rec = reconstruct_simplex(a)
            assert similar(s.as_float(), rec) is not None
            got = dihedral_data(rec).facet_cos
            for (i, j), c in got.items():
                assert c == pytest.approx(float(as_algebraic(a.entries[i][j])), abs=1e-10)


class TestCharPoly:
    @pytest.mark.parametrize("route", [lambda a: a, via_json], ids=["gram", "json"])
    def test_verdict_holds_char_poly_of_a(self, route):
        a = route(matrix_of(ORTHO_235))
        assert realizability_check(a).char_poly == (0, 2, 5, 4, 1)
        assert [c.as_fraction() for c in char_poly(a)] == [0, 2, 5, 4, 1]

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
        cp = char_poly(a)
        # det(lambda I + I) = (lambda + 1)^4 = 1 + 4x + 6x^2 + 4x^3 + x^4
        assert [c.as_fraction() for c in cp] == [1, 4, 6, 4, 1]

    def test_tripod_constant_term_is_det(self):
        t, s = Fraction(1, 5), Fraction(1, 3)
        a = CosMatrix.from_rows(tripod_rows(t, s))
        cp = char_poly(a)
        det_expected = (1 + s) ** 2 * (1 - 2 * s - 3 * t**2)
        assert cp[0].as_fraction() == det_expected  # det(-A) = det(A) for 4x4

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
        assert printed == [str(c.as_fraction()) for c in char_poly(load_matrix(SQRT_MATRIX))]

    def test_verdict_char_poly_is_read_once(self, monkeypatch):
        from reptile_forge.algebra import linalg

        calls = []
        real = linalg.char_poly
        monkeypatch.setattr(linalg, "char_poly", lambda m: calls.append(m) or real(m))
        v = realizability_check(matrix_of(ORTHO_235))
        assert calls == []
        assert v.char_poly == (0, 2, 5, 4, 1) and v.char_poly == (0, 2, 5, 4, 1)
        assert len(calls) == 1
