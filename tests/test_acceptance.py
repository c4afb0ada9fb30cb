"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Tolerances and time limits are pinned here; nothing is deferred to later
calibration.  Criterion 7 runs explicit seeded case loops so the total
case count is auditable.
"""

import json
import math
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from reptile_forge.algebra import AlgebraicReal, as_algebraic, compare, euler_totient
from reptile_forge.algebra import intpoly as ip
from reptile_forge.algebra import sturm_isolate
from reptile_forge.audit import canonical_json, final_cases_step, run_full_audit, verify_report
from reptile_forge.cli import main as cli_main
from reptile_forge.fiedler import CosMatrix, realizability_check, reconstruct_simplex
from reptile_forge.hill import HillSpec, subdivide, verify_reptile
from reptile_forge.simplex import Simplex, congruent, dihedral_data, volume
from reptile_forge.trig import RationalAngle, catalog, cosine_degree, cosine_of, match_rational_angle

from helpers import similar_coordinates

REPORT = []


def _record(name: str, ok: bool, elapsed: float, limit: float, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} {name}: {elapsed:.2f}s (limit {limit:.0f}s) {detail}"
    REPORT.append(line)
    print(line)
    assert ok, line
    assert elapsed < limit, line


def test_criterion_1_jahnel_catalogs():
    t0 = time.monotonic()
    cat2 = catalog(2)
    cat4 = catalog(4)
    ok = len(cat2) == 8 and len(cat4) == 20
    ref2 = [0.309, 0.707, 0.809, 0.866]
    ref4 = [0.105, 0.259, 0.383, 0.588, 0.669, 0.914, 0.924, 0.951, 0.966, 0.978]
    got2 = sorted(float(c) for c in cat2.cosines())
    got4 = sorted(float(c) for c in cat4.cosines())
    want2 = sorted([v for v in ref2] + [-v for v in ref2])
    want4 = sorted([v for v in ref4] + [-v for v in ref4])
    ok = ok and all(abs(a - b) <= 0.001 for a, b in zip(got2, want2))
    ok = ok and all(abs(a - b) <= 0.001 for a, b in zip(got4, want4))
    _record("criterion 1 (cosine catalogs)", ok, time.monotonic() - t0, 5.0,
            f"|catalog(2)| = {len(cat2)}, |catalog(4)| = {len(cat4)}")


def test_criterion_2_hill_reptiles():
    t0 = time.monotonic()
    ok = True
    detail = []
    sub = subdivide(HillSpec.from_pair_cos(3, Fraction(0)), 2)
    rep = verify_reptile(sub)
    ok = ok and len(sub.pieces) == 8
    ok = ok and volume(sub.parent) == Fraction(1, 6)
    ok = ok and sum(volume(p) for p in sub.pieces) == Fraction(1, 6)
    ok = ok and rep.measured_ratio == Fraction(1, 2)
    ok = ok and rep.all_ok and rep.mode == "exact"
    detail.append(f"d3 m2: {rep.piece_count} pieces all checks {rep.all_ok}")
    for dim, m in ((3, 3), (2, 2), (2, 3)):
        rep = verify_reptile(subdivide(HillSpec.from_pair_cos(dim, Fraction(0)), m))
        ok = ok and rep.all_ok and rep.piece_count == m**dim and rep.measured_ratio == Fraction(1, m)
        detail.append(f"d{dim} m{m}: ok")
    _record("criterion 2 (Hill reptile subdivisions)", ok, time.monotonic() - t0, 10.0,
            "; ".join(detail))


def test_criterion_3_fiedler_soundness_200():
    t0 = time.monotonic()
    rng = random.Random(20260808)
    checked = 0
    worst_residual = 0.0
    ok = True
    while checked < 200:
        verts = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)]
            for _ in range(4)
        ]
        try:
            s = Simplex.exact(verts)
        except ValueError:
            continue
        checked += 1
        a = CosMatrix.from_dihedral(dihedral_data(s))
        verdict = realizability_check(a)
        ok = ok and verdict.valid
        ok = ok and all(as_algebraic(k).sign() > 0 for k in verdict.kernel)
        rec = reconstruct_simplex(a)
        ok = ok and similar_coordinates(s.as_float(), rec.as_float())
        measured = dihedral_data(rec).facet_cos
        for (i, j), c in measured.items():
            r = abs(float(c) - float(as_algebraic(a.entries[i][j])))
            worst_residual = max(worst_residual, r)
        ok = ok and worst_residual < 1e-10
        if not ok:
            break
    _record("criterion 3 (realizability soundness, 200 tetrahedra)", ok,
            time.monotonic() - t0, 60.0,
            f"checked {checked}, worst cosine residual {worst_residual:.2e}")


def test_criterion_4_symbolic_identities():
    from reptile_forge.algebra import INV_PHI, INV_PHI2, PHI, QPHI, MPoly, det
    from reptile_forge.fiedler import (
        char_poly_symbolic,
        path_eigenvalue_symbolic,
        path_matrix_symbolic,
        tripod_matrix_symbolic,
    )

    # tripod identity
    t0 = time.monotonic()
    mat = tripod_matrix_symbolic()
    vars = mat[0][0].vars
    s = MPoly.variable(vars, "s", QPHI.one)
    t = MPoly.variable(vars, "t", QPHI.one)
    one = MPoly.constant(vars, QPHI.one)
    tripod_ok = det(mat) == (one + s) ** 2 * (one - 2 * s - 3 * t**2)
    t_tripod = time.monotonic() - t0

    # path determinant factorization over Q(phi); clearing the 1/phi and
    # 1/phi^2 denominators carries the unit phi^2
    t0 = time.monotonic()
    vars = ("s", "t")
    pmat = path_matrix_symbolic(vars)
    path_det = det(pmat)
    s = MPoly.variable(vars, "s", QPHI.one)
    t = MPoly.variable(vars, "t", QPHI.one)
    one = MPoly.constant(vars, QPHI.one)
    f1 = s**2 + t**2 + s * t + s + t - one
    f2 = s - MPoly.constant(vars, INV_PHI2) * t + MPoly.constant(vars, INV_PHI)
    f3 = t - MPoly.constant(vars, INV_PHI2) * s + MPoly.constant(vars, INV_PHI)
    phi2 = MPoly.constant(vars, PHI * PHI)
    path_ok = path_det == -(phi2 * f1 * f2 * f3)
    t_path = time.monotonic() - t0

    # lambda_1 divides the path characteristic polynomial
    t0 = time.monotonic()
    lmat = path_matrix_symbolic(("s", "t", "L"))
    cp = char_poly_symbolic(lmat, "L")
    lam1 = path_eigenvalue_symbolic(("s", "t", "L"))
    eigen_ok = cp.substitute({"L": lam1}).is_zero
    t_eigen = time.monotonic() - t0

    ok = tripod_ok and path_ok and eigen_ok
    worst = max(t_tripod, t_path, t_eigen)
    _record("criterion 4 (symbolic determinant identities)", ok, worst, 1.0,
            f"tripod {t_tripod:.2f}s, path {t_path:.2f}s, eigenvalue {t_eigen:.2f}s")


def test_criterion_5_final_case_roots():
    t0 = time.monotonic()
    step = final_cases_step()
    ok = step.verdict == "pass"
    targets = {
        "0": [Fraction("-0.618"), Fraction("0.618")],
        "1/2": [Fraction("-0.427"), Fraction("0.151")],
        "1/sqrt2": [Fraction("-0.348"), Fraction("-0.131")],
    }
    detail = []
    for case in step.certificate["cases"]:
        want = targets[case["t"]]
        ok = ok and case["root_count_ok"] and len(case["roots"]) == 2
        for rec, target in zip(case["roots"], want):
            lo, hi = (Fraction(x) for x in rec["interval"])
            inside = target - Fraction(1, 1000) <= lo and hi <= target + Fraction(1, 1000)
            ok = ok and inside
            ok = ok and rec["rational_angle_match"] is None
            # the root read back from its printed minpoly and interval is no
            # cosine of a rational angle, of any order its degree allows
            root = AlgebraicReal.from_root(tuple(rec["minpoly"]), lo, hi)
            ok = ok and match_rational_angle(root) is None
        detail.append(f"t={case['t']}: {[r['approx'] for r in case['roots']]}")
    _record("criterion 5 (final case roots)", ok, time.monotonic() - t0, 30.0,
            "; ".join(detail))


def test_criterion_6_full_audit_deterministic(tmp_path, capsys):
    t0 = time.monotonic()
    p1, p2 = tmp_path / "run1.json", tmp_path / "run2.json"
    rc1 = cli_main(["audit", "run", "--kmax", "7", "--json", str(p1)])
    rc2 = cli_main(["audit", "run", "--kmax", "7", "--json", str(p2)])
    capsys.readouterr()
    ok = rc1 == 0 and rc2 == 0
    ok = ok and p1.read_bytes() == p2.read_bytes()
    reports_doc = json.loads(p1.read_text())
    ok = ok and [r["k"] for r in reports_doc] == [2, 3, 4, 5, 6, 7]
    ok = ok and all(r["conclusion"] == "excluded" for r in reports_doc)
    # every certificate re-verifies through the independent checker, and
    # k = 8 carries a verified construction
    reports = run_full_audit(8)
    ok = ok and all(verify_report(r) for r in reports)
    cube = reports[-1]
    ok = ok and cube.k == 8 and any(
        s.id == "hill-construction" and s.verdict == "pass" for s in cube.steps
    )
    _record("criterion 6 (full audit, deterministic + re-verified)", ok,
            time.monotonic() - t0, 120.0,
            f"k=2..7 excluded; report bytes {len(p1.read_bytes())}")


def test_criterion_7_property_suites():
    t0 = time.monotonic()
    cases = 0
    ok = True

    # Sturm isolation versus a dense-sampling sign-change oracle
    rng = random.Random(101)
    for _ in range(300):
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(2, 7))]
        p = ip.poly(coeffs)
        if ip.degree(p) < 1:
            continue
        cases += 1
        bound = ip.root_bound(p)
        ivs = sturm_isolate(p)
        f = ip.squarefree_part(p)
        step = bound / 500
        signs = []
        x = -bound
        for _ in range(1001):
            sg = ip.sign_at(f, x)
            if sg:
                signs.append(sg)
            x += step
        changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        ok = ok and len(ivs) >= changes
        for iv in ivs:
            if iv.lo == iv.hi:
                ok = ok and ip.eval_at(f, iv.lo) == 0
            else:
                ok = ok and ip.sign_at(f, iv.lo) * ip.sign_at(f, iv.hi) < 0

    # total-order axioms for exact comparison
    rng = random.Random(202)
    phi = AlgebraicReal.from_root([-1, -1, 1], 1, 2)
    pool = [
        AlgebraicReal.from_rational(Fraction(0)),
        AlgebraicReal.from_rational(Fraction(2, 3)),
        AlgebraicReal.sqrt_rational(2),
        AlgebraicReal.sqrt_rational(Fraction(9, 2)),
        -AlgebraicReal.sqrt_rational(3),
        phi,
        phi - 1,
        AlgebraicReal.from_root([-1, 0, 0, 7], 0, 1),
        AlgebraicReal.sqrt_rational(2) * AlgebraicReal.sqrt_rational(3),
        AlgebraicReal.sqrt_rational(6),
    ]
    for _ in range(300):
        a, b, c = (pool[rng.randrange(len(pool))] for _ in range(3))
        cases += 1
        ok = ok and compare(a, b) == -compare(b, a)
        if compare(a, b) <= 0 and compare(b, c) <= 0:
            ok = ok and compare(a, c) <= 0

    # congruence is an equivalence relation on random rational tetrahedra
    rng = random.Random(303)
    for _ in range(200):
        cases += 1
        while True:
            verts = [[Fraction(rng.randint(-5, 5)) for _ in range(3)] for _ in range(4)]
            try:
                s = Simplex.exact(verts)
                break
            except ValueError:
                continue
        moved = s.translated((rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4)))
        mirrored = Simplex.exact([(-v[0], v[1], v[2]) for v in moved.vertices])
        ok = ok and congruent(s, s)
        ok = ok and congruent(s, moved) and congruent(moved, s)
        ok = ok and congruent(s, mirrored)  # transitive through `moved`

    # cosine degree equals phi(n)/2 for every reduced angle with n <= 60
    for n in range(1, 61):
        for m in range(n + 1):
            if math.gcd(m, n) != 1:
                continue
            cases += 1
            ang = RationalAngle.of(2 * m, n)
            _, order = ang.two_pi_form()
            d = cosine_degree(ang)
            expected = 1 if euler_totient(order) <= 2 else euler_totient(order) // 2
            ok = ok and d == expected
    _record("criterion 7 (property suites)", ok and cases >= 1000,
            time.monotonic() - t0, 120.0, f"{cases} cases")


def test_zzz_summary():
    print()
    for line in REPORT:
        print(line)
    assert len(REPORT) == 7
