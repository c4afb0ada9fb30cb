"""The machine-checked case analysis: steps, certificates, replay."""

import copy
import hashlib
import json
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reptile_forge import audit
from reptile_forge.algebra import MPoly, PHI, QPHI
from reptile_forge.audit import (
    AuditStep,
    _rho_enclosure,
    _two_length_scan,
    beta_constraints_step,
    bound_chain_step,
    canonical_json,
    dumps_reports,
    exclude_pi_over_5_step,
    final_cases_step,
    hill_construction_step,
    is_perfect_cube,
    multiples_case_step,
    path_complement_step,
    path_det_factorization_step,
    rho_degree_step,
    run_full_audit,
    run_step,
    tripod_identity_step,
    two_length_step,
    verify_report,
    verify_step,
)
from reptile_forge.cli import main as cli_main
from reptile_forge.fiedler import multiples_matrix_symbolic, tripod_matrix_symbolic

NON_CUBE_K = [k for k in range(2, 65) if not is_perfect_cube(k)]


class TestRhoDegree:
    def test_k2_pass(self):
        s = rho_degree_step(2)
        assert s.verdict == "pass" and s.certificate["irreducible"]

    def test_k8_inapplicable(self):
        s = rho_degree_step(8)
        assert s.verdict == "inapplicable"
        assert s.certificate["cube_root"] == 2

    def test_k7_pass(self):
        # oracle: no rational root among the divisor candidates +-1, +-1/7
        for cand in (1, -1, Fraction(1, 7), Fraction(-1, 7)):
            assert 7 * cand**3 - 1 != 0
        s = rho_degree_step(7)
        assert s.verdict == "pass"

    def test_verifier(self):
        assert verify_step(rho_degree_step(5))
        assert verify_step(rho_degree_step(27))


class TestTwoLength:
    def test_k2_bound_10(self):
        s = two_length_step(2, 10)
        assert s.verdict == "pass"
        assert s.certificate["systems_checked"] + s.certificate["degenerate_skipped"] == 11**4
        assert Fraction(s.certificate["min_abs_residual"]) > 0

    def test_k5_bound_6(self):
        s = two_length_step(5, 6)
        assert s.verdict == "pass"

    def test_cube_rejected(self):
        with pytest.raises(ValueError):
            two_length_step(8)

    def test_verifier(self):
        assert verify_step(two_length_step(3, 6))


class TestSymbolicSteps:
    def test_tripod_identity(self):
        s = tripod_identity_step()
        assert s.verdict == "pass" and s.certificate["identical"]
        assert s.certificate["spot_values"][0] == s.certificate["spot_values"][1]

    def test_tripod_negative_control(self):
        rows = tripod_matrix_symbolic()
        vars = rows[0][0].vars
        t = MPoly.variable(vars, "t", QPHI.one)
        rows[0][1] = -t
        rows[1][0] = -t
        s = tripod_identity_step(rows)
        assert s.verdict == "fail"

    def test_multiples_case(self):
        s = multiples_case_step()
        assert s.verdict == "pass"
        assert s.certificate["forced_multiplier"]["4"] == [3]
        assert s.certificate["single_vertex_subcase"]["holds"]

    def test_multiples_negative_control(self):
        rows = multiples_matrix_symbolic()
        vars = rows[0][0].vars
        one = MPoly.constant(vars, QPHI.one)
        rows[0][0] = one  # break the diagonal
        s = multiples_case_step(rows)
        assert s.verdict == "fail"

    def test_path_complement(self):
        s = path_complement_step()
        assert s.verdict == "pass"
        assert s.certificate["spot_check"]["row_sum"][1] == "-1/3+0*phi"

    def test_beta_constraints(self):
        s = beta_constraints_step()
        assert s.verdict == "pass"
        cases = {(c["n1"], c["n2"]): c["feasible"] for c in s.certificate["cases"]}
        assert cases[(1, 2)] is False
        assert cases[(2, 1)] is False
        assert s.certificate["survivor"]["feasible"] is True

    def test_path_det_factorization(self):
        s = path_det_factorization_step()
        assert s.verdict == "pass"
        assert s.certificate["identity_cleared_form"]
        assert s.certificate["identity_eigen_form"]
        assert s.certificate["lambda1_divides_charpoly"]
        assert s.certificate["lambda1_at_pi5_point"] == "-1/2+0*phi"

    def test_verifiers(self):
        for step in (
            tripod_identity_step(),
            multiples_case_step(),
            path_complement_step(),
            beta_constraints_step(),
            path_det_factorization_step(),
        ):
            assert verify_step(step), step.id


class TestBoundChain:
    def test_pass_and_enclosure(self):
        s = bound_chain_step()
        assert s.verdict == "pass"
        lo, hi = (Fraction(x) for x in s.certificate["bound_enclosure"])
        assert Fraction(-428, 1000) < lo < hi < Fraction(-427, 1000)
        assert s.certificate["bound_minpoly"] == [-5, -10, 4]  # 4x^2 - 10x - 5
        assert s.certificate["n_candidates"] == [3, 4, 5]
        assert verify_step(s)

    def test_exact_bound_value(self):
        s = bound_chain_step()
        g = QPHI.from_json(s.certificate["exact_bound"])
        assert g == QPHI(2) - PHI * Fraction(3, 2)


class TestExcludePiOver5:
    def test_pass(self):
        s = exclude_pi_over_5_step()
        assert s.verdict == "pass"
        assert s.certificate["t_minpoly"] == [-1, -2, 4]
        assert s.certificate["boundary_is_zero"]
        assert verify_step(s)

    def test_negative_control_half(self):
        # with t = 1/2 the eigenvalue at the threshold is not zero, so the
        # same argument cannot force a contradiction there
        from reptile_forge.fiedler import path_eigenvalue_symbolic

        lam1 = path_eigenvalue_symbolic(("s", "t"))
        inv2phi = QPHI(Fraction(1, 2)) - PHI * Fraction(1, 2)  # (1-phi)/2 = -1/(2phi)
        val = lam1.evaluate({"s": inv2phi, "t": QPHI(Fraction(1, 2))})
        assert val  # nonzero


class TestFinalCases:
    def test_all_three_t_values(self):
        s = final_cases_step()
        assert s.verdict == "pass"
        by_t = {c["t"]: c for c in s.certificate["cases"]}
        assert set(by_t) == {"0", "1/2", "1/sqrt2"}
        for case in by_t.values():
            assert case["root_count_ok"] and len(case["roots"]) == 2
            for rec in case["roots"]:
                assert rec["within_0.001"]
                assert rec["rational_angle_match"] is None
                assert Fraction(rec["min_catalog_gap"]) > 0

    def test_t0_roots_are_golden(self):
        s = final_cases_step()
        case = next(c for c in s.certificate["cases"] if c["t"] == "0")
        mps = sorted(tuple(r["minpoly"]) for r in case["roots"])
        assert mps == [(-1, -1, 1), (-1, 1, 1)]  # x^2 +- x - 1

    def test_quartic_case_degrees(self):
        s = final_cases_step()
        case = next(c for c in s.certificate["cases"] if c["t"] == "1/sqrt2")
        for rec in case["roots"]:
            assert len(rec["minpoly"]) == 5  # quartic irrationalities

    def test_verifier(self):
        assert verify_step(final_cases_step())

    def test_each_eliminant_factored_once(self, monkeypatch):
        from reptile_forge.algebra import factor

        degrees = Counter()
        real = factor.factor_squarefree

        def counting(f):
            degrees[len(f) - 1] += 1
            return real(f)

        monkeypatch.setattr(factor, "factor_squarefree", counting)
        step = final_cases_step()
        case = next(c for c in step.certificate["cases"] if c["t"] == "1/sqrt2")
        assert len(case["eliminant"]) == 9 and case["isolated_in_(-1,1)"] == 5
        assert degrees[8] == 1  # the t = 1/sqrt2 eliminant, shared by its 5 roots


class TestHillConstruction:
    def test_k8(self):
        s = hill_construction_step(8)
        assert s.verdict == "pass"
        assert s.certificate["reptile_report"]["all_ok"]
        assert verify_step(s)

    def test_non_cube_rejected(self):
        with pytest.raises(ValueError):
            hill_construction_step(7)


class TestFullAudit:
    def test_kmax_7_all_excluded(self):
        reports = run_full_audit(7)
        assert [r.k for r in reports] == [2, 3, 4, 5, 6, 7]
        assert all(r.conclusion == "excluded" for r in reports)
        for r in reports:
            assert all(s.verdict == "pass" for s in r.steps)

    def test_kmax_8_annotates_cube(self):
        reports = run_full_audit(8)
        cube = reports[-1]
        assert cube.k == 8
        assert "2^3" in cube.conclusion
        assert any(s.id == "hill-construction" and s.verdict == "pass" for s in cube.steps)

    def test_kmax_10_mixed_range(self):
        reports = {r.k: r for r in run_full_audit(10)}
        assert reports[9].conclusion == "excluded"
        assert reports[10].conclusion == "excluded"
        assert "2^3" in reports[8].conclusion

    def test_range_guard(self):
        with pytest.raises(ValueError, match="empty audit range"):
            run_full_audit(1)

    def test_deterministic_output(self):
        a = canonical_json([r.to_json() for r in run_full_audit(5)])
        b = canonical_json([r.to_json() for r in run_full_audit(5)])
        assert a == b

    def test_independent_checker_validates_everything(self):
        for r in run_full_audit(8):
            assert verify_report(r), r.k

    def test_assumption_recorded(self):
        reports = run_full_audit(3)
        assert any("rational multiple of pi" in a for a in reports[0].assumptions)


class TestRunStep:
    def test_dispatch(self):
        s = run_step("tripod-identity")
        assert s.id == "tripod-identity"
        s = run_step("rho-degree", k=5)
        assert s.inputs["k"] == 5

    def test_k_required(self):
        with pytest.raises(ValueError, match="needs k"):
            run_step("two-length")

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown step"):
            run_step("no-such-step")


class TestCubeDetection:
    @pytest.mark.parametrize("k,expect", [(2, False), (7, False), (8, True), (27, True), (26, False), (1000, True)])
    def test_is_perfect_cube(self, k, expect):
        assert is_perfect_cube(k) is expect


class TestIdentitiesAtRandomPoints:
    def test_twenty_random_rational_points(self):
        import random

        from reptile_forge.algebra import INV_PHI, INV_PHI2, det
        from reptile_forge.fiedler import (
            char_poly_symbolic,
            path_eigenvalue_symbolic,
            path_matrix_symbolic,
        )

        rng = random.Random(424242)
        vars = ("s", "t", "L")
        tripod = tripod_matrix_symbolic(vars)
        tripod_det = det(tripod)
        path = path_matrix_symbolic(vars)
        path_det = det(path)
        cp = char_poly_symbolic(path, "L")
        lam1 = path_eigenvalue_symbolic(vars)
        from reptile_forge.algebra import MPoly, PHI

        s_var = MPoly.variable(vars, "s", QPHI.one)
        t_var = MPoly.variable(vars, "t", QPHI.one)
        one = MPoly.constant(vars, QPHI.one)
        f1 = s_var**2 + t_var**2 + s_var * t_var + s_var + t_var - one
        f2 = s_var - MPoly.constant(vars, INV_PHI2) * t_var + MPoly.constant(vars, INV_PHI)
        f3 = t_var - MPoly.constant(vars, INV_PHI2) * s_var + MPoly.constant(vars, INV_PHI)
        phi2 = MPoly.constant(vars, PHI * PHI)
        rhs_path = -(phi2 * f1 * f2 * f3)
        for _ in range(20):
            s0 = QPHI(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            t0 = QPHI(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            at = {"s": s0, "t": t0, "L": QPHI.zero}
            # tripod determinant factorization
            lhs = tripod_det.evaluate(at)
            rhs = ((one + s_var) ** 2 * (one - 2 * s_var - 3 * t_var**2)).evaluate(at)
            assert lhs == rhs
            # path determinant factorization
            assert path_det.evaluate(at) == rhs_path.evaluate(at)
            # the eigenvalue is a characteristic-polynomial root
            lam_val = lam1.evaluate(at)
            assert not cp.evaluate({"s": s0, "t": t0, "L": lam_val})


_Q = 2**audit._RHO_BITS


def _reference_scan(bound, rho_lo, rho_hi):
    """The residual scan as one plain loop over every coefficient system."""
    q = 2**audit._RHO_BITS
    plo = rho_lo.numerator * (q // rho_lo.denominator)
    phi_ = rho_hi.numerator * (q // rho_hi.denominator)
    q2 = q * q
    r2lo, r2hi = plo * plo, phi_ * phi_
    checked = degenerate = 0
    min_abs_num = None
    for n11 in range(bound + 1):
        for n22 in range(bound + 1):
            b = n11 + n22
            for n12 in range(bound + 1):
                for n21 in range(bound + 1):
                    a = n11 * n22 - n12 * n21
                    if a == 0 and b == 0:
                        degenerate += 1
                        continue
                    t_lo = (a * r2lo if a >= 0 else a * r2hi) - b * phi_ * q + q2
                    t_hi = (a * r2hi if a >= 0 else a * r2lo) - b * plo * q + q2
                    if t_lo <= 0 <= t_hi:
                        return {
                            "checked": checked,
                            "degenerate": degenerate,
                            "min_abs_residual_num": 0,
                            "residual_den": q2,
                            "failing_system": (n11, n12, n21, n22),
                        }
                    mag = t_lo if t_lo > 0 else -t_hi
                    if min_abs_num is None or mag < min_abs_num:
                        min_abs_num = mag
                    checked += 1
    return {
        "checked": checked,
        "degenerate": degenerate,
        "min_abs_residual_num": min_abs_num,
        "residual_den": q2,
    }


class TestTwoLengthScan:
    def test_matches_reference_for_every_non_cube_k(self):
        for k in NON_CUBE_K:
            lo, hi = _rho_enclosure(k)
            for bound in (10, 0, 1, 2, 3, 4):
                assert _two_length_scan(k, bound, lo, hi) == _reference_scan(bound, lo, hi), (k, bound)

    @pytest.mark.parametrize(
        "lo,hi",
        [
            (Fraction(1, 4), Fraction(3, 4)),
            (Fraction(1, 2) - Fraction(1, 2**10), Fraction(1, 2) + Fraction(1, 2**10)),
            (Fraction(1, 8), Fraction(1, 8) + Fraction(1, 2**20)),
            (Fraction(7, 8), Fraction(7, 8) + Fraction(1, 2**20)),
        ],
    )
    @pytest.mark.parametrize("bound", [10, 6, 3])
    def test_forced_failure_matches_reference(self, lo, hi, bound):
        scan = _two_length_scan(2, bound, lo, hi)
        ref = _reference_scan(bound, lo, hi)
        assert scan == ref
        if (lo, hi) == (Fraction(1, 4), Fraction(3, 4)):
            assert scan["min_abs_residual_num"] == 0 and "failing_system" in scan

    @settings(max_examples=150, deadline=None)
    @given(
        bound=st.integers(0, 10),
        lo=st.integers(1, _Q - 2),
        width=st.one_of(st.integers(1, 2**24), st.integers(2**24, _Q // 2)),
    )
    def test_random_dyadic_intervals_match_reference(self, bound, lo, width):
        lo, hi = Fraction(lo, _Q), Fraction(min(lo + width, _Q - 1), _Q)
        assert _two_length_scan(2, bound, lo, hi) == _reference_scan(bound, lo, hi)

    def test_seeded_draws_cover_both_outcomes(self):
        rng = random.Random(8)
        outcomes = Counter()
        for i in range(120):
            bound = rng.randint(0, 10)
            width = rng.randint(1, 2**24) if i % 2 else rng.randint(2**24, _Q // 2)
            lo = rng.randint(1, _Q - 1 - width)
            lo, hi = Fraction(lo, _Q), Fraction(lo + width, _Q)
            scan = _two_length_scan(2, bound, lo, hi)
            assert scan == _reference_scan(bound, lo, hi), (bound, lo, hi)
            outcomes["failing_system" in scan] += 1
        assert outcomes[True] >= 10 and outcomes[False] >= 10


@pytest.fixture(scope="module")
def full_audit():
    return run_full_audit(64)


def _run_cli_verify(reports, tmp_path, monkeypatch, capsys):
    """`audit run --kmax 64 --verify` on prebuilt reports: (exit code, stderr)."""
    monkeypatch.setattr(audit, "run_full_audit", lambda kmax: reports)
    rc = cli_main(["audit", "run", "--kmax", "64", "--verify", "--json", str(tmp_path / "a.json")])
    return rc, capsys.readouterr().err


class TestVerifyOncePerRun:
    def test_each_distinct_step_checked_once(self, full_audit, tmp_path, monkeypatch, capsys):
        calls = Counter()
        real = audit.verify_step

        def counting(step):
            calls[step.id] += 1
            return real(step)

        monkeypatch.setattr(audit, "verify_step", counting)
        rc, err = _run_cli_verify(full_audit, tmp_path, monkeypatch, capsys)
        assert rc == 0
        assert "FAILED" not in err
        assert sum(calls.values()) == 134
        assert calls["rho-degree"] == 63
        assert calls["two-length"] == 60
        assert calls["hill-construction"] == 3
        shared = {id(s): s.id for r in full_audit for s in r.steps if s.id not in audit.K_DEPENDENT_STEPS}
        assert len(shared) == len(set(shared.values())) == 8
        assert all(calls[sid] == 1 for sid in shared.values())

    @pytest.mark.parametrize(
        "mutation",
        ["drop-root", "eliminant-coefficient", "shift-interval", "conjugate-interval", "spurious-count"],
    )
    def test_corrupted_final_cases_fails_every_non_cube_k(
        self, full_audit, mutation, tmp_path, monkeypatch, capsys
    ):
        reports = copy.deepcopy(full_audit)  # keeps the shared steps shared
        step = next(s for s in reports[0].steps if s.id == "final-cases")
        assert all(step in r.steps for r in reports if r.k in NON_CUBE_K)
        cases = step.certificate["cases"]
        if mutation == "drop-root":
            cases[0]["roots"].pop()
        elif mutation == "eliminant-coefficient":
            cases[1]["eliminant"][0] += 1
        elif mutation == "shift-interval":
            rec = cases[2]["roots"][0]
            rec["interval"] = [str(Fraction(x) + Fraction(1, 100)) for x in rec["interval"]]
        elif mutation == "conjugate-interval":
            # 0.618 and -1.618 share x^2 + x - 1, and both are roots of det(s, 0)
            rec = cases[0]["roots"][1]
            assert rec["minpoly"] == [-1, 1, 1]
            rec["interval"] = ["-162/100", "-161/100"]
        else:
            cases[0]["spurious_filtered"] += 1
        assert not verify_step(step)
        rc, err = _run_cli_verify(reports, tmp_path, monkeypatch, capsys)
        assert rc == 1
        failed = [int(line.rsplit("= ", 1)[1]) for line in err.splitlines() if "FAILED" in line]
        assert failed == NON_CUBE_K


class TestReportText:
    @pytest.mark.parametrize("kmax", [2, 7, 8, 9, 27])
    def test_equals_plain_dump(self, kmax):
        reports = run_full_audit(kmax)
        assert dumps_reports(reports) == json.dumps(
            [r.to_json() for r in reports], indent=2, sort_keys=True
        )

    def test_each_distinct_step_encoded_once(self, monkeypatch):
        reports = run_full_audit(9)
        steps_encoded = []
        real = json.dumps

        def counting(obj, **kwargs):
            if isinstance(obj, dict) and "certificate" in obj:
                steps_encoded.append(obj["id"])
            return real(obj, **kwargs)

        monkeypatch.setattr(json, "dumps", counting)
        dumps_reports(reports)
        distinct = {id(s): s.id for r in reports for s in r.steps}
        assert sum(len(r.steps) for r in reports) == 72
        assert sorted(steps_encoded) == sorted(distinct.values())

    def test_stdout_equals_json_file(self, tmp_path, capsys):
        out = tmp_path / "audit.json"
        assert cli_main(["audit", "run", "--kmax", "9", "--json", str(out)]) == 0
        file_err = capsys.readouterr().err
        assert cli_main(["audit", "run", "--kmax", "9"]) == 0
        captured = capsys.readouterr()
        assert captured.out == out.read_text(encoding="utf-8")
        assert captured.err == file_err


def _clear_package_caches():
    """Empty every lru_cache the package holds, as in a fresh interpreter:
    catalog cosines keep the refinement earlier callers gave them, and the
    recorded catalog gaps are read from their enclosures."""
    for name, module in list(sys.modules.items()):
        if name.startswith("reptile_forge") and module is not None:
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def test_audit_report_bytes_pinned(tmp_path, capsys):
    out = tmp_path / "audit.json"
    _clear_package_caches()
    assert cli_main(["audit", "run", "--kmax", "64", "--verify", "--json", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "061ca200671c6c36bc7b544e511a2bb8f62b17431382f55be70e6b3e0c023429"
    )
