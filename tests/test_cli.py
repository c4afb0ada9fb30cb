"""The command-line surface: exit codes, JSON round trips, OBJ export."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import reptile_forge
from reptile_forge.cli import main
from reptile_forge.hill import Subdivision
from reptile_forge.simplex import Simplex

TRIPOD_BAD = {
    "dim": 3,
    "cos": [
        ["-1", "1/2", "1/2", "1/2"],
        ["1/2", "-1", "1/3", "1/3"],
        ["1/2", "1/3", "-1", "1/3"],
        ["1/2", "1/3", "1/3", "-1"],
    ],
}

REGULAR = {
    "dim": 3,
    "cos": [["-1" if i == j else "1/3" for j in range(4)] for i in range(4)],
}


def write(tmp_path, name, payload):
    return write_text(tmp_path, name, json.dumps(payload))


def write_text(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


class TestFiedlerCommands:
    def test_check_valid_exit_zero(self, tmp_path, capsys):
        assert main(["fiedler", "check", write(tmp_path, "m.json", REGULAR)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["valid"] is True

    def test_check_invalid_exit_one(self, tmp_path, capsys):
        assert main(["fiedler", "check", write(tmp_path, "m.json", TRIPOD_BAD)]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["valid"] is False

    def test_reconstruct_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "simplex.json"
        rc = main(
            ["fiedler", "reconstruct", write(tmp_path, "m.json", REGULAR), "--out", str(out_path)]
        )
        assert rc == 0
        s = Simplex.from_json(json.loads(out_path.read_text()))
        assert s.dim == 3 and s.mode == "float"

    def test_reconstruct_invalid(self, tmp_path, capsys):
        rc = main(["fiedler", "reconstruct", write(tmp_path, "m.json", TRIPOD_BAD)])
        assert rc == 1

    def test_radical_shorthand_accepted(self, tmp_path, capsys):
        half_sqrt2 = "sqrt(2)/2"
        m = {
            "dim": 3,
            "cos": [
                ["-1", "0", half_sqrt2, half_sqrt2],
                ["0", "-1", "0", half_sqrt2],
                [half_sqrt2, "0", "-1", "0"],
                [half_sqrt2, half_sqrt2, "0", "-1"],
            ],
        }
        rc = main(["fiedler", "check", write(tmp_path, "m.json", m)])
        capsys.readouterr()
        assert rc in (0, 1)  # parses and decides; validity is the checker's call

    def test_minpoly_object_entries(self, tmp_path, capsys):
        # the path matrix with t = 0 and s = the golden quadratic root,
        # entries given as minimal-polynomial objects
        s_obj = {"minpoly": [-1, 1, 1], "interval": ["0/1", "1/1"]}
        m = {
            "dim": 3,
            "cos": [
                ["-1", "0", s_obj, s_obj],
                ["0", "-1", "0", s_obj],
                [s_obj, "0", "-1", "0"],
                [s_obj, s_obj, "0", "-1"],
            ],
        }
        assert main(["fiedler", "check", write(tmp_path, "m.json", m)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["valid"] is True

    def test_malformed_json_exit_two(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{broken", encoding="utf-8")
        assert main(["fiedler", "check", str(p)]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err

    def test_degree_cap_exit_three(self, tmp_path, capsys):
        # cos 7pi/8 (degree 4) beside cos 7pi/9 (degree 3): the generic path
        # needs a resultant beyond the degree cap, so no verdict is reached
        a = {"minpoly": [1, 0, -8, 0, 8], "interval": ["-1", "-9/10"]}
        b = {"minpoly": [-1, -6, 0, 8], "interval": ["-4/5", "-3/4"]}
        third = "1/3"
        m = {
            "dim": 3,
            "cos": [
                ["-1", a, b, third],
                [a, "-1", third, third],
                [b, third, "-1", third],
                [third, third, third, "-1"],
            ],
        }
        assert main(["fiedler", "check", write(tmp_path, "m.json", m)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and "degree" in lines[0]


class TestHillCommands:
    def test_generate(self, capsys):
        assert main(["hill", "generate", "--dim", "3", "--cos", "0"]) == 0
        s = Simplex.from_json(json.loads(capsys.readouterr().out))
        assert s.vertices[-1] == (Fraction(1), Fraction(1), Fraction(1))

    def test_subdivide_then_verify_pipe(self, tmp_path, capsys):
        sub_path = tmp_path / "sub.json"
        assert main(["hill", "subdivide", "--dim", "3", "--m", "2", "--out", str(sub_path)]) == 0
        capsys.readouterr()
        assert main(["hill", "verify", str(sub_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["all_ok"] is True and report["piece_count"] == 8

    def test_verify_rejects_corrupted(self, tmp_path, capsys):
        sub_path = tmp_path / "sub.json"
        main(["hill", "subdivide", "--dim", "3", "--m", "2", "--out", str(sub_path)])
        capsys.readouterr()
        doc = json.loads(sub_path.read_text())
        doc["pieces"][0]["vertices"][0][0] = "1/9"
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(doc))
        assert main(["hill", "verify", str(bad_path)]) == 1

    @pytest.mark.parametrize("m", [0, 1, -2])
    def test_verify_refuses_m_below_two(self, m, tmp_path, capsys):
        assert main(["hill", "subdivide", "--dim", "2", "--m", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        doc["m"] = m
        assert main(["hill", "verify", write(tmp_path, "sub.json", doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: m must be at least 2\n"

    @pytest.mark.parametrize("m", [4.9, "4", True])
    def test_verify_refuses_m_not_an_integer(self, m, tmp_path, capsys):
        # m counts cuts per side: a float is not truncated, a string or boolean not read as one
        assert main(["hill", "subdivide", "--dim", "2", "--m", "4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        doc["m"] = m
        assert main(["hill", "verify", write(tmp_path, "sub.json", doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: m must be a JSON integer, got {m!r}\n"

    def test_grow_with_obj(self, tmp_path, capsys):
        obj_path = tmp_path / "grow.obj"
        rc = main(
            [
                "hill",
                "grow",
                "--dim",
                "3",
                "--m",
                "2",
                "--generations",
                "2",
                "--obj",
                str(obj_path),
            ]
        )
        assert rc == 0
        text = obj_path.read_text()
        assert sum(1 for line in text.splitlines() if line.startswith("f ")) == 256

    def test_rational_cos_subdivide(self, capsys):
        assert main(["hill", "subdivide", "--dim", "3", "--cos", "1/2", "--m", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["parent"]["mode"] == "exact"

    def test_negative_cos_as_separate_argument(self, capsys):
        assert main(["hill", "subdivide", "--dim", "2", "--cos", "-5/13", "--m", "2"]) == 0
        spaced = capsys.readouterr().out
        assert main(["hill", "subdivide", "--dim", "2", "--cos=-5/13", "--m", "2"]) == 0
        assert capsys.readouterr().out == spaced
        assert json.loads(spaced)["parent"]["mode"] == "exact"


# sha256 of `hill subdivide` stdout and of `hill verify` stdout on it
HILL_PINS = {
    (4, "0", 4): (
        "010af1f851c153e3945b7f9ea1d0aa2bddc32152ccde5f7b4d6cbe351645b0e8",
        "c406fa8908a522485f99ec8b6ccac170d39cb19ebcb4f1a0d39593d7f704742f",
    ),
    (3, "2/5", 3): (
        "8f8ffcce22f82dd933e852f9868a5c77716b2eca6562022d3dbbe9ea1137a6f8",
        "e2820cbc7d535f30e8c1d64f93ab93bf72d06b2725f0db332332c1fc49f1f691",
    ),
    (3, "-2/5", 3): (
        "6a31a877794827f834fd4bf055ecf93d2e4881e90611a6287ae6cfaeb8903925",
        "e2820cbc7d535f30e8c1d64f93ab93bf72d06b2725f0db332332c1fc49f1f691",
    ),
    (2, "-5/13", 4): (
        "30c5d422f99669e012b1a917a6d26df12aa4d365082deaef80528195bdfdcd15",
        "4acbe4b200cee1ea3c22fae6d48aa62076479f23a76b6dee2f72338ea67f6afb",
    ),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestHillOutputsPinned:
    @pytest.mark.parametrize("spec", sorted(HILL_PINS))
    def test_subdivide_and_verify_bytes(self, spec, tmp_path, capsys):
        dim, cos, m = spec
        assert main(["hill", "subdivide", "--dim", str(dim), f"--cos={cos}", "--m", str(m)]) == 0
        sub = capsys.readouterr().out
        path = write_text(tmp_path, "sub.json", sub)
        assert main(["hill", "verify", path]) == 0
        assert (sha256(sub), sha256(capsys.readouterr().out)) == HILL_PINS[spec]

    def test_overlap_report_with_its_witness_point(self, tmp_path, capsys):
        # piece 0 moved onto piece 2, the first piece sharing an edge with it
        assert main(["hill", "subdivide", "--dim", "2", "--cos=3/5", "--m", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        doc["pieces"][0] = doc["pieces"][2]
        assert main(["hill", "verify", write(tmp_path, "bad.json", doc)]) == 1
        out = capsys.readouterr().out
        witness = json.loads(out)["witnesses"]["interior_disjointness"]
        assert witness == "{'pieces': (0, 2), 'point': (Fraction(4, 3), Fraction(1, 1))}"
        assert sha256(out) == "b6a056b1be2149f8332e4865125cafee00de75edfc29e0f7d59a0c77d18dbc7b"


class TestAnglesCommands:
    def test_classify_half(self, capsys):
        assert main(["angles", "classify", "1/2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out and out[0]["angle_deg"] == 60.0

    def test_classify_radical(self, capsys):
        assert main(["angles", "classify", "sqrt(2)/2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out[0]["angle_deg"] == 45.0

    def test_classify_golden_no_match(self, capsys):
        spec = json.dumps({"minpoly": [-1, 1, 1], "interval": ["0/1", "1/1"]})
        assert main(["angles", "classify", spec]) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_catalog_sizes(self, capsys):
        assert main(["angles", "catalog", "2"]) == 0
        assert len(json.loads(capsys.readouterr().out)) == 8
        assert main(["angles", "catalog", "4"]) == 0
        assert len(json.loads(capsys.readouterr().out)) == 20

    def test_bad_value_exit_two(self, capsys):
        assert main(["angles", "classify", "one half"]) == 2

    @pytest.mark.parametrize(
        "value,want",
        [("-3/7", None), ("-1/2", 120.0), ("-1", 180.0), ("-sqrt(2)/2", 135.0)],
    )
    def test_classify_negative_value(self, value, want, capsys):
        assert main(["angles", "classify", value]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out[0]["angle_deg"] if out else None) == want
        assert main(["angles", "classify", "--", value]) == 0
        assert json.loads(capsys.readouterr().out) == out

    def test_unknown_option_still_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["angles", "classify", "-x"])
        assert exc.value.code == 2


class TestAuditCommands:
    def test_run_kmax_3(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["audit", "run", "--kmax", "3", "--json", str(out)]) == 0
        reports = json.loads(out.read_text())
        assert [r["k"] for r in reports] == [2, 3]
        assert all(r["conclusion"] == "excluded" for r in reports)

    def test_step_command(self, capsys):
        assert main(["audit", "step", "tripod-identity"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "pass"

    def test_step_with_k(self, capsys):
        assert main(["audit", "step", "rho-degree", "--k", "5"]) == 0

    def test_step_missing_k(self, capsys):
        assert main(["audit", "step", "two-length"]) == 2

    def test_run_with_certificate_verification(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        rc = main(["audit", "run", "--kmax", "3", "--json", str(out), "--verify"])
        assert rc == 0


class TestExport:
    def test_single_simplex(self, tmp_path, capsys):
        from reptile_forge.simplex import regular_tetrahedron

        sp = write(tmp_path, "s.json", regular_tetrahedron().to_json())
        obj = tmp_path / "s.obj"
        assert main(["export", sp, "--obj", str(obj)]) == 0
        text = obj.read_text()
        assert sum(1 for line in text.splitlines() if line.startswith("f ")) == 4
        assert sum(1 for line in text.splitlines() if line.startswith("v ")) == 4

    def test_subdivision_counts(self, tmp_path, capsys):
        sub_path = tmp_path / "sub.json"
        main(["hill", "subdivide", "--dim", "3", "--m", "2", "--out", str(sub_path)])
        capsys.readouterr()
        obj = tmp_path / "sub.obj"
        assert main(["export", str(sub_path), "--obj", str(obj)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["faces"] == 32
        assert stats["vertices"] <= 32

    def test_dimension_guard(self, tmp_path, capsys):
        from reptile_forge.simplex import right_isosceles_triangle

        sp = write(tmp_path, "tri.json", right_isosceles_triangle().to_json())
        assert main(["export", sp, "--obj", str(tmp_path / "t.obj")]) == 2


class TestJsonRoundTrips:
    def test_simplex_documents_reload_bit_identical(self, tmp_path, capsys):
        main(["hill", "generate", "--dim", "3", "--cos", "1/2"])
        doc = json.loads(capsys.readouterr().out)
        s = Simplex.from_json(doc)
        assert s.to_json() == doc

    def test_subdivision_reload(self, tmp_path, capsys):
        main(["hill", "subdivide", "--dim", "2", "--m", "3"])
        doc = json.loads(capsys.readouterr().out)
        sub = Subdivision.from_json(doc)
        assert sub.to_json() == doc

    def test_matrix_reload(self):
        from reptile_forge.fiedler import CosMatrix
        from reptile_forge.jsonio import load_matrix
        from reptile_forge.simplex import dihedral_data, orthoscheme

        a = CosMatrix.from_dihedral(dihedral_data(orthoscheme(3)))
        doc = a.to_json()
        b = load_matrix(doc)
        assert b.to_json() == doc


class TestStdinPiping:
    def test_verify_reads_stdin(self, tmp_path, capsys, monkeypatch):
        import io

        sub_path = tmp_path / "sub.json"
        main(["hill", "subdivide", "--dim", "2", "--m", "2", "--out", str(sub_path)])
        capsys.readouterr()
        monkeypatch.setattr("sys.stdin", io.StringIO(sub_path.read_text()))
        assert main(["hill", "verify", "-"]) == 0
        assert json.loads(capsys.readouterr().out)["all_ok"] is True


class TestPrecisionEnv:
    def test_override_accepted(self, monkeypatch, capsys):
        monkeypatch.setenv("REPTILE_FORGE_PRECISION", "1e-20")
        assert main(["angles", "classify", "sqrt(2)/2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out[0]["angle_deg"] == 45.0

    def test_bad_value_rejected(self, monkeypatch, capsys):
        monkeypatch.setenv("REPTILE_FORGE_PRECISION", "huge")
        assert main(["angles", "classify", "1/2"]) == 2


# Runs the CLI in a fresh interpreter in which `import numpy` fails.
NO_NUMPY = "import sys; sys.modules['numpy'] = None; from reptile_forge.cli import main; sys.exit(main())"


def run_without_numpy(args, stdin=None):
    src = os.path.dirname(os.path.dirname(reptile_forge.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", NO_NUMPY, *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


class TestRuntimeWithoutNumpy:
    def test_reconstruct(self, tmp_path):
        done = run_without_numpy(["fiedler", "reconstruct", write(tmp_path, "m.json", REGULAR)])
        assert done.returncode == 0, done.stderr
        s = Simplex.from_json(json.loads(done.stdout))
        assert s.mode == "float" and s.dim == 3

    def test_float_hill_subdivide_and_verify(self):
        sub = run_without_numpy(["hill", "subdivide", "--dim", "3", "--cos", "1/4", "--m", "2"])
        assert sub.returncode == 0, sub.stderr
        done = run_without_numpy(["hill", "verify", "-"], stdin=sub.stdout)
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout)
        assert report["mode"] == "float" and report["all_ok"] is True
