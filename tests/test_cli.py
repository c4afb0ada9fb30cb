"""The command-line surface: exit codes, JSON round trips, OBJ export."""

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import reptile_forge
from reptile_forge import cli
from reptile_forge import hill as hill_mod
from reptile_forge.algebra import AlgebraicReal, as_algebraic, intpoly
from reptile_forge.cli import main
from reptile_forge.hill import Subdivision
from reptile_forge.jsonio import load_simplex, parse_real
from reptile_forge.simplex import Simplex
from helpers import (
    DRAW_1,
    DRAW_14,
    REPR_MARKS,
    assert_fiedler_reads_back,
    assert_reads_back,
    cos_matrix_json,
    record_verdicts,
    run_main,
    swinnerton_dyer,
)

TRIPOD_BAD = {
    "dim": 3,
    "cos": [
        ["-1", "1/2", "1/2", "1/2"],
        ["1/2", "-1", "1/3", "1/3"],
        ["1/2", "1/3", "-1", "1/3"],
        ["1/2", "1/3", "1/3", "-1"],
    ],
}

GOLDEN = {"minpoly": [-1, 1, 1], "interval": ["0/1", "1/1"]}  # phi - 1

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
        doc = json.loads(out_path.read_text())
        assert doc["dim"] == 3 and doc["mode"] == "float"
        assert load_simplex(doc).dim == 3

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
        m = FIEDLER_INPUTS["minpoly-object"]
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

    def test_check_entry_beyond_resultant_cap_exit_three(self, tmp_path, capsys):
        # 2^(1/6)/2, a root of 32x^6 - 1: a valid cosine of degree 6, whose
        # products need a resultant past the degree cap
        c = {"minpoly": [-1, 0, 0, 0, 0, 0, 32], "interval": ["1/2", "1"]}
        m = {"dim": 2, "cos": [["-1", c, "0"], [c, "-1", "0"], ["0", "0", "-1"]]}
        assert main(["fiedler", "check", write(tmp_path, "m.json", m)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "undecided: operand degrees 6 and 6 exceed the supported resultant bound 8\n"

    def test_deep_bisection_in_a_two_radical_matrix_exit_three(self, tmp_path, capsys):
        # entries in Q(sqrt 2) and Q(sqrt 3): factoring a product's resultant
        # isolates roots that take over a thousand halvings to separate, and
        # the congruence then needs a resultant beyond the degree cap
        r = {"minpoly": [47, 98, 49], "interval": ["-95/119", "-94/119"]}
        s = {"minpoly": [-1, -8, 16], "interval": ["-2/17", "-7/68"]}
        t = {"minpoly": [-7, -12, 18], "interval": ["-41/102", "-19/51"]}
        u = {"minpoly": [-27, 0, 49], "interval": ["87/119", "90/119"]}
        m = {
            "dim": 3,
            "cos": [
                ["-1/1", r, "-1/3", "1/4"],
                [r, "-1/1", s, t],
                ["-1/3", s, "-1/1", u],
                ["1/4", t, u, "-1/1"],
            ],
        }
        assert main(["fiedler", "check", write(tmp_path, "m.json", m)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "undecided: operand degrees 4 and 4 exceed the supported resultant bound 8\n"

    @pytest.mark.parametrize("command", ["check", "reconstruct"])
    @pytest.mark.parametrize(
        "doc, message",
        [
            # a float dim is not truncated to an integer, nor a string read as one;
            # each row's id names the defect of its input
            pytest.param(
                {**REGULAR, "dim": 3.9}, "dim: expected an integer, got 3.9", id="doc0-dim must be a JSON integer, got 3.9"
            ),
            pytest.param(
                {**REGULAR, "dim": "3"}, 'dim: expected an integer, got "3"', id="doc1-dim must be a JSON integer, got '3'"
            ),
            pytest.param(
                {**REGULAR, "dim": True}, "dim: expected an integer, got true", id="doc2-dim must be a JSON integer, got True"
            ),
            ({"dim": 3, "cos": 5}, "cos must be a list of rows, each a list of entries"),
            ({"dim": 3, "cos": ["-1", "0", "0", "0"]}, "cos must be a list of rows, each a list of entries"),
            pytest.param(
                {"dim": 1, "cos": [["-1", "1/0"], ["1/0", "-1"]]},
                'cos[0][1]: expected an exact value, got "1/0"',
                id="doc5-cannot parse exact value '1/0'",
            ),
            pytest.param(
                {"dim": 1, "cos": [["-1", "sqrt(2)/0"], ["sqrt(2)/0", "-1"]]},
                'cos[0][1]: expected an exact value, got "sqrt(2)/0"',
                id="doc6-cannot parse exact value 'sqrt(2)/0'",
            ),
            # a JSON boolean is not read as the integer 0 or 1
            (
                {"dim": 1, "cos": [["-1", False], [False, "-1"]]},
                "cannot parse exact value false: a boolean is not a number",
            ),
            (
                {"dim": 1, "cos": [[True, "0"], ["0", "-1"]]},
                "cannot parse exact value true: a boolean is not a number",
            ),
        ],
    )
    def test_malformed_matrix_exit_two(self, doc, message, command, tmp_path, capsys):
        assert main(["fiedler", command, write(tmp_path, "m.json", doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {message}\n"


class TestHillCommands:
    def test_generate(self, capsys):
        assert main(["hill", "generate", "--dim", "3", "--cos", "0"]) == 0
        s = load_simplex(json.loads(capsys.readouterr().out))
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
        assert captured.err == "input error: m must be at least 2\n"

    @pytest.mark.parametrize("m", [4.9, "4", True])
    def test_verify_refuses_m_not_an_integer(self, m, tmp_path, capsys):
        # m counts cuts per side: a float is not truncated, a string or boolean not read as one
        assert main(["hill", "subdivide", "--dim", "2", "--m", "4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        doc["m"] = m
        assert main(["hill", "verify", write(tmp_path, "sub.json", doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: m: expected an integer, got {json.dumps(m)}\n"

    @pytest.mark.parametrize("key", ["m", "parent", "pieces"])
    def test_verify_names_a_missing_key(self, key, tmp_path, capsys):
        assert main(["hill", "subdivide", "--dim", "2", "--m", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        del doc[key]
        assert main(["hill", "verify", write(tmp_path, "sub.json", doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f'input error: subdivision JSON has no "{key}" key\n'

    @pytest.mark.parametrize(
        "doc, message",
        [
            (5, "subdivision JSON must be an object"),
            ({"m": 2, "parent": 5, "pieces": []}, "bad simplex JSON: expected an object, got 5"),
            pytest.param(
                {"m": 2, "parent": {"dim": 2}, "pieces": []},
                'bad simplex JSON: parent: no "vertices" key',
                id="doc2-bad simplex JSON: 'vertices'",
            ),
            (
                {"m": 2, "parent": {"dim": 1, "vertices": [["0"], ["1"]]}, "pieces": 7},
                "pieces must be a list of simplices",
            ),
        ],
    )
    def test_verify_refuses_a_malformed_subdivision(self, doc, message, tmp_path, capsys):
        assert main(["hill", "verify", write(tmp_path, "sub.json", doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {message}\n"

    @pytest.mark.parametrize(
        "where, dim, message",
        [
            ("parent", 7, "expected 8 vertices for dim 7, got 4"),
            pytest.param(
                "pieces", "x", 'pieces[0].dim: expected an integer, got "x"', id="pieces-x-dim must be a JSON integer, got 'x'"
            ),
        ],
    )
    def test_verify_refuses_a_wrong_dim(self, where, dim, message, tmp_path, capsys):
        assert main(["hill", "subdivide", "--dim", "3", "--m", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        for s in [doc["parent"]] if where == "parent" else doc["pieces"]:
            s["dim"] = dim
        assert main(["hill", "verify", write(tmp_path, "sub.json", doc)]) == 2
        assert capsys.readouterr() == ("", f"input error: bad simplex JSON: {message}\n")

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

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--m", "0"], "m must be at least 2"),
            (["--m", "1"], "m must be at least 2"),
            (["--m", "-2"], "m must be at least 2"),
            (["--budget", "-1"], "budget must be nonnegative"),
        ],
    )
    def test_grow_refuses_out_of_range_arguments(self, flags, message, capsys):
        assert main(["hill", "grow", "--dim", "3", "--generations", "1", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_grow_with_an_empty_budget_emits_no_cell(self, capsys):
        assert main(["hill", "grow", "--dim", "2", "--generations", "1", "--budget", "0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["cells_emitted"] == 0 and report["truncated"]

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


class TestFramedHillInput:
    """Subdivisions in the frame of their common cosine, and the input the
    exact verifier refuses with exit 2 and one line."""

    @staticmethod
    def _subdivision(capsys, dim, cos, m):
        assert main(["hill", "subdivide", "--dim", str(dim), f"--cos={cos}", "--m", str(m)]) == 0
        return json.loads(capsys.readouterr().out)

    @staticmethod
    def _refused(tmp_path, capsys, doc) -> str:
        assert main(["hill", "verify", write(tmp_path, "sub.json", doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        return captured.err

    def test_frame_written_once_per_simplex(self, capsys):
        doc = self._subdivision(capsys, 3, "sqrt(2)/4", 2)
        frame = doc["parent"]["frame"]
        assert frame["minpoly"] == [-1, 0, 8] and all(p["frame"] == frame for p in doc["pieces"])
        assert "frame" not in self._subdivision(capsys, 3, "2/5", 2)["parent"]
        assert self._subdivision(capsys, 3, "1/4", 2)["parent"]["frame"] == "1/4"

    def test_float_mode_subdivision_refused(self, tmp_path, capsys):
        doc = self._subdivision(capsys, 2, "0", 2)
        for s in [doc["parent"]] + doc["pieces"]:
            s["mode"] = "float"
            s["vertices"] = [[float(Fraction(x)) for x in v] for v in s["vertices"]]
        err = self._refused(tmp_path, capsys, doc)
        assert err == "input error: the reptile verifier is exact: a subdivision takes no float-mode simplex\n"

    @pytest.mark.parametrize("frame", ["1/3", None])
    def test_piece_frame_other_than_the_parent_refused(self, frame, tmp_path, capsys):
        doc = self._subdivision(capsys, 3, "1/4", 2)
        if frame is None:
            del doc["pieces"][3]["frame"]
        else:
            doc["pieces"][3]["frame"] = frame
        err = self._refused(tmp_path, capsys, doc)
        assert err == f"input error: piece 3 has frame {json.dumps(frame)}, the parent \"1/4\"\n"

    @pytest.mark.parametrize(
        "frame, message",
        [
            pytest.param("abc", 'parent.frame: expected an exact value, got "abc"', id="abc-cannot parse exact value 'abc'"),
            (0.25, "refusing float literal 0.25"),
            ("3/2", "is not a cosine in (-1/(d-1), 1) for d = 3"),
            ("-1/2", "is not a cosine in (-1/(d-1), 1) for d = 3"),
            ({"minpoly": [-2, 0, 1], "interval": ["0", "1"]}, "bad algebraic-number object"),
            ({"interval": ["0", "1"]}, "bad algebraic-number object"),
        ],
    )
    def test_malformed_frame_refused(self, frame, message, tmp_path, capsys):
        doc = self._subdivision(capsys, 3, "1/4", 2)
        for s in [doc["parent"]] + doc["pieces"]:
            s["frame"] = frame
        err = self._refused(tmp_path, capsys, doc)
        assert err.startswith("input error: ") and message in err


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
        assert witness == {"pieces": [0, 2], "point": ["4/3", "1/1"]}
        assert sha256(out) == "807ff97b2da220dd36b5cff71822b81aade7281368909a0b804c56a993b4e92f"


# fiedler inputs whose outputs are pinned below
INTEGER_TETRA = [(2, 1, 1), (0, -2, -1), (-1, 0, -1), (-2, 2, -2)]
FIEDLER_INPUTS = {
    "regular": REGULAR,
    "integer-radicals": cos_matrix_json(INTEGER_TETRA),
    # the same matrix with each entry written c*sqrt(r)/d
    "coefficient-radicals": {
        "dim": 3,
        "cos": [
            ["-1", "-3*sqrt(15)/25", "8*sqrt(1605)/535", "-2*sqrt(345)/69"],
            ["-3*sqrt(15)/25", "-1", "151*sqrt(107)/1605", "-67*sqrt(23)/345"],
            ["8*sqrt(1605)/535", "151*sqrt(107)/1605", "-1", "146*sqrt(2461)/7383"],
            ["-2*sqrt(345)/69", "-67*sqrt(23)/345", "146*sqrt(2461)/7383", "-1"],
        ],
    },
    # no rational descaling: the generic path prints the enclosures it derives
    # from the entries' own
    "coefficient-radicals-generic": {
        "dim": 2,
        "cos": [
            ["-1", "3*sqrt(2)/7", "sqrt(2)/2"],
            ["3*sqrt(2)/7", "-1", "sqrt(2)/2"],
            ["sqrt(2)/2", "sqrt(2)/2", "-1"],
        ],
    },
    "minpoly-object": {
        "dim": 3,
        "cos": [
            ["-1", "0", GOLDEN, GOLDEN],
            ["0", "-1", "0", GOLDEN],
            [GOLDEN, "0", "-1", "0"],
            [GOLDEN, GOLDEN, "0", "-1"],
        ],
    },
    # a tetrahedron's matrix with entry (1, 3) raised from -2/3 to -1/3
    "raised": {
        "dim": 3,
        "cos": [
            ["-1", "sqrt(2/5)", "-sqrt(1/20)", "sqrt(9/10)"],
            ["sqrt(2/5)", "-1", "sqrt(1/2)", "-1/3"],
            ["-sqrt(1/20)", "sqrt(1/2)", "-1", "sqrt(2/9)"],
            ["sqrt(9/10)", "-1/3", "sqrt(2/9)", "-1"],
        ],
    },
    "draw-1": cos_matrix_json(DRAW_1),
    "draw-14": cos_matrix_json(DRAW_14),
}

# (exit code, sha256 of stdout, sha256 of stderr) of `fiedler check` and
# `fiedler reconstruct` on each input
FIEDLER_PINS = {
    ("coefficient-radicals", "check"): (
        0,
        "6bcc8337ba2a461a07907c02d737dbf945be46042f93215efea1d420c5c66405",
        "758ab79f537be235eb11fa7ba1268f86bb81b4344a174b7709c6af4089db4b39",
    ),
    ("coefficient-radicals", "reconstruct"): (
        0,
        "e7577f5e4f550f6a98ba950f506ca41121c1616f8451c55f3da933604c8df8d9",
        "7b550c5a0aa2d169d4dddf0a3007763aeafcc09d900f6e696e81237e19de9e5b",
    ),
    ("coefficient-radicals-generic", "check"): (
        1,
        "d9d39d47b9c291ffa5d79327dea0b9c7afa41be7c535172b1c3b0c695915d128",
        "1b5a5fbe9ae51ff714f0d2021b6068c1a52dd2cae2e6e3f836a03e207922bc29",
    ),
    ("coefficient-radicals-generic", "reconstruct"): (
        1,
        "77f21fd79a107e0255273cad683f2c45b9715b9c543007cc0bc6696abfc481e0",
        "0287a43e0b8236d9d1b764c00ba61ab3f60456aff9c7a7de62e3bd1046a04d64",
    ),
    ("draw-1", "check"): (
        0,
        "4208bad212129f373251f40178bce73c422642c5ddf8feef27b18bd834df58a3",
        "758ab79f537be235eb11fa7ba1268f86bb81b4344a174b7709c6af4089db4b39",
    ),
    ("draw-1", "reconstruct"): (
        0,
        "36443c5d6392762d90a717c8823dfe8544696db951cc83783b572fccc57fbfbd",
        "7b550c5a0aa2d169d4dddf0a3007763aeafcc09d900f6e696e81237e19de9e5b",
    ),
    ("draw-14", "check"): (
        0,
        "fb9ab9a97fa8add55621b2f390b0899159778aed3735ad5589efc3f9fa798868",
        "758ab79f537be235eb11fa7ba1268f86bb81b4344a174b7709c6af4089db4b39",
    ),
    ("draw-14", "reconstruct"): (
        0,
        "2b14993ce20aed9c488133c6faddf00a5d16c399ec5bb227e4868f5ca47900ce",
        "7b550c5a0aa2d169d4dddf0a3007763aeafcc09d900f6e696e81237e19de9e5b",
    ),
    ("integer-radicals", "check"): (
        0,
        "6bcc8337ba2a461a07907c02d737dbf945be46042f93215efea1d420c5c66405",
        "758ab79f537be235eb11fa7ba1268f86bb81b4344a174b7709c6af4089db4b39",
    ),
    ("integer-radicals", "reconstruct"): (
        0,
        "e7577f5e4f550f6a98ba950f506ca41121c1616f8451c55f3da933604c8df8d9",
        "7b550c5a0aa2d169d4dddf0a3007763aeafcc09d900f6e696e81237e19de9e5b",
    ),
    ("minpoly-object", "check"): (
        0,
        "88af6eada21ce5f9191d081668ec0edac8072f611e46e3cb93ee1223bbe854f6",
        "758ab79f537be235eb11fa7ba1268f86bb81b4344a174b7709c6af4089db4b39",
    ),
    ("minpoly-object", "reconstruct"): (
        0,
        "c64412ec6cbb26fa67b88cacab81e36c59d629f3cc35f5851b670bdf33dc6828",
        "7b550c5a0aa2d169d4dddf0a3007763aeafcc09d900f6e696e81237e19de9e5b",
    ),
    ("raised", "check"): (
        1,
        "a65a12458b1c305ec6552e3bcea1874f4fa103e7e8af7d40d98581174d1a94d6",
        "1b5a5fbe9ae51ff714f0d2021b6068c1a52dd2cae2e6e3f836a03e207922bc29",
    ),
    ("raised", "reconstruct"): (
        1,
        "a1a356a4a245bf2f016c6536fb972f9848cebe5fefabbe6c4bace955992705a3",
        "0287a43e0b8236d9d1b764c00ba61ab3f60456aff9c7a7de62e3bd1046a04d64",
    ),
    ("regular", "check"): (
        0,
        "96b4e99269bde9cb5c321fa7cdd9d9fc68480833c757efeae35274595887932b",
        "758ab79f537be235eb11fa7ba1268f86bb81b4344a174b7709c6af4089db4b39",
    ),
    ("regular", "reconstruct"): (
        0,
        "ba349731118656b19f0e60fd6c715c2a39443884641912f2a063e9ab83d328ee",
        "7b550c5a0aa2d169d4dddf0a3007763aeafcc09d900f6e696e81237e19de9e5b",
    ),
}


class TestFiedlerOutputsPinned:
    @pytest.mark.parametrize("command", ["check", "reconstruct"])
    @pytest.mark.parametrize("name", sorted(FIEDLER_INPUTS))
    def test_bytes(self, name, command, tmp_path, capsys):
        rc = main(["fiedler", command, write(tmp_path, "m.json", FIEDLER_INPUTS[name])])
        captured = capsys.readouterr()
        got = (rc, sha256(captured.out), sha256(captured.err))
        assert got == FIEDLER_PINS[name, command]


def _move_vertex(pieces):
    pieces[0]["vertices"][0][0] = "1/9"


def _onto_edge_neighbour(pieces):
    pieces[0] = pieces[2]


def _outside(pieces):
    pieces[5]["vertices"] = [[str(Fraction(v[0]) + 3), *v[1:]] for v in pieces[5]["vertices"]]


def _onto_facet_neighbour(pieces):
    verts = [set(map(tuple, p["vertices"])) for p in pieces]
    pieces[0] = pieces[next(j for j in range(1, len(pieces)) if len(verts[0] & verts[j]) == 3)]


# corrupted `hill subdivide` outputs of these tests and of CI: (dim, cos, m)
# and the damage done to the pieces
HILL_CORRUPTIONS = {
    "moved-vertex": ((3, "0", 2), _move_vertex),
    "overlap": ((2, "3/5", 3), _onto_edge_neighbour),
    "d3m3-outside": ((3, "0", 3), _outside),
    "d3m3-neighbour": ((3, "0", 3), _onto_facet_neighbour),
}


class TestPrintedWitnessesReadBack:
    """Each exact value a command prints parses with parse_real to the
    verdict's own value, and no printed string is a Python repr."""

    @pytest.mark.parametrize("command", ["check", "reconstruct"])
    @pytest.mark.parametrize("name", sorted(FIEDLER_INPUTS))
    def test_fiedler(self, name, command, tmp_path, capsys, monkeypatch):
        verdicts = record_verdicts(monkeypatch)
        main(["fiedler", command, write(tmp_path, "m.json", FIEDLER_INPUTS[name])])
        assert_fiedler_reads_back(capsys.readouterr().out, verdicts)
        assert verdicts == []

    def test_raised_direction_certifies_the_verdict(self, tmp_path, capsys):
        # x^T B x > 0 for B_ij = a_ij sqrt(q_i q_j), from the printed x and q
        matrix = FIEDLER_INPUTS["raised"]
        assert main(["fiedler", "check", write(tmp_path, "m.json", matrix)]) == 1
        witness = json.loads(capsys.readouterr().out)["failure_witness"]
        assert witness["kind"] == "indefinite"
        x = [parse_real(v) for v in witness["direction"]]
        q = [parse_real(v) for v in witness["scaling"]]
        a = [[as_algebraic(parse_real(v)) for v in row] for row in matrix["cos"]]
        n = len(a)
        b = [[a[i][j] * AlgebraicReal.sqrt_rational(q[i] * q[j]) for j in range(n)] for i in range(n)]
        assert all(bij.is_rational for row in b for bij in row)
        assert sum(x[i] * b[i][j].as_fraction() * x[j] for i in range(n) for j in range(n)) > 0

    @pytest.mark.parametrize("name", sorted(HILL_CORRUPTIONS))
    def test_hill_verify(self, name, tmp_path, capsys, monkeypatch):
        (dim, cos, m), damage = HILL_CORRUPTIONS[name]
        assert main(["hill", "subdivide", "--dim", str(dim), f"--cos={cos}", "--m", str(m)]) == 0
        doc = json.loads(capsys.readouterr().out)
        damage(doc["pieces"])
        reports = []
        verify = hill_mod.verify_reptile
        monkeypatch.setattr(hill_mod, "verify_reptile", lambda sub: reports.append(verify(sub)) or reports[0])
        assert main(["hill", "verify", write(tmp_path, "bad.json", doc)]) == 1
        out = capsys.readouterr().out
        assert not any(mark in out for mark in REPR_MARKS), out
        printed = json.loads(out)
        (report,) = reports
        assert report.witnesses
        assert_reads_back(printed["witnesses"], report.witnesses)
        assert_reads_back(printed["measured_ratio"], report.measured_ratio)


# the kernel `fiedler check` printed for the golden-ratio matrix when it was
# read off a separate row reduction, before the congruence gave it
ROW_REDUCTION_GOLDEN_KERNEL = [
    {"rational": "1/1"},
    {"minpoly": [-1, 1, 1], "interval": ["1/2", "5/8"]},
    {"minpoly": [-1, 1, 1], "interval": ["5/12", "5/8"]},
    {"rational": "1/1"},
]


def test_golden_kernel_is_the_row_reduction_vector(tmp_path, capsys):
    assert main(["fiedler", "check", write(tmp_path, "m.json", FIEDLER_INPUTS["minpoly-object"])]) == 0
    kernel = json.loads(capsys.readouterr().out)["kernel"]
    assert len(kernel) == len(ROW_REDUCTION_GOLDEN_KERNEL)
    for got, want in zip(kernel, ROW_REDUCTION_GOLDEN_KERNEL):
        if "rational" in want:
            assert got["rational"] == want["rational"]
        else:
            assert got["minpoly"] == want["minpoly"]
            assert parse_real(got).compare(parse_real(want)) == 0


# sha256 of the OBJ file that `export` writes from `fiedler reconstruct`'s
# output, for the d = 3 inputs that reconstruct
RECONSTRUCT_OBJ_PINS = {
    "coefficient-radicals": "a0bb4f586ed4a5c467b9769767aadc3b2bff0b5f46b5ea8890c8e1ab5acb19e2",
    "draw-1": "011345dd58d8202b621e9a46837c51805fc60ac78251178fd2064321c6dcf75d",
    "draw-14": "2ed894b7fe209e5570bcb24d90e169a41622993812a1272719a44e150abef6ab",
    "integer-radicals": "a0bb4f586ed4a5c467b9769767aadc3b2bff0b5f46b5ea8890c8e1ab5acb19e2",
    "minpoly-object": "11a56899fb4e2e4a47d781450f5e5c544812b78572ee2073fb8bf5cef81b6bc1",
    "regular": "623a76adfb6c086df47f88409dc65d55067997396ea0d99d7f68e7697551b74e",
}


def test_reconstruct_then_export_writes_the_pinned_obj(tmp_path, capsys):
    for name, want in RECONSTRUCT_OBJ_PINS.items():
        assert main(["fiedler", "reconstruct", write(tmp_path, "m.json", FIEDLER_INPUTS[name])]) == 0
        simplex = write_text(tmp_path, "s.json", capsys.readouterr().out)
        assert main(["export", simplex, "--obj", str(tmp_path / "s.obj")]) == 0
        capsys.readouterr()
        assert sha256((tmp_path / "s.obj").read_text()) == want, name


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

    def test_classify_octic(self, capsys):
        spec = {"minpoly": [1, 8, -40, -80, 240, 192, -448, -128, 256], "interval": ["-55/64", "-11/16"]}
        assert main(["angles", "classify", "--", json.dumps(spec)]) == 0
        assert [m["angle"] for m in json.loads(capsys.readouterr().out)] == ["13*pi/17"]

    def test_classify_one_third_no_match(self, capsys):
        assert main(["angles", "classify", "--", "1/3"]) == 0
        assert capsys.readouterr().out == "[]\n"

    def test_classify_wide_interval_heptadecagon(self, capsys):
        # cos 2pi/17 from an interval that also holds values of other degrees
        spec = {"minpoly": [1, -8, -40, 80, 240, -192, -448, 128, 256], "interval": ["9/10", "1"]}
        assert main(["angles", "classify", "--", json.dumps(spec)]) == 0
        assert [m["angle"] for m in json.loads(capsys.readouterr().out)] == ["2*pi/17"]

    @pytest.mark.parametrize("minpoly", [[-2, 0, 0, 0, 0, 0, 1], [-2, 0, 0, 0, 0, 0, 0, 0, 0, 1]])
    def test_classify_radical_above_one_exit_two(self, minpoly, capsys):
        # 2^(1/6) and 2^(1/9): factored like any other degree, and no cosine
        spec = json.dumps({"minpoly": minpoly, "interval": ["1", "2"]})
        assert main(["angles", "classify", "--", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cosine values lie in [-1, 1]\n"

    def test_classify_beyond_factorizer_exit_three(self, capsys):
        # the largest root of the degree-32 Swinnerton-Dyer polynomial of
        # sqrt 2, 3, 5, 7, 11, scaled by 1/16 into (-1, 1): it splits into
        # 16 factors modulo every prime, so recombination reaches its cap.
        # A valid algebraic number is undecided (3), not an input error (2)
        minpoly = intpoly.compose_linear(swinnerton_dyer([2, 3, 5, 7, 11]), 16, 0)
        spec = json.dumps({"minpoly": minpoly, "interval": ["7/10", "3/4"]})
        assert main(["angles", "classify", "--", spec]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "undecided: factoring a degree-32 polynomial needs over 32768 recombination trials\n"

    def test_classify_roots_a_thousand_halvings_apart_exit_two(self, capsys):
        # x^4 - 2 10^200 x^2 + 4 10^100 x - 2 has two roots near 10^-100
        # within 10^-298 of each other: isolating them is deep, and the value
        # picked in the interval is no cosine
        minpoly = [-2, 4 * 10**100, -2 * 10**200, 0, 1]
        spec = json.dumps({"minpoly": minpoly, "interval": [str(-(10**105)), "-1"]})
        assert main(["angles", "classify", "--", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cosine values lie in [-1, 1]\n"

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

    def test_document_not_an_object(self, tmp_path, capsys):
        assert main(["export", write(tmp_path, "x.json", 5), "--obj", str(tmp_path / "x.obj")]) == 2
        assert capsys.readouterr().err == "input error: bad simplex JSON: expected an object, got 5\n"

    def test_near_flat_float_document_is_read_exactly(self, tmp_path, capsys):
        doc = {"dim": 3, "mode": "float", "vertices": [[0, 0, 0], [1, 0, 0], [2, 1e-13, 0], [0, 0, 1]]}
        obj = tmp_path / "s.obj"
        assert main(["export", write(tmp_path, "s.json", doc), "--obj", str(obj)]) == 0
        assert "v 2 1e-13 0\n" in obj.read_text()

    def test_collinear_float_document_refused(self, tmp_path, capsys):
        doc = {"dim": 3, "mode": "float", "vertices": [[0, 0, 0], [1, 0, 0], [2.5, 0, 0], [0, 0, 1]]}
        assert main(["export", write(tmp_path, "s.json", doc), "--obj", str(tmp_path / "s.obj")]) == 2
        err = "input error: bad simplex JSON: degenerate simplex (coplanar vertices)\n"
        assert capsys.readouterr() == ("", err)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            pytest.param(
                "mode",
                "bogus",
                'mode: expected "exact" or "float", got "bogus"',
                id="mode-bogus-mode must be 'exact' or 'float', got 'bogus'",
            ),
            pytest.param(
                "mode", None, 'mode: expected "exact" or "float", got null', id="mode-None-mode must be 'exact' or 'float', got None"
            ),
            ("dim", 7, "expected 8 vertices for dim 7, got 4"),
            pytest.param("dim", "3", 'dim: expected an integer, got "3"', id="dim-3-dim must be a JSON integer, got '3'"),
            pytest.param("dim", True, "dim: expected an integer, got true", id="dim-True-dim must be a JSON integer, got True"),
        ],
    )
    def test_bad_mode_or_dim_refused(self, key, value, message, tmp_path, capsys):
        doc = {"dim": 3, "mode": "exact", "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], key: value}
        assert main(["export", write(tmp_path, "s.json", doc), "--obj", str(tmp_path / "s.obj")]) == 2
        assert capsys.readouterr() == ("", f"input error: bad simplex JSON: {message}\n")
        assert not (tmp_path / "s.obj").exists()

    def test_dimension_guard(self, tmp_path, capsys):
        from reptile_forge.simplex import right_isosceles_triangle

        sp = write(tmp_path, "tri.json", right_isosceles_triangle().to_json())
        assert main(["export", sp, "--obj", str(tmp_path / "t.obj")]) == 2


class TestZeroDenominator:
    """A coordinate "1/0" is bad input: exit 2 with one line, no traceback."""

    ERR = "input error: bad simplex JSON: a coordinate has denominator 0\n"

    @pytest.mark.parametrize("where", ["piece", "parent"])
    def test_hill_verify(self, where, tmp_path, capsys):
        assert main(["hill", "subdivide", "--dim", "2", "--m", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        simplex = doc["pieces"][2] if where == "piece" else doc["parent"]
        simplex["vertices"][1][0] = "1/0"
        assert main(["hill", "verify", write(tmp_path, "sub.json", doc)]) == 2
        assert capsys.readouterr() == ("", self.ERR)

    def test_export(self, tmp_path, capsys):
        doc = Simplex.exact([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]).to_json()
        doc["vertices"][3][2] = "1/0"
        assert main(["export", write(tmp_path, "s.json", doc), "--obj", str(tmp_path / "s.obj")]) == 2
        assert capsys.readouterr() == ("", self.ERR)
        assert not (tmp_path / "s.obj").exists()


class TestParserSubtrees:
    """main builds only the parser of the leaf command it runs; what it
    prints must be what the full parser prints."""

    LEAVES = [
        ["fiedler", "check"],
        ["fiedler", "reconstruct"],
        ["hill", "generate"],
        ["hill", "subdivide"],
        ["hill", "verify"],
        ["hill", "grow"],
        ["angles", "classify"],
        ["angles", "catalog"],
        ["audit", "run"],
        ["audit", "step"],
        ["export"],
    ]

    ARGVS = [
        [],
        ["--help"],
        ["fiedler", "--help"],
        ["fiedler", "reconstruct", "-h"],
        ["hill", "--help"],
        ["audit", "--help"],
        ["bogus"],
        ["fiedler", "bogus"],
        ["fiedler"],
        ["fiedler", "check"],
        ["hill", "subdivide", "--dim", "2"],
        ["fiedler", "check", "m.json", "--bogus"],
        ["hill", "generate", "--dim", "2", "--cos", "-5/13"],
        ["hill", "grow", "--generations", "two"],
        ["angles", "classify", "-3/7"],
        ["angles", "catalog", "x"],
        *[leaf + ["--help"] for leaf in LEAVES],
        ["angles", "classify", "1/2", "--out=-"],
        ["angles", "classify", "1/2", "--o", "-"],
        ["angles", "classify", "--", "-1/2"],
        ["hill", "generate", "--dim=2", "--cos=-5/13", "--o", "-"],
        ["hill", "subdivide", "--di", "2", "--c", "1/4", "--m", "2"],
        ["audit", "run", "--km", "2", "--j", "-"],
        ["audit", "run", "--kmax", "2", "--bogus"],
        ["export", "s.json", "--obj", "s.obj", "--bogus"],
        ["export", "s.json", "--o", "s.obj"],
    ]

    @pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: " ".join(argv) or "no-arguments")
    def test_same_text_and_exit_code_as_the_full_parser(self, argv, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        got = run_main(argv)
        monkeypatch.setattr(cli, "_leaf", lambda argv: None)
        assert got == run_main(argv)

    @staticmethod
    def built(argv, monkeypatch) -> list:
        """The parsers main builds for argv."""
        parsers = []
        init = argparse.ArgumentParser.__init__

        def record(parser, *args, **kwargs):
            init(parser, *args, **kwargs)
            parsers.append(parser)

        with monkeypatch.context() as m:
            m.setattr(argparse.ArgumentParser, "__init__", record)
            run_main(argv)
        return parsers

    def test_only_the_named_subtree_is_built(self, monkeypatch):
        for argv in (
            ["fiedler", "check", "m.json"],
            ["hill", "generate", "--dim", "2"],
            ["angles", "classify", "1/2"],
            ["audit", "step", "rho-degree", "--k", "5"],
            ["export", "s.json", "--obj", "s.obj"],
        ):
            (parser,) = self.built(argv, monkeypatch)
            depth = 1 if argv[0] == "export" else 2
            assert parser.prog == " ".join(["reptile-forge", *argv[:depth]])
            assert not any(isinstance(a, argparse._SubParsersAction) for a in parser._actions)
        for argv in ([], ["--help"], ["fiedler"], ["bogus"], ["fiedler", "chek"], ["export", "--help"]):
            (top,) = [p for p in self.built(argv, monkeypatch) if p.prog == "reptile-forge"]
            (sub,) = [a for a in top._actions if isinstance(a, argparse._SubParsersAction)]
            assert sorted(sub.choices) == ["angles", "audit", "export", "fiedler", "hill"], argv


class TestHandlersRebound:
    """A handler or _emit rebound in cli's module globals, as
    perfbench/tracer.py rebinds them, is the one main calls."""

    def test_rebound_handlers_are_called(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "cmd_fiedler_check", lambda args: calls.append(args.matrix) or 0)
        monkeypatch.setattr(cli, "cmd_audit_run", lambda args: calls.append(args.kmax) or 0)
        path = write(tmp_path, "m.json", REGULAR)
        assert main(["fiedler", "check", path]) == 0
        assert main(["audit", "run", "--kmax", "9"]) == 0
        assert calls == [path, 9]

    def test_rebound_emit_is_called(self, tmp_path, monkeypatch):
        emitted = []
        monkeypatch.setattr(cli, "_emit", lambda payload, out, dumps=None: emitted.append(payload))
        assert main(["fiedler", "check", write(tmp_path, "m.json", REGULAR)]) == 0
        assert main(["audit", "run", "--kmax", "2"]) == 0
        assert emitted[0]["valid"] is True and [r.k for r in emitted[1]] == [2]


class TestJsonRoundTrips:
    def test_simplex_documents_reload_bit_identical(self, tmp_path, capsys):
        main(["hill", "generate", "--dim", "3", "--cos", "1/2"])
        doc = json.loads(capsys.readouterr().out)
        s = load_simplex(doc)
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

    @pytest.mark.parametrize("raw", ["huge", "1e400", "0", "nan"])
    def test_bad_value_is_one_line(self, raw, monkeypatch, capsys):
        monkeypatch.setenv("REPTILE_FORGE_PRECISION", raw)
        assert main(["angles", "classify", "1/2"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err, err


# Runs the CLI in a fresh interpreter in which `import numpy` fails.
NO_NUMPY = "import sys; sys.modules['numpy'] = None; from reptile_forge.cli import main; sys.exit(main())"

# Runs the CLI in a fresh interpreter, then says on stderr whether it loaded
# the audit module.
AUDIT_LOADED = """import sys
from reptile_forge.cli import main
try:
    rc = main()
except SystemExit as e:
    rc = e.code
print("audit loaded:", "reptile_forge.audit" in sys.modules, file=sys.stderr)
sys.exit(rc)
"""


def run_fresh(args, stdin=None, code=NO_NUMPY):
    src = os.path.dirname(os.path.dirname(reptile_forge.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


class TestAuditLoadedOnlyByAudit:
    def fresh(self, args):
        done = run_fresh(args, code=AUDIT_LOADED)
        return done, done.stderr.splitlines()[-1] == "audit loaded: True"

    def test_other_commands_do_not_load_the_audit(self, tmp_path):
        sub = str(tmp_path / "sub.json")
        assert main(["hill", "subdivide", "--dim", "2", "--m", "2", "--out", sub]) == 0
        for args in (
            ["fiedler", "check", write(tmp_path, "m.json", REGULAR)],
            ["hill", "verify", sub],
            ["angles", "classify", "1/2"],
        ):
            done, loaded = self.fresh(args)
            assert done.returncode == 0 and not loaded, (args, done.stderr)

    def test_help_lists_every_step(self):
        from reptile_forge.audit import STEP_BUILDERS

        done, _ = self.fresh(["--help"])
        assert done.returncode == 0
        assert all(c in done.stdout for c in ("fiedler", "hill", "angles", "audit", "export"))
        done, loaded = self.fresh(["audit", "step", "--help"])
        assert done.returncode == 0 and loaded
        assert all(step in "".join(done.stdout.split()) for step in STEP_BUILDERS)

    def test_audit_run(self):
        done, loaded = self.fresh(["audit", "run", "--kmax", "9"])
        assert done.returncode == 0 and loaded, done.stderr


class TestRuntimeWithoutNumpy:
    def test_reconstruct(self, tmp_path):
        done = run_fresh(["fiedler", "reconstruct", write(tmp_path, "m.json", REGULAR)])
        assert done.returncode == 0, done.stderr
        doc = json.loads(done.stdout)
        assert doc["mode"] == "float" and doc["dim"] == 3
        assert load_simplex(doc).dim == 3

    def test_float_hill_subdivide_and_verify(self):
        sub = run_fresh(["hill", "subdivide", "--dim", "3", "--cos", "1/4", "--m", "2"])
        assert sub.returncode == 0, sub.stderr
        done = run_fresh(["hill", "verify", "-"], stdin=sub.stdout)
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout)
        assert report["mode"] == "exact" and report["all_ok"] is True
