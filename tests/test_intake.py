"""Malformed input ends in exit 2 or 3 with one stderr line, never a
traceback: explicit rows for each class of bad value, and a seeded
mutation fuzzer over valid documents of every kind the CLI reads."""

import copy
import json
import os
import random
from functools import reduce
from operator import getitem

import pytest

from reptile_forge.hill import Subdivision
from reptile_forge.jsonio import InputFormatError, load_subdivision
from helpers import REPR_MARKS, run_main

DATA = os.path.join(os.path.dirname(__file__), "data")

GOLDEN = {"minpoly": [-1, 1, 1], "interval": ["0/1", "1/1"]}  # phi - 1

MATRICES = {
    "golden": {
        "dim": 3,
        "cos": [
            ["-1", "0", GOLDEN, GOLDEN],
            ["0", "-1", "0", GOLDEN],
            [GOLDEN, "0", "-1", "0"],
            [GOLDEN, GOLDEN, "0", "-1"],
        ],
    },
    "radical": {
        "dim": 3,
        "cos": [
            ["-1", "-sqrt(27/125)", "sqrt(192/535)", "-sqrt(20/69)"],
            ["-sqrt(27/125)", "-1", "151*sqrt(107)/1605", "-67*sqrt(23)/345"],
            ["sqrt(192/535)", "151*sqrt(107)/1605", "-1", "sqrt(21316/22149)"],
            ["-sqrt(20/69)", "-67*sqrt(23)/345", "sqrt(21316/22149)", "-1"],
        ],
    },
}


@pytest.fixture(scope="module")
def subdivisions():
    def subdivide(*flags):
        rc, out, _ = run_main(["hill", "subdivide", *flags])
        assert rc == 0
        return json.loads(out)

    return {
        "d2m2": subdivide("--dim", "2", "--m", "2"),
        "d3m2-framed": subdivide("--dim", "3", "--cos", "sqrt(2)/4", "--m", "2"),
    }


def refused(argv) -> str:
    """The one stderr line of a command that must exit 2."""
    rc, out, err = run_main(argv)
    assert (rc, out) == (2, ""), err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    return err


def check_matrix(tmp_path, doc) -> str:
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    return refused(["fiedler", "check", str(path)])


def with_entry(entry) -> dict:
    """The golden matrix with its (0, 2) entry, and the symmetric one,
    replaced."""
    doc = copy.deepcopy(MATRICES["golden"])
    doc["cos"][0][2] = doc["cos"][2][0] = entry
    return doc


class TestBadValues:
    """Each class of value that once escaped as a traceback, or was read as
    something it is not, is refused with its JSON path, spelled as JSON."""

    @pytest.mark.parametrize("coefficient", ["x", {"a": 1}, [1], 1.0, None])
    def test_minpoly_entry_not_an_integer(self, coefficient, tmp_path):
        err = check_matrix(tmp_path, with_entry({"minpoly": [-1, 1, coefficient], "interval": ["0", "1"]}))
        assert err == f"input error: cos[0][2].minpoly[2]: expected an integer, got {json.dumps(coefficient)}\n"

    @pytest.mark.parametrize("minpoly", [5, float("nan"), False, None, "-1 1 1"])
    def test_minpoly_not_a_list(self, minpoly, tmp_path):
        err = check_matrix(tmp_path, with_entry({"minpoly": minpoly, "interval": ["0", "1"]}))
        assert err == f"input error: cos[0][2].minpoly: expected a list of integers, got {json.dumps(minpoly)}\n"

    @pytest.mark.parametrize("end", [{"p": 1}, ["1"], "1/0", "0/0", float("inf"), float("nan"), True, None])
    def test_interval_end_not_an_exact_number(self, end, tmp_path):
        err = check_matrix(tmp_path, with_entry({"minpoly": [-1, 1, 1], "interval": ["0", end]}))
        assert err == f"input error: cos[0][2].interval[1]: expected an exact number, got {json.dumps(end)}\n"

    @pytest.mark.parametrize("interval", ["01", ["0"], ["0", "1", "2"], {"lo": "0"}])
    def test_interval_not_a_pair(self, interval, tmp_path):
        # "01" was once read as the list ["0", "1"]
        err = check_matrix(tmp_path, with_entry({"minpoly": [-1, 1, 1], "interval": interval}))
        assert err == f"input error: cos[0][2].interval: expected a list of two exact numbers, got {json.dumps(interval)}\n"

    def test_entry_not_a_value(self, tmp_path):
        err = check_matrix(tmp_path, with_entry(["1/2"]))
        assert err == 'input error: cos[0][2]: expected an exact value, got ["1/2"]\n'

    @pytest.mark.parametrize("minpoly", [[-1, 0, "8"], "8", None])
    def test_subdivision_frame_with_a_bad_minpoly(self, minpoly, subdivisions, tmp_path):
        doc = copy.deepcopy(subdivisions["d3m2-framed"])
        for s in [doc["parent"], *doc["pieces"]]:
            s["frame"]["minpoly"] = minpoly
        path = tmp_path / "sub.json"
        path.write_text(json.dumps(doc))
        err = refused(["hill", "verify", str(path)])
        assert err.startswith("input error: parent.frame.minpoly") and "expected" in err

    def test_string_vertices_refused(self, subdivisions, tmp_path):
        # "10" was once read as the vertex ("1", "0")
        doc = copy.deepcopy(subdivisions["d2m2"])
        doc["pieces"][0]["vertices"] = ["00", "10", "01"]
        path = tmp_path / "sub.json"
        path.write_text(json.dumps(doc))
        err = refused(["hill", "verify", str(path)])
        assert err == 'input error: bad simplex JSON: pieces[0].vertices[0]: expected a list of coordinates, got "00"\n'

    @pytest.mark.parametrize("x", [[0], {}, None, False, float("nan"), "1e99999", "0x1"])
    def test_coordinate_not_an_exact_number(self, x, tmp_path):
        doc = {"dim": 3, "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, x]]}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        err = refused(["export", str(path), "--obj", str(tmp_path / "s.obj")])
        assert err == f"input error: bad simplex JSON: vertices[3][2]: expected an exact number, got {json.dumps(x)}\n"

    FLOAT_LIMIT = (1 << 1024) - (1 << 970)  # the least Fraction whose float() overflows

    @pytest.mark.parametrize("x, frame", [("1e400", None), (FLOAT_LIMIT, None), (1 << 1021, "1/3")])
    def test_export_beyond_the_float_range(self, x, frame, tmp_path):
        doc = {"dim": 3, "mode": "float", "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, x]]}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc if frame is None else {**doc, "mode": "exact", "frame": frame}))
        err = refused(["export", str(path), "--obj", str(tmp_path / "s.obj")])
        assert err == "error: OBJ export writes floats: a coordinate is beyond the float range\n"
        assert not (tmp_path / "s.obj").exists()

    @pytest.mark.parametrize("x, frame", [("1e308", None), (FLOAT_LIMIT - 1, None), ((1 << 1021) - 1, "1/3")])
    def test_export_within_the_float_range(self, x, frame, tmp_path):
        doc = {"dim": 3, "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, x]]}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc if frame is None else {**doc, "frame": frame}))
        rc, _, err = run_main(["export", str(path), "--obj", str(tmp_path / "s.obj")])
        assert rc == 0, err
        assert "inf" not in (tmp_path / "s.obj").read_text()

    def test_nesting_too_deep(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[" * 100000 + "]" * 100000)
        assert refused(["fiedler", "check", str(path)]) == "input error: malformed JSON: nested too deeply\n"

    @pytest.mark.parametrize("step", ["rho-degree", "two-length", "hill-construction"])
    @pytest.mark.parametrize("k", [-8, -1, 0, 1])
    def test_audit_step_k_below_two(self, step, k):
        assert refused(["audit", "step", step, f"--k={k}"]) == "error: k must be at least 2\n"

    def test_classify_value_beyond_the_factorizer_is_undecided(self):
        # 2^(1/6) is factored like a value of any degree: no cosine, one line
        spec = {"minpoly": [-2, 0, 0, 0, 0, 0, 1], "interval": ["1", "2"]}
        rc, out, err = run_main(["angles", "classify", "--", json.dumps(spec)])
        assert (rc, out, err) == (2, "", "error: cosine values lie in [-1, 1]\n")

    def test_frame_beyond_the_factorizer_is_undecided(self, subdivisions, tmp_path):
        # a frame of degree 6, 2^(-1/6), is factored and verified like any other
        doc = copy.deepcopy(subdivisions["d3m2-framed"])
        for s in [doc["parent"], *doc["pieces"]]:
            s["frame"] = {"minpoly": [-1, 0, 0, 0, 0, 0, 2], "interval": ["0", "1"]}  # 2^(-1/6)
        path = tmp_path / "sub.json"
        path.write_text(json.dumps(doc))
        rc, out, err = run_main(["hill", "verify", str(path)])
        report = json.loads(out)
        assert (rc, err) == (0, "reptile verification: all checks passed\n")
        assert report["all_ok"] and len(report["checks"]) == 6 and all(report["checks"].values())
        assert report["measured_ratio"] == "1/2"

class TestCoordinateStrings:
    """A subdivision document's coordinate strings are each read once; the
    values 1, 1.0, "1", "1/1" are one number, and a JSON true is none."""

    ONES = [1, 1.0, "1", "1/1"]

    @classmethod
    def mixed(cls, doc) -> dict:
        """doc with its coordinates "1/1" spelled in turn as each of ONES."""
        doc = copy.deepcopy(doc)
        n = 0
        for s in [doc["parent"], *doc["pieces"]]:
            for v in s["vertices"]:
                for j, x in enumerate(v):
                    if x == "1/1":
                        v[j] = cls.ONES[n % len(cls.ONES)]
                        n += 1
        assert n > 2 * len(cls.ONES)
        return doc

    def test_spellings_of_one_read_alike(self, subdivisions, tmp_path):
        doc = subdivisions["d2m2"]
        assert Subdivision.from_json(self.mixed(doc)) == Subdivision.from_json(doc)
        path = tmp_path / "sub.json"
        path.write_text(json.dumps(self.mixed(doc)))
        rc, out, _ = run_main(["hill", "verify", str(path)])
        assert rc == 0 and json.loads(out)["all_ok"]

    def test_true_after_every_spelling_of_one_is_refused(self, subdivisions, tmp_path):
        # true == 1 and hash(true) == hash(1): a memo keyed by value would pass it
        doc = self.mixed(subdivisions["d2m2"])
        assert doc["pieces"][3]["vertices"][2] == ["1/1", 1]
        doc["pieces"][3]["vertices"][2][1] = True
        path = tmp_path / "sub.json"
        path.write_text(json.dumps(doc))
        err = refused(["hill", "verify", str(path)])
        assert err == "input error: bad simplex JSON: pieces[3].vertices[2][1]: expected an exact number, got true\n"

    @pytest.mark.parametrize(
        "bad, message",
        [("1/x", 'pieces[1].vertices[0][1]: expected an exact number, got "1/x"'),
         ("1/0", "a coordinate has denominator 0")],
    )
    def test_a_bad_string_that_repeats_is_named_at_its_first_path(self, bad, message, subdivisions):
        doc = copy.deepcopy(subdivisions["d2m2"])
        for i, j, k in [(1, 0, 1), (2, 1, 0), (3, 2, 1)]:
            doc["pieces"][i]["vertices"][j][k] = bad
        with pytest.raises(InputFormatError) as caught:
            load_subdivision(doc)
        assert str(caught.value) == f"bad simplex JSON: {message}"


def test_refused_reconstruction_logs_one_line_without_a_repr(tmp_path):
    # the golden-ratio matrix with cos(0, 1) = 1/2 is indefinite
    doc = copy.deepcopy(MATRICES["golden"])
    doc["cos"][0][1] = doc["cos"][1][0] = "1/2"
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run_main(["fiedler", "reconstruct", str(path)])
    assert rc == 1 and json.loads(out)["witness"]["kind"] == "indefinite"
    assert err == "not realizable: indefinite witness\n"
    assert not any(mark in err for mark in REPR_MARKS)


# -- the fuzzer ---------------------------------------------------------------

LEAVES = [
    0, 1, -1, 2, 10**30, 0.5, -0.0, 1e-300, float("inf"), float("nan"), True, False, None,
    "", "0", "1", "-1/3", "1/2", "1/0", "0/0", "1e400", "abc", "sqrt(2)", "sqrt(2)/0", "01", "10", "float",
]
KEYS = ["minpoly", "interval", "dim", "cos", "mode", "vertices", "frame", "m", "parent", "pieces"]


def random_value(rng: random.Random, depth: int = 0):
    r = rng.random()
    if depth < 2 and r < 0.15:
        return [random_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    if depth < 2 and r < 0.25:
        return {rng.choice(KEYS): random_value(rng, depth + 1) for _ in range(rng.randrange(3))}
    return rng.choice(LEAVES)


def paths(doc, path=()):
    """Every path to a value inside doc, containers included."""
    if path:
        yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from paths(value, path + (key,))


def mutate(doc, rng: random.Random):
    """doc with one or two values replaced by a random JSON value or
    deleted."""
    doc = json.loads(json.dumps(doc))  # no sub-object shared between entries, as deepcopy would keep
    for _ in range(rng.choice((1, 2))):
        where = list(paths(doc))
        if not where:
            break
        path = rng.choice(where)
        parent = reduce(getitem, path[:-1], doc)
        if rng.random() < 0.25:
            del parent[path[-1]]
        else:
            parent[path[-1]] = random_value(rng)
    return doc


# (document, command) pairs and mutants per pair: about 600 runs in all
FUZZ_CASES = [
    ("golden", "fiedler check"),
    ("golden", "fiedler reconstruct"),
    ("radical", "fiedler check"),
    ("radical", "fiedler reconstruct"),
    ("d2m2", "hill verify"),
    ("d2m2", "export"),
    ("d3m2-framed", "hill verify"),
    ("d3m2-framed", "export"),
    ("float-simplex", "export"),
    ("golden-value", "angles classify"),
]
MUTANTS = 60


@pytest.mark.parametrize("name, command", FUZZ_CASES)
def test_mutated_documents_end_in_one_line(name, command, subdivisions, tmp_path):
    with open(os.path.join(DATA, "fiedler-radical-simplex.json"), encoding="utf-8") as fh:
        seeds = {**MATRICES, **subdivisions, "float-simplex": json.load(fh), "golden-value": GOLDEN}
    rng = random.Random(f"{name} {command}")
    doc_path, obj_path = tmp_path / "doc.json", tmp_path / "out.obj"
    for _ in range(MUTANTS):
        doc = mutate(seeds[name], rng)
        text = json.dumps(doc)
        doc_path.write_text(text)
        if command == "angles classify":
            argv = ["angles", "classify", "--", text]
        elif command == "export":
            argv = ["export", str(doc_path), "--obj", str(obj_path)]
        else:
            argv = [*command.split(), str(doc_path)]
        try:
            rc, _, err = run_main(argv)
        except Exception as e:  # reported with the document that raised it
            pytest.fail(f"{command} raised {type(e).__name__}: {e} on {text[:300]}")
        assert rc in (0, 1, 2, 3), (rc, text[:300])
        if rc in (2, 3):
            assert err.count("\n") == 1 and err.endswith("\n"), (err, text[:300])
