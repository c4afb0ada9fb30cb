"""Shared test helpers."""

import contextlib
import io
import json
import math
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from reptile_forge.algebra import AlgebraicReal, intpoly
from reptile_forge.cli import main
from reptile_forge.jsonio import parse_real
from reptile_forge.simplex import Simplex

# draw 1 of the acceptance suite's soundness set: descaling its matrix JSON
# meets a num * den above 10^14, past the squarefree factoring cap
DRAW_1 = [(8, 1, Fraction(-9, 2)), (3, -2, -5), (2, -2, Fraction(5, 4)), (0, 4, -6)]
# draw 14 of the same set: its Fiedler kernel has entries near 10^3, so the
# unscaled reconstruction is tiny
DRAW_14 = [(0, -4, 7), (0, Fraction(7, 3), Fraction(-7, 3)), (Fraction(9, 4), 2, -2), (-2, -2, -3)]


def run_main(argv) -> tuple:
    """main's exit code, as its process would end, and what it wrote."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as e:
            rc = e.code
    return rc, out.getvalue(), err.getvalue()


# what a Python repr of a witness would leave in printed JSON
REPR_MARKS = ("Fraction(", "AlgebraicReal(", "{'")


def assert_reads_back(printed, value) -> None:
    """``printed`` (decoded JSON) spells ``value``: each exact value parses
    with ``parse_real`` to an equal one, and every other leaf is the same
    JSON value."""
    if isinstance(value, dict):
        assert isinstance(printed, dict) and printed.keys() == value.keys(), (printed, value)
        for k, v in value.items():
            assert_reads_back(printed[k], v)
    elif isinstance(value, (tuple, list)):
        assert isinstance(printed, list) and len(printed) == len(value), (printed, value)
        for p, v in zip(printed, value):
            assert_reads_back(p, v)
    elif isinstance(value, (Fraction, AlgebraicReal)):
        assert isinstance(printed, (str, dict)), printed
        assert parse_real(printed) == value, (printed, value)
    else:
        assert type(printed) is type(value) and printed == value, (printed, value)


def record_verdicts(monkeypatch) -> list:
    """The verdicts behind the ``fiedler`` commands that ``cli.main`` runs,
    appended as they are reached: check's, and the one a refused
    reconstruction carries."""
    from reptile_forge import cli
    from reptile_forge.fiedler import ReconstructionError

    seen = []
    check, reconstruct = cli.realizability_check, cli.reconstruct_simplex

    def checking(matrix):
        seen.append(check(matrix))
        return seen[-1]

    def reconstructing(matrix):
        try:
            return reconstruct(matrix)
        except ReconstructionError as e:
            seen.append(e.verdict)
            raise

    monkeypatch.setattr(cli, "realizability_check", checking)
    monkeypatch.setattr(cli, "reconstruct_simplex", reconstructing)
    return seen


def assert_fiedler_reads_back(out: str, verdicts: list) -> None:
    """Each exact value that ``fiedler check`` or ``reconstruct`` printed
    reads back as the last recorded verdict's, and no string is a repr."""
    assert not any(mark in out for mark in REPR_MARKS), out
    if not out:
        return  # undecided: nothing printed
    doc = json.loads(out)
    if "valid" in doc:
        verdict = verdicts.pop()
        kernel = doc["kernel"] and [
            e["rational"] if "rational" in e else {"minpoly": e["minpoly"], "interval": e["interval"]}
            for e in doc["kernel"]
        ]
        assert_reads_back(
            [kernel, doc["failure_witness"], doc["char_poly"]],
            [verdict.kernel, verdict.failure_witness, verdict.char_poly],
        )
    elif "error" in doc:
        assert_reads_back(doc["witness"], verdicts.pop().failure_witness)


def random_rational_tetrahedron(rng: random.Random) -> Simplex:
    while True:
        verts = [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(3)]
            for _ in range(4)
        ]
        try:
            return Simplex.exact(verts)
        except ValueError:
            continue


def similar_coordinates(a, b, tol: float = 1e-10) -> bool:
    """Whether the float vertex lists a and b are similar under a relabeling
    of b: each squared edge length over the sum of them agrees within tol."""

    def shape(vs, order):
        sq = [sum((x - y) ** 2 for x, y in zip(vs[order[i]], vs[order[j]])) for i, j in combinations(range(len(vs)), 2)]
        total = sum(sq)
        return [v / total for v in sq]

    want = shape(a, range(len(a)))
    return len(a) == len(b) and any(
        all(abs(x - y) <= tol for x, y in zip(want, shape(b, p))) for p in permutations(range(len(b)))
    )


def _rational_sqrt(x: Fraction):
    num, den = math.isqrt(x.numerator), math.isqrt(x.denominator)
    return Fraction(num, den) if num * num == x.numerator and den * den == x.denominator else None


def cos_matrix_json(verts) -> dict:
    """The matrix JSON of a rational tetrahedron as the CLI reads it.

    Entry (i, j) is -n_i . n_j / (|n_i| |n_j|) for the outward normals n_i of
    the facets opposite vertices i and j, written "p/q" or "[-]sqrt(p/q)".
    """
    verts = [[Fraction(x) for x in v] for v in verts]
    normals = []
    for i in range(4):
        a, b, c = (verts[j] for j in range(4) if j != i)
        u = [y - x for x, y in zip(a, b)]
        v = [y - x for x, y in zip(a, c)]
        n = [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]
        if sum(x * (y - z) for x, y, z in zip(n, verts[i], a)) > 0:
            n = [-x for x in n]
        normals.append(n)
    g = [[sum(x * y for x, y in zip(u, v)) for v in normals] for u in normals]

    def entry(i, j):
        if i == j:
            return "-1"
        num = -g[i][j]
        square = num * num / (g[i][i] * g[j][j])
        root = _rational_sqrt(square)
        body = f"sqrt({square.numerator}/{square.denominator})" if root is None else f"{root}"
        return ("-" if num < 0 else "") + body

    return {"dim": 3, "cos": [[entry(i, j) for j in range(4)] for i in range(4)]}


def swinnerton_dyer(radicands):
    """The integer polynomial whose roots are every sum of +-sqrt(a): it is
    irreducible, and splits into factors of degree at most 2 modulo every
    prime."""
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    p = sympy.Poly(x, x)
    for a in radicands:
        # p(x - sqrt a) p(x + sqrt a), with the odd powers of sqrt a cancelled
        q = sympy.Poly(p.as_expr().subs(x, x + y), x, y)
        even = sum(c * x**i * a ** (j // 2) for (i, j), c in q.terms() if j % 2 == 0)
        odd = sum(c * x**i * a ** (j // 2) for (i, j), c in q.terms() if j % 2 == 1)
        p = sympy.Poly(sympy.expand(even**2 - a * odd**2), x)
    return intpoly.poly(int(c) for c in reversed(p.all_coeffs()))
