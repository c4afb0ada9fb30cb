"""One validating reader per JSON document kind, and OBJ export.

A reader (of an exact value, a cosine matrix, a simplex, a subdivision)
checks the shape and type of every value before it builds anything; a bad
value is an ``InputFormatError`` naming its JSON path, as in
``cos[0][2].interval[1]``.  A string is never read as a list, and a "float"
simplex is read exactly, each coordinate by its repr.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

from .algebra import AlgebraicReal, FactorError, exact_json
from .fiedler import CosMatrix
from .simplex import Simplex, as_frame

# sign, coefficient, radicand, denominator
_SQRT_RE = re.compile(r"([+-]?)(?:(\d+(?:/\d+)?)\*)?sqrt\((\d+(?:/\d+)?)\)(?:/(\d+))?")
# Fraction's string grammar with an exponent of at most four digits: "p/q", or "p" or a decimal
_DIGITS = r"\d+(?:_\d+)*"
_NUMBER_RE = re.compile(
    rf"\s*(?:([+-]?{_DIGITS})/({_DIGITS})|[+-]?(?:{_DIGITS}(?:\.(?:{_DIGITS})?)?|\.{_DIGITS})"
    rf"(?:[eE][+-]?\d(?:_?\d){{0,3}})?)\s*"
)


class InputFormatError(ValueError):
    """Malformed value, matrix, simplex or subdivision input."""


def _expected(path: str, what: str, x, prefix: str = "") -> InputFormatError:
    """The error for the value x at ``path`` (a leading "." dropped), spelled as JSON."""
    return InputFormatError(f"{prefix}{path.lstrip('.')}: expected {what}, got {json.dumps(x, default=str)[:40]}")


def read_number(x) -> Fraction | None:
    """An integer, a finite float by its repr, or a string as Fraction reads it (a "p/q" with
    q > 0, a "p" or a decimal) with an exponent of at most four digits, else None."""
    if type(x) is int:
        return Fraction(x)
    if type(x) is float and math.isfinite(x):
        x = repr(x)
    if type(x) is not str or (m := _NUMBER_RE.fullmatch(x)) is None:
        return None
    if m[2] is None:
        return Fraction(x)
    return Fraction(int(m[1]), den) if (den := int(m[2])) else None


def parse_real(spec, path: str = ""):
    """The Fraction or AlgebraicReal of "p/q", "sqrt(2)/2", "3*sqrt(5)/7", "-sqrt(1/2)", an
    integer, or a {"minpoly": [...], "interval": [lo, hi]} object, found at ``path``."""
    if isinstance(spec, dict):
        return _algebraic(spec, path)
    if isinstance(spec, bool):
        raise InputFormatError(f"cannot parse exact value {json.dumps(spec)}: a boolean is not a number")
    if isinstance(spec, (int, Fraction)):
        return Fraction(spec)
    if isinstance(spec, float):
        hint = 'pass an exact string like "1/2" or "sqrt(2)/2"'
        raise InputFormatError(f"refusing float literal {json.dumps(spec)}: {hint}")
    if isinstance(spec, str):
        if m := _SQRT_RE.fullmatch(s := spec.strip()):
            rad, coef, den = read_number(m[3]), read_number(m[2] or "1"), int(m[4] or 1)
            if rad is not None and coef is not None and den:
                # no resultant: a sign is an exact negation, and c sqrt(r) keeps the enclosure
                # c [lo, hi] of sqrt(r), which sqrt(c^2 r) would not; reconstruction reads it
                root, coef = AlgebraicReal.sqrt_rational(rad), coef / den
                root = root * coef if coef != 1 else root
                return -root if m[1] == "-" else root
        elif (value := read_number(s)) is not None:
            return value
    raise _expected(path or "value", "an exact value", spec)


def _algebraic(obj: dict, path: str) -> AlgebraicReal:
    """The root of "minpoly" (integers, lowest degree first) that "interval" isolates."""
    where = f"{path}: " if path else ""
    for key in ("minpoly", "interval"):
        if key not in obj:
            raise InputFormatError(f"{where}bad algebraic-number object: no {json.dumps(key)} key")
    mp, iv = obj["minpoly"], obj["interval"]
    if not isinstance(mp, list):
        raise _expected(f"{path}.minpoly", "a list of integers", mp)
    for i, a in enumerate(mp):
        if type(a) is not int:
            raise _expected(f"{path}.minpoly[{i}]", "an integer", a)
    if not (isinstance(iv, list) and len(iv) == 2):
        raise _expected(f"{path}.interval", "a list of two exact numbers", iv)
    for i, x in enumerate(iv):
        if read_number(x) is None:
            raise _expected(f"{path}.interval[{i}]", "an exact number", x)
    try:
        return AlgebraicReal.from_root(mp, *map(read_number, iv))
    except FactorError:
        raise  # a valid value beyond the factorizer: undecided, not bad input
    except ValueError as e:  # the interval isolates no root, or several
        raise InputFormatError(f"{where}bad algebraic-number object: {e}") from None


def format_real(x, digits: int = 12) -> dict:
    """An exact value with its approximation: {"rational": "p/q"} or the
    {"minpoly", "interval"} object, and "approx"."""
    exact = exact_json(x)
    out = {"rational": exact} if isinstance(exact, str) else exact
    out["approx"] = float(x if isinstance(x, Fraction) else x.approx(digits))
    return out


def load_matrix(obj: dict) -> CosMatrix:
    """The cosine matrix of a {"dim": d, "cos": [[...], ...]} document."""
    if not (isinstance(obj, dict) and "dim" in obj and "cos" in obj):
        raise _expected("matrix JSON", 'an object with "dim" and "cos"', obj)
    dim, rows = obj["dim"], obj["cos"]
    if type(dim) is not int:
        raise _expected("dim", "an integer", dim)
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise InputFormatError("cos must be a list of rows, each a list of entries")
    if len(rows) != dim + 1:
        raise InputFormatError(f"expected {dim + 1} rows, got {len(rows)}")
    entries = [[parse_real(x, f"cos[{i}][{j}]") for j, x in enumerate(r)] for i, r in enumerate(rows)]
    return CosMatrix.from_rows(entries)


def load_simplex(obj: dict, frame=None, path: str = "", numbers: dict | None = None) -> Simplex:
    """The simplex of a JSON object at ``path``, in ``frame`` when the caller has read it,
    else in its own "frame": a cosine c, written like a --cos value, whose Gram matrix
    (1 - c) I + c J is positive definite (Cartesian when absent).  ``numbers`` maps each
    coordinate string read so far to its value, so a string that repeats is read once;
    only strings are keys, so a JSON true is never taken for the 1 it hashes like."""
    bad = "bad simplex JSON: "
    if not isinstance(obj, dict):
        raise InputFormatError(f"{bad}expected an object, got {json.dumps(obj)[:40]}")
    if "vertices" not in obj:
        raise InputFormatError(f'{bad}{path + ": " if path else ""}no "vertices" key')
    raw, mode = obj["vertices"], obj.get("mode", "exact")
    if mode not in ("exact", "float"):
        raise _expected(f"{path}.mode", '"exact" or "float"', mode, bad)
    if not isinstance(raw, list):
        raise _expected(f"{path}.vertices", "a list of vertices", raw, bad)
    dim = obj.get("dim", len(raw) - 1)
    if type(dim) is not int:
        raise _expected(f"{path}.dim", "an integer", dim, bad)
    if dim != len(raw) - 1:
        raise InputFormatError(f"{bad}expected {dim + 1} vertices for dim {dim}, got {len(raw)}")
    if numbers is None:
        numbers = {}
    vertices = []
    for i, v in enumerate(raw):
        if not isinstance(v, list):
            raise _expected(f"{path}.vertices[{i}]", "a list of coordinates", v, bad)
        vertex = []
        for j, x in enumerate(v):
            if (c := numbers.get(x) if type(x) is str else None) is None:
                if (c := read_number(x)) is None:
                    if isinstance(x, str) and _NUMBER_RE.fullmatch(x):  # a "p/0"
                        raise InputFormatError(f"{bad}a coordinate has denominator 0")
                    raise _expected(f"{path}.vertices[{i}][{j}]", "an exact number", x, bad)
                if type(x) is str:
                    numbers[x] = c
            vertex.append(c)
        vertices.append(tuple(vertex))
    if frame is None and "frame" in obj:
        c = parse_real(obj["frame"], f"{path}.frame".lstrip("."))
        if not (dim >= 2 and Fraction(-1, dim - 1) < c < 1):
            spelled = json.dumps(obj["frame"])
            raise InputFormatError(f"{bad}frame {spelled} is not a cosine in (-1/(d-1), 1) for d = {dim}")
        frame = as_frame(c)
    try:
        return Simplex(dim, tuple(vertices), Fraction(0) if frame is None else frame)
    except ValueError as e:  # a dimension, an arity or a determinant refused
        raise InputFormatError(f"{bad}{e}") from None


def load_subdivision(obj: dict) -> tuple[Simplex, tuple[Simplex, ...], int]:
    """The parent, pieces and m of a subdivision document.  The parent's frame is read once
    and every piece must carry the same raw "frame" value.  No simplex may be marked
    "mode": "float": its rounded coordinates would be read exactly."""
    if not isinstance(obj, dict):
        raise InputFormatError("subdivision JSON must be an object")
    if missing := [key for key in ("m", "parent", "pieces") if key not in obj]:
        raise InputFormatError(f"subdivision JSON has no {json.dumps(missing[0])} key")
    m, pieces = obj["m"], obj["pieces"]
    if type(m) is not int:
        raise _expected("m", "an integer", m)
    if m < 2:
        raise InputFormatError("m must be at least 2")
    if not isinstance(pieces, list):
        raise InputFormatError("pieces must be a list of simplices")
    numbers: dict[str, Fraction] = {}  # each distinct coordinate string is read once
    parent = load_simplex(obj["parent"], path="parent", numbers=numbers)
    raw = obj["parent"].get("frame")
    for i, p in enumerate(pieces):
        if isinstance(p, dict) and p.get("frame") != raw:
            raise InputFormatError(
                f"piece {i} has frame {json.dumps(p.get('frame'))}, the parent {json.dumps(raw)}"
            )
    cells = tuple(load_simplex(p, parent.frame, f"pieces[{i}]", numbers) for i, p in enumerate(pieces))
    if any(s.get("mode") == "float" for s in (obj["parent"], *pieces)):
        raise InputFormatError("the reptile verifier is exact: a subdivision takes no float-mode simplex")
    return parent, cells, m


def read_json_document(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise InputFormatError(f"malformed JSON at line {e.lineno}, column {e.colno}: {e.msg}") from e
    except RecursionError:
        raise InputFormatError("malformed JSON: nested too deeply") from None


def export_obj(simplices, path: str, names=None) -> dict:
    """Write tetrahedra to a Wavefront OBJ file (d = 3 only), in Cartesian
    float coordinates (``Simplex.as_float``).

    Vertices with equal exact coordinates are merged; each simplex emits its
    four triangular faces under a named group.  Returns counting stats.
    """
    items = list(simplices)
    if any(s.dim != 3 for s in items):
        raise ValueError("OBJ export is defined for d = 3")
    # float() of a Fraction overflows from 2^1024 - 2^970 on; a framed coordinate is a sum
    # of three coordinates times Cholesky entries of at most 1, so it keeps below 2^1023
    for s in items:
        limit = 1 << 1021 if s.frame else (1 << 1024) - (1 << 970)
        if any(abs(x) >= limit for v in s.vertices for x in v):
            raise ValueError("OBJ export writes floats: a coordinate is beyond the float range")
    verts: list[tuple[float, ...]] = []
    index: dict[tuple, int] = {}

    def vid(p, fp) -> int:
        if p not in index:
            verts.append(fp)
            index[p] = len(verts)
        return index[p]

    groups = []
    for n, s in enumerate(items):
        ids = [vid(p, fp) for p, fp in zip(s.vertices, s.as_float())]
        name = names[n] if names else f"piece_{n:03d}"
        faces = [
            (ids[0], ids[1], ids[2]),
            (ids[0], ids[1], ids[3]),
            (ids[0], ids[2], ids[3]),
            (ids[1], ids[2], ids[3]),
        ]
        groups.append((name, faces))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# reptile-forge OBJ export\n")
        for v in verts:
            fh.write(f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        for name, faces in groups:
            fh.write(f"g {name}\n")
            for f in faces:
                fh.write(f"f {f[0]} {f[1]} {f[2]}\n")
    return {"vertices": len(verts), "faces": 4 * len(items), "groups": len(groups)}
