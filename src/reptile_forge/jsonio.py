"""Shared parsing and formatting for the CLI surfaces.

Exact values cross the JSON boundary as strings: rationals as "p/q",
radicals as "a*sqrt(n)/d" shorthand, and general algebraic numbers as
{"minpoly": [...], "interval": ["lo", "hi"]} objects.  A simplex document
of mode "float" (as ``fiedler reconstruct`` writes) is read exactly too,
each coordinate by its repr; OBJ export writes float coordinates.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .algebra import AlgebraicReal, FactorError, exact_json
from .fiedler import CosMatrix
from .simplex import Simplex, _coordinate, as_frame

_SQRT_RE = re.compile(
    r"^(?P<sign>[+-]?)(?:(?P<coef>\d+(?:/\d+)?)\*)?sqrt\((?P<rad>\d+(?:/\d+)?)\)(?:/(?P<den>\d+))?$"
)


class InputFormatError(ValueError):
    """Malformed value, matrix, or simplex input."""


def parse_real(spec):
    """A Fraction or AlgebraicReal from a string/object cosine spec.

    Accepted forms: "p/q", "sqrt(2)/2", "3*sqrt(5)/7", "-sqrt(1/2)", a
    number, or a {"minpoly": ..., "interval": ...} object.
    """
    if isinstance(spec, dict):
        try:
            return AlgebraicReal.from_json(spec)
        except FactorError:
            raise  # a valid value beyond the factorizer: undecided, not bad input
        except (KeyError, ValueError) as e:
            raise InputFormatError(f"bad algebraic-number object: {e}") from e
    if isinstance(spec, bool):
        raise InputFormatError(f"cannot parse exact value {json.dumps(spec)}: a boolean is not a number")
    if isinstance(spec, (int, Fraction)):
        return Fraction(spec)
    if isinstance(spec, float):
        raise InputFormatError(
            f"refusing float literal {spec!r}: pass an exact string like \"1/2\" or \"sqrt(2)/2\""
        )
    s = str(spec).strip()
    m = _SQRT_RE.match(s)
    try:
        if m:
            # no resultant: a sign is an exact negation, and c sqrt(r) keeps
            # the enclosure c [lo, hi] of sqrt(r), which sqrt(c^2 r) would
            # not; reconstruction and the generic path read enclosures
            root = AlgebraicReal.sqrt_rational(_coordinate(m.group("rad")))
            coef = _coordinate(m.group("coef") or "1") / int(m.group("den") or 1)
            if coef != 1:
                root = root * coef
            return -root if m.group("sign") == "-" else root
        return _coordinate(s)
    except (ValueError, ZeroDivisionError) as e:
        raise InputFormatError(f"cannot parse exact value {s!r}") from e


def format_real(x, digits: int = 12) -> dict:
    """An exact value with its approximation: {"rational": "p/q"} or the
    {"minpoly", "interval"} object, and "approx"."""
    exact = exact_json(x)
    out = {"rational": exact} if isinstance(exact, str) else exact
    out["approx"] = float(x if isinstance(x, Fraction) else x.approx(digits))
    return out


def load_matrix(obj: dict) -> CosMatrix:
    try:
        dim = obj["dim"]
        rows = obj["cos"]
    except (KeyError, TypeError) as e:
        raise InputFormatError(f"matrix JSON needs 'dim' and 'cos': {e}") from e
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise InputFormatError(f"dim must be a JSON integer, got {dim!r}")
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise InputFormatError("cos must be a list of rows, each a list of entries")
    if len(rows) != dim + 1:
        raise InputFormatError(f"expected {dim + 1} rows, got {len(rows)}")
    parsed = [[parse_real(x) for x in row] for row in rows]
    return CosMatrix.from_rows(parsed)


def load_simplex(obj: dict, frame=None) -> Simplex:
    """The simplex of a JSON object, in ``frame`` when the caller has parsed
    it already, else in the object's own "frame" (Cartesian when absent)."""
    if not isinstance(obj, dict):
        raise InputFormatError(f"bad simplex JSON: expected an object, got {json.dumps(obj)[:40]}")
    if frame is None:
        frame = _load_frame(obj)
    try:
        return Simplex.from_json(obj, frame)
    except (KeyError, ValueError, TypeError) as e:
        raise InputFormatError(f"bad simplex JSON: {e}") from e
    except ZeroDivisionError as e:
        raise InputFormatError("bad simplex JSON: a coordinate has denominator 0") from e


def _load_frame(obj: dict):
    """The "frame" of a simplex object: a cosine c, written like a --cos
    value, whose Gram matrix (1 - c) I + c J is positive definite."""
    if "frame" not in obj:
        return Fraction(0)
    c = parse_real(obj["frame"])
    verts = obj.get("vertices")
    d = len(verts) - 1 if isinstance(verts, list) else 0
    if not (d >= 2 and Fraction(-1, d - 1) < c < 1):
        raise InputFormatError(
            f"bad simplex JSON: frame {json.dumps(obj['frame'])} is not a cosine in (-1/(d-1), 1) for d = {d}"
        )
    return as_frame(c)


def read_json_document(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise InputFormatError(f"malformed JSON at line {e.lineno}, column {e.colno}: {e.msg}") from e


def export_obj(simplices, path: str, names=None) -> dict:
    """Write tetrahedra to a Wavefront OBJ file (d = 3 only), in Cartesian
    float coordinates (``Simplex.as_float``).

    Vertices with equal exact coordinates are merged; each simplex emits its
    four triangular faces under a named group.  Returns counting stats.
    """
    items = list(simplices)
    if any(s.dim != 3 for s in items):
        raise ValueError("OBJ export is defined for d = 3")
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
