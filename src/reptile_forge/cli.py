"""Command-line front door.

Subcommands: fiedler check|reconstruct, hill generate|subdivide|verify|grow,
angles classify|catalog, audit run|step, export.  JSON results go to stdout
or --out; human-readable summaries go to stderr.  "-" means stdin/stdout.
Exit codes: 0 success, 1 verification failure, 2 usage or input errors,
3 an exact computation beyond a supported bound (the algebraic degree cap,
the factorizer's recombination cap or the audit's Hill construction size),
so no verdict was reached.  Each
document is type-checked by its reader in ``jsonio`` first: bad input is
one line.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import hill as hill_mod
from .algebra import DegreeOverflowError, FactorError, exact_json
from .fiedler import ReconstructionError, realizability_check, reconstruct_simplex
from .jsonio import (
    InputFormatError,
    export_obj,
    format_real,
    load_matrix,
    load_simplex,
    parse_real,
    read_json_document,
)
from .trig import catalog, cosine_of, match_rational_angle

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_UNDECIDED = 3


def _precision_digits() -> int:
    raw = os.environ.get("REPTILE_FORGE_PRECISION")
    if not raw:
        return 12
    try:
        value = float(raw)
        if not 0 < value < 1:
            raise ValueError
        import math

        return max(1, round(-math.log10(value)))
    except ValueError:
        raise InputFormatError(
            f"REPTILE_FORGE_PRECISION must be a width like 1e-12, got {raw!r}"
        ) from None


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def _emit(payload, out: str | None, dumps=_dumps) -> None:
    text = dumps(payload)
    if out and out != "-":
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _kernel_json(verdict, digits):
    if verdict.kernel is None:
        return None
    return [format_real(k, digits) for k in verdict.kernel]


# -- fiedler ---------------------------------------------------------------


def cmd_fiedler_check(args) -> int:
    digits = _precision_digits()
    matrix = load_matrix(read_json_document(_read_input(args.matrix)))
    verdict = realizability_check(matrix)
    payload = {
        "valid": verdict.valid,
        "kernel": _kernel_json(verdict, digits),
        "failure_witness": exact_json(verdict.failure_witness),
        "char_poly": exact_json(verdict.char_poly),
    }
    _emit(payload, args.out)
    _log(f"realizability: {'valid' if verdict.valid else 'invalid'}")
    return EXIT_OK if verdict.valid else EXIT_VERIFICATION


def cmd_fiedler_reconstruct(args) -> int:
    matrix = load_matrix(read_json_document(_read_input(args.matrix)))
    try:
        s = reconstruct_simplex(matrix)
    except ReconstructionError as e:
        _log(f"not realizable: {e.verdict.failure_witness['kind']} witness")
        _emit({"error": "not realizable", "witness": exact_json(e.verdict.failure_witness)}, args.out)
        return EXIT_VERIFICATION
    _emit({"dim": s.dim, "mode": "float", "vertices": s.as_float()}, args.out)
    _log("reconstructed simplex (longest edge normalized to 1)")
    return EXIT_OK


# -- hill ------------------------------------------------------------------


def _hill_spec(args) -> hill_mod.HillSpec:
    return hill_mod.HillSpec.from_pair_cos(args.dim, parse_real(args.cos))


def cmd_hill_generate(args) -> int:
    spec = _hill_spec(args)
    s = hill_mod.hill_simplex(spec)
    _emit(s.to_json(), args.out)
    _log(f"Hill simplex: dim {args.dim}, pairwise cosine {args.cos}")
    return EXIT_OK


def cmd_hill_subdivide(args) -> int:
    spec = _hill_spec(args)
    sub = hill_mod.subdivide(spec, args.m)
    _emit(sub.to_json(), args.out)
    _log(f"subdivided into {len(sub.pieces)} pieces (m = {args.m})")
    return EXIT_OK


def cmd_hill_verify(args) -> int:
    sub = hill_mod.Subdivision.from_json(read_json_document(_read_input(args.subdivision)))
    report = hill_mod.verify_reptile(sub)
    _emit(report.to_json(), args.out)
    _log("reptile verification: " + ("all checks passed" if report.all_ok else "FAILED"))
    return EXIT_OK if report.all_ok else EXIT_VERIFICATION


def cmd_hill_grow(args) -> int:
    spec = _hill_spec(args)
    cells, report = hill_mod.grow_space_tiling(
        spec, args.generations, m=args.m, budget=args.budget
    )
    if args.obj:
        stats = export_obj(cells, args.obj)
        _log(f"wrote {args.obj}: {stats['vertices']} vertices, {stats['faces']} faces")
    _emit(report.to_json(), args.out)
    _log(
        f"growth: {report.cells_emitted}/{report.cell_total} cells"
        + (" (truncated)" if report.truncated else "")
    )
    return EXIT_OK if report.sampled_disjoint_ok else EXIT_VERIFICATION


# -- angles ----------------------------------------------------------------


def cmd_angles_classify(args) -> int:
    digits = _precision_digits()
    value = parse_real(
        read_json_document(args.value) if args.value.strip().startswith("{") else args.value
    )
    angle = match_rational_angle(value)
    matches = []
    if angle is not None:
        cos = cosine_of(angle)
        matches.append(
            {
                "angle_deg": float(angle.degrees),
                "angle": f"{angle.p}*pi/{angle.q}",
                "minpoly": list(cos.minpoly),
                "approx": format_real(cos, digits)["approx"],
            }
        )
    _emit(matches, args.out)
    _log(
        f"cosine of a rational angle: {matches[0]['angle'] if matches else 'no match'}"
    )
    return EXIT_OK


def cmd_angles_catalog(args) -> int:
    digits = _precision_digits()
    cat = catalog(args.degree)
    payload = [
        {
            "angle_deg": float(a.degrees),
            "angle": f"{a.p}*pi/{a.q}",
            "minpoly": list(c.minpoly),
            "approx": format_real(c, digits)["approx"],
        }
        for a, c in cat.entries
    ]
    _emit(payload, args.out)
    _log(f"catalog degree {args.degree}: {len(payload)} angles")
    return EXIT_OK


# -- audit -----------------------------------------------------------------


def cmd_audit_run(args) -> int:
    from . import audit

    try:
        reports = audit.run_full_audit(args.kmax)
    except audit.ConstructionBoundError as e:
        return _undecided(e)
    _emit(reports, args.json or args.out, audit.dumps_reports)
    ok = True
    for r in reports:
        _log(f"k = {r.k}: {r.conclusion}")
        if audit.is_perfect_cube(r.k):
            continue
        ok = ok and r.conclusion == "excluded"
    if args.verify:
        verdicts = {}  # one check per distinct step object across the reports
        for r in reports:
            if not audit.verify_report(r, verdicts):
                _log(f"certificate re-verification FAILED for k = {r.k}")
                ok = False
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_audit_step(args) -> int:
    from . import audit

    try:
        step = audit.run_step(args.id, k=args.k)
    except audit.ConstructionBoundError as e:
        return _undecided(e)
    _emit(step.to_json(), args.out)
    _log(f"step {step.id}: {step.verdict}")
    if step.verdict == "fail":
        return EXIT_VERIFICATION
    return EXIT_OK


# -- export ----------------------------------------------------------------


def cmd_export(args) -> int:
    doc = read_json_document(_read_input(args.input))
    if isinstance(doc, dict) and "pieces" in doc:
        sub = hill_mod.Subdivision.from_json(doc)
        items = [sub.parent] + list(sub.pieces) if args.include_parent else list(sub.pieces)
        names = (["parent"] if args.include_parent else []) + [
            f"piece_{i:03d}" for i in range(len(sub.pieces))
        ]
    else:
        items = [load_simplex(doc)]
        names = ["simplex"]
    stats = export_obj(items, args.obj, names=names)
    _log(f"wrote {args.obj}: {stats['vertices']} vertices, {stats['faces']} faces")
    _emit(stats, args.out)
    return EXIT_OK


# -- wiring ----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reads values such as -5/13 and -sqrt(2)/2 as arguments, not options.

    argparse takes a token for an option when it starts with "-" and is not
    a plain negative number; no option of this CLI starts with a digit or
    "sqrt(", so those tokens are values.  Subparsers inherit the class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d|sqrt\()")


class _Refused(Exception):
    pass


class _Leaf(_Parser):
    """One leaf command's parser, built alone.  Where it would print help
    or an error it raises instead, so that main asks the full tree, whose
    text is the reference."""

    def error(self, *_):
        raise _Refused

    print_help = error


def _add_fiedler_check(p) -> None:
    p.add_argument("matrix", help="matrix JSON path or '-' for stdin")
    p.add_argument("--out", help="write JSON result here instead of stdout")
    p.set_defaults(fn=cmd_fiedler_check)


def _add_fiedler_reconstruct(p) -> None:
    p.add_argument("matrix", help="matrix JSON path or '-' for stdin")
    p.add_argument("--out", help="write simplex JSON here")
    p.set_defaults(fn=cmd_fiedler_reconstruct)


def _add_hill_spec(p) -> None:
    p.add_argument("--dim", type=int, default=3, help="dimension (2..4)")
    p.add_argument("--cos", default="0", help="common pairwise cosine, e.g. 0, 1/2, sqrt(2)/4")
    p.add_argument("--out", help="write JSON result here")


def _add_hill_generate(p) -> None:
    _add_hill_spec(p)
    p.set_defaults(fn=cmd_hill_generate)


def _add_hill_subdivide(p) -> None:
    _add_hill_spec(p)
    p.add_argument("--m", type=int, required=True, help="cuts per side (pieces = m^d)")
    p.set_defaults(fn=cmd_hill_subdivide)


def _add_hill_verify(p) -> None:
    p.add_argument("subdivision", help="subdivision JSON path or '-' for stdin")
    p.add_argument("--out", help="write report JSON here")
    p.set_defaults(fn=cmd_hill_verify)


def _add_hill_grow(p) -> None:
    _add_hill_spec(p)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--generations", type=int, required=True)
    p.add_argument("--budget", type=int, default=20000, help="piece cap for streaming")
    p.add_argument("--obj", help="write an OBJ mesh of the cells here")
    p.set_defaults(fn=cmd_hill_grow)


def _add_angles_classify(p) -> None:
    p.add_argument("value", help='cosine spec: "1/2", "sqrt(2)/2", or minpoly JSON')
    p.add_argument("--out")
    p.set_defaults(fn=cmd_angles_classify)


def _add_angles_catalog(p) -> None:
    p.add_argument("degree", type=int)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_angles_catalog)


def _add_audit_run(p) -> None:
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--json", help="write the report list here")
    p.add_argument("--out", help="alias for --json")
    p.add_argument(
        "--verify",
        action="store_true",
        help="re-validate every certificate with the independent checker",
    )
    p.set_defaults(fn=cmd_audit_run)


def _add_audit_step(p) -> None:
    from . import audit

    p.add_argument("id", help=f"one of: {', '.join(sorted(audit.STEP_BUILDERS))}")
    p.add_argument("--k", type=int, help="k for the k-dependent steps")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_audit_step)


def _add_export(p) -> None:
    p.add_argument("input", help="simplex or subdivision JSON path or '-'")
    p.add_argument("--obj", required=True, help="output OBJ path")
    p.add_argument("--include-parent", action="store_true")
    p.add_argument("--out", help="write export stats JSON here")
    p.set_defaults(fn=cmd_export)


# command -> (help, {leaf: (help, the function adding the leaf's arguments)}),
# or (help, that function) for a command without leaves; in help order.  A
# function sets its handler as a module global, so a rebound handler is used.
_COMMANDS = {
    "fiedler": ("dihedral-angle realizability", {
        "check": ("exact realizability of a cosine matrix", _add_fiedler_check),
        "reconstruct": ("build a simplex from a cosine matrix", _add_fiedler_reconstruct),
    }),
    "hill": ("Hill simplices and reptile subdivisions", {
        "generate": ("build a Hill simplex", _add_hill_generate),
        "subdivide": ("cut a Hill simplex into m^d pieces", _add_hill_subdivide),
        "verify": ("verify the reptile property of a subdivision", _add_hill_verify),
        "grow": ("iterate the subdivision into a larger tiling", _add_hill_grow),
    }),
    "angles": ("rational angles and cosine catalogs", {
        "classify": ("match an exact cosine to a rational angle", _add_angles_classify),
        "catalog": ("all rational angles of one cosine degree", _add_angles_catalog),
    }),
    "audit": ("the nonexistence case analysis", {
        "run": ("audit every k up to a bound", _add_audit_run),
        "step": ("run a single audit step by id", _add_audit_step),
    }),
    "export": ("write OBJ meshes from simplex/subdivision JSON", _add_export),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, which prints help and usage errors."""
    p = _Parser(
        prog="reptile-forge",
        description="Exact tools for reptile simplices: realizability, angle catalogs, "
        "Hill subdivisions, and the nonexistence audit.",
    )
    commands = p.add_subparsers(dest="command", required=True)
    for name, (help_, leaves) in _COMMANDS.items():
        cmd = commands.add_parser(name, help=help_)
        if isinstance(leaves, dict):
            sub = cmd.add_subparsers(dest="sub", required=True)
            for leaf, (leaf_help, add) in leaves.items():
                add(sub.add_parser(leaf, help=leaf_help))
        else:
            leaves(cmd)
    return p


def _leaf(argv: list[str]) -> argparse.Namespace | None:
    """argv's arguments as read by the parser of the leaf command it names,
    built alone, as building the whole tree is most of a small command's
    time.  None when argv names no leaf or that parser would print help or
    an error or leave an argument unread: the full tree answers then."""
    entry, depth = (_COMMANDS.get(argv[0]) if argv else None), 1
    if entry is not None and isinstance(entry[1], dict):
        entry, depth = (entry[1].get(argv[1]) if len(argv) > 1 else None), 2
    if entry is None:
        return None
    parser = _Leaf(prog=" ".join(["reptile-forge", *argv[:depth]]))
    entry[1](parser)
    try:
        args, extra = parser.parse_known_args(argv[depth:])
    except _Refused:
        return None
    return None if extra else args


def _undecided(e: Exception) -> int:
    _log(f"undecided: {e}")
    return EXIT_UNDECIDED


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _leaf(argv) or build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (DegreeOverflowError, FactorError) as e:
        return _undecided(e)
    except InputFormatError as e:
        _log(f"input error: {e}")
        return EXIT_USAGE
    except (ValueError, OSError) as e:
        _log(f"error: {e}")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
