"""Self-test of the benchmark's checks.

    python3 perfbench/selftest.py      (from the repository root)

Each check first gets a genuine output of the CLI, which it must accept,
then the same output with one defect, which it must reject:

- audit: one coefficient of a final-cases eliminant changed;
- hill: one piece of a subdivision moved onto its neighbour;
- realize: one kernel entry negated;
- angles: one catalog entry dropped.

A fifth case checks the gate on failed ops: `fiedler reconstruct` exiting
2 with fault F2's message counts as a failed op on an input known to hit
F2, and is rejected on any other input.

Exit code 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

try:  # the checks' independent arithmetic
    import mpmath  # noqa: E402,F401
    import sympy  # noqa: E402,F401
except ImportError as e:
    sys.exit(f"perfbench: the checks need sympy and mpmath: {e}")

import checks  # noqa: E402
import workloads  # noqa: E402


def cli(*argv: str) -> tuple[int, object]:
    """Run the CLI from ./src and return (exit code, parsed JSON output)."""
    with tempfile.TemporaryDirectory(dir=os.path.join(os.getcwd(), ".perfbench")) as d:
        out = os.path.join(d, "out.json")
        env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"))
        args = list(argv)
        if "{out}" in args:
            args[args.index("{out}")] = out
        else:
            args += ["--out", out]
        proc = subprocess.run([sys.executable, "-m", "reptile_forge.cli", *args], env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=False)
        with open(out, encoding="utf-8") as fh:
            return proc.returncode, json.load(fh)


def verdict(fn, *args) -> str | None:
    """None when the check accepts, else its reason."""
    try:
        fn(*args)
    except checks.CheckFailed as e:
        return str(e)
    return None


def audit_case():
    _, reports = cli("audit", "run", "--kmax", "9", "--json", "{out}")
    bad = copy.deepcopy(reports)
    case = next(s for s in bad[0]["steps"] if s["id"] == "final-cases")["certificate"]["cases"][1]
    case["eliminant"][2] += 1
    return (checks.check_audit, reports, 9), (checks.check_audit, bad, 9)


def hill_case():
    _, sub = cli("hill", "subdivide", "--dim", "3", "--m", "3")
    bad = copy.deepcopy(sub)
    pieces = bad["pieces"]
    key = [frozenset(map(tuple, p["vertices"])) for p in pieces]
    j = next(j for j in range(1, len(pieces)) if len(key[0] & key[j]) == 3)
    pieces[0] = copy.deepcopy(pieces[j])
    args = (3, 3, 0, 7)
    return (checks.check_subdivision, sub, *args), (checks.check_subdivision, bad, *args)


def realize_case():
    op = next(op for op in workloads.realize_pass(7) if op["realizable"] and op["label"].startswith("seeded"))
    path = os.path.join(os.getcwd(), ".perfbench", "selftest-matrix.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(op["matrix"], fh)
    try:
        rc1, check_doc = cli("fiedler", "check", path)
        rc2, recon_doc = cli("fiedler", "reconstruct", path)
    finally:
        os.remove(path)
    bad = copy.deepcopy(check_doc)
    entry = bad["kernel"][1]
    if "rational" in entry:
        entry["rational"] = "-" + entry["rational"]
    else:
        lo, hi = entry["interval"]
        entry["interval"] = [_neg(hi), _neg(lo)]
        entry["approx"] = -entry["approx"]
    return ((checks.check_realize, op, [rc1, rc2], check_doc, recon_doc),
            (checks.check_realize, op, [rc1, rc2], bad, recon_doc))


F2_STDERR = "error: degenerate simplex (determinant below tolerance)\n"


def realize_f2_case():
    """Exit 2 with F2's message is a failed op on draw 14; the same exit on
    a seeded tetrahedron, which no known fault touches, is a wrong answer.
    The exit and message are given, so the case holds once F2 is mended."""
    ops = workloads.realize_pass(7)
    f2 = next(op for op in ops if op.get("known_fault") == "F2")
    other = next(op for op in ops if op["realizable"] and op["label"].startswith("seeded"))
    docs = []
    for op in (f2, other):
        path = os.path.join(os.getcwd(), ".perfbench", "selftest-matrix.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(op["matrix"], fh)
        try:
            docs.append(cli("fiedler", "check", path)[1])
        finally:
            os.remove(path)
    return ((checks.check_realize, f2, [0, 2], docs[0], None, F2_STDERR),
            (checks.check_realize, other, [0, 2], docs[1], None, F2_STDERR))


def _neg(text: str) -> str:
    return text[1:] if text.startswith("-") else "-" + text


def angles_case():
    _, entries = cli("angles", "catalog", "4")
    op = {"kind": "catalog", "degree": 4}
    return (checks.check_catalog, op, entries), (checks.check_catalog, op, entries[:5] + entries[6:])


def main() -> int:
    os.makedirs(os.path.join(os.getcwd(), ".perfbench"), exist_ok=True)
    ok = True
    for name, build in (("audit", audit_case), ("hill", hill_case), ("realize", realize_case),
                        ("realize-f2", realize_f2_case), ("angles", angles_case)):
        genuine, corrupted = build()
        accepted = verdict(*genuine)
        rejected = verdict(*corrupted)
        good = accepted is None and rejected is not None
        ok = ok and good
        print(f"{'PASS' if good else 'FAIL'} {name}: genuine {'accepted' if accepted is None else 'REJECTED: ' + accepted}; "
              f"corrupted {'rejected: ' + rejected if rejected else 'ACCEPTED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
