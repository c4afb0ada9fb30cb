"""Regenerate SOUNDNESS_PICKS in workloads.py.

    python3 perfbench/soundness_picks.py      (from the repository root)

Lists which of the 200 soundness-set draws the package's rational
descaling handles, and which of those `fiedler reconstruct` refuses.  It
calls the private fiedler._descale, because the only outside sign of the
generic path is a check that runs for seconds; the benchmark itself never
does.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import workloads  # noqa: E402
from reptile_forge import fiedler  # noqa: E402
from reptile_forge.jsonio import load_matrix  # noqa: E402


def main() -> int:
    rational, refused = [], []
    for k, verts in enumerate(workloads.soundness_draws(), start=1):
        matrix = load_matrix({"dim": 3, "cos": workloads.cosine_matrix(verts)})
        if fiedler._descale(matrix) is None:
            continue
        rational.append(k)
        try:
            fiedler.reconstruct_simplex(matrix)
        except ValueError:
            refused.append(k)
    print(f"descaled: {rational}")
    print(f"reconstruct refuses: {refused}")
    print(f"SOUNDNESS_PICKS = {tuple([1] + rational)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
