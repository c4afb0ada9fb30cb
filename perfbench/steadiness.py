"""Run one workload on several seeds and report each end-to-end metric's
median and spread (the distance between the first and third quartiles
over the median), the numbers behind the bounds in BENCHMARK.json.

    python3 perfbench/steadiness.py --workload realize --seeds 1-10

Run it from the repository root.  Each run is a plain `perfbench/run.py`
invocation with --trace 0 and the run length of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="a range like 1-10")
    args = p.parse_args()
    with open(os.path.join(os.getcwd(), "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = str(json.load(fh)["run_seconds"])
    runs = []
    for seed in seeds(args.seeds):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
                              capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(out)
        values = " ".join(f"{k}={v['value']:.6g}" for k, v in out["metrics"].items())
        print(f"seed {seed}: correct={out['correct']} attempted={out['attempted']} failed={out['failed']} {values}",
              flush=True)
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        print(f"{name}: median {statistics.median(vals):.6g} quartiles {q1:.6g} {q3:.6g} "
              f"spread {(q3 - q1) / statistics.median(vals):.4f}")
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print(f"failed share: {shares}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
