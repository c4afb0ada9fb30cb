"""Runs one pass of ops in a fresh interpreter.

    python3 perfbench/worker.py JOB.json

The job lists the ops, a scratch directory, the result path and whether to
trace.  Each op is timed on its own; every cache the package keeps is
emptied before each CLI command of an op, outside the timed region, so no
command is answered from what an earlier one filled.  The parent process
reads the result file and checks the outputs.

With "argv" in place of "ops" the worker runs that one CLI command, as
`python3 -m reptile_forge.cli` would, which is how an audit op runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import time
import traceback


def package_caches():
    """cache_clear of every lru_cache the package's modules hold."""
    out = []
    for name, module in list(sys.modules.items()):
        if name.startswith("reptile_forge") and module is not None:
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    out.append(value.cache_clear)
    return out


def peak_rss_kb() -> int:
    """This process's own peak resident memory.  VmHWM belongs to the
    address space made at exec; getrusage's ru_maxrss would also count the
    parent's pages at the fork that started this interpreter."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """cli.main's exit code, as the command's process would end, and the
    end of what the command wrote to standard error."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as e:  # argparse refusing the arguments
            rc = e.code
        except Exception:  # the command's process would print this and exit 1
            traceback.print_exc(file=sys.__stderr__)
            rc = 1
    return rc, err.getvalue()[-500:]


# An op is a list of steps, each one CLI command (its argv) or, for a
# cosine_of sweep, a function that writes the output.  Each step is timed on
# its own, after the package's caches are emptied, as separate commands of
# a user share no cache.


def steps_hill(op, d):
    steps, outs = [], []
    if op["kind"] == "hill":
        sub = os.path.join(d, "sub.json")
        steps.append(["hill", "subdivide", "--dim", str(op["dim"]), f"--cos={op['cos']}",
                      "--m", str(op["m"]), "--out", sub])
        outs.append(sub)
    else:
        sub = op["input"]
    report = os.path.join(d, "report.json")
    steps.append(["hill", "verify", sub, "--out", report])
    outs.append(report)
    return steps, outs


def steps_realize(op, d):
    check, recon = os.path.join(d, "check.json"), os.path.join(d, "recon.json")
    return [["fiedler", "check", op["input"], "--out", check],
            ["fiedler", "reconstruct", op["input"], "--out", recon]], [check, recon]


def steps_angles(op, d):
    out = os.path.join(d, "angles.json")
    if op["kind"] == "catalog":
        return [["angles", "catalog", str(op["degree"]), "--out", out]], [out]
    if op["kind"] == "classify":
        value = op["value"] if isinstance(op["value"], str) else json.dumps(op["value"])
        return [["angles", "classify", "--out", out, "--", value]], [out]
    return [lambda: sweep(op["q"], out)], [out]


def sweep(q: int, out: str) -> tuple[int, str]:
    """No CLI command sweeps a denominator; the entries use the CLI's layout."""
    from reptile_forge.trig import RationalAngle, cosine_of

    entries = []
    for p in range(1, q):
        if math.gcd(p, q) == 1:
            c = cosine_of(RationalAngle(p, q))
            entries.append({"angle": f"{p}*pi/{q}", **c.to_json()})
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(entries, indent=2, sort_keys=True) + "\n")
    return 0, ""


STEPS = {"hill": steps_hill, "hill-corrupt": steps_hill, "realize": steps_realize,
         "sweep": steps_angles, "catalog": steps_angles, "classify": steps_angles}


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    from reptile_forge import cli

    caches = package_caches()
    tracer = None
    if job.get("trace"):
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    if "argv" in job:
        rc, err = run_cli(cli, job["argv"])
        results = [{"rcs": [rc], "stderr": [err]}]
    else:
        results = []
        for n, op in enumerate(job["ops"]):
            d = os.path.join(job["dir"], f"op{n:04d}")
            os.makedirs(d, exist_ok=True)
            if tracer is not None:
                tracer.op_flags.clear()
            steps, outs = STEPS[op["kind"]](op, d)
            seconds, rcs, errs = 0.0, [], []
            for step in steps:
                for clear in caches:
                    clear()
                t0 = time.perf_counter()
                rc, err = step() if callable(step) else run_cli(cli, step)
                seconds += time.perf_counter() - t0
                rcs.append(rc)
                errs.append(err)
            results.append({"seconds": seconds, "rcs": rcs, "stderr": errs, "outputs": outs,
                            "flags": sorted(tracer.op_flags) if tracer else []})
    out = {"results": results, "peak_rss_kb": peak_rss_kb()}
    if tracer is not None:
        out["summary"] = tracer.summary()
        out["spans"] = tracer.spans
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
