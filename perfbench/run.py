"""The reptile-forge benchmark.

    python3 perfbench/run.py --workload {audit,hill,realize,angles} \
        --seed N --seconds S --trace {0,1}

Run it from the repository root: the package is imported from ./src.  The
last line of standard output is one JSON object with "correct",
"attempted", "failed" and "metrics"; a human summary goes to standard
error.  See perfbench/README.md for the workloads and the metrics.

With --trace 0 the run repeats whole passes over the workload's input list
until the passes have taken --seconds, one op at a time, and reports the
end-to-end metrics.  With --trace 1 it runs one untraced and one traced
pass and reports the per-layer metrics of the traced pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 11
DEADLINE_S = 170  # the whole run, checks included

sys.path.insert(0, HERE)

try:  # the checks' independent arithmetic
    import mpmath  # noqa: E402,F401
    import sympy  # noqa: E402,F401
except ImportError as e:
    sys.exit(f"perfbench: the checks need sympy and mpmath: {e}")

import checks  # noqa: E402
import workloads  # noqa: E402

# name -> (unit, how the traced pass's span summary gives it)
PER_LAYER = {
    "audit.run_full_audit_s": ("s", "audit.run_full_audit"),
    "audit.verify_report_s": ("s", "audit.verify_report"),
    "audit.verify_step_calls": ("count", "audit.verify_step.*"),
    "audit.verify_step.final-cases_s": ("s", "audit.verify_step.final-cases"),
    "audit.verify_step.path-det-factorization_s": ("s", "audit.verify_step.path-det-factorization"),
    "audit.verify_step.two-length_s": ("s", "audit.verify_step.two-length"),
    "audit.final_cases_step_s": ("s", "audit.final_cases_step"),
    "audit.hill_construction_step_s": ("s", "audit.hill_construction_step"),
    "audit.report_json_s": ("s", "audit.AuditReport.to_json+cli._emit.audit_run"),
    "hill.subdivide_s": ("s", "hill.subdivide"),
    "hill.Subdivision.from_json_s": ("s", "hill.Subdivision.from_json"),
    "hill.verify_reptile_s": ("s", "hill.verify_reptile"),
    "hill.interiors_disjoint_calls": ("count", "hill.interiors_disjoint"),
    "hill.interiors_disjoint_s": ("s", "hill.interiors_disjoint"),
    "simplex.Simplex.facet_normal_calls": ("count", "simplex.Simplex.facet_normal"),
    "simplex.volume_s": ("s", "simplex.volume"),
    "simplex.similar_s": ("s", "simplex.similar"),
    "simplex.congruent_s": ("s", "simplex.congruent"),
    "simplex.dihedral_data_s": ("s", "simplex.dihedral_data"),
    "fiedler.realizability_check_calls": ("count", "fiedler.realizability_check"),
    "fiedler.realizability_check_s": ("s", "fiedler.realizability_check"),
    "fiedler.reconstruct_simplex_s": ("s", "fiedler.reconstruct_simplex"),
    "fiedler.generic_path_ops": ("count", "ops flagged generic"),
    "jsonio.load_matrix_s": ("s", "jsonio.load_matrix"),
    "trig.cosine_of_calls": ("count", "trig.cosine_of"),
    "trig.cosine_of_s": ("s", "trig.cosine_of"),
    "trig.catalog_s": ("s", "trig.catalog"),
    "trig.match_rational_angle_s": ("s", "trig.match_rational_angle"),
    "algebra.sturm.isolate_roots_calls": ("count", "algebra.sturm.isolate_roots"),
    "algebra.sturm.isolate_roots_s": ("s", "algebra.sturm.isolate_roots"),
    "algebra.sturm.sturm_sequence_calls": ("count", "algebra.sturm.sturm_sequence"),
    "algebra.sturm.variations_at_calls": ("count", "algebra.sturm.variations_at"),
    "algebra.intpoly.sign_at_calls": ("count", "algebra.intpoly.sign_at"),
    "algebra.sturm.refine_root_s": ("s", "algebra.sturm.refine_root"),
    "algebra.algebraic.arith_calls": ("count", "algebra.algebraic.arith"),
    "algebra.algebraic.arith_s": ("s", "algebra.algebraic.arith"),
    "algebra.algebraic.compare_calls": ("count", "algebra.algebraic.compare"),
    "algebra.factor.factor_squarefree_s": ("s", "algebra.factor.factor_squarefree"),
    "algebra.eliminate_s": ("s", "algebra.eliminate"),
    "algebra.multipoly.determinant_s": ("s", "algebra.multipoly.determinant"),
    "algebra.numberfield.poly_gcd_in_t_s": ("s", "algebra.numberfield.poly_gcd_in_t"),
    "algebra.enclosure.acos_fraction_bounds_s": ("s", "algebra.enclosure.acos_fraction_bounds"),
    "trace.overhead_s": ("s", "traced pass time minus untraced pass time"),
}


class Deadline(Exception):
    pass


def _alarm(signum, frame):
    raise Deadline(f"run exceeded {DEADLINE_S} s")


class Runner:
    """Spawns the op processes of one run and keeps what they cost."""

    def __init__(self, workload: str, tmp: str):
        self.workload = workload
        self.tmp = tmp
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.peak_kb = 0
        self.passes = 0

    def spawn(self, argv: list[str]) -> tuple[float, int]:
        """Run a child to completion: (wall seconds, exit code)."""
        with open(os.path.join(self.tmp, "child.err"), "w+b") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            try:
                proc.wait()
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            seconds = time.perf_counter() - t0
            err.seek(0)
            self.last_stderr = err.read().decode(errors="replace")[-2000:]
        return seconds, proc.returncode

    def setup_seconds(self) -> list[float]:
        return [self.spawn([sys.executable, "-c", "import reptile_forge.cli"])[0] for _ in range(SETUP_REPEATS)]

    def work(self, job: dict, d: str, name: str) -> tuple[float, dict]:
        """Run one worker job; (its wall seconds, its result file)."""
        job_path = os.path.join(d, f"{name}.json")
        job["result"] = os.path.join(d, f"{name}-result.json")
        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        wall, rc = self.spawn([sys.executable, os.path.join(HERE, "worker.py"), job_path])
        if rc != 0:
            raise RuntimeError(f"worker exited {rc}: {self.last_stderr}")
        if self.last_stderr:
            print(self.last_stderr, file=sys.stderr)
        with open(job["result"], encoding="utf-8") as fh:
            out = json.load(fh)
        self.peak_kb = max(self.peak_kb, out["peak_rss_kb"])
        return wall, out

    def run_pass(self, ops: list[dict], trace: bool) -> dict:
        """One pass: per-op results, the pass's wall time, and with trace
        the span summary and spans."""
        d = os.path.join(self.tmp, f"pass{self.passes}")
        self.passes += 1
        os.makedirs(d)
        if self.workload != "audit":
            wall, out = self.work({"ops": ops, "dir": d, "trace": trace}, d, "job")
            out.update(wall=wall, dir=d)
            return out
        # each audit op is its own interpreter, as a user's command is, so
        # the op time is the process's wall time
        out = {"results": [], "wall": 0.0, "dir": d}
        for n, op in enumerate(ops):
            report = os.path.join(d, f"report{n}.json")
            argv = ["audit", "run", "--kmax", str(op["kmax"]), "--verify", "--json", report]
            seconds, res = self.work({"argv": argv, "trace": trace}, d, f"job{n}")
            out["results"].append({"seconds": seconds, "rcs": res["results"][0]["rcs"],
                                   "outputs": [report], "flags": []})
            out["wall"] += seconds
            if trace:
                out.update(summary=res["summary"], spans=res["spans"])
        return out


def prepare(ops: list[dict], tmp: str) -> None:
    """Write the documents ops read from disk, as a user's files would be."""
    inputs = os.path.join(tmp, "inputs")
    os.makedirs(inputs)
    for n, op in enumerate(ops):
        doc = op.get("matrix") or op.get("document")
        if doc is not None:
            op["input"] = os.path.join(inputs, f"{n:04d}.json")
            with open(op["input"], "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2)


def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Verdicts:
    """Checks each op's outputs; counts what failed and what was wrong."""

    def __init__(self):
        self.attempted = self.failed = self.good = 0
        self.errors: list[str] = []
        self.bytes = 0
        self.audit_digest = None
        self.check_s = 0.0

    def take(self, ops: list[dict], result: dict) -> None:
        t0 = time.perf_counter()
        for op, res in zip(ops, result["results"]):
            self.attempted += 1
            self.bytes += sum(os.path.getsize(p) for p in res["outputs"] if os.path.exists(p))
            try:
                status = self._check(op, res)
            except (checks.CheckFailed, OSError, ValueError, KeyError, TypeError) as e:
                self.errors.append(f"{op['kind']}: {type(e).__name__}: {e}")
                continue
            if status == "failed":
                self.failed += 1
            else:
                self.good += 1
        self.check_s += time.perf_counter() - t0

    def _check(self, op: dict, res: dict) -> str:
        rcs, outs = res["rcs"], res["outputs"]
        kind = op["kind"]
        if kind == "audit":
            checks.require(rcs == [0], f"audit exited {rcs[0]}")
            with open(outs[0], "rb") as fh:
                raw = fh.read()
            digest = hashlib.sha256(raw).hexdigest()
            if self.audit_digest is None:
                checks.check_audit(json.loads(raw), op["kmax"])
                self.audit_digest = digest
            checks.require(digest == self.audit_digest, "audit reports of one run differ")
            return "ok"
        if kind == "hill":
            checks.require(rcs == [0, 0], f"hill subdivide | verify exited {rcs}")
            checks.check_hill(op, _load(outs[0]), _load(outs[1]))
            return "ok"
        if kind == "hill-corrupt":
            checks.require(rcs == [1], f"hill verify exited {rcs} on a corrupted subdivision, expected 1")
            checks.check_hill_corrupt(op, _load(outs[0]))
            return "ok"
        if kind == "realize":
            check_doc = _load(outs[0])
            recon_doc = _load(outs[1]) if rcs[1] in (0, 1) else None
            return checks.check_realize(op, rcs, check_doc, recon_doc, res["stderr"][1])
        checks.require(rcs == [0], f"{kind} exited {rcs}")
        doc = _load(outs[0])
        {"sweep": checks.check_sweep, "catalog": checks.check_catalog,
         "classify": checks.check_classify}[kind](op, doc)
        return "ok"


def tail(times: list[float]) -> str:
    """The highest percentile with at least ten ops beyond it."""
    n = len(times)
    if n < 40:
        return f"no tail: {n} ops (40 needed)"
    ordered = sorted(times)
    return f"p{100 * (n - 10) / n:.1f} of {n} ops = {ordered[n - 11]:.6f} s"


def per_layer(summary: dict, flagged: int, overhead: float) -> dict:
    def value(spec: str, unit: str):
        if spec == "ops flagged generic":
            return flagged
        if spec.startswith("traced pass"):
            return overhead
        key = "calls" if unit == "count" else "inclusive_s"
        if spec.endswith(".*"):
            return sum(v[key] for n, v in summary.items() if n.startswith(spec[:-1]))
        return sum(summary.get(part, {}).get(key, 0) for part in spec.split("+"))

    return {name: {"value": value(spec, unit), "unit": unit} for name, (unit, spec) in PER_LAYER.items()}


def run(args) -> dict:
    tmp = os.path.join(STATE, f"tmp-{args.workload}-{os.getpid()}")
    os.makedirs(tmp)
    try:
        ops = workloads.make_pass(args.workload, args.seed)
        prepare(ops, tmp)
        runner = Runner(args.workload, tmp)
        verdicts = Verdicts()
        if args.trace:
            plain = runner.run_pass(ops, trace=False)
            verdicts.take(ops, plain)
            traced = runner.run_pass(ops, trace=True)
            verdicts.take(ops, traced)
            flagged = sum("generic" in r["flags"] for r in traced["results"])
            overhead = traced["wall"] - plain["wall"]
            metrics = per_layer(traced["summary"], flagged, overhead)
            with open(os.path.join(STATE, f"trace-{args.workload}.json"), "w", encoding="utf-8") as fh:
                json.dump({"workload": args.workload, "seed": args.seed, "untraced_pass_s": plain["wall"],
                           "traced_pass_s": traced["wall"], "overhead_s": overhead,
                           "layers": traced["summary"], "spans": traced["spans"]}, fh)
            print(f"{args.workload}: untraced pass {plain['wall']:.3f} s, traced pass {traced['wall']:.3f} s",
                  file=sys.stderr)
        else:
            setup = runner.setup_seconds()
            times: list[float] = []
            slowest = (0.0, "")
            measured = 0.0
            while not times or measured < args.seconds:
                result = runner.run_pass(ops, trace=False)
                measured += result["wall"]
                times += [r["seconds"] for r in result["results"]]
                slowest = max([slowest] + [(r["seconds"], op.get("label", op["kind"]))
                                           for op, r in zip(ops, result["results"])])
                verdicts.take(ops, result)
                shutil.rmtree(result["dir"])
            metrics = {
                "ops_per_s": {"value": verdicts.good / sum(times), "unit": "ops/s"},
                "op_p50_s": {"value": statistics.median(times), "unit": "s"},
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "peak_rss_mb": {"value": runner.peak_kb / 1024, "unit": "MB"},
                "output_bytes": {"value": verdicts.bytes / verdicts.attempted, "unit": "bytes"},
            }
            print(f"{args.workload}: {runner.passes} passes of {len(ops)} ops in {measured:.2f} s, "
                  f"checks {verdicts.check_s:.2f} s, slowest op {slowest[1]} {slowest[0]:.3f} s, "
                  f"tail {tail(times)}", file=sys.stderr)
        for e in verdicts.errors[:20]:
            print(f"CHECK FAILED {e}", file=sys.stderr)
        return {
            "correct": not verdicts.errors,
            "attempted": verdicts.attempted,
            "failed": verdicts.failed,
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="reptile-forge benchmark")
    p.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "reptile_forge", "cli.py")):
        print("perfbench: no package at ./src/reptile_forge; run from the repository root", file=sys.stderr)
        return 2
    os.makedirs(STATE, exist_ok=True)
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(DEADLINE_S)
    try:
        out = run(args)
    except Deadline as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
    with open(os.path.join(STATE, f"last-{args.workload}.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
