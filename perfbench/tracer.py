"""Spans and counters around reptile_forge's public functions, installed
from outside the package.

A span records (id, parent, name, start, end) in memory; the worker writes
them out when the pass ends.  Functions called too often for a span per
call get a counter instead.  A function is replaced everywhere the package
holds it: module globals, class attributes, and module-level tuples, lists
and dicts of functions (the audit's step tables).
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (module, attribute path, span name); a name ending in "." takes a suffix
# computed from the call (the audit step id).
SPANS = (
    ("reptile_forge.audit", "run_full_audit", "audit.run_full_audit"),
    ("reptile_forge.audit", "verify_report", "audit.verify_report"),
    ("reptile_forge.audit", "verify_step", "audit.verify_step."),
    ("reptile_forge.audit", "final_cases_step", "audit.final_cases_step"),
    ("reptile_forge.audit", "hill_construction_step", "audit.hill_construction_step"),
    ("reptile_forge.audit", "AuditReport.to_json", "audit.AuditReport.to_json"),
    ("reptile_forge.cli", "_emit", "cli._emit."),
    ("reptile_forge.cli", "cmd_audit_run", "cli.cmd_audit_run"),
    ("reptile_forge.hill", "subdivide", "hill.subdivide"),
    ("reptile_forge.hill", "Subdivision.from_json", "hill.Subdivision.from_json"),
    ("reptile_forge.hill", "verify_reptile", "hill.verify_reptile"),
    ("reptile_forge.hill", "interiors_disjoint", "hill.interiors_disjoint"),
    ("reptile_forge.simplex", "volume", "simplex.volume"),
    ("reptile_forge.simplex", "similar", "simplex.similar"),
    ("reptile_forge.simplex", "congruent", "simplex.congruent"),
    ("reptile_forge.simplex", "dihedral_data", "simplex.dihedral_data"),
    ("reptile_forge.fiedler", "realizability_check", "fiedler.realizability_check"),
    ("reptile_forge.fiedler", "reconstruct_simplex", "fiedler.reconstruct_simplex"),
    ("reptile_forge.jsonio", "load_matrix", "jsonio.load_matrix"),
    ("reptile_forge.trig", "cosine_of", "trig.cosine_of"),
    ("reptile_forge.trig", "catalog", "trig.catalog"),
    ("reptile_forge.trig", "match_rational_angle", "trig.match_rational_angle"),
    ("reptile_forge.algebra.sturm", "isolate_roots", "algebra.sturm.isolate_roots"),
    ("reptile_forge.algebra.sturm", "refine_root", "algebra.sturm.refine_root"),
    ("reptile_forge.algebra.algebraic", "_arith", "algebra.algebraic.arith"),
    ("reptile_forge.algebra.factor", "factor_squarefree", "algebra.factor.factor_squarefree"),
    ("reptile_forge.algebra", "eliminate", "algebra.eliminate"),
    ("reptile_forge.algebra.multipoly", "determinant", "algebra.multipoly.determinant"),
    ("reptile_forge.algebra.numberfield", "poly_gcd_in_t", "algebra.numberfield.poly_gcd_in_t"),
    ("reptile_forge.algebra.enclosure", "acos_fraction_bounds", "algebra.enclosure.acos_fraction_bounds"),
)

COUNTS = (
    ("reptile_forge.simplex", "Simplex.facet_normal", "simplex.Simplex.facet_normal"),
    ("reptile_forge.algebra.sturm", "sturm_sequence", "algebra.sturm.sturm_sequence"),
    ("reptile_forge.algebra.sturm", "variations_at", "algebra.sturm.variations_at"),
    ("reptile_forge.algebra.intpoly", "sign_at", "algebra.intpoly.sign_at"),
    ("reptile_forge.algebra.algebraic", "AlgebraicReal.compare", "algebra.algebraic.compare"),
    ("reptile_forge.algebra.algebraic", "_interp_resultant", "algebra.algebraic._interp_resultant"),
)

# An op whose realizability check builds a resultant ran the generic
# AlgebraicReal path instead of the rational descaling.
GENERIC_MARK = ("algebra.algebraic._interp_resultant", "fiedler.realizability_check")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, start, end)
        self.stack: list[list] = []  # [id, name, start, child_seconds]
        self.active: Counter = Counter()
        self.calls: Counter = Counter()
        self.inclusive: Counter = Counter()
        self.self_time: Counter = Counter()
        self.op_flags: set = set()
        self.next_id = 0
        self.clock = time.perf_counter

    def open(self, name: str):
        frame = [self.next_id, name, self.clock(), 0.0]
        self.next_id += 1
        self.stack.append(frame)
        self.active[name] += 1
        self.calls[name] += 1

    def close(self):
        end = self.clock()
        sid, name, start, child = self.stack.pop()
        self.active[name] -= 1
        dur = end - start
        if not self.active[name]:  # outermost span of this name
            self.inclusive[name] += dur
        self.self_time[name] += dur - child
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += dur
        self.spans.append((sid, parent[0] if parent else None, name, start, end))

    def span_wrapper(self, name: str, fn):
        tracer = self
        if name == "audit.verify_step.":
            def namer(args):
                return name + args[0].id
        elif name == "cli._emit.":
            def namer(args):
                cmd = next((f[1] for f in reversed(tracer.stack) if f[1].startswith("cli.cmd_")), "cli.cmd_other")
                return name + cmd[len("cli.cmd_"):]
        else:
            namer = None

        def wrapper(*args, **kwargs):
            tracer.open(namer(args) if namer else name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close()

        wrapper.__wrapped__ = fn
        return wrapper

    def count_wrapper(self, name: str, fn):
        calls = self.calls
        active = self.active
        mark = name == GENERIC_MARK[0]
        flags = self.op_flags

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if mark and active[GENERIC_MARK[1]]:
                flags.add("generic")
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def summary(self) -> dict:
        names = sorted(set(self.calls))
        return {
            n: {"calls": self.calls[n], "inclusive_s": self.inclusive[n], "self_s": self.self_time[n]}
            for n in names
        }


def _resolve(modname: str, path: str):
    owner = sys.modules[modname]
    parts = path.split(".")
    for p in parts[:-1]:
        owner = getattr(owner, p)
    return owner, parts[-1]


def install(tracer: Tracer) -> None:
    """Wrap every target and rebind each reference the package holds."""
    import importlib

    replaced = {}
    for table, make in ((SPANS, tracer.span_wrapper), (COUNTS, tracer.count_wrapper)):
        for modname, path, name in table:
            importlib.import_module(modname)
            owner, attr = _resolve(modname, path)
            raw = owner.__dict__[attr]
            if isinstance(raw, staticmethod):
                wrapped = make(name, raw.__func__)
                setattr(owner, attr, staticmethod(wrapped))
                replaced[id(raw.__func__)] = wrapped
            else:
                wrapped = make(name, raw)
                setattr(owner, attr, wrapped)
                replaced[id(raw)] = wrapped
    for modname, module in list(sys.modules.items()):
        if not modname.startswith("reptile_forge") or module is None:
            continue
        for key, value in list(vars(module).items()):
            if id(value) in replaced:
                setattr(module, key, replaced[id(value)])
            elif isinstance(value, (tuple, list)) and any(id(v) in replaced for v in value):
                setattr(module, key, type(value)(replaced.get(id(v), v) for v in value))
            elif isinstance(value, dict) and any(id(v) in replaced for v in value.values()):
                value.update({k: replaced[id(v)] for k, v in value.items() if id(v) in replaced})
