"""Checks of the program's outputs against the benchmark's own exact
computations (refgeom, refalg) or against properties the method must have.
None of them imports reptile_forge, and none compares with a stored copy of
an earlier output.  Each raises CheckFailed with the reason.
"""

from __future__ import annotations

import bisect
import json
import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

import mpmath

import refalg
import refgeom
from workloads import cos_degree, totient


class CheckFailed(Exception):
    pass


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def icbrt(k: int) -> int:
    """The cube root of k when k is a cube, else 0."""
    r = round(k ** (1 / 3))
    return r if r**3 == k else 0


# -- audit ------------------------------------------------------------------


def check_audit(reports: list, kmax: int) -> None:
    """Conclusions against the benchmark's own list of cubes, and the
    certificates sympy can re-derive from the written report."""
    require([r["k"] for r in reports] == list(range(2, kmax + 1)), "report does not cover k = 2..kmax")
    seen_final = set()
    for r in reports:
        k, steps = r["k"], {s["id"]: s for s in r["steps"]}
        m = icbrt(k)
        if m:
            require(r["conclusion"].startswith("inapplicable"), f"k = {k}: cube not marked inapplicable")
            step = steps.get("hill-construction")
            require(step is not None and step["verdict"] == "pass", f"k = {k}: no passing hill-construction step")
            rep = step["certificate"]["reptile_report"]
            require(rep["all_ok"] and rep["mode"] == "exact" and rep["piece_count"] == k
                    and rep["measured_ratio"] == f"1/{m}", f"k = {k}: Hill report is not an exact m^3 reptile")
            check_subdivision(step["certificate"]["subdivision"], 3, m, Fraction(0), probe_seed=k)
            continue
        require(r["conclusion"] == "excluded", f"k = {k}: non-cube not excluded")
        rho = steps.get("rho-degree")
        require(rho is not None and rho["inputs"]["polynomial"] == [-1, 0, 0, k], f"k = {k}: rho polynomial is not k x^3 - 1")
        require(not refalg.has_rational_root(rho["inputs"]["polynomial"]), f"k = {k}: k x^3 - 1 has a rational root")
        fc = steps.get("final-cases")
        require(fc is not None and fc["verdict"] == "pass", f"k = {k}: final-cases missing or failing")
        key = json.dumps(fc, sort_keys=True)
        if key not in seen_final:
            check_final_cases(fc)
            seen_final.add(key)


def check_final_cases(step: dict) -> None:
    for case in step["certificate"]["cases"]:
        label, elim = case["t"], case["eliminant"]
        require(elim == refalg.path_eliminant(case["t_minpoly"]),
                f"t = {label}: eliminant is not the resultant of the path determinant")
        roots = case["roots"]
        count = refalg.count_roots_open(elim, Fraction(-1), Fraction(1))
        require(count == len(roots) + case["spurious_filtered"],
                f"t = {label}: {count} roots in (-1, 1), report lists {len(roots)} + {case['spurious_filtered']}")
        for rec in roots:
            mp = rec["minpoly"]
            lo, hi = (Fraction(x) for x in rec["interval"])
            require(refalg.is_irreducible(tuple(mp)), f"t = {label}: root minpoly {mp} is reducible")
            require(refalg.eval_sign(mp, lo) * refalg.eval_sign(mp, hi) < 0,
                    f"t = {label}: minpoly {mp} does not change sign across its interval")
            require(-1 < lo and hi < 1, f"t = {label}: root interval leaves (-1, 1)")
            require(refalg.to_poly(elim).rem(refalg.to_poly(mp)).is_zero,
                    f"t = {label}: minpoly {mp} does not divide the eliminant")


# -- hill -------------------------------------------------------------------

PROBE_DEN = 1000003  # prime above every m: probes avoid all cutting planes


def check_hill(op: dict, subdivision: dict, report: dict) -> None:
    m, dim = op["m"], op["dim"]
    require(report["all_ok"] and all(report["checks"].values()), f"d{dim} m{m} c={op['cos']}: verifier rejected")
    require(report["mode"] == "exact", f"d{dim} m{m} c={op['cos']}: mode {report['mode']}")
    require(report["measured_ratio"] == f"1/{m}", f"d{dim} m{m}: ratio {report['measured_ratio']}")
    require(report["piece_count"] == m**dim, f"d{dim} m{m}: piece count {report['piece_count']}")
    check_subdivision(subdivision, dim, m, Fraction(op["cos"]), op["probe_seed"])


def check_hill_corrupt(op: dict, report: dict) -> None:
    failed = sorted(k for k, ok in report["checks"].items() if not ok)
    require(not report["all_ok"], f"corrupted ({op['how']}) subdivision accepted")
    require(failed == sorted(op["broken"]), f"corrupted ({op['how']}): checks {failed} failed, expected {op['broken']}")


def check_subdivision(doc: dict, dim: int, m: int, c: Fraction, probe_seed: int) -> None:
    """m^d pieces, each of volume vol(parent) / m^d, and every probe point
    strictly inside exactly one piece: seeded points of the parent, plus
    each piece's centroid."""
    parent = [tuple(Fraction(x) for x in v) for v in doc["parent"]["vertices"]]
    pieces = [[tuple(Fraction(x) for x in v) for v in p["vertices"]] for p in doc["pieces"]]
    require(len(parent) == dim + 1, "parent has the wrong dimension")
    basis = [tuple(a - b for a, b in zip(parent[i + 1], parent[i])) for i in range(dim)]
    norms = {sum(x * x for x in b) for b in basis}
    dots = {sum(x * y for x, y in zip(basis[i], basis[j])) for i, j in combinations(range(dim), 2)}
    require(len(norms) == 1 and len(dots) == 1 and dots.pop() / norms.pop() == c,
            f"parent is not a Hill simplex with pairwise cosine {c}")
    require(len(pieces) == m**dim, f"{len(pieces)} pieces, expected {m**dim}")
    share = refgeom.volume(parent) / m**dim
    for i, p in enumerate(pieces):
        require(refgeom.volume(p) == share, f"piece {i} has volume {refgeom.volume(p)}, expected {share}")
    rng = random.Random(probe_seed)
    probes = []
    for _ in range(max(16, m**dim)):
        ys = sorted(rng.sample(range(1, PROBE_DEN), dim), reverse=True)
        probes.append(tuple(sum(Fraction(y, PROBE_DEN) * b[k] for y, b in zip(ys, basis)) for k in range(dim)))
    probes += [tuple(sum(v[k] for v in p) / (dim + 1) for k in range(dim)) for p in pieces]
    counts = interior_counts(pieces, probes)
    bad = [n for n, cnt in enumerate(counts) if cnt != 1]
    require(not bad, f"probe {bad[0] if bad else ''} lies inside {counts[bad[0]] if bad else 0} pieces, expected 1")


def interior_counts(pieces, points) -> list[int]:
    """For each point, the number of pieces holding it strictly inside."""
    den, ipoints = refgeom.common_denominator(list(points) + [v for p in pieces for v in p])
    ipts = ipoints[: len(points)]
    order = sorted(range(len(ipts)), key=lambda n: ipts[n][0])
    xs = [ipts[n][0] for n in order]
    counts = [0] * len(ipts)
    for p in pieces:
        verts = [tuple(int(x * den) for x in v) for v in p]
        rows = [([int(c) for c in nrm], int(off)) for nrm, off in refgeom.facets(verts)]
        lo = [min(v[k] for v in verts) for k in range(len(verts[0]))]
        hi = [max(v[k] for v in verts) for k in range(len(verts[0]))]
        for n in order[bisect.bisect_right(xs, lo[0]): bisect.bisect_left(xs, hi[0])]:
            pt = ipts[n]
            if all(a < x < b for a, x, b in zip(lo, pt, hi)) and all(
                sum(c * x for c, x in zip(nrm, pt)) > off for nrm, off in rows
            ):
                counts[n] += 1
    return counts


# -- realize ----------------------------------------------------------------


def signed_sqrt(entry: str) -> tuple[int, Fraction]:
    """An entry "[-]sqrt(p/q)" or "[-]p/q" as (sign, square)."""
    neg = entry.startswith("-")
    body = entry[1:] if neg else entry
    if body.startswith("sqrt("):
        sq = Fraction(body[5:-1])
    else:
        sq = Fraction(body) ** 2
    return (-1 if neg else 1) if sq else 0, sq


def compare_signed_sqrt(a: tuple[int, Fraction], b: tuple[int, Fraction]) -> int:
    (sa, qa), (sb, qb) = a, b
    if sa != sb:
        return (sa > sb) - (sa < sb)
    return sa * ((qa > qb) - (qa < qb))


def kernel_square(entry: dict) -> Fraction:
    """z^2 for a kernel entry that is a positive square root of a rational;
    anything else cannot be proportional to the facet areas of a rational
    tetrahedron, whose squares are rational."""
    if "rational" in entry:
        z = Fraction(entry["rational"])
        require(z > 0, f"kernel entry {z} is not positive")
        return z * z
    mp = entry["minpoly"]
    lo, hi = (Fraction(x) for x in entry["interval"])
    require(len(mp) == 3 and mp[1] == 0 and mp[0] * mp[2] < 0, f"kernel entry with minpoly {mp} is not a square root")
    sq = Fraction(-mp[0], mp[2])
    pos_in = (hi > 0) and (lo <= 0 or lo * lo <= sq) and hi * hi >= sq
    neg_in = (lo < 0) and (hi >= 0 or hi * hi <= sq) and lo * lo >= sq
    require(pos_in and not neg_in, f"kernel entry sqrt({sq}) is not the positive root in its interval")
    return sq


def check_realize(op: dict, rcs: list[int], check_doc, recon_doc, recon_err: str = "") -> str:
    """"ok", or "failed" when reconstruct refuses one of the inputs known to
    hit fault F2, with F2's message; any other refusal or wrong answer
    raises."""
    verts = [tuple(Fraction(x) for x in v) for v in op["vertices"]]
    normals = refgeom.area_normals(verts)
    require(all(sum(n[k] for n in normals) == 0 for k in range(3)), "facet area normals do not sum to zero")
    if not op["realizable"]:
        i, j = op["raised"]["pair"]
        before = signed_sqrt(refgeom.cos_entry(-sum(a * b for a, b in zip(normals[i], normals[j])),
                                               sum(a * a for a in normals[i]) * sum(b * b for b in normals[j])))
        after = signed_sqrt(op["matrix"]["cos"][i][j])
        require(compare_signed_sqrt(after, before) > 0, "raised entry is not larger: the matrix may be realizable")
        require(rcs == [1, 1], f"{op['label']}: exit codes {rcs} on a non-realizable matrix, expected [1, 1]")
        require(check_doc["valid"] is False, f"{op['label']}: non-realizable matrix reported valid")
        require(recon_doc.get("error") == "not realizable", f"{op['label']}: reconstruct did not refuse")
        return "ok"
    require(rcs[0] == 0 and check_doc["valid"] is True, f"{op['label']}: realizable matrix reported invalid")
    squares = [kernel_square(e) for e in check_doc["kernel"]]
    areas = [sum(x * x for x in n) for n in normals]
    require(all(squares[i] * areas[0] == squares[0] * areas[i] for i in range(4)),
            f"{op['label']}: kernel is not proportional to the facet areas")
    if rcs[1] == 2 and op.get("known_fault") == "F2" and "degenerate simplex" in recon_err:
        return "failed"
    require(rcs[1] == 0, f"{op['label']}: reconstruct exit {rcs[1]}: {recon_err.strip()[-200:]}")
    rec = [tuple(float(x) for x in v) for v in recon_doc["vertices"]]
    src = [tuple(float(x) for x in v) for v in verts]
    require(max(_dist(a, b) for a, b in combinations(rec, 2)) - 1 <= 1e-10, "longest edge is not 1")
    require(any(_similar(rec, [src[k] for k in perm]) for perm in permutations(range(4))),
            f"{op['label']}: reconstruction is not similar to the source")
    return "ok"


def _dist(a, b) -> float:
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def _similar(a, b, tol: float = 1e-10) -> bool:
    ratios = [_dist(a[i], a[j]) / _dist(b[i], b[j]) for i, j in combinations(range(len(a)), 2)]
    return max(ratios) - min(ratios) <= tol * max(ratios)


# -- angles -----------------------------------------------------------------


def parse_angle(text: str) -> Fraction:
    p, q = text.split("*pi/")
    return Fraction(int(p), int(q))


def check_sweep(op: dict, entries: list) -> None:
    q = op["q"]
    want = [Fraction(p, q) for p in range(1, q) if math.gcd(p, q) == 1]
    require(sorted(parse_angle(e["angle"]) for e in entries) == want, f"q = {q}: wrong set of angles")
    for e in entries:
        a = parse_angle(e["angle"])
        check_cosine(a.numerator, a.denominator, e["minpoly"])
        lo, hi = (Fraction(x) for x in e["interval"])
        require(refalg.interval_holds_cos(lo, hi, a.numerator, a.denominator),
                f"enclosure [{lo}, {hi}] misses cos({a} pi)")


def check_cosine(p: int, q: int, minpoly: list) -> None:
    """Degree phi(n)/2 by the benchmark's totient, irreducible by sympy, and
    vanishing at cos(p pi / q) to 40 digits."""
    deg = cos_degree(p, q)
    require(len(minpoly) - 1 == deg, f"cos({p}pi/{q}): minpoly degree {len(minpoly) - 1}, expected {deg}")
    require(refalg.is_irreducible(tuple(minpoly)), f"cos({p}pi/{q}): minpoly is reducible")
    with mpmath.workdps(60):
        v = refalg.cos_pi(p, q)
        value = sum(c * v**k for k, c in enumerate(minpoly))
        require(abs(value) <= mpmath.mpf(10) ** -40 * sum(abs(c) for c in minpoly),
                f"cos({p}pi/{q}) is not a root of {minpoly}")


@lru_cache(maxsize=None)
def catalog_angles(degree: int) -> tuple:
    """Every angle 2 pi k / n in [0, pi] whose cosine has the given degree,
    as the fraction of pi: phi(n)/2 = degree (degree 1 for n <= 2).  Since
    phi(n) >= (n/2)^(1/2), n never exceeds 8 degree^2."""
    out = set()
    for n in range(1, 8 * degree * degree + 1):
        if (1 if n <= 2 else totient(n) // 2) == degree:
            out.update(Fraction(2 * k, n) for k in range(n // 2 + 1) if math.gcd(k, n) == 1)
    return tuple(sorted(out))


def check_catalog(op: dict, entries: list) -> None:
    d = op["degree"]
    got = sorted(parse_angle(e["angle"]) for e in entries)
    want = list(catalog_angles(d))
    require(got == want, f"catalog({d}) has {len(got)} angles, the enumeration gives {len(want)}")
    for e in entries:
        a = parse_angle(e["angle"])
        check_cosine(a.numerator, a.denominator, e["minpoly"])
        require(abs(e["approx"] - math.cos(math.pi * a)) <= 1e-9, f"catalog({d}): approx of cos({a} pi) is off")


def check_classify(op: dict, matches: list) -> None:
    if op["answer"] is None:
        require(matches == [], f"{op['value']} matched {matches[0]['angle'] if matches else ''}, but is no rational-angle cosine")
    else:
        got = matches[0]["angle"] if len(matches) == 1 else None
        require(got == op["answer"], f"{op['value']} classified as {got}, expected {op['answer']}")
