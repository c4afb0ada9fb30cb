"""Machine-checked replay of the nonexistence case analysis.

Each step produces an exact certificate (a polynomial identity, a root
list with enclosures, a row combination, or a comparison chain) and a
verdict; an independent checker re-validates every certificate from the
recorded inputs without repeating the search that found it.  The endpoint
is ``run_full_audit``: every non-cube k gets the verdict "excluded", cube
k is annotated with a verified Hill construction.

One explicitly recorded assumption feeds the final cases: the dihedral
angles of a reptile tetrahedron admit a strictly positive rational
combination equal to pi (Sydler rectifiability via self-similarity, with
Bricard's condition), so the free angle of the path configuration is a
rational multiple of pi.  That scissors-congruence input is cited, not
re-derived; everything downstream of it is checked exactly.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import INV_PHI, INV_PHI2, PHI, QPHI, AlgebraicReal, FieldElement, MPoly
from .algebra import eliminate as algebra_eliminate
from .algebra import intpoly as ip
from .algebra import linalg
from .algebra import numberfield as nf
from .algebra import sturm
from .algebra.enclosure import pi_bounds
from .algebra.factor import irreducible_factors
from .fiedler import (
    SYM_VARS,
    SYM_VARS_L,
    char_poly_symbolic,
    complement_matrix_symbolic,
    multiples_matrix_symbolic,
    path_eigenvalue_symbolic,
    path_matrix_symbolic,
    tripod_matrix_symbolic,
)
from .hill import HillSpec, Subdivision, subdivide, verify_reptile
from .trig import RationalAngle, acos_enclosure, catalog, cosine_of, match_rational_angle

RATIONALITY_ASSUMPTION = (
    "dihedral angles of a reptile tetrahedron admit a strictly positive rational "
    "combination equal to pi (Sydler rectifiability from self-similarity plus "
    "Bricard's condition); hence the free path angle is a rational multiple of pi"
)

TWO_LENGTH_DEFAULT_BOUND = 10
_RHO_BITS = 48


@dataclass(frozen=True)
class AuditStep:
    """One checked claim: exact inputs, an exact certificate, a verdict."""

    id: str
    title: str
    inputs: dict
    certificate: dict
    verdict: str  # "pass" | "fail" | "inapplicable"

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "title": self.title,
            "inputs": self.inputs,
            "certificate": self.certificate,
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class AuditReport:
    k: int
    steps: tuple
    conclusion: str
    assumptions: tuple

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "conclusion": self.conclusion,
            "assumptions": list(self.assumptions),
            "steps": [s.to_json() for s in self.steps],
        }


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def dumps_reports(reports: list[AuditReport]) -> str:
    """``json.dumps([r.to_json() for r in reports], indent=2, sort_keys=True)``
    with each distinct step object encoded once.

    Reports of one run share their k-independent steps, which make up most
    of the text.  A step's text is spliced in at its depth by indenting
    every line after the first: JSON strings hold no raw newline, so this
    is exact."""
    encoded = {}  # id(step) -> its text at depth 0; the reports keep every step alive

    def dump(obj, pad: str) -> str:
        if isinstance(obj, AuditStep):
            if id(obj) not in encoded:
                encoded[id(obj)] = json.dumps(obj.to_json(), indent=2, sort_keys=True)
            return encoded[id(obj)].replace("\n", "\n" + pad)
        if not obj or not isinstance(obj, (dict, list, tuple)):
            return json.dumps(obj)
        inner = pad + "  "
        if isinstance(obj, dict):
            opener, closer = "{", "}"
            items = [f"{json.dumps(key)}: {dump(value, inner)}" for key, value in sorted(obj.items())]
        else:
            opener, closer = "[", "]"
            items = [dump(value, inner) for value in obj]
        return f"{opener}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{closer}"

    return dump([{**r.to_json(), "steps": list(r.steps)} for r in reports], "")


def _frac(f) -> str:
    f = Fraction(f)
    return f"{f.numerator}/{f.denominator}"


def _decimal(f, places: int = 6) -> str:
    f = Fraction(f)
    scaled = f * 10**places
    n = math.floor(scaled + Fraction(1, 2))
    sign = "-" if n < 0 else ""
    n = abs(n)
    return f"{sign}{n // 10**places}.{n % 10**places:0{places}d}"


def _golden_str(g) -> str:
    return QPHI(g).to_json()


def _mpoly_dump(p: MPoly) -> list:
    return [
        [list(e), c.to_json() if isinstance(c, FieldElement) else _frac(c)]
        for e, c in sorted(p.terms.items())
    ]


def _icbrt(n: int) -> int:
    r = round(n ** (1 / 3))
    while r**3 > n:
        r -= 1
    while (r + 1) ** 3 <= n:
        r += 1
    return r


def is_perfect_cube(k: int) -> bool:
    r = _icbrt(k)
    return r**3 == k


# ---------------------------------------------------------------------------
# k-dependent steps
# ---------------------------------------------------------------------------


def rho_degree_step(k: int) -> AuditStep:
    """The scaling factor k^(-1/3) has algebraic degree 3 for non-cube k:
    k x^3 - 1 has no rational root, so it is irreducible."""
    if k < 2:
        raise ValueError("k must be at least 2")
    poly = (-1, 0, 0, k)
    if is_perfect_cube(k):
        r = _icbrt(k)
        return AuditStep(
            "rho-degree",
            "scaling factor degree",
            {"k": k, "polynomial": list(poly)},
            {"cube_root": r, "rational_scaling": _frac(Fraction(1, r))},
            "inapplicable",
        )
    roots = sturm.rational_roots(poly)
    ok = not roots
    return AuditStep(
        "rho-degree",
        "scaling factor degree",
        {"k": k, "polynomial": list(poly)},
        {
            "rational_roots": [_frac(r) for r in roots],
            "irreducible": ok,
            "argument": "a reducible integer cubic has a linear factor, hence a rational root",
        },
        "pass" if ok else "fail",
    )


def _rho_enclosure(k: int) -> tuple[Fraction, Fraction]:
    """Dyadic bracket of k^(-1/3), width below 2^-_RHO_BITS."""
    poly = (-1, 0, 0, k)
    (iv,) = sturm.isolate_roots(poly, Fraction(0), Fraction(1))
    lo, hi = sturm.refine_root(poly, iv[0], iv[1], Fraction(1, 2 ** (_RHO_BITS + 2)))
    q = 2**_RHO_BITS
    return Fraction(math.floor(lo * q), q), Fraction(math.ceil(hi * q), q)


def two_length_step(k: int, bound: int = TWO_LENGTH_DEFAULT_BOUND) -> AuditStep:
    """No nonnegative integer 2x2 system can force only two edge lengths:
    the induced quadratic in k^(-1/3) contradicts its degree 3, and a
    residual scan certifies a uniform numeric margin as well."""
    if is_perfect_cube(k):
        raise ValueError("two-length exclusion applies to non-cube k only")
    irreducible = not sturm.rational_roots((-1, 0, 0, k))
    rho_lo, rho_hi = _rho_enclosure(k)
    scan = _two_length_scan(k, bound, rho_lo, rho_hi)
    ok = irreducible and scan["min_abs_residual_num"] > 0
    return AuditStep(
        "two-length",
        "at least three edge lengths per indivisible angle",
        {"k": k, "coefficient_bound": bound},
        {
            "irreducible_cubic": irreducible,
            "degree_argument": (
                "if the edge system had rank deficiency, (n11 n22 - n12 n21) rho^2 "
                "- (n11 + n22) rho + 1 = 0 would make rho quadratic over Q"
            ),
            "rho_interval": [_frac(rho_lo), _frac(rho_hi)],
            "systems_checked": scan["checked"],
            "degenerate_skipped": scan["degenerate"],
            "min_abs_residual": _frac(
                Fraction(scan["min_abs_residual_num"], scan["residual_den"])
            ),
        },
        "pass" if ok else "fail",
    )


def _two_length_scan(k: int, bound: int, rho_lo: Fraction, rho_hi: Fraction) -> dict:
    """Interval-evaluate the quadratic residual over all coefficient systems.

    Works in integers over the common denominator 2^(2*_RHO_BITS).  The
    system (n11, n12, n21, n22) enters only through p = n11 n22, b = n11 + n22
    and r = n12 n21, so each residual class (p, b) is scanned once; the
    counts and the first failing system are those of the loop over n11, n22,
    n12, n21 in that order.

    Within a class both residual bounds are nondecreasing in a = p - r, so
    they fall as r grows and the magnitude is unimodal in r: its least value
    sits at the first r whose upper bound is <= 0, or at the r before it.
    Only r = 0 with p = b = 0 is degenerate (the residual is identically 1)."""
    q = 2**_RHO_BITS
    plo, phi_ = rho_lo.numerator * (q // rho_lo.denominator), rho_hi.numerator * (
        q // rho_hi.denominator
    )
    q2 = q * q
    r2lo, r2hi = plo * plo, phi_ * phi_  # rho in (0,1): squares keep order
    span = range(bound + 1)
    products = [n12 * n21 for n12 in span for n21 in span]  # in (n12, n21) order
    n_zero = products.count(0)
    distinct = sorted(set(products))

    def upper(a: int, b: int) -> int:
        # residual * q2 bounds: a*rho^2*q2 - b*rho*q2 + q2
        return (a * r2hi if a >= 0 else a * r2lo) - b * plo * q + q2

    def magnitude(p: int, b: int, r: int):
        """None if degenerate, 0 if the residual interval holds 0, else its
        distance from 0."""
        a = p - r
        if a == 0 and b == 0:
            return None
        t_lo = (a * r2lo if a >= 0 else a * r2hi) - b * phi_ * q + q2
        t_hi = upper(a, b)
        return 0 if t_lo <= 0 <= t_hi else (t_lo if t_lo > 0 else -t_hi)

    def residual_class(p: int, b: int) -> tuple:
        """(systems checked, degenerate, least magnitude)."""
        live = distinct[1:] if p == b == 0 else distinct
        n_degenerate = n_zero if p == b == 0 else 0
        i = bisect.bisect_left(live, True, key=lambda r: upper(p - r, b) <= 0)
        least = min((magnitude(p, b, r) for r in live[max(i - 1, 0) : i + 1]), default=None)
        return len(products) - n_degenerate, n_degenerate, least

    classes = {}
    checked = 0
    degenerate = 0
    min_abs_num = None
    for n11 in span:
        for n22 in span:
            key = (n11 * n22, n11 + n22)
            if key not in classes:
                classes[key] = residual_class(*key)
            n_checked, n_degenerate, least = classes[key]
            if least == 0:
                mags = {r: magnitude(*key, r) for r in distinct}
                first = next(i for i, r in enumerate(products) if mags[r] == 0)
                before = [mags[r] for r in products[:first]]
                n12, n21 = divmod(first, bound + 1)
                return {
                    "checked": checked + sum(m is not None for m in before),
                    "degenerate": degenerate + sum(m is None for m in before),
                    "min_abs_residual_num": 0,
                    "residual_den": q2,
                    "failing_system": (n11, n12, n21, n22),
                }
            checked += n_checked
            degenerate += n_degenerate
            if least is not None and (min_abs_num is None or least < min_abs_num):
                min_abs_num = least
    return {
        "checked": checked,
        "degenerate": degenerate,
        "min_abs_residual_num": min_abs_num,
        "residual_den": q2,
    }


# ---------------------------------------------------------------------------
# shared symbolic steps
# ---------------------------------------------------------------------------


def tripod_identity_step(rows=None) -> AuditStep:
    """det of the triangle-tripod matrix equals (1+s)^2 (1-2s-3t^2)."""
    mat = rows if rows is not None else tripod_matrix_symbolic()
    vars = mat[0][0].vars
    det = linalg.det(mat)
    s = MPoly.variable(vars, "s", QPHI.one)
    t = MPoly.variable(vars, "t", QPHI.one)
    one = MPoly.constant(vars, QPHI.one)
    rhs = (one + s) ** 2 * (one - 2 * s - 3 * t**2)
    equal = det == rhs
    spot_s, spot_t = Fraction(1, 3), Fraction(1, 5)
    lhs_spot = det.evaluate({"s": QPHI(spot_s), "t": QPHI(spot_t)})
    rhs_spot = rhs.evaluate({"s": QPHI(spot_s), "t": QPHI(spot_t)})
    return AuditStep(
        "tripod-identity",
        "triangle-tripod determinant factorization",
        {"matrix": [[_mpoly_dump(x) for x in r] for r in mat]},
        {
            "determinant": _mpoly_dump(det),
            "factored_form": _mpoly_dump(rhs),
            "identical": equal,
            "spot_point": [_frac(spot_s), _frac(spot_t)],
            "spot_values": [_golden_str(lhs_spot), _golden_str(rhs_spot)],
        },
        "pass" if equal and lhs_spot == rhs_spot else "fail",
    )


def multiples_case_step(rows=None) -> AuditStep:
    """All angles multiples of the minimum: the first and last rows of the
    forced matrix sum to (t-1, 0, 0, t-1), a nonzero nonpositive row-space
    vector (t < 1), which no realizable matrix allows."""
    mat = rows if rows is not None else multiples_matrix_symbolic()
    vars = mat[0][0].vars
    t = MPoly.variable(vars, "t", QPHI.one)
    one = MPoly.constant(vars, QPHI.one)
    zero = MPoly.constant(vars, QPHI.zero)
    row_sum = [mat[0][j] + mat[3][j] for j in range(4)]
    expected = [t - one, zero, zero, t - one]
    rows_ok = all(a == b for a, b in zip(row_sum, expected))
    # angle bookkeeping: two minimal angles pi/n and a third m*pi/n at one
    # vertex force 2/n + m/n > 1, so m > n-2; with m < n this pins m = n-1
    forced = {}
    book_ok = True
    for n in range(3, 25):
        ms = [m for m in range(1, n) if Fraction(2, n) + Fraction(m, n) > 1]
        forced[str(n)] = ms
        book_ok = book_ok and ms == [n - 1]
    single_vertex_contradiction = {
        "claim": "three minimal-angle edges at one vertex force m = 1 = n - 1, i.e. n = 2 < 3",
        "holds": all(1 != n - 1 for n in range(3, 25)),
    }
    ok = rows_ok and book_ok and single_vertex_contradiction["holds"]
    return AuditStep(
        "multiples-case",
        "all-angles-multiples case exclusion",
        {"matrix": [[_mpoly_dump(x) for x in r] for r in mat]},
        {
            "row_indices": [0, 3],
            "row_sum": [_mpoly_dump(x) for x in row_sum],
            "expected": [_mpoly_dump(x) for x in expected],
            "rows_match": rows_ok,
            "sign_fact": "t = cos(pi/n) < 1, so every entry of the sum is <= 0 and two are negative",
            "forced_multiplier": forced,
            "largest_angle": "beta = pi - pi/n (supplement of the minimal angle)",
            "single_vertex_subcase": single_vertex_contradiction,
            "triangle_subcase": "routed to tripod-identity",
        },
        "pass" if ok else "fail",
    )


def path_complement_step(rows=None) -> AuditStep:
    """Path configuration with supplementary angles: rows 2 and 3 sum to
    (0, t-1, t-1, 0), again a forbidden sign-definite row-space vector."""
    mat = rows if rows is not None else complement_matrix_symbolic()
    vars = mat[0][0].vars
    t = MPoly.variable(vars, "t", QPHI.one)
    one = MPoly.constant(vars, QPHI.one)
    zero = MPoly.constant(vars, QPHI.zero)
    row_sum = [mat[1][j] + mat[2][j] for j in range(4)]
    expected = [zero, t - one, t - one, zero]
    rows_ok = all(a == b for a, b in zip(row_sum, expected))
    spot = {
        "t": _frac(Fraction(2, 3)),
        "row_sum": [
            _golden_str(x.evaluate({"t": QPHI(Fraction(2, 3))})) for x in row_sum
        ],
    }
    return AuditStep(
        "path-complement",
        "supplementary path angles exclusion",
        {"matrix": [[_mpoly_dump(x) for x in r] for r in mat]},
        {
            "row_indices": [1, 2],
            "row_sum": [_mpoly_dump(x) for x in row_sum],
            "expected": [_mpoly_dump(x) for x in expected],
            "rows_match": rows_ok,
            "sign_fact": "t = cos(beta_1) < 1 for a positive angle",
            "spot_check": spot,
        },
        "pass" if rows_ok else "fail",
    )


def beta_constraints_step(search_bound: int = 12) -> AuditStep:
    """With n1*b1 + n2*b2 = pi and both vertex inequalities strict, only
    n1 = n2 = 1 survives, and max(b1, b2) > pi/3."""
    cases = []
    all_ok = True
    for n1 in range(1, search_bound + 1):
        for n2 in range(1, search_bound + 1):
            if (n1, n2) == (1, 1):
                continue
            feas = _vertex_system_feasible(n1, n2)
            cases.append({"n1": n1, "n2": n2, "feasible": feas})
            all_ok = all_ok and not feas
    survivor = _vertex_system_feasible(1, 1)
    # max(b1,b2) > pi/3: if both u <= 1/3 then u1 + 2u2 <= 1, contradiction
    max_bound = {
        "claim": "u1 + u2 = 1 with u1, u2 <= 1/3 would give 1 <= 2/3",
        "holds": Fraction(1, 3) + Fraction(1, 3) < 1,
    }
    general = {
        "argument": (
            "for n1 >= 2: n1 u1 + n2 u2 - (2 u1 + u2) = (n1-2) u1 + (n2-1) u2 >= 0, "
            "so the combination exceeds the strict vertex bound; symmetric in n2"
        ),
        "verified_range": search_bound,
    }
    ok = all_ok and survivor and max_bound["holds"]
    return AuditStep(
        "beta-constraints",
        "path angle combination pinning",
        {"search_bound": search_bound},
        {
            "cases": cases,
            "survivor": {"n1": 1, "n2": 1, "feasible": survivor},
            "max_angle_bound": max_bound,
            "general_argument": general,
        },
        "pass" if ok else "fail",
    )


def _vertex_system_feasible(n1: int, n2: int) -> bool:
    """Exact feasibility of {u1, u2 > 0, n1 u1 + n2 u2 = 1, 2u1 + u2 > 1,
    u1 + 2u2 > 1} in units of pi."""
    # substitute u2 = (1 - n1 u1) / n2 and intersect open rational intervals
    lo, hi = Fraction(0), Fraction(1, n1)  # u1 > 0, u2 > 0
    # 2u1 + (1 - n1 u1)/n2 > 1  <=>  u1 (2 n2 - n1) > n2 - 1
    for coef, rhs in (
        (2 * n2 - n1, n2 - 1),
        (n2 - 2 * n1, n2 - 2),  # u1 + 2(1 - n1 u1)/n2 > 1
    ):
        if coef > 0:
            lo = max(lo, Fraction(rhs, coef))
        elif coef < 0:
            hi = min(hi, Fraction(rhs, coef))
        elif rhs >= 0:
            return False
    return lo < hi


def path_det_factorization_step() -> AuditStep:
    """The path determinant factors over Q(phi):
    det = -(s^2+t^2+st+s+t-1) * lam1 * lam2 with lam1 = -phi s + t/phi - 1
    (the displayed cleared-denominator form carries the unit phi^2), and
    lam1 divides the characteristic polynomial."""
    mat = path_matrix_symbolic(SYM_VARS_L)
    vars = SYM_VARS_L
    det = linalg.det(mat)
    s = MPoly.variable(vars, "s", QPHI.one)
    t = MPoly.variable(vars, "t", QPHI.one)
    one = MPoly.constant(vars, QPHI.one)
    f1 = s**2 + t**2 + s * t + s + t - one
    f2 = s - MPoly.constant(vars, INV_PHI2) * t + MPoly.constant(vars, INV_PHI)
    f3 = t - MPoly.constant(vars, INV_PHI2) * s + MPoly.constant(vars, INV_PHI)
    phi2 = MPoly.constant(vars, PHI * PHI)
    lam1 = path_eigenvalue_symbolic(vars)
    lam2 = -(MPoly.constant(vars, PHI) * t) + MPoly.constant(vars, INV_PHI) * s - one
    identity_cleared = det == -(phi2 * f1 * f2 * f3)
    identity_eigen = det == -(f1 * lam1 * lam2)
    charpoly = char_poly_symbolic(mat, "L")
    remainder = charpoly.substitute({"L": lam1})
    divides = remainder.is_zero
    spot = {"s": _frac(Fraction(1, 4)), "t": _frac(Fraction(1, 2))}
    at = {"s": QPHI(Fraction(1, 4)), "t": QPHI(Fraction(1, 2)), "L": QPHI.zero}
    lhs_spot = det.evaluate(at)
    rhs_spot = (-(phi2 * f1 * f2 * f3)).evaluate(at)
    # lam1 at (s, t) = (0, phi/2) equals -1/2 and is a char-poly root there
    lam1_at = lam1.evaluate({"s": QPHI.zero, "t": PHI * Fraction(1, 2), "L": QPHI.zero})
    char_at = charpoly.evaluate(
        {"s": QPHI.zero, "t": PHI * Fraction(1, 2), "L": lam1_at}
    )
    ok = identity_cleared and identity_eigen and divides and lhs_spot == rhs_spot and not char_at
    return AuditStep(
        "path-det-factorization",
        "path determinant factorization and eigenvalue",
        {"matrix": [[_mpoly_dump(x) for x in r] for r in mat]},
        {
            "determinant": _mpoly_dump(det),
            "factors": [_mpoly_dump(f1), _mpoly_dump(f2), _mpoly_dump(f3)],
            "unit_note": (
                "the displayed product -(F1 F2 F3) needs the unit phi^2 after clearing "
                "1/phi and 1/phi^2; equivalently det = -F1 * lam1 * lam2"
            ),
            "identity_cleared_form": identity_cleared,
            "identity_eigen_form": identity_eigen,
            "lambda1": _mpoly_dump(lam1),
            "lambda1_divides_charpoly": divides,
            "charpoly_remainder": _mpoly_dump(remainder),
            "spot_point": spot,
            "spot_values": [_golden_str(lhs_spot), _golden_str(rhs_spot)],
            "lambda1_at_pi5_point": _golden_str(lam1_at),
            "charpoly_at_lambda1": _golden_str(char_at),
        },
        "pass" if ok else "fail",
    )


def bound_chain_step() -> AuditStep:
    """Certified chain pinning beta_1 = pi/n to n in {3, 4, 5}:
    lam1 <= 0 forces s >= t/phi^2 - 1/phi >= 1/(2 phi^2) - 1/phi > -1/2,
    so beta_2 < 2 pi/3; the vertex inequality then gives beta_1 > pi/6."""
    bound = INV_PHI2 * Fraction(1, 2) - INV_PHI  # exact golden value 2 - (3/2) phi
    bound_alg = bound.to_algebraic()
    iv = bound_alg.refine_below(Fraction(1, 10**7))
    enclosure_ok = Fraction(-428, 1000) < iv.lo and iv.hi < Fraction(-427, 1000)
    rounded_bound_ok = bound.sign() < 0 and (bound - Fraction(-43, 100)).sign() > 0
    above_minus_half = (bound - Fraction(-1, 2)).sign() > 0
    # interval arccos route: arccos(bound) < 2 pi / 3 certified at width 1e-6
    alo, ahi = acos_enclosure(bound_alg, Fraction(1, 10**6))
    pi_lo, _ = pi_bounds(Fraction(1, 10**6))
    arccos_ok = ahi < Fraction(2, 3) * pi_lo
    # rearrangement lam1 <= 0  <=>  s >= t/phi^2 - 1/phi  (phi > 0)
    vars = SYM_VARS
    t = MPoly.variable(vars, "t", QPHI.one)
    s = MPoly.variable(vars, "s", QPHI.one)
    lam1 = path_eigenvalue_symbolic(vars)
    rearranged = MPoly.constant(vars, PHI) * (
        MPoly.constant(vars, INV_PHI2) * t - MPoly.constant(vars, INV_PHI) - s
    )
    rearrange_ok = lam1 == rearranged
    # t >= 1/2 minimizes t/phi^2 - 1/phi at t = 1/2 (coefficient 1/phi^2 > 0)
    monotone_ok = INV_PHI2.sign() > 0
    # 2 u1 + u2 > 1 with u2 < 2/3 gives u1 > 1/6, so pi/n > pi/6 and n < 6
    n_set = [n for n in range(3, 7) if Fraction(1, n) > Fraction(1, 6)]
    n_ok = n_set == [3, 4, 5]
    ok = (
        enclosure_ok
        and rounded_bound_ok
        and above_minus_half
        and arccos_ok
        and rearrange_ok
        and monotone_ok
        and n_ok
    )
    return AuditStep(
        "bound-chain",
        "lower bound chain restricting the small path angle",
        {"t_lower_bound": _frac(Fraction(1, 2))},
        {
            "exact_bound": _golden_str(bound),
            "bound_minpoly": list(bound_alg.minpoly),
            "bound_enclosure": [_frac(iv.lo), _frac(iv.hi)],
            "enclosure_in_(-0.428,-0.427)": enclosure_ok,
            "rounded_-0.43_consistent": rounded_bound_ok,
            "exceeds_-1/2": above_minus_half,
            "arccos_below_2pi/3": arccos_ok,
            "arccos_interval": [_frac(alo), _frac(ahi)],
            "lam1_rearrangement_identity": rearrange_ok,
            "monotone_in_t": monotone_ok,
            "small_angle_bound": "beta_1 > pi/6",
            "n_candidates": n_set,
        },
        "pass" if ok else "fail",
    )


def exclude_pi_over_5_step() -> AuditStep:
    """beta_1 = pi/5 dies: t = cos(pi/5) = phi/2 makes lam1 = -phi s - 1/2,
    which is strictly positive for every s below -1/(2 phi) = cos(3 pi/5)."""
    t_val = cosine_of(RationalAngle.of(1, 5))
    t_minpoly_ok = t_val.minpoly == (-1, -2, 4)  # 4x^2 - 2x - 1
    phi_half = (PHI * Fraction(1, 2)).to_algebraic()
    t_is_phi_half = t_val.compare(phi_half) == 0
    s_thresh = cosine_of(RationalAngle.of(3, 5))
    s0 = (QPHI(Fraction(1, 2)) - PHI * Fraction(1, 2)).to_algebraic()  # (1-phi)/2
    thresh_ok = s_thresh.compare(s0) == 0
    # lam1 at t = phi/2 is -phi*s - 1/2 (t/phi = 1/2 exactly)
    vars = SYM_VARS
    lam1 = path_eigenvalue_symbolic(vars)
    lam1_at_t = lam1.substitute({"t": PHI * Fraction(1, 2)})
    s = MPoly.variable(vars, "s", QPHI.one)
    expected = -(MPoly.constant(vars, PHI) * s) - MPoly.constant(vars, QPHI(Fraction(1, 2)))
    sub_ok = lam1_at_t == expected
    # boundary value: lam1 at s = (1-phi)/2 is exactly 0
    boundary = lam1_at_t.evaluate({"s": QPHI(Fraction(1, 2)) - PHI * Fraction(1, 2), "t": QPHI.zero})
    boundary_ok = not boundary
    slope_negative = (-PHI).sign() < 0
    ok = t_minpoly_ok and t_is_phi_half and thresh_ok and sub_ok and boundary_ok and slope_negative
    return AuditStep(
        "exclude-pi-over-5",
        "excluding the pi/5 small angle",
        {"beta1": "pi/5"},
        {
            "t_minpoly": list(t_val.minpoly),
            "t_equals_phi_over_2": t_is_phi_half,
            "s_threshold_equals_-1/(2phi)": thresh_ok,
            "lam1_at_t": _mpoly_dump(lam1_at_t),
            "lam1_substitution_ok": sub_ok,
            "lam1_boundary_value": _golden_str(boundary),
            "boundary_is_zero": boundary_ok,
            "slope": _golden_str(-PHI),
            "slope_negative": slope_negative,
            "conclusion": "s < -1/(2 phi) forces lam1 > 0, contradicting negative semidefiniteness",
        },
        "pass" if ok else "fail",
    )


# ---------------------------------------------------------------------------
# final cases: t in {0, 1/2, 1/sqrt2}
# ---------------------------------------------------------------------------


def _path_det_in_t_coeffs() -> list[list[int]]:
    """The path determinant arranged as integer coefficients: entry [i][j]
    multiplies s^i t^j."""
    det = linalg.det(path_matrix_symbolic(SYM_VARS))
    deg_s = det.degree_in("s")
    deg_t = det.degree_in("t")
    table = [[0] * (deg_t + 1) for _ in range(deg_s + 1)]
    for (es, et), c in det.terms.items():
        assert c.is_rational and c.c[0].denominator == 1
        table[es][et] = int(c.c[0])
    return table


_FINAL_CASE_TARGETS = {
    "0": ["-0.618", "0.618"],
    "1/2": ["-0.427", "0.151"],
    "1/sqrt2": ["-0.348", "-0.131"],
}


def _final_case_t_value(label: str) -> AlgebraicReal:
    if label == "0":
        return AlgebraicReal.from_rational(0)
    if label == "1/2":
        return AlgebraicReal.from_rational(Fraction(1, 2))
    if label == "1/sqrt2":
        return AlgebraicReal.from_root((-1, 0, 2), Fraction(0), Fraction(1))
    raise ValueError(label)


def final_cases_step() -> AuditStep:
    """For each remaining small angle, isolate the determinant roots in
    (-1, 1), pin them within 0.001 of their expected decimals, and certify
    that none of them is a cosine of a rational angle."""
    table = _path_det_in_t_coeffs()
    cases = []
    all_ok = True
    for label, targets in _FINAL_CASE_TARGETS.items():
        t_val = _final_case_t_value(label)
        coeffs_in_t = [ip.poly(row) for row in table]
        eliminant = algebra_eliminate(coeffs_in_t, t_val.minpoly)
        root_ivs = sturm.isolate_roots(eliminant, Fraction(-1), Fraction(1))
        factors = irreducible_factors(eliminant)
        true_roots = []
        spurious = 0
        for lo, hi in root_ivs:
            cand = AlgebraicReal.from_root(eliminant, lo, hi, factors)
            if _det_vanishes_at(table, cand, t_val):
                true_roots.append(cand)
            else:
                spurious += 1
        count_ok = len(true_roots) == 2
        case = {
            "t": label,
            "t_minpoly": list(t_val.minpoly),
            "eliminant": list(eliminant),
            "isolated_in_(-1,1)": len(root_ivs),
            "spurious_filtered": spurious,
            "root_count_ok": count_ok,
            "roots": [],
        }
        ok = count_ok
        for root, target in zip(sorted(true_roots), [Fraction(x) for x in targets]):
            iv = root.refine_below(Fraction(1, 10**8))
            within = target - Fraction(1, 1000) <= iv.lo and iv.hi <= target + Fraction(1, 1000)
            matched = match_rational_angle(root)
            gaps = _catalog_gaps(root)
            root_rec = {
                "minpoly": list(root.minpoly),
                "interval": [_frac(iv.lo), _frac(iv.hi)],
                "approx": _decimal(iv.mid),
                "expected_decimal": _decimal(target, 3),
                "within_0.001": within,
                "rational_angle_match": None
                if matched is None
                else f"{matched.p}*pi/{matched.q}",
                "min_catalog_gap": _frac(gaps["min_gap"]),
                "catalog_degrees_checked": gaps["degrees"],
            }
            case["roots"].append(root_rec)
            ok = ok and within and matched is None and gaps["min_gap"] > 0
        cases.append(case)
        all_ok = all_ok and ok
    return AuditStep(
        "final-cases",
        "remaining small angles have no rational second angle",
        {
            "t_values": list(_FINAL_CASE_TARGETS),
            "assumption": RATIONALITY_ASSUMPTION,
        },
        {"cases": cases},
        "pass" if all_ok else "fail",
    )


def _det_vanishes_at(table: list[list[int]], s_val: AlgebraicReal, t_val: AlgebraicReal) -> bool:
    """Exact zero test of the bivariate determinant at algebraic (s, t).

    The determinant is a polynomial D in t over the number field Q(s).  A
    rational t is a zero test of D(t) in Q(s).  Otherwise the gcd of D with
    t's minimal polynomial tells which conjugates of t vanish, and a
    degree-1 gcd pins the root exactly.
    """
    iv = s_val.interval()
    field = nf.NumberField(s_val.minpoly, iv.lo, iv.hi)
    d_coeffs = [
        field.element([table[i][j] if j < len(table[i]) else 0 for i in range(len(table))])
        for j in range(max(len(row) for row in table))
    ]
    if t_val.is_rational:
        tv = t_val.as_fraction()
        return not sum((c * tv**j for j, c in enumerate(d_coeffs)), field.zero)
    g = nf.poly_gcd_in_t(d_coeffs, [field(c) for c in t_val.minpoly])
    if len(g) <= 1:
        return False
    if len(g) - 1 == t_val.degree:
        return True
    # linear gcd t + g0: the vanishing conjugate is -g0, an element of Q(s)
    return (-g[0]).to_algebraic().compare(t_val) == 0


def _catalog_gaps(root: AlgebraicReal) -> dict:
    """Certified positive distance from a root to every catalog cosine.

    Exact comparison separates the enclosures of distinct values, so the
    gap is the distance between disjoint rational intervals.
    """
    degrees = sorted({1, 2, 4, root.degree} if root.degree <= 8 else {1, 2, 4})
    min_gap = None
    for d in degrees:
        for _, cos in catalog(d).entries:
            if root.compare(cos) == 0:
                return {"min_gap": Fraction(0), "degrees": degrees}
            a = root.refine_below(Fraction(1, 10**9))
            b = cos.refine_below(Fraction(1, 10**9))
            if a.hi < b.lo:
                gap = b.lo - a.hi
            elif b.hi < a.lo:
                gap = a.lo - b.hi
            else:
                raise AssertionError("distinct values left overlapping enclosures")
            if min_gap is None or gap < min_gap:
                min_gap = gap
    return {"min_gap": min_gap, "degrees": degrees}


# ---------------------------------------------------------------------------
# cube-k annotation
# ---------------------------------------------------------------------------


def hill_construction_step(k: int) -> AuditStep:
    """For k = m^3, exhibit and verify the m^3 reptile subdivision."""
    if not is_perfect_cube(k):
        raise ValueError("hill construction applies to cube k")
    m = _icbrt(k)
    spec = HillSpec.from_pair_cos(3, Fraction(0))
    sub = subdivide(spec, m)
    report = verify_reptile(sub)
    return AuditStep(
        "hill-construction",
        "explicit reptile construction for cube k",
        {"k": k, "m": m},
        {"reptile_report": report.to_json(), "subdivision": sub.to_json()},
        "pass" if report.all_ok else "fail",
    )


# ---------------------------------------------------------------------------
# assembly and the independent checker
# ---------------------------------------------------------------------------

SHARED_STEP_BUILDERS = (
    tripod_identity_step,
    multiples_case_step,
    path_complement_step,
    beta_constraints_step,
    path_det_factorization_step,
    bound_chain_step,
    exclude_pi_over_5_step,
    final_cases_step,
)

STEP_BUILDERS = {
    "rho-degree": rho_degree_step,
    "two-length": two_length_step,
    "tripod-identity": tripod_identity_step,
    "multiples-case": multiples_case_step,
    "path-complement": path_complement_step,
    "beta-constraints": beta_constraints_step,
    "path-det-factorization": path_det_factorization_step,
    "bound-chain": bound_chain_step,
    "exclude-pi-over-5": exclude_pi_over_5_step,
    "final-cases": final_cases_step,
    "hill-construction": hill_construction_step,
}

K_DEPENDENT_STEPS = {"rho-degree", "two-length", "hill-construction"}


def run_full_audit(k_max: int) -> list[AuditReport]:
    """Audit every k from 2 to k_max; non-cube k must come out excluded."""
    if k_max < 2:
        raise ValueError("empty audit range: k_max must be at least 2")
    shared = [build() for build in SHARED_STEP_BUILDERS]
    reports = []
    for k in range(2, k_max + 1):
        if is_perfect_cube(k):
            steps = (rho_degree_step(k), hill_construction_step(k))
            conclusion = (
                f"inapplicable: k = {k} = {_icbrt(k)}^3 admits the verified Hill construction"
            )
            reports.append(AuditReport(k, steps, conclusion, ()))
            continue
        steps = tuple([rho_degree_step(k), two_length_step(k)] + shared)
        excluded = all(s.verdict == "pass" for s in steps)
        conclusion = "excluded" if excluded else "NOT excluded: some step failed"
        reports.append(AuditReport(k, steps, conclusion, (RATIONALITY_ASSUMPTION,)))
    return reports


def verify_step(step: AuditStep) -> bool:
    """Independent re-validation of a step's certificate.

    Each branch re-checks the recorded exact objects directly; searches
    (root isolation, subset enumeration) are not repeated, only their
    verifiable outcomes.
    """
    sid, cert, inputs = step.id, step.certificate, step.inputs
    if sid == "rho-degree":
        k = inputs["k"]
        if step.verdict == "inapplicable":
            return cert["cube_root"] ** 3 == k
        return (not sturm.rational_roots(tuple(inputs["polynomial"]))) == cert["irreducible"]
    if sid == "two-length":
        k = inputs["k"]
        lo, hi = (Fraction(x) for x in cert["rho_interval"])
        poly = (-1, 0, 0, k)
        if not (ip.sign_at(poly, lo) < 0 < ip.sign_at(poly, hi)):
            return False
        scan = _two_length_scan(k, inputs["coefficient_bound"], lo, hi)
        recorded = Fraction(cert["min_abs_residual"])
        return (
            scan["min_abs_residual_num"] > 0
            and Fraction(scan["min_abs_residual_num"], scan["residual_den"]) == recorded
        )
    if sid == "tripod-identity":
        fresh = tripod_identity_step()
        return fresh.certificate["determinant"] == cert["determinant"] and cert["identical"]
    if sid == "multiples-case":
        fresh = multiples_case_step()
        return fresh.certificate["row_sum"] == cert["row_sum"] and cert["rows_match"]
    if sid == "path-complement":
        fresh = path_complement_step()
        return fresh.certificate["row_sum"] == cert["row_sum"] and cert["rows_match"]
    if sid == "beta-constraints":
        for case in cert["cases"]:
            if _vertex_system_feasible(case["n1"], case["n2"]) != case["feasible"]:
                return False
        return cert["survivor"]["feasible"] and _vertex_system_feasible(1, 1)
    if sid == "path-det-factorization":
        fresh = path_det_factorization_step()
        return (
            fresh.certificate["determinant"] == cert["determinant"]
            and cert["identity_cleared_form"]
            and cert["lambda1_divides_charpoly"]
            and fresh.certificate["charpoly_remainder"] == cert["charpoly_remainder"]
        )
    if sid == "bound-chain":
        bound = QPHI.from_json(cert["exact_bound"])
        if bound != INV_PHI2 * Fraction(1, 2) - INV_PHI:
            return False
        alg = bound.to_algebraic()
        if list(alg.minpoly) != cert["bound_minpoly"]:
            return False
        lo, hi = (Fraction(x) for x in cert["bound_enclosure"])
        if not (ip.sign_at(alg.minpoly, lo) != ip.sign_at(alg.minpoly, hi)):
            return False
        return (
            Fraction(-428, 1000) < lo
            and hi < Fraction(-427, 1000)
            and (bound - Fraction(-43, 100)).sign() > 0
            and (bound - Fraction(-1, 2)).sign() > 0
            and cert["n_candidates"] == [3, 4, 5]
        )
    if sid == "exclude-pi-over-5":
        t_val = cosine_of(RationalAngle.of(1, 5))
        if list(t_val.minpoly) != cert["t_minpoly"]:
            return False
        boundary = QPHI.from_json(cert["lam1_boundary_value"])
        slope = QPHI.from_json(cert["slope"])
        return (not boundary) and slope.sign() < 0 and cert["boundary_is_zero"]
    if sid == "final-cases":
        table = _path_det_in_t_coeffs()
        coeffs_in_t = [ip.poly(row) for row in table]
        for case in cert["cases"]:
            t_val = _final_case_t_value(case["t"])
            if list(t_val.minpoly) != case["t_minpoly"]:
                return False
            if not case["root_count_ok"] or len(case["roots"]) != 2:
                return False
            # completeness: the listed and filtered roots are every real
            # root of the eliminant in (-1, 1), counted by a Sturm chain
            eliminant = algebra_eliminate(coeffs_in_t, t_val.minpoly)
            if list(eliminant) != case["eliminant"]:
                return False
            if ip.sign_at(eliminant, -1) == 0 or ip.sign_at(eliminant, 1) == 0:
                return False
            count = sturm.count_roots(sturm.sturm_sequence(eliminant), Fraction(-1), Fraction(1))
            listed = len(case["roots"]) + case["spurious_filtered"]
            if not count == case["isolated_in_(-1,1)"] == listed:
                return False
            for rec, target in zip(case["roots"], _FINAL_CASE_TARGETS[case["t"]]):
                mp = tuple(rec["minpoly"])
                lo, hi = (Fraction(x) for x in rec["interval"])
                if not -1 < lo <= hi < 1 or ip.sign_at(mp, lo) == ip.sign_at(mp, hi):
                    return False
                root = AlgebraicReal.from_root(mp, lo, hi)
                if not _det_vanishes_at(table, root, t_val):
                    return False
                if rec["rational_angle_match"] is not None:
                    return False
                if match_rational_angle(root) is not None:
                    return False
                target = Fraction(target)
                within = target - Fraction(1, 1000) <= lo and hi <= target + Fraction(1, 1000)
                if not (within and rec["within_0.001"]) or Fraction(rec["min_catalog_gap"]) <= 0:
                    return False
        return True
    if sid == "hill-construction":
        sub = Subdivision.from_json(cert["subdivision"])
        report = verify_reptile(sub)
        return report.all_ok and cert["reptile_report"]["all_ok"]
    raise ValueError(f"unknown step id {sid!r}")


def verify_report(report: AuditReport, verdicts: dict | None = None) -> bool:
    """Re-validate each step of a report, in order, stopping at the first
    failure.

    Reports of one run share their k-independent step objects; pass the
    same ``verdicts`` dict for all of them and each distinct step object is
    checked once.  It maps ``id(step)`` to ``(step, verdict)``, and holding
    the step keeps its id from being reused while the dict lives."""
    if verdicts is None:
        verdicts = {}
    for step in report.steps:
        if id(step) not in verdicts:
            verdicts[id(step)] = (step, verify_step(step))
        if not verdicts[id(step)][1]:
            return False
    return True


def run_step(step_id: str, k: int | None = None) -> AuditStep:
    """Build a single step by id (k-dependent steps need k)."""
    if step_id not in STEP_BUILDERS:
        raise ValueError(f"unknown step id {step_id!r}; known: {sorted(STEP_BUILDERS)}")
    builder = STEP_BUILDERS[step_id]
    if step_id in K_DEPENDENT_STEPS:
        if k is None:
            raise ValueError(f"step {step_id!r} needs k")
        return builder(k)
    return builder()
