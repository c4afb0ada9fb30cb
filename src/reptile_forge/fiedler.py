"""Dihedral-angle realizability and simplex reconstruction.

A candidate angle assignment enters as a symmetric cosine matrix with
diagonal -1.  It is realizable by a simplex exactly when its negation is
positive semidefinite of rank d with a strictly positive kernel direction.
The accept/reject decision is always exact: measured matrices carry (or
admit) a rational congruent scaling, and the analysis runs over rationals
or exact algebraic numbers.  Only the coordinate output of reconstruction
uses floating point, with a residual check against the declared tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .algebra import AlgebraicReal, Golden, MPoly, as_algebraic, determinant
from .simplex import FLOAT_TOL, DihedralData, Simplex, dihedral_data

SYM_VARS = ("s", "t")
SYM_VARS_L = ("s", "t", "L")
MULT_VARS = ("t", "u")


class MalformedMatrixError(ValueError):
    """Input is not a symmetric cosine matrix with -1 diagonal."""


class ReconstructionError(ValueError):
    """Reconstruction was attempted on a non-realizable matrix."""

    def __init__(self, verdict: "RealizabilityVerdict"):
        super().__init__(f"matrix is not realizable: {verdict.failure_witness}")
        self.verdict = verdict


@dataclass(frozen=True)
class CosMatrix:
    """Symmetric (d+1) x (d+1) matrix of dihedral cosines, diagonal -1."""

    dim: int
    entries: tuple
    gram: tuple | None = None  # rational Gram of unnormalized inward normals

    @staticmethod
    def from_rows(rows, gram=None) -> "CosMatrix":
        n = len(rows)
        dim = n - 1
        if dim < 1 or any(len(r) != n for r in rows):
            raise MalformedMatrixError("square matrix of size d+1 required")
        vals = [[as_algebraic(x) if not isinstance(x, AlgebraicReal) else x for x in r] for r in rows]
        for i in range(n):
            if vals[i][i].compare(Fraction(-1)) != 0:
                raise MalformedMatrixError("diagonal entries must equal -1 exactly")
            for j in range(i + 1, n):
                if vals[i][j].compare(vals[j][i]) != 0:
                    raise MalformedMatrixError("matrix must be symmetric")
                if not (vals[i][j].compare(Fraction(-1)) > 0 and vals[i][j].compare(Fraction(1)) < 0):
                    raise MalformedMatrixError("off-diagonal cosines must lie in (-1, 1)")
        return CosMatrix(dim, tuple(tuple(r) for r in vals), gram)

    @staticmethod
    def from_dihedral(dd: DihedralData) -> "CosMatrix":
        if dd.mode != "exact":
            raise ValueError("exact dihedral data required (float mode has no exact matrix)")
        return CosMatrix.from_rows(dd.matrix(), gram=dd.gram)

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def to_json(self) -> dict:
        rows = []
        for r in self.entries:
            row = []
            for x in r:
                row.append(
                    f"{x.as_fraction().numerator}/{x.as_fraction().denominator}"
                    if x.is_rational
                    else x.to_json()
                )
            rows.append(row)
        return {"dim": self.dim, "cos": rows}


@dataclass(frozen=True)
class RealizabilityVerdict:
    """Outcome of the exact realizability decision.

    On success the kernel is a strictly positive exact vector with A z = 0.
    On failure the witness names the defect: ``nonsingular`` (rank d+1),
    ``rank_defect`` (rank < d), ``indefinite`` (an explicit direction x with
    x^T A x > 0), or ``kernel_not_positive``.
    """

    valid: bool
    kernel: tuple | None
    failure_witness: dict | None
    char_poly: tuple | None


def _congruence_analysis(m: list[list]) -> dict:
    """Exact PSD analysis of a symmetric matrix by rational/algebraic
    congruence elimination.

    Returns psd flag, rank, and (when not PSD) a direction x with
    x^T M x < 0, expressed in original coordinates.
    """
    n = len(m)
    a = [list(r) for r in m]
    basis = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]

    def sgn(x) -> int:
        if isinstance(x, AlgebraicReal):
            return x.sign()
        return (x > 0) - (x < 0)

    rank = 0
    for k in range(n):
        sk = sgn(a[k][k])
        if sk < 0:
            return {"psd": False, "rank": None, "negative_direction": tuple(basis[k])}
        if sk == 0:
            bad = next((j for j in range(k + 1, n) if sgn(a[k][j]) != 0), None)
            if bad is not None:
                # [[0, b], [b, c]] block is indefinite: x = t e_k + e_bad with
                # t = -(c + 1) / (2 b) gives quadratic form value -1
                b = a[k][bad]
                c = a[bad][bad]
                t = _field_div(_field_neg(_field_add(c, Fraction(1))), _field_mul(b, Fraction(2)))
                x = [
                    _field_add(_field_mul(t, basis[k][i]), basis[bad][i]) for i in range(n)
                ]
                return {"psd": False, "rank": None, "negative_direction": tuple(x)}
            continue
        rank += 1
        for i in range(k + 1, n):
            if sgn(a[i][k]) == 0:
                continue
            f = _field_div(a[i][k], a[k][k])
            # congruence: row_i -= f * row_k, then col_i -= f * col_k
            for j in range(n):
                a[i][j] = _field_sub(a[i][j], _field_mul(f, a[k][j]))
            for j in range(n):
                a[j][i] = _field_sub(a[j][i], _field_mul(f, a[j][k]))
            for j in range(n):
                basis[i][j] = _field_sub(basis[i][j], _field_mul(f, basis[k][j]))
    return {"psd": True, "rank": rank, "negative_direction": None}


def _field_add(x, y):
    return x + y


def _field_sub(x, y):
    return x - y


def _field_mul(x, y):
    return x * y


def _field_neg(x):
    return -x


def _field_div(x, y):
    if isinstance(x, Fraction) and isinstance(y, Fraction):
        return x / y
    return as_algebraic(x) / as_algebraic(y)


def _nullspace_field(m: list[list]) -> list:
    """One kernel vector of a singular square matrix over an exact field."""
    n = len(m)
    a = [list(r) for r in m]

    def is_zero(x) -> bool:
        return not x if not isinstance(x, AlgebraicReal) else not bool(x)

    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, n) if not is_zero(a[i][c])), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = a[r][c]
        a[r] = [_field_div(x, inv) for x in a[r]]
        for i in range(n):
            if i != r and not is_zero(a[i][c]):
                f = a[i][c]
                a[i] = [_field_sub(x, _field_mul(f, y)) for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(n) if c not in pivots]
    if not free:
        raise ValueError("matrix is nonsingular")
    fc = free[0]
    v = [Fraction(0)] * n
    v[fc] = Fraction(1)
    for i, pc in enumerate(pivots):
        v[pc] = _field_neg(a[i][fc])
    return v


def _char_poly_rational(m: list[list[Fraction]]) -> list[Fraction]:
    """det(lambda I - M) for rational M, low coefficients first, monic."""
    n = len(m)
    pts = list(range(n + 1))
    vals = []
    for x0 in pts:
        rows = [[(Fraction(x0) if i == j else Fraction(0)) - m[i][j] for j in range(n)] for i in range(n)]
        vals.append(_det_fraction(rows))
    # Lagrange interpolation
    coeffs = [Fraction(0)] * (n + 1)
    for i, xi in enumerate(pts):
        num = [Fraction(1)]
        den = Fraction(1)
        for j, xj in enumerate(pts):
            if j == i:
                continue
            nxt = [Fraction(0)] * (len(num) + 1)
            for k, c in enumerate(num):
                nxt[k + 1] += c
                nxt[k] -= c * xj
            num = nxt
            den *= xi - xj
        w = vals[i] / den
        for k, c in enumerate(num):
            coeffs[k] += w * c
    return coeffs


def _det_fraction(rows: list[list[Fraction]]) -> Fraction:
    n = len(rows)
    a = [list(r) for r in rows]
    sign = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    out = Fraction(sign)
    for k in range(n):
        out *= a[k][k]
    return out


def _squarefree_int(n: int) -> int | None:
    """Squarefree part of a positive integer (None if too large to factor)."""
    if n <= 0:
        raise ValueError("positive integer required")
    if n > 10**14:
        return None
    out = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e % 2:
                out *= p
        p += 1 if p == 2 else 2
    return out * n


def _descale(a: CosMatrix) -> tuple[list[list[Fraction]], list[Fraction]] | None:
    """Positive rationals q_i and a rational matrix B with
    a_ij = b_ij / sqrt(q_i q_j); None when the entries do not admit one."""
    n = a.dim + 1
    if a.gram is not None:
        g = [[Fraction(x) for x in row] for row in a.gram]
        q = [g[i][i] for i in range(n)]
        b = [[-g[i][j] if i != j else -q[i] for j in range(n)] for i in range(n)]
        return b, q
    sq: dict = {}
    sign: dict = {}
    for i in range(n):
        for j in range(i + 1, n):
            x = a.entries[i][j]
            if x.is_rational:
                v = x.as_fraction()
                sq[(i, j)] = v * v
                sign[(i, j)] = (v > 0) - (v < 0)
            else:
                mp = x.minpoly
                if len(mp) == 3 and mp[1] == 0:
                    sq[(i, j)] = Fraction(-mp[0], mp[2])
                    sign[(i, j)] = x.sign()
                else:
                    return None
    q: list[Fraction | None] = [None] * n
    for start in range(n):
        if q[start] is not None:
            continue
        q[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if j == i:
                    continue
                key = (min(i, j), max(i, j))
                if sq.get(key, Fraction(0)) == 0 or q[j] is not None:
                    continue
                r = q[i] * sq[key]
                sf = _squarefree_int((r.numerator * r.denominator))
                if sf is None:
                    return None
                q[j] = Fraction(sf)
                stack.append(j)
    b = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        b[i][i] = -q[i]
        for j in range(i + 1, n):
            key = (i, j)
            c2 = sq[key] * q[i] * q[j]
            num = math.isqrt(c2.numerator)
            den = math.isqrt(c2.denominator)
            if num * num != c2.numerator or den * den != c2.denominator:
                return None
            b[i][j] = b[j][i] = sign[key] * Fraction(num, den)
    return b, q


def realizability_check(a: CosMatrix) -> RealizabilityVerdict:
    """Exact decision: is the cosine matrix that of an actual simplex?

    Valid iff -A is positive semidefinite of rank exactly d and the
    one-dimensional kernel is generated by a strictly positive vector.
    Measured matrices reduce to a congruent rational matrix (diagonal
    square-root scaling); anything else runs in exact algebraic arithmetic.
    """
    d = a.dim
    n = d + 1
    descaled = _descale(a)
    if descaled is not None:
        b, q = descaled
        neg = [[-x for x in row] for row in b]
        analysis = _congruence_analysis(neg)
        # A = D B D with D = diag(q)^(-1/2) is similar to B diag(q)^(-1)
        char = _char_poly_rational([[b[i][j] / q[j] for j in range(n)] for i in range(n)])
        if not analysis["psd"]:
            x = analysis["negative_direction"]
            # map the direction back through the implicit scaling: the
            # quadratic form x^T(-B)x < 0 certifies y^T(-A)y < 0 for
            # y_i = sqrt(q_i) x_i; report the rational B-direction
            return RealizabilityVerdict(
                False, None, {"kind": "indefinite", "direction": x, "scaling": tuple(q)}, tuple(char)
            )
        if analysis["rank"] == n:
            return RealizabilityVerdict(
                False, None, {"kind": "nonsingular", "det": _det_fraction(b)}, tuple(char)
            )
        if analysis["rank"] < d:
            return RealizabilityVerdict(
                False, None, {"kind": "rank_defect", "rank": analysis["rank"]}, tuple(char)
            )
        w = _nullspace_field([[Fraction(x) for x in row] for row in b])
        if all(x < 0 for x in w):
            w = [-x for x in w]
        if not all(x > 0 for x in w):
            return RealizabilityVerdict(
                False, None, {"kind": "kernel_not_positive", "kernel": tuple(w)}, tuple(char)
            )
        kernel = tuple(AlgebraicReal.sqrt_rational(qi) * wi for qi, wi in zip(q, w))
        # re-verify B w = 0 exactly; this is A z = 0 under the scaling
        for i in range(n):
            if sum(b[i][j] * w[j] for j in range(n)) != 0:
                raise AssertionError("kernel verification failed")
        return RealizabilityVerdict(True, kernel, None, tuple(char))
    # generic exact path
    rows = [[-as_algebraic(x) for x in r] for r in a.entries]
    analysis = _congruence_analysis(rows)
    if not analysis["psd"]:
        return RealizabilityVerdict(
            False, None, {"kind": "indefinite", "direction": analysis["negative_direction"]}, None
        )
    if analysis["rank"] == n:
        return RealizabilityVerdict(False, None, {"kind": "nonsingular"}, None)
    if analysis["rank"] < d:
        return RealizabilityVerdict(
            False, None, {"kind": "rank_defect", "rank": analysis["rank"]}, None
        )
    z = _nullspace_field([[as_algebraic(x) for x in r] for r in a.entries])
    signs = [as_algebraic(x).sign() for x in z]
    if all(s < 0 for s in signs):
        z = [-as_algebraic(x) for x in z]
        signs = [1] * n
    if not all(s > 0 for s in signs):
        return RealizabilityVerdict(
            False, None, {"kind": "kernel_not_positive", "kernel": tuple(z)}, None
        )
    return RealizabilityVerdict(True, tuple(as_algebraic(x) for x in z), None, None)


def nonneg_rowspace_certificate(a: CosMatrix):
    """A coefficient vector c with c^T A entrywise >= 0 (or <= 0) and
    nonzero, proving non-realizability; None if no such certificate exists.

    Found by exact vertex enumeration of {y in rowspace : y >= 0, sum y = 1}.
    Measured matrices reduce to their rational congruent scaling: the
    entrywise signs of c^T A and c'^T B agree under c = diag(sqrt(q)) c'.
    """
    n = a.dim + 1
    rational = all(x.is_rational for row in a.entries for x in row)
    scaling = None
    if rational:
        rows = [[x.as_fraction() for x in r] for r in a.entries]
    else:
        descaled = _descale(a)
        if descaled is not None:
            rows, scaling = descaled
        else:
            rows = [list(r) for r in a.entries]
    for flip in (1, -1):
        for size in range(0, n):
            for tight in combinations(range(n), size):
                c = _solve_certificate(rows, tight, flip)
                if c is not None:
                    if scaling is None:
                        return c
                    return tuple(
                        AlgebraicReal.sqrt_rational(q) * ci for q, ci in zip(scaling, c)
                    )
    return None


def _solve_certificate(rows, tight, flip):
    """Solve for c: (c^T A)_i = 0 on `tight`, sum_i flip * (c^T A)_i = 1,
    then check flip * c^T A >= 0 everywhere."""
    n = len(rows)
    eqs = []
    rhs = []
    for i in tight:
        eqs.append([rows[j][i] for j in range(n)])
        rhs.append(Fraction(0))
    eqs.append([flip * sum(rows[j][i] for i in range(n)) for j in range(n)])
    rhs.append(Fraction(1))
    sol = _solve_underdetermined(eqs, rhs)
    if sol is None:
        return None
    y = [sum(sol[j] * rows[j][i] for j in range(n)) for i in range(n)]
    sgns = [(as_algebraic(v).sign() if isinstance(v, AlgebraicReal) else (v > 0) - (v < 0)) for v in y]
    if all(flip * s >= 0 for s in sgns) and any(s != 0 for s in sgns):
        return tuple(sol)
    return None


def _solve_underdetermined(eqs, rhs):
    m = len(eqs)
    n = len(eqs[0])
    a = [list(map(_lift, eq)) + [_lift(r)] for eq, r in zip(eqs, rhs)]

    def is_zero(x) -> bool:
        return not bool(x)

    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if not is_zero(a[i][c])), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = a[r][c]
        a[r] = [_field_div(x, inv) for x in a[r]]
        for i in range(m):
            if i != r and not is_zero(a[i][c]):
                f = a[i][c]
                a[i] = [_field_sub(x, _field_mul(f, y)) for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if not is_zero(a[i][n]):
            return None  # inconsistent
    sol = [Fraction(0)] * n
    for i, pc in enumerate(pivots):
        sol[pc] = a[i][n]
    return sol


def _lift(x):
    if isinstance(x, AlgebraicReal) and x.is_rational:
        return x.as_fraction()
    return x


def char_poly(a: CosMatrix) -> list:
    """Exact characteristic polynomial det(lambda I - A), low-first, monic."""
    if all(x.is_rational for row in a.entries for x in row):
        return [
            AlgebraicReal.from_rational(c)
            for c in _char_poly_rational([[x.as_fraction() for x in r] for r in a.entries])
        ]
    n = a.dim + 1
    pts = list(range(n + 1))
    vals = []
    for x0 in pts:
        rows = [
            [
                (as_algebraic(Fraction(x0)) if i == j else as_algebraic(0)) - as_algebraic(a.entries[i][j])
                for j in range(n)
            ]
            for i in range(n)
        ]
        vals.append(_det_field(rows))
    coeffs = [as_algebraic(0)] * (n + 1)
    for i, xi in enumerate(pts):
        num = [Fraction(1)]
        den = Fraction(1)
        for j, xj in enumerate(pts):
            if j == i:
                continue
            nxt = [Fraction(0)] * (len(num) + 1)
            for k, c in enumerate(num):
                nxt[k + 1] += c
                nxt[k] -= c * xj
            num = nxt
            den *= xi - xj
        for k, c in enumerate(num):
            coeffs[k] = coeffs[k] + vals[i] * (c / den)
    return coeffs


def _det_field(rows: list[list]) -> AlgebraicReal:
    n = len(rows)
    a = [list(r) for r in rows]
    sign = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if bool(a[i][k])), None)
        if piv is None:
            return as_algebraic(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            if bool(a[i][k]):
                f = a[i][k] / a[k][k]
                for j in range(k, n):
                    a[i][j] = a[i][j] - f * a[k][j]
    out = as_algebraic(sign)
    for k in range(n):
        out = out * a[k][k]
    return out


def reconstruct_simplex(a: CosMatrix, tol: float = FLOAT_TOL) -> Simplex:
    """A simplex whose dihedral cosine matrix equals A, normalized so the
    longest edge has length 1 (the similarity class is all the data fixes).

    The accept decision is exact; coordinates come from a floating Cholesky
    factor and are verified against A within the tolerance.
    """
    import numpy as np

    verdict = realizability_check(a)
    if not verdict.valid:
        raise ReconstructionError(verdict)
    d = a.dim
    n = d + 1
    af = np.array(
        [[-float(as_algebraic(x)) for x in row] for row in a.entries], dtype=float
    )
    z = np.array([float(x) for x in verdict.kernel], dtype=float)
    gram = af[:d, :d]
    chol = np.linalg.cholesky(gram)
    normals = chol  # row i is u_i
    v = np.linalg.solve(normals, np.diag(1.0 / z[:d]))
    verts = [tuple(float(x) for x in v[:, j]) for j in range(d)] + [(0.0,) * d]
    # scale to a unit longest edge before building the simplex: the kernel
    # is unnormalised and the degeneracy test is absolute
    longest = math.sqrt(
        max(sum((x - y) * (x - y) for x, y in zip(p, q)) for p, q in combinations(verts, 2))
    )
    r = 1.0 / longest
    s = Simplex.floating([tuple(r * x for x in p) for p in verts], tol)
    dd = dihedral_data(s)
    for (i, j), c in dd.facet_cos.items():
        want = float(as_algebraic(a.entries[i][j]))
        if abs(c - want) > max(tol, 1e-9):
            raise AssertionError(
                f"reconstruction residual {abs(c - want):.3g} exceeds tolerance at ({i},{j})"
            )
    return s


# ---------------------------------------------------------------------------
# symbolic matrices for the case analysis (entries in Q(phi)[s, t, ...])
# ---------------------------------------------------------------------------


def _sym(vars: tuple[str, ...], name: str) -> MPoly:
    return MPoly.variable(vars, name, Golden.of(1))


def _const(vars: tuple[str, ...], x) -> MPoly:
    return MPoly.constant(vars, Golden.of(x))


def tripod_matrix_symbolic(vars: tuple[str, ...] = SYM_VARS) -> list[list[MPoly]]:
    """Triangle-tripod configuration: angle t on a facet triangle, s on the
    complementary tripod."""
    s, t = _sym(vars, "s"), _sym(vars, "t")
    one = _const(vars, 1)
    return [
        [-one, t, t, t],
        [t, -one, s, s],
        [t, s, -one, s],
        [t, s, s, -one],
    ]


def path_matrix_symbolic(vars: tuple[str, ...] = SYM_VARS) -> list[list[MPoly]]:
    """Path configuration: two angles alternating along a 3-edge path."""
    s, t = _sym(vars, "s"), _sym(vars, "t")
    one = _const(vars, 1)
    return [
        [-one, t, s, s],
        [t, -one, t, s],
        [s, t, -one, t],
        [s, s, t, -one],
    ]


def multiples_matrix_symbolic(vars: tuple[str, ...] = MULT_VARS) -> list[list[MPoly]]:
    """Minimal angle t on a path, its supplement -t twice, and a free angle u."""
    t, u = _sym(vars, "t"), _sym(vars, "u")
    one = _const(vars, 1)
    return [
        [-one, -t, t, t],
        [-t, -one, u, t],
        [t, u, -one, -t],
        [t, t, -t, -one],
    ]


def complement_matrix_symbolic(vars: tuple[str, ...] = ("t",)) -> list[list[MPoly]]:
    """Path configuration with the second angle supplementary to the first."""
    t = _sym(vars, "t")
    one = _const(vars, 1)
    return [
        [-one, t, -t, -t],
        [t, -one, t, -t],
        [-t, t, -one, t],
        [-t, -t, t, -one],
    ]


def path_eigenvalue_symbolic(vars: tuple[str, ...] = SYM_VARS) -> MPoly:
    """The distinguished eigenvalue -phi*s + t/phi - 1 of the path matrix."""
    from .algebra import INV_PHI, PHI

    s, t = _sym(vars, "s"), _sym(vars, "t")
    return -(MPoly.constant(vars, PHI) * s) + MPoly.constant(vars, INV_PHI) * t - _const(vars, 1)


def char_poly_symbolic(rows: list[list[MPoly]], lam: str = "L") -> MPoly:
    """det(A - lambda I) over the matrix's coefficient ring."""
    n = len(rows)
    vars = rows[0][0].vars
    lam_poly = MPoly.variable(vars, lam, Golden.of(1))
    shifted = [
        [rows[i][j] - (lam_poly if i == j else MPoly.constant(vars, Golden.of(0))) for j in range(n)]
        for i in range(n)
    ]
    return determinant(shifted)
