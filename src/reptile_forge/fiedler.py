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
from functools import cached_property
from fractions import Fraction
from itertools import combinations

from .algebra import INV_PHI, PHI, QPHI, AlgebraicReal, MPoly, as_algebraic, linalg
from .algebra.linalg import cholesky, det, nullspace, rational_sqrt, solve
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
    x^T A x > 0), or ``kernel_not_positive``.  ``similar_matrix`` is a
    rational matrix similar to A when A descales to one, else None.
    """

    valid: bool
    kernel: tuple | None
    failure_witness: dict | None
    similar_matrix: tuple | None

    @cached_property
    def char_poly(self) -> tuple | None:
        """det(lambda I - A), low coefficients first, computed on first read;
        None when A does not descale."""
        if self.similar_matrix is None:
            return None
        return tuple(linalg.char_poly(self.similar_matrix))


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
                t = -(c + 1) / (b * 2)
                x = [t * basis[k][i] + basis[bad][i] for i in range(n)]
                return {"psd": False, "rank": None, "negative_direction": tuple(x)}
            continue
        rank += 1
        for i in range(k + 1, n):
            if sgn(a[i][k]) == 0:
                continue
            f = a[i][k] / a[k][k]
            # congruence: row_i -= f * row_k, then col_i -= f * col_k
            for j in range(n):
                a[i][j] -= f * a[k][j]
            for j in range(n):
                a[j][i] -= f * a[j][k]
            for j in range(n):
                basis[i][j] -= f * basis[k][j]
    return {"psd": True, "rank": rank, "negative_direction": None}


def _squarefree_int(n: int) -> int:
    """A divisor s of n > 0 with n / s a square: the squarefree part of n, or
    n itself above 10^14, where trial division would be slow."""
    if n <= 0:
        raise ValueError("positive integer required")
    if n > 10**14:
        return n
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
                # with r = num / den and num den = s * square, q_j = s makes
                # q_i q_j a_ij^2 = num den s / den^2 a rational square
                q[j] = Fraction(_squarefree_int(r.numerator * r.denominator))
                stack.append(j)
    b = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        b[i][i] = -q[i]
        for j in range(i + 1, n):
            key = (i, j)
            root = rational_sqrt(sq[key] * q[i] * q[j])
            if root is None:
                return None
            b[i][j] = b[j][i] = sign[key] * root
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
        similar = tuple(tuple(b[i][j] / q[j] for j in range(n)) for i in range(n))
        if not analysis["psd"]:
            x = analysis["negative_direction"]
            # map the direction back through the implicit scaling: the
            # quadratic form x^T(-B)x < 0 certifies y^T(-A)y < 0 for
            # y_i = sqrt(q_i) x_i; report the rational B-direction
            return RealizabilityVerdict(
                False, None, {"kind": "indefinite", "direction": x, "scaling": tuple(q)}, similar
            )
        if analysis["rank"] == n:
            # det(B) is det(A) * prod(q); the similar matrix has det(A)
            return RealizabilityVerdict(
                False, None, {"kind": "nonsingular", "det": det(similar)}, similar
            )
        if analysis["rank"] < d:
            return RealizabilityVerdict(
                False, None, {"kind": "rank_defect", "rank": analysis["rank"]}, similar
            )
        w = nullspace(b)
        if all(x < 0 for x in w):
            w = [-x for x in w]
        if not all(x > 0 for x in w):
            return RealizabilityVerdict(
                False, None, {"kind": "kernel_not_positive", "kernel": tuple(w)}, similar
            )
        kernel = tuple(AlgebraicReal.sqrt_rational(qi) * wi for qi, wi in zip(q, w))
        # re-verify B w = 0 exactly; this is A z = 0 under the scaling
        for i in range(n):
            if sum(b[i][j] * w[j] for j in range(n)) != 0:
                raise AssertionError("kernel verification failed")
        return RealizabilityVerdict(True, kernel, None, similar)
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
    z = nullspace(a.entries)
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
    rows = [[x.as_fraction() if x.is_rational else x for x in r] for r in a.entries]
    scaling = None
    if not all(isinstance(x, Fraction) for r in rows for x in r):
        descaled = _descale(a)
        if descaled is not None:
            rows, scaling = descaled
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
    sol = solve(eqs, rhs)
    if sol is None:
        return None
    y = [sum(sol[j] * rows[j][i] for j in range(n)) for i in range(n)]
    sgns = [(as_algebraic(v).sign() if isinstance(v, AlgebraicReal) else (v > 0) - (v < 0)) for v in y]
    if all(flip * s >= 0 for s in sgns) and any(s != 0 for s in sgns):
        return tuple(sol)
    return None


def char_poly(a: CosMatrix) -> list:
    """Exact characteristic polynomial det(lambda I - A), low-first, monic."""
    rows = [[x.as_fraction() if x.is_rational else x for x in r] for r in a.entries]
    return [as_algebraic(c) for c in linalg.char_poly(rows)]


def reconstruct_simplex(a: CosMatrix, tol: float = FLOAT_TOL) -> Simplex:
    """A simplex whose dihedral cosine matrix equals A, normalized so the
    longest edge has length 1 (the similarity class is all the data fixes).

    The accept decision is exact; coordinates come from a floating Cholesky
    factor and are verified against A within the tolerance.
    """
    verdict = realizability_check(a)
    if not verdict.valid:
        raise ReconstructionError(verdict)
    d = a.dim
    z = [float(x) for x in verdict.kernel]
    # row i of the Cholesky factor of -A's leading block is the unit normal u_i
    normals = cholesky([[-float(x) for x in row[:d]] for row in a.entries[:d]])
    # vertex j solves u_i . v_j = [i == j] / z_j; vertex d is the origin
    verts = [solve(normals, [1.0 / z[j] if i == j else 0.0 for i in range(d)]) for j in range(d)]
    s = Simplex.floating(verts + [[0.0] * d], tol)
    s = s.scaled(1 / math.sqrt(max(s.squared_lengths().values())))
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
    return MPoly.variable(vars, name, QPHI.one)


def _const(vars: tuple[str, ...], x) -> MPoly:
    return MPoly.constant(vars, QPHI(x))


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
    s, t = _sym(vars, "s"), _sym(vars, "t")
    return -(MPoly.constant(vars, PHI) * s) + MPoly.constant(vars, INV_PHI) * t - _const(vars, 1)


def char_poly_symbolic(rows: list[list[MPoly]], lam: str = "L") -> MPoly:
    """det(A - lambda I) over the matrix's coefficient ring."""
    lam_poly = MPoly.variable(rows[0][0].vars, lam, QPHI.one)
    out = sum((c * lam_poly**k for k, c in enumerate(linalg.char_poly(rows))), MPoly(lam_poly.vars))
    return -out if len(rows) % 2 else out
