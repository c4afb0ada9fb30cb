"""Dihedral-angle realizability and simplex reconstruction.

A candidate angle assignment enters as a symmetric cosine matrix with
diagonal -1.  It is realizable by a simplex exactly when its negation is
positive semidefinite of rank d with a strictly positive kernel direction.
The accept/reject decision is always exact and takes one path: one
congruence elimination of a working matrix B, which also gives its kernel
(the basis row at the one zero pivot) and, in integers, its determinant
(the last fraction-free pivot); nothing else eliminates.  A matrix whose
entries are rationals and square roots of rationals, as every measured
matrix is, admits a diagonal scaling q that makes B rational; it is read
from the entries alone, so a matrix built from a simplex's dihedral data
and the same matrix read from JSON get one verdict.  Any other matrix is
its own B in exact algebraic arithmetic.  A rational B
is decided in integers, as one integer matrix over the lcm of its
denominators: fraction-free congruence with its kernel, re-check and
determinant, and an integer similar matrix, read as Fractions only in the
verdict.  The algebraic B
keeps field arithmetic.  The scaling decides only what exists under it (the
similar rational matrix, the witness's determinant and scaling, and the
map from B's kernel to A's).  Only the coordinates of a reconstruction are
computed in floating point; the simplex they make is read exactly, and
each of its dihedral cosines is held to a residual bound of 1e-9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations
from operator import mul

from .algebra import INV_PHI, PHI, QPHI, AlgebraicReal, MPoly, as_algebraic, exact_json, linalg
from .algebra.linalg import cholesky
from .simplex import DihedralData, Simplex, _pair_lengths, normal_gram

SYM_VARS = ("s", "t")
SYM_VARS_L = ("s", "t", "L")
MULT_VARS = ("t", "u")


class MalformedMatrixError(ValueError):
    """Input is not a symmetric cosine matrix with -1 diagonal."""


class ReconstructionError(ValueError):
    """Reconstruction was attempted on a non-realizable matrix."""

    def __init__(self, verdict: "RealizabilityVerdict"):
        super().__init__(f"matrix is not realizable: {verdict.failure_witness['kind']} witness")
        self.verdict = verdict


@dataclass(frozen=True)
class CosMatrix:
    """Symmetric (d+1) x (d+1) matrix of dihedral cosines, diagonal -1."""

    dim: int
    entries: tuple

    @staticmethod
    def from_rows(rows) -> "CosMatrix":
        n = len(rows)
        dim = n - 1
        if dim < 1 or any(len(r) != n for r in rows):
            raise MalformedMatrixError("square matrix of size d+1 required")
        vals = [[x if isinstance(x, AlgebraicReal) else as_algebraic(x) for x in r] for r in rows]
        for i in range(n):
            if vals[i][i].compare(-1) != 0:
                raise MalformedMatrixError("diagonal entries must equal -1 exactly")
            for j in range(i + 1, n):
                if vals[i][j].compare(vals[j][i]) != 0:
                    raise MalformedMatrixError("matrix must be symmetric")
                if not (vals[i][j].compare(-1) > 0 and vals[i][j].compare(1) < 0):
                    raise MalformedMatrixError("off-diagonal cosines must lie in (-1, 1)")
        return CosMatrix(dim, tuple(tuple(r) for r in vals))

    @staticmethod
    def from_dihedral(dd: DihedralData) -> "CosMatrix":
        return CosMatrix.from_rows(dd.matrix())

    def to_json(self) -> dict:
        return {"dim": self.dim, "cos": exact_json(self.entries)}


@dataclass(frozen=True)
class RealizabilityVerdict:
    """Outcome of the exact realizability decision.

    On success the kernel is a strictly positive exact vector with A z = 0.
    On failure the witness names the defect: ``nonsingular`` (rank d+1),
    ``rank_defect`` (rank < d), ``indefinite`` (an explicit direction x with
    x^T A x > 0), or ``kernel_not_positive``.  ``similar_matrix`` is a
    rational matrix similar to A when A descales to one, else None; it is
    kept as an integer matrix N and a denominator E, ``similar = (N, E)``,
    and read as N / E.
    """

    valid: bool
    kernel: tuple | None
    failure_witness: dict | None
    similar: tuple | None = None

    @cached_property
    def similar_matrix(self) -> tuple | None:
        if self.similar is None:
            return None
        rows, den = self.similar
        return tuple(tuple(Fraction(x, den) for x in r) for r in rows)

    @cached_property
    def char_poly(self) -> tuple | None:
        """det(lambda I - A), low coefficients first, computed on first read;
        None when A does not descale.  The coefficient of lambda^k is that
        of N's characteristic polynomial over E^(n-k)."""
        if self.similar is None:
            return None
        rows, den = self.similar
        n = len(rows)
        return tuple(c / den ** (n - k) for k, c in enumerate(linalg.char_poly(rows)))


def _sign(x) -> int:
    """Sign of a Fraction or an AlgebraicReal."""
    if isinstance(x, AlgebraicReal):
        return x.sign()
    return (x > 0) - (x < 0)


def _indefinite(direction: tuple) -> dict:
    """The analysis of a matrix that is not PSD, with x^T M x < 0 for x =
    direction."""
    return {"psd": False, "rank": None, "negative_direction": direction, "kernel": None}


def _congruence_analysis(m: list[list]) -> dict:
    """Exact PSD analysis of a symmetric matrix by rational/algebraic
    congruence elimination.

    Returns psd flag, rank, (when not PSD) a direction x with x^T M x < 0,
    and (when PSD of nullity 1) the kernel, all in original coordinates.
    The kernel is the basis row at the one zero pivot k, whose coordinate k
    is 1: as M is PSD, x^T M x = 0 makes M x = 0.
    """
    n = len(m)
    a = [list(r) for r in m]
    basis = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]

    rank = 0
    for k in range(n):
        sk = _sign(a[k][k])
        if sk < 0:
            return _indefinite(tuple(basis[k]))
        if sk == 0:
            bad = next((j for j in range(k + 1, n) if _sign(a[k][j]) != 0), None)
            if bad is not None:
                # [[0, b], [b, c]] block is indefinite: x = t e_k + e_bad with
                # t = -(c + 1) / (2 b) gives quadratic form value -1
                b = a[k][bad]
                c = a[bad][bad]
                t = -(c + 1) / (b * 2)
                return _indefinite(tuple(t * basis[k][i] + basis[bad][i] for i in range(n)))
            zero = k
            continue
        rank += 1
        for i in range(k + 1, n):
            if _sign(a[i][k]) == 0:
                continue
            f = a[i][k] / a[k][k]
            # congruence: row_i -= f * row_k, then col_i -= f * col_k
            for j in range(n):
                a[i][j] -= f * a[k][j]
            for j in range(n):
                a[j][i] -= f * a[j][k]
            for j in range(n):
                basis[i][j] -= f * basis[k][j]
    kernel = None
    if rank == n - 1:
        # coordinate k of row k stays 1, though an algebraic update may
        # have made it an AlgebraicReal
        kernel = (*basis[zero][:zero], Fraction(1), *basis[zero][zero + 1 :])
    return {"psd": True, "rank": rank, "negative_direction": None, "kernel": kernel}


def _congruence_int(m: list[list[int]], den: int) -> dict:
    """``_congruence_analysis`` of the rational matrix m / den, den > 0, in
    integers: the same psd flag, rank, direction and kernel, and ``det``,
    the determinant of m / den when it is PSD, else None.

    Fraction-free symmetric elimination (Bareiss, Math. Comp. 1968): with c
    the product of the pivots so far, ``a`` holds c times the Schur
    complement and ``e`` c times the basis rows, and every entry of either
    is a minor of m (the basis rows by the adjugate), so each division by
    the previous c is exact.  Elimination factors are ratios, so the
    scaling by c and by den leaves the basis rows as the rational routine
    has them; only the 2 x 2 block's t = -(c' + 1) / (2 b') reads the
    scale, as c' and b' are entries of m / den.  Basis row k has c in
    coordinate k, and the last c is the leading minor of m at the last
    nonzero pivot, which is det(m) when every pivot is nonzero.
    """
    n = len(m)
    a = [list(r) for r in m]
    e = [[int(i == j) for j in range(n)] for i in range(n)]
    c = 1
    rank = 0
    for k in range(n):
        p = a[k][k]
        if p < 0:
            return {**_indefinite(tuple(Fraction(x, c) for x in e[k])), "det": None}
        if p == 0:
            bad = next((j for j in range(k + 1, n) if a[k][j]), None)
            if bad is not None:
                t = Fraction(-(a[bad][bad] + c * den), 2 * a[k][bad])
                x = tuple(t * Fraction(u, c) + Fraction(v, c) for u, v in zip(e[k], e[bad]))
                return {**_indefinite(x), "det": None}
            zero = k
            continue
        rank += 1
        row_k = a[k]
        for i in range(k + 1, n):
            row, f = a[i], a[i][k]
            for j in range(k + 1, n):
                row[j] = (p * row[j] - f * row_k[j]) // c
            e[i] = [(p * x - f * y) // c for x, y in zip(e[i], e[k])]
        c = p
    kernel = None
    if rank == n - 1:
        w = e[zero]
        # re-verify m w = 0 exactly, in integers
        if any(sum(map(mul, row, w)) for row in m):
            raise AssertionError("kernel verification failed")
        kernel = tuple(Fraction(x, w[zero]) for x in w)
    det = Fraction(c, den**n) if rank == n else Fraction(0)
    return {"psd": True, "rank": rank, "negative_direction": None, "kernel": kernel, "det": det}


def _squarefree_int(n: int) -> int:
    """A divisor s of n > 0 with n / s a square: the squarefree part of n, or
    n itself above 10^14.

    Trial division runs only to the cube root of what is left: then the
    cofactor has at most two prime factors, all beyond the last trial
    divisor, so it is 1, p, p^2 or p q, and one isqrt tells p^2 apart.
    """
    if n <= 0:
        raise ValueError("positive integer required")
    if n > 10**14:
        return n
    out = 1
    p = 2
    while p * p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e % 2:
                out *= p
        p += 1 if p == 2 else 2
    r = math.isqrt(n)
    return out if r * r == n else out * n


def _descale(a: CosMatrix) -> tuple[list[list[int]], int, list[int]] | None:
    """An integer matrix M, an integer L > 0 and positive integers q_i with
    a_ij = b_ij / sqrt(q_i q_j) for B = M / L, read from the entries alone;
    None when they do not admit one.  Every rational is kept as a numerator
    and a denominator."""
    n = a.dim + 1
    sq: dict = {}  # (i, j) -> (num, den) of a_ij^2, in lowest terms
    sign: dict = {}
    for i in range(n):
        for j in range(i + 1, n):
            x = a.entries[i][j]
            mp = x.minpoly
            if len(mp) == 2:  # the rational -mp[0] / mp[1]
                sq[(i, j)] = (mp[0] * mp[0], mp[1] * mp[1])
                sign[(i, j)] = (mp[0] < 0) - (mp[0] > 0)
            elif len(mp) == 3 and mp[1] == 0:
                sq[(i, j)] = (-mp[0], mp[2])
                sign[(i, j)] = x.sign()
            else:
                return None
    q: list[int | None] = [None] * n
    for start in range(n):
        if q[start] is not None:
            continue
        q[start] = 1
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if j == i or q[j] is not None:
                    continue
                num, den = sq[(min(i, j), max(i, j))]
                if num == 0:
                    continue
                # with q_i a_ij^2 = r / t in lowest terms and r t = s * square,
                # q_j = s makes q_i q_j a_ij^2 = r t s / t^2 a rational square
                r = q[i] * num
                g = math.gcd(r, den)
                q[j] = _squarefree_int((r // g) * (den // g))
                stack.append(j)
    roots = {}  # (i, j) -> (signed numerator, denominator) of b_ij
    for (i, j), (num, den) in sq.items():
        r = num * q[i] * q[j]
        g = math.gcd(r, den)
        r, den = r // g, den // g
        top, bottom = math.isqrt(r), math.isqrt(den)
        if top * top != r or bottom * bottom != den:
            return None
        roots[(i, j)] = (sign[(i, j)] * top, bottom)
    big = math.lcm(*(bottom for _, bottom in roots.values()))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = -q[i] * big
    for (i, j), (top, bottom) in roots.items():
        m[i][j] = m[j][i] = top * (big // bottom)
    return m, big, q


def _similar_int(m: list[list[int]], den: int, q: list[int]) -> tuple[list[list[int]], int]:
    """(N, E) with N / E = B diag(q)^(-1) for B = m / den: column j is
    multiplied by lcm(q) / q_j over E = den lcm(q)."""
    top = math.lcm(*q)
    return [[x * (top // f) for x, f in zip(row, q)] for row in m], den * top


def realizability_check(a: CosMatrix) -> RealizabilityVerdict:
    """Exact decision: is the cosine matrix that of an actual simplex?

    Valid iff -A is positive semidefinite of rank exactly d and the
    one-dimensional kernel is generated by a strictly positive vector.
    Every matrix is decided the same way: one congruence elimination of
    -B, which gives B's kernel too.  The working matrix B is the congruent
    rational matrix of a diagonal square-root scaling q when A descales to one
    (a_ij = b_ij / sqrt(q_i q_j)), decided in integers as M / L
    (``_descale``); else it is A itself in exact algebraic arithmetic
    (``_algebraic_check``).  The scaling only adds what exists under it:
    the similar rational matrix, the witness's ``scaling`` and ``det``
    fields, and the map w -> (sqrt(q_i) w_i) from B's kernel to A's.
    """
    descaled = _descale(a)
    if descaled is None:
        return _algebraic_check(a)
    m, den, q = descaled
    n = len(m)
    analysis = _congruence_int([[-x for x in row] for row in m], den)
    # A = D B D with D = diag(q)^(-1/2) is similar to B diag(q)^(-1)
    similar = _similar_int(m, den, q)
    rank = analysis["rank"]
    z = analysis["kernel"]
    witness = None
    if not analysis["psd"]:
        # x^T(-B)x < 0 certifies y^T(-A)y < 0 for y_i = sqrt(q_i) x_i:
        # the direction is reported in B's coordinates, with the scaling
        scaling = tuple(map(Fraction, q))
        witness = {"kind": "indefinite", "direction": analysis["negative_direction"], "scaling": scaling}
    elif rank == n:
        # det(A) = det(B) / prod(q), and det(B) = (-1)^n det(-B)
        witness = {"kind": "nonsingular", "det": (-1) ** n * analysis["det"] / math.prod(q)}
    elif rank < n - 1:
        witness = {"kind": "rank_defect", "rank": rank}
    elif min(z) <= 0:
        # the free coordinate is 1, so a positive kernel needs no sign flip
        witness = {"kind": "kernel_not_positive", "kernel": z}
    if witness is not None:
        return RealizabilityVerdict(False, None, witness, similar)
    # B z = 0, re-verified by the congruence, is A z' = 0 under the scaling
    kernel = tuple(AlgebraicReal.sqrt_rational(qi) * zi for qi, zi in zip(q, z))
    return RealizabilityVerdict(True, kernel, None, similar)


def _algebraic_check(a: CosMatrix) -> RealizabilityVerdict:
    """``realizability_check`` of a matrix that does not descale, in exact
    algebraic arithmetic on A itself."""
    d = a.dim
    n = d + 1
    analysis = _congruence_analysis([[-x for x in row] for row in a.entries])
    rank = analysis["rank"]
    if not analysis["psd"]:
        witness = {"kind": "indefinite", "direction": analysis["negative_direction"]}
    elif rank == n:
        witness = {"kind": "nonsingular"}
    elif rank < d:
        witness = {"kind": "rank_defect", "rank": rank}
    else:
        # the free coordinate is 1, so a positive kernel needs no sign flip;
        # min reads every sign, refining each algebraic entry alike
        w = analysis["kernel"]
        if min(_sign(x) for x in w) > 0:
            return RealizabilityVerdict(True, tuple(as_algebraic(x) for x in w), None)
        witness = {"kind": "kernel_not_positive", "kernel": w}
    return RealizabilityVerdict(False, None, witness)


def _forward_substitute(low: list[list[float]], j: int, t: float) -> list[float]:
    """The float solution y of L y = t e_j for a lower-triangular L with a
    positive diagonal, in the operation order of Gauss-Jordan elimination
    on [L | t e_j]: a zero product is left out of each row's sum."""
    y: list[float] = []
    for k, row in enumerate(low):
        x = t if k == j else 0.0
        for lk, ym in zip(row, y):
            if lk and ym:
                x = x - lk * ym
        y.append(x / row[k] if x else x)
    return y


def reconstruct_simplex(a: CosMatrix) -> Simplex:
    """A simplex whose dihedral cosine matrix equals A, normalized so the
    longest edge has length 1 (the similarity class is all the data fixes).

    The accept decision is exact.  The coordinates come from a float
    Cholesky factor and are read exactly, so the simplex returned is the one
    ``as_float`` prints; each of its dihedral cosines, from its integer facet
    normals, is verified against A within 1e-9.
    """
    verdict = realizability_check(a)
    if not verdict.valid:
        raise ReconstructionError(verdict)
    d = a.dim
    z = [float(x) for x in verdict.kernel]
    # row i of the Cholesky factor of -A's leading block is the unit normal u_i
    normals = cholesky([[-float(x) for x in row[:d]] for row in a.entries[:d]])
    # vertex j solves u_i . v_j = [i == j] / z_j; vertex d is the origin
    verts = [_forward_substitute(normals, j, 1.0 / z[j]) for j in range(d)] + [[0.0] * d]
    r = 1 / math.sqrt(max(_pair_lengths(verts).values()))
    s = Simplex.exact([[r * x for x in v] for v in verts])
    g = normal_gram(s)
    for i, j in combinations(range(d + 1), 2):
        # int / int rounds correctly, however large the entries
        c = math.copysign(math.sqrt(g[i][j] ** 2 / (g[i][i] * g[j][j])), -g[i][j])
        want = float(as_algebraic(a.entries[i][j]))
        if abs(c - want) > 1e-9:
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
