"""The elimination layer against sympy: determinants and characteristic
polynomials over Q, number fields and Q(phi)[s, t], row reduction and the
kernels read from it, solves, interpolation and rational square roots on
random small matrices."""

import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reptile_forge.algebra import QPHI, AlgebraicReal, FieldElement, MPoly, NumberField
from reptile_forge.algebra.linalg import (
    char_poly,
    cholesky,
    det,
    det_int,
    interpolate,
    rational_sqrt,
    rref,
    solve,
)

sympy = pytest.importorskip("sympy")

fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))


@st.composite
def matrices(draw, rows=None, cols=None, entries=fractions):
    """Up to 5x5; about half of them get a row that is a combination of
    two others, so singular and rank-deficient cases are common."""
    m = draw(st.integers(1, 5)) if rows is None else rows
    n = draw(st.integers(1, 5)) if cols is None else cols
    a = [[draw(entries) for _ in range(n)] for _ in range(m)]
    if m >= 3 and draw(st.booleans()):
        i, j, k = draw(st.permutations(range(m)))[:3]
        s, t = draw(entries), draw(entries)
        a[k] = [s * x + t * y for x, y in zip(a[i], a[j])]
    return a


def sym(a):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in a])


def to_fraction(x) -> Fraction:
    x = sympy.Rational(x)
    return Fraction(int(x.p), int(x.q))


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(r, v)) for r in a]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: matrices(n, n)))
def test_det_matches_sympy(a):
    assert det(a) == to_fraction(sym(a).det())


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: matrices(n, n, st.integers(-20, 20))))
def test_det_int_matches_det(a):
    before = [list(r) for r in a]
    assert det_int(a) == det(a)
    assert a == before  # the input is left alone


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: matrices(n, n)))
def test_char_poly_matches_sympy(a):
    want = [to_fraction(c) for c in reversed(sym(a).charpoly().all_coeffs())]
    assert char_poly(a) == want
    assert det(a) == (-1) ** len(a) * want[0]


CBRT2 = NumberField((-2, 0, 0, 1), Fraction(1), Fraction(2), "c")
SYMPY_FIELDS = {"phi": (QPHI, "(1 + sqrt(5)) / 2"), "cbrt2": (CBRT2, "cbrt(2)")}


@functools.lru_cache(maxsize=None)
def sympy_field(name):
    """sympy's algebraic field for SYMPY_FIELDS[name], checked to share the
    number field's minimal polynomial so that coordinates carry over."""
    field, gen = SYMPY_FIELDS[name]
    k = sympy.QQ.algebraic_field(sympy.sympify(gen))
    assert k.mod.to_list() == [sympy.QQ(c) for c in reversed(field.minpoly)]
    return k


def field_coords(field):
    return st.lists(st.fractions(-3, 3, max_denominator=4), min_size=field.degree, max_size=field.degree)


def to_field(k, x):
    """A FieldElement (or Fraction) as an element of sympy's algebraic field
    k, whose generator has the same minimal polynomial."""
    cs = x.c if isinstance(x, FieldElement) else (x,)
    return k([sympy.QQ(c.numerator, c.denominator) for c in reversed(cs)])


def check_against_domain(a, dom, conv):
    """char_poly and det of a agree with sympy's over the domain dom."""
    from sympy.polys.matrices import DomainMatrix

    n = len(a)
    dm = DomainMatrix([[conv(x) for x in r] for r in a], (n, n), dom)
    assert [conv(c) for c in char_poly(a)] == dm.charpoly()[::-1]
    assert conv(det(a)) == dm.det()


@pytest.mark.parametrize("name", sorted(SYMPY_FIELDS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_char_poly_over_number_fields_matches_sympy(name, data):
    field, k = SYMPY_FIELDS[name][0], sympy_field(name)
    n = data.draw(st.integers(1, 4))
    a = [[field.element(data.draw(field_coords(field))) for _ in range(n)] for _ in range(n)]
    check_against_domain(a, k, lambda x: to_field(k, x))


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_char_poly_over_golden_polynomials_matches_sympy(data):
    k = sympy_field("phi")
    polys = k[sympy.symbols("s t")]
    exps = st.tuples(st.integers(0, 1), st.integers(0, 1))
    coeffs = field_coords(QPHI).map(QPHI.element)
    entries = st.dictionaries(exps, coeffs, max_size=3).map(lambda d: MPoly(("s", "t"), d))

    def conv(p):
        terms = p.terms if isinstance(p, MPoly) else {(0, 0): p}
        return polys.ring.from_dict({e: to_field(k, c) for e, c in terms.items()})

    n = data.draw(st.integers(1, 4))
    check_against_domain([[data.draw(entries) for _ in range(n)] for _ in range(n)], polys, conv)


def test_det_promotes_integers():
    d = det([[1, 2], [3, 5]])
    assert d == -1 and isinstance(d, Fraction)


def as_fractions(red, den):
    return [[Fraction(x) / den for x in r] for r in red]


def sympy_rref(a):
    want, pivots = sym(a).rref()
    return [[to_fraction(x) for x in r] for r in want.tolist()], list(pivots)


def rref_kernel(a) -> list | None:
    """The kernel vector read off rref's one free column, that coordinate
    1; None when the free columns are not one.  It checks their count
    against sympy's nullspace."""
    width = len(a[0])
    red, den, pivots = rref(a)
    free = [c for c in range(width) if c not in pivots]
    assert len(free) == len(sym(a).nullspace())
    if len(free) != 1:
        return None
    v = [Fraction(0)] * width
    v[free[0]] = Fraction(1)
    for i, pc in enumerate(pivots):
        v[pc] = -Fraction(red[i][free[0]]) / den
    assert all(x == 0 for x in mat_vec(a, v))
    return v


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rref_matches_sympy(a):
    red, den, pivots = rref(a)
    assert den > 0 and (as_fractions(red, den), pivots) == sympy_rref(a)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5).flatmap(lambda n: matrices(n - 1, n)))
def test_nullspace_of_nullity_one(a):
    v = rref_kernel(a)
    if v is not None:
        assert v == [to_fraction(x) for x in sym(a).nullspace()[0]]


def test_full_rank_square_matrix_has_no_free_column():
    assert rref([[1, 0], [0, 1]]) == ([[1, 0], [0, 1]], 1, [0, 1])
    assert rref_kernel([[1, 0], [0, 1]]) is None


@settings(max_examples=60, deadline=None)
@given(matrices(), st.data())
def test_solve_consistent_system(a, data):
    x = [data.draw(fractions) for _ in a[0]]
    b = mat_vec(a, x)
    y = solve(a, b)
    assert y is not None and mat_vec(a, y) == b


@settings(max_examples=60, deadline=None)
@given(matrices(), st.data())
def test_solve_agrees_with_sympy_on_consistency(a, data):
    b = [data.draw(fractions) for _ in a]
    consistent = sym(a).rank() == sym([r + [c] for r, c in zip(a, b)]).rank()
    y = solve(a, b)
    if consistent:
        assert y is not None and mat_vec(a, y) == b
    else:
        assert y is None


def test_solve_inconsistent():
    assert solve([[1, 2], [2, 4]], [1, 3]) is None


def test_solve_over_square_roots():
    # rows that are not rational are reduced with / in their own ring
    r2 = AlgebraicReal.sqrt_rational(2)
    y = solve([[r2, 1], [3, r2]], [1, 0])
    assert [y[0].compare(-r2), y[1].compare(3)] == [0, 0]


integers = st.integers(-20, 20)


@settings(max_examples=100, deadline=None)
@given(matrices(entries=st.one_of(st.just(0), integers)))
def test_rref_of_an_integer_matrix_matches_sympy(a):
    before = [list(r) for r in a]
    red, den, pivots = rref(a)
    assert type(den) is int and den > 0 and all(type(x) is int for r in red for x in r)
    assert (as_fractions(red, den), pivots) == sympy_rref(a)
    assert all(red[i][c] == den for i, c in enumerate(pivots))
    assert a == before


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 5).flatmap(lambda n: st.one_of(matrices(n - 1, n, integers), matrices(n, n, integers))))
def test_kernel_of_an_integer_matrix_matches_sympy(a):
    v = rref_kernel(a)
    if v is not None:
        assert v == [to_fraction(x) for x in sym(a).nullspace()[0]]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: matrices(n, n + 1, integers)))
def test_solve_of_a_square_integer_system_matches_sympy(a):
    """A nonsingular system has sympy's one solution, and its rref has the
    identity's pivots, which is how the Hill margin program skips the rest."""
    rows, rhs = [r[:-1] for r in a], [r[-1] for r in a]
    nonsingular = rref(a)[2] == list(range(len(a)))
    assert nonsingular == (sym(rows).rank() == len(a))
    if nonsingular:
        want = sym(rows).LUsolve(sym([[c] for c in rhs]))
        assert solve(rows, rhs) == [to_fraction(x) for x in want]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: matrices(n, n, integers)))
def test_char_poly_of_an_integer_matrix_is_that_of_its_fractions(a):
    got = char_poly(a)
    assert got == char_poly([[Fraction(x) for x in r] for r in a])
    assert all(type(c) is Fraction for c in got)
    assert type(det(a)) is Fraction


@settings(max_examples=60, deadline=None)
@given(st.lists(fractions, min_size=1, max_size=8), st.data())
def test_interpolate_round_trip(coeffs, data):
    xs = data.draw(st.lists(fractions, min_size=len(coeffs), max_size=len(coeffs), unique=True))
    ys = [sum(c * x**k for k, c in enumerate(coeffs)) for x in xs]
    assert interpolate(xs, ys) == coeffs


@given(fractions)
def test_rational_sqrt_of_squares(r):
    assert rational_sqrt(r * r) == abs(r)


@given(st.integers(1, 500), st.integers(1, 500))
def test_rational_sqrt_matches_sympy(p, q):
    want = sympy.sqrt(sympy.Rational(p, q))
    got = rational_sqrt(Fraction(p, q))
    if want.is_rational:
        assert got == to_fraction(want)
    else:
        assert got is None


@given(st.integers(1, 500), st.integers(1, 500))
def test_rational_sqrt_of_negatives(p, q):
    assert rational_sqrt(Fraction(-p, q)) is None


def test_det_with_square_roots():
    r2, r3 = AlgebraicReal.sqrt_rational(2), AlgebraicReal.sqrt_rational(3)
    # 2 sqrt(3) - 2 sqrt(2), a root of x^4 - 40 x^2 + 16
    d = det([[r2, 1, 0], [1, r3, 1], [0, 1, r2]])
    s2, s3 = sympy.sqrt(2), sympy.sqrt(3)
    want = sympy.Matrix([[s2, 1, 0], [1, s3, 1], [0, 1, s2]]).det()
    x = sympy.Symbol("x")
    assert list(d.minpoly) == [int(c) for c in reversed(sympy.Poly(sympy.minimal_polynomial(want, x), x).all_coeffs())]
    assert abs(float(d) - float(want)) < 1e-12
    assert det([[r2, r3], [r3, r2]]) == -1


def test_cholesky_reproduces_the_matrix():
    g = [[1.0, 0.25, 0.25], [0.25, 1.0, 0.25], [0.25, 0.25, 1.0]]
    low = cholesky(g)
    for i in range(3):
        assert all(low[i][j] == 0.0 for j in range(i + 1, 3))
        for j in range(3):
            assert abs(sum(low[i][k] * low[j][k] for k in range(3)) - g[i][j]) < 1e-15
    with pytest.raises(ValueError, match="positive definite"):
        cholesky([[1.0, 2.0], [2.0, 1.0]])

