"""Exact algebra core: root isolation, irreducibility, arithmetic, comparison."""

import math
import os
import random
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reptile_forge.algebra import (
    QPHI,
    AlgebraicReal,
    DegreeOverflowError,
    Interval,
    MPoly,
    arith,
    compare,
    eliminate,
    euler_totient,
    exact_json,
    intpoly as ip,
    is_irreducible,
    irreducible_factors,
    refine,
    sturm,
    sturm_isolate,
    totient_inverse,
)
from reptile_forge.algebra.factor import FactorError, factor_squarefree
from reptile_forge.jsonio import parse_real
from reptile_forge.trig import cos_two_pi_minpoly

from helpers import swinnerton_dyer


def bisection_root(poly, lo, hi, width=Fraction(1, 10**8)):
    """Independent oracle: bisect a sign change to a narrow bracket."""
    f = lambda x: ip.eval_at(tuple(poly), x)
    assert f(lo) * f(hi) < 0
    while hi - lo > width:
        mid = (lo + hi) / 2
        if f(mid) == 0:
            return mid, mid
        if f(lo) * f(mid) < 0:
            hi = mid
        else:
            lo = mid
    return lo, hi


def dense_sign_changes(poly, lo, hi, samples=4000):
    """Dense-sampling oracle: sign changes of p on a rational grid."""
    step = (hi - lo) / samples
    signs = []
    x = lo
    for _ in range(samples + 1):
        s = ip.sign_at(tuple(poly), x)
        if s != 0:
            signs.append(s)
        x += step
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


class TestSturmIsolate:
    def test_sqrt2(self):
        ivs = sturm_isolate([-2, 0, 1])
        assert len(ivs) == 2
        lo, hi = bisection_root([-2, 0, 1], Fraction(0), Fraction(2))
        assert ivs[1].lo <= hi and lo <= ivs[1].hi
        assert float(ivs[0].mid) == pytest.approx(-math.sqrt(2), abs=2.0)

    def test_quartic_in_unit_interval(self):
        # s^4 - 3 s^2 + 1 has exactly the two golden-ratio roots in (-1, 1)
        ivs = sturm_isolate([1, 0, -3, 0, 1], (Fraction(-1), Fraction(1)))
        assert len(ivs) == 2
        phim1 = (math.sqrt(5) - 1) / 2
        vals = []
        for iv in ivs:
            lo, hi = sturm.refine_root((1, 0, -3, 0, 1), iv.lo, iv.hi, Fraction(1, 10**6))
            vals.append(float((lo + hi) / 2))
        assert vals[0] == pytest.approx(-phim1, abs=1e-5)
        assert vals[1] == pytest.approx(phim1, abs=1e-5)

    def test_cube_root_of_one_seventh(self):
        ivs = sturm_isolate([-1, 0, 0, 7])
        assert len(ivs) == 1
        lo, hi = bisection_root([-1, 0, 0, 7], Fraction(0), Fraction(1))
        mid = float((lo + hi) / 2)
        assert mid == pytest.approx(0.52276, abs=1e-4)
        assert ivs[0].lo <= hi and lo <= ivs[0].hi

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError, match="undefined root set"):
            sturm_isolate([])

    def test_rational_roots_degenerate_intervals(self):
        # (2x - 1)(x - 3) has rational roots reported as points
        p = ip.mul((-1, 2), (-3, 1))
        ivs = sturm_isolate(p)
        pts = [iv.lo for iv in ivs if iv.lo == iv.hi]
        assert Fraction(1, 2) in pts and Fraction(3) in pts

    def test_open_range_excludes_endpoint_roots(self):
        ivs = sturm_isolate([-1, 0, 1], (Fraction(-1), Fraction(1)))  # roots exactly +-1
        assert ivs == []

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-9, 9), min_size=2, max_size=7))
    def test_isolation_matches_dense_sampling(self, coeffs):
        p = ip.poly(coeffs)
        if ip.degree(p) < 1:
            return
        bound = ip.root_bound(p)
        ivs = sturm_isolate(p)
        changes = dense_sign_changes(p, -bound, bound)
        # every grid sign change holds at least one root; clustered roots
        # may exceed the grid's resolution but never the other way round
        assert len(ivs) >= changes
        f = ip.squarefree_part(p)
        seen = []
        for iv in ivs:
            if iv.lo == iv.hi:
                assert ip.eval_at(f, iv.lo) == 0
            else:
                assert ip.sign_at(f, iv.lo) * ip.sign_at(f, iv.hi) < 0
            for prev in seen:
                assert prev.hi <= iv.lo or iv.hi <= prev.lo
            seen.append(iv)


class TestIrreducibility:
    def test_cubic_examples(self):
        assert is_irreducible([-1, 0, 0, 2]) is True  # 2x^3 - 1
        assert is_irreducible([-1, 0, 0, 8]) is False  # root 1/2

    def test_quartic_factorization_found_by_search(self):
        # independent oracle: finite search over integer quadratic pairs
        p = (1, 0, -3, 0, 1)  # x^4 - 3x^2 + 1

        def quartic_splits(poly):
            c0, c1, c2, c3, c4 = poly
            for a0 in range(-4, 5):
                for a1 in range(-4, 5):
                    for b0 in range(-4, 5):
                        for b1 in range(-4, 5):
                            prod = ip.mul((a0, a1, 1), (b0, b1, 1))
                            if prod == poly:
                                return (a0, a1, 1), (b0, b1, 1)
            return None

        split = quartic_splits(p)
        assert split == ((-1, -1, 1), (-1, 1, 1))  # (x^2+x-1)(x^2-x-1), golden pair
        assert is_irreducible(p) is False
        assert sorted(irreducible_factors(p)) == sorted([(-1, -1, 1), (-1, 1, 1)])

    def test_quartics_with_complex_roots(self):
        assert is_irreducible([1, 0, 0, 0, 1]) is True  # x^4 + 1
        assert is_irreducible([4, 0, 0, 0, 1]) is False  # x^4 + 4
        assert sorted(irreducible_factors([4, 0, 0, 0, 1])) == [(2, -2, 1), (2, 2, 1)]

    def test_unsupported_degree(self):
        # quintics are answered as sympy answers them: x^5 + 1 has the factor x + 1
        assert is_irreducible([1, 0, 0, 0, 0, 1]) is False
        assert is_irreducible([-2, 0, 0, 0, 0, 1]) is True
        assert [len(_sympy_factors(p)) for p in ([1, 0, 0, 0, 0, 1], [-2, 0, 0, 0, 0, 1])] == [2, 1]

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            is_irreducible([5])



# totally real irreducibles: cosine minimal polynomials of degree <= 4 under
# an invertible affine substitution (leading coefficient a^n), and
# quadratics x^2 - d for non-squares d
_TOTALLY_REAL = st.one_of(
    st.builds(
        lambda n, a, b: ip.primitive(ip.compose_linear(cos_two_pi_minpoly(n), a, b)),
        st.sampled_from([5, 7, 9, 15, 16, 17, 20]),
        st.integers(1, 3),
        st.integers(-2, 2),
    ),
    st.builds(lambda d: (-d, 0, 1), st.sampled_from([2, 3, 5, 6, 7, 10])),
)

# irreducibles with complex roots: cyclotomic polynomials under the same
# substitutions, and c x^2 + d
_COMPLEX_ROOTED = st.one_of(
    st.builds(
        lambda n, a, b: ip.primitive(ip.compose_linear(_cyclotomic(n), a, b)),
        st.sampled_from([3, 4, 5, 7, 8, 9, 12]),
        st.integers(1, 3),
        st.integers(-2, 2),
    ),
    st.builds(lambda c, d: ip.primitive((d, 0, c)), st.integers(1, 5), st.integers(1, 7)),
)


def _cyclotomic(n):
    """x^n - 1 divided by every cyclotomic polynomial of a proper divisor."""
    p = ip.poly([-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            p = ip.div_exact(p, _cyclotomic(d))
    return p


def _sympy_factors(p):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    _, facs = sympy.factor_list(sympy.Poly(list(reversed(p)), x, domain="ZZ"))
    return sorted(ip.primitive(ip.poly(int(c) for c in reversed(f.all_coeffs()))) for f, _ in facs)


class TestFactorMatchesSympy:
    """factor_squarefree against sympy.factor_list and against products
    whose factors are known: every degree, complex roots included."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_TOTALLY_REAL, min_size=1, max_size=4, unique=True))
    def test_totally_real_products(self, factors):
        assume(sum(ip.degree(f) for f in factors) <= 24)
        p = ip.ONE
        for f in factors:
            p = ip.mul(p, f)
        assert factor_squarefree(p) == _sympy_factors(p) == sorted(factors)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(_TOTALLY_REAL, max_size=2, unique=True),
        st.lists(_COMPLEX_ROOTED, min_size=1, max_size=3, unique=True),
    )
    def test_products_with_complex_roots(self, real, complex_rooted):
        factors = real + complex_rooted
        assume(sum(ip.degree(f) for f in factors) <= 24)
        p = ip.ONE
        for f in factors:
            p = ip.mul(p, f)
        assert factor_squarefree(p) == _sympy_factors(p) == sorted(factors)

    @pytest.mark.parametrize(
        "factors",
        [
            # cos 13pi/17: an irreducible octic with eight real roots
            [(1, 8, -40, -80, 240, 192, -448, -128, 256)],
            # two real-rooted quartics
            [(1, 0, -10, 0, 1), (1, 8, -16, -8, 16)],
            # a real-rooted quartic and one with two complex roots
            [(1, 0, -10, 0, 1), (-200, 0, 0, 0, 1)],
            [(1, 0, 1), (-3, 0, 1), (1, -3, 0, 1)],
        ],
    )
    def test_named_products(self, factors):
        p = ip.ONE
        for f in factors:
            p = ip.mul(p, f)
        assert factor_squarefree(p) == _sympy_factors(p) == sorted(factors)

    def test_cyclotomic_splits(self):
        for n in range(1, 61):
            x_n_minus_1 = ip.poly([-1] + [0] * (n - 1) + [1])
            assert factor_squarefree(x_n_minus_1) == sorted(_cyclotomic(d) for d in range(1, n + 1) if n % d == 0)

    def test_primes_past_the_degree(self):
        # (x - 1)...(x - 40) has a repeated root modulo every prime below 40
        p = ip.ONE
        for i in range(1, 41):
            p = ip.mul(p, (-i, 1))
        assert factor_squarefree(p) == [(-i, 1) for i in range(40, 0, -1)]

    def test_cosine_minimal_polynomials_are_irreducible(self):
        for n in range(1, 121):
            p = cos_two_pi_minpoly(n)
            assert factor_squarefree(p) == [p]

    def testswinnerton_dyer(self):
        # the recombination's hard case: 2^(k-1) or more modular factors
        p = swinnerton_dyer([2, 3, 5, 7])
        assert ip.degree(p) == 16 and factor_squarefree(p) == [p]
        p = swinnerton_dyer([2, 3, 5, 7, 11])
        for q in (p, ip.compose_linear(p, 16, 0)):  # the second has its roots in (-1, 1)
            with pytest.raises(FactorError, match="degree-32 polynomial needs over"):
                factor_squarefree(q)

    def test_same_factors_in_fresh_interpreters(self):
        # x^60 - 1, x^5 + 1 and 3x^12 - 2: the random split and the primes
        # fix only the running time, never the factors
        polys = [(-1,) + (0,) * 59 + (1,), (1, 0, 0, 0, 0, 1), (-2,) + (0,) * 11 + (3,)]
        code = f"from reptile_forge.algebra.factor import factor_squarefree as f; print([f(p) for p in {polys}])"
        outs = {
            subprocess.run(
                [sys.executable, "-c", code],
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(sys.path)},
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for seed in ("0", "1")
        }
        assert outs == {f"{[factor_squarefree(p) for p in polys]}\n"}


class TestRefine:
    def test_sqrt2_width(self):
        x = AlgebraicReal.sqrt_rational(2)
        iv = refine(x, Fraction(1, 1000))
        assert iv.width < Fraction(1, 1000)
        assert iv.lo < Fraction(141421456, 10**8) < iv.hi or float(iv.mid) == pytest.approx(
            math.sqrt(2), abs=1e-3
        )

    def test_cube_root_refinement(self):
        lo, hi = bisection_root([-1, 0, 0, 7], Fraction(0), Fraction(1), Fraction(1, 10**8))
        x = AlgebraicReal.from_root([-1, 0, 0, 7], Fraction(0), Fraction(1))
        iv = refine(x, Fraction(1, 10**6))
        assert iv.width < Fraction(1, 10**6)
        assert iv.lo <= hi and lo <= iv.hi

    def test_rational_value(self):
        x = AlgebraicReal.from_rational(Fraction(1, 2))
        iv = refine(x, Fraction(1, 100))
        assert iv.lo == iv.hi == Fraction(1, 2)


class TestArith:
    def test_sqrt2_squared(self):
        s = AlgebraicReal.sqrt_rational(2)
        assert arith(s, s, "*").as_fraction() == 2

    def test_phi_minus_one(self):
        phi = AlgebraicReal.from_root([-1, -1, 1], 1, 2)
        # substitute-and-expand oracle: x = phi - 1 satisfies x^2 + x - 1
        # because (x+1)^2 - (x+1) - 1 = x^2 + x - 1
        shifted = ip.compose_linear((-1, -1, 1), 1, 1)
        assert shifted == (-1, 1, 1)
        out = arith(phi, AlgebraicReal.from_rational(1), "-")
        assert out.minpoly == (-1, 1, 1)
        assert float(out) == pytest.approx(0.6180339887, abs=1e-9)

    def test_rational_sum(self):
        assert arith(Fraction(1, 2), Fraction(1, 3), "+").as_fraction() == Fraction(5, 6)

    def test_division_and_errors(self):
        s2 = AlgebraicReal.sqrt_rational(2)
        with pytest.raises(ZeroDivisionError):
            arith(s2, 0, "/")
        q = arith(s2, AlgebraicReal.sqrt_rational(8), "/")
        assert q.as_fraction() == Fraction(1, 2)

    def test_degree_cap(self):
        # two quartic cosines: resultant degree would be 16
        a = AlgebraicReal.from_root((1, 0, -16, 0, 16), Fraction(9, 10), 1)
        b = AlgebraicReal.from_root((-1, -8, -2, 8, 4), Fraction(-1), 0)
        with pytest.raises(DegreeOverflowError):
            arith(a, b, "*")

    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from([2, 3, 5, 6, 7, 8, 10]),
        st.sampled_from([2, 3, 5, 6, 7, 8, 10]),
        st.sampled_from(["+", "-", "*"]),
    )
    def test_consistent_with_interval_arithmetic(self, a, b, op):
        x = AlgebraicReal.sqrt_rational(a)
        y = AlgebraicReal.sqrt_rational(b)
        z = arith(x, y, op)
        ix = x.refine_below(Fraction(1, 10**6))
        iy = y.refine_below(Fraction(1, 10**6))
        iz = z.refine_below(Fraction(1, 10**9))
        if op == "+":
            lo, hi = ix.lo + iy.lo, ix.hi + iy.hi
        elif op == "-":
            lo, hi = ix.lo - iy.hi, ix.hi - iy.lo
        else:
            vals = [ix.lo * iy.lo, ix.lo * iy.hi, ix.hi * iy.lo, ix.hi * iy.hi]
            lo, hi = min(vals), max(vals)
        assert lo <= iz.lo and iz.hi <= hi


class TestCompare:
    def test_examples(self):
        s2 = AlgebraicReal.sqrt_rational(2)
        assert compare(s2, Fraction(3, 2)) < 0
        phi = AlgebraicReal.from_root([-1, -1, 1], 1, 2)
        phim1 = phi - 1
        cos36 = phi * Fraction(1, 2)
        assert compare(phim1, cos36) < 0
        assert compare(phim1, phim1) == 0

    def test_equal_through_different_routes(self):
        a = AlgebraicReal.sqrt_rational(2) * AlgebraicReal.sqrt_rational(3)
        b = AlgebraicReal.sqrt_rational(6)
        assert compare(a, b) == 0
        assert hash(a) == hash(b)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 11), st.integers(0, 11), st.integers(0, 11))
    def test_total_order_axioms(self, i, j, k):
        pool = _comparison_pool()
        a, b, c = pool[i], pool[j], pool[k]
        ab, ba = compare(a, b), compare(b, a)
        assert ab == -ba
        if ab == 0:
            assert float(a) == pytest.approx(float(b), abs=1e-12)
        if compare(a, b) <= 0 and compare(b, c) <= 0:
            assert compare(a, c) <= 0


_POOL = None


def _comparison_pool():
    global _POOL
    if _POOL is None:
        phi = AlgebraicReal.from_root([-1, -1, 1], 1, 2)
        _POOL = [
            AlgebraicReal.from_rational(Fraction(0)),
            AlgebraicReal.from_rational(Fraction(1, 2)),
            AlgebraicReal.from_rational(Fraction(-2, 3)),
            AlgebraicReal.sqrt_rational(2),
            AlgebraicReal.sqrt_rational(Fraction(1, 2)),
            -AlgebraicReal.sqrt_rational(3),
            phi,
            phi - 1,
            AlgebraicReal.sqrt_rational(2) + 1,
            AlgebraicReal.from_root([-1, 0, 0, 7], 0, 1),
            AlgebraicReal.sqrt_rational(2) * AlgebraicReal.sqrt_rational(2),
            AlgebraicReal.from_root([-1, 1, 1], 0, 1),
        ]
    return _POOL


class TestEndpointSignInvariant:
    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7, Fraction(1, 2), Fraction(3, 7)]), st.integers(1, 4))
    def test_minpoly_signs_at_endpoints(self, q, power):
        root = AlgebraicReal.sqrt_rational(q)
        x = root
        for _ in range(power - 1):
            x = x * root
        if x.is_rational:
            assert ip.eval_at(x.minpoly, x.as_fraction()) == 0
            return
        iv = x.interval()
        assert ip.sign_at(x.minpoly, iv.lo) * ip.sign_at(x.minpoly, iv.hi) < 0


class TestTotient:
    def test_examples(self):
        assert euler_totient(1) == 1
        assert euler_totient(5) == 4
        assert euler_totient(12) == 4

    def test_against_direct_count(self):
        for n in range(1, 200):
            direct = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
            assert euler_totient(n) == direct

    def test_totient_inverse_complete(self):
        assert sorted(totient_inverse(4)) == [5, 8, 10, 12]
        assert sorted(totient_inverse(1)) == [1, 2]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            euler_totient(0)


class TestEliminate:
    def test_linear_in_shared_generator(self):
        # p = s - t with t = sqrt(2): eliminant is s^2 - 2
        res = eliminate([[0, -1], [1]], [-2, 0, 1])
        assert res in [(-2, 0, 1), (2, 0, -1)]

    def test_rational_coefficients_passthrough(self):
        # coefficients constant in t: result is the polynomial itself (primitive)
        res = eliminate([[6], [0], [-2]], [-1, 2])  # -2s^2 + 6 with t = 1/2
        assert res == (-3, 0, 1) or res == (3, 0, -1)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            eliminate([[0]], [-2, 0, 1])


class TestSerialization:
    def test_round_trip(self):
        x = AlgebraicReal.sqrt_rational(Fraction(7, 3))
        blob = x.to_json()
        assert set(blob) == {"minpoly", "interval"}
        y = parse_real(blob)
        assert compare(x, y) == 0

    def test_interval_strings(self):
        x = AlgebraicReal.from_rational(Fraction(-3, 4))
        blob = x.to_json()
        assert blob["interval"] == ["-3/4", "-3/4"]

    def test_exact_json_spellings(self):
        x = AlgebraicReal.sqrt_rational(2)
        assert (exact_json(Fraction(1)), exact_json(Fraction(0))) == ("1/1", "0/1")
        assert exact_json(AlgebraicReal.from_rational(Fraction(-3, 4))) == "-3/4"
        assert exact_json(x) == x.to_json()
        assert exact_json(QPHI.element([Fraction(-7, 3), Fraction(5, 11)])) == "-7/3+5/11*phi"
        poly = MPoly(("s", "t"), {(1, 0): Fraction(3), (0, 2): Fraction(-1, 2)})
        assert exact_json(poly) == [[[0, 2], "-1/2"], [[1, 0], "3/1"]]
        doc = {"rank": 3, "ok": True, "det": None, "kind": "indefinite", "approx": 0.5, "x": (Fraction(1, 2), [x])}
        assert exact_json(doc) == {**doc, "x": ["1/2", [x.to_json()]]}

    @pytest.mark.parametrize("value", [object(), 1j, {1, 2}, Decimal(1)])
    def test_exact_json_refuses_what_has_no_exact_form(self, value):
        with pytest.raises(TypeError):
            exact_json(value)


def _substitute_term_by_term(poly, values):
    """MPoly.substitute as one product of powers per term."""
    out = MPoly.constant(poly.vars, Fraction(0))
    for e, c in poly.terms.items():
        term = MPoly.constant(poly.vars, c)
        for name, p in zip(poly.vars, e):
            if p and name in values:
                v = values[name]
                term = term * (v if isinstance(v, MPoly) else MPoly.constant(poly.vars, v)) ** p
            elif p:
                term = term * MPoly.variable(poly.vars, name) ** p
        out = out + term
    return out


def _evaluate_term_by_term(poly, values):
    """MPoly.evaluate as one product of single factors per term."""
    total = 0
    for e, c in poly.terms.items():
        term = c
        for name, p in zip(poly.vars, e):
            for _ in range(p):
                term = term * values[name]
        total = total + term
    return total


class TestMPolyMaps:
    VARS = ("s", "t", "L")

    @staticmethod
    def _value(rng, golden):
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        return QPHI.element([q, Fraction(rng.randint(-5, 5), rng.randint(1, 4))]) if golden else q

    def _poly(self, rng, golden, n_terms, degree):
        terms = {}
        for _ in range(n_terms):
            e = tuple(rng.randint(0, degree) for _ in self.VARS)
            terms[e] = self._value(rng, golden)
        return MPoly(self.VARS, terms)

    @pytest.mark.parametrize("golden", [False, True], ids=["Q", "Q(phi)"])
    def test_agree_with_term_by_term_expansion(self, golden):
        rng = random.Random(30 + golden)
        for _ in range(25):
            poly = self._poly(rng, golden, rng.randint(0, 12), 5)
            point = {name: self._value(rng, golden) for name in self.VARS}
            assert poly.evaluate(point) == _evaluate_term_by_term(poly, point)
            values = {"L": self._poly(rng, golden, rng.randint(0, 4), 2), "t": self._value(rng, golden)}
            for chosen in ({"L": values["L"]}, {"t": values["t"]}, values, {}):
                assert poly.substitute(chosen) == _substitute_term_by_term(poly, chosen)

    def test_zero_evaluates_to_the_values_zero(self):
        zero = MPoly(("t",))
        golden = zero.evaluate({"t": QPHI.element([Fraction(2, 3), 0])})
        assert golden == QPHI.zero and type(golden) is type(QPHI.zero) and exact_json(golden) == "0+0*phi"
        assert type(zero.evaluate({"t": Fraction(2, 3)})) is Fraction
        assert MPoly(()).evaluate({}) == Fraction(0)


class TestFloat:
    # float(Decimal) rounds correctly, and 60 digits put these values far
    # from any midpoint between two doubles
    @pytest.mark.parametrize(
        "lo,hi", [(Fraction(5, 12), Fraction(5, 8)), (Fraction(1, 2), Fraction(5, 8)), (Fraction(5, 12), Fraction(25, 39))]
    )
    def test_correctly_rounded_from_any_enclosure(self, lo, hi):
        # 1/phi, the root of x^2 + x - 1 in (0, 1): the midpoint of a 10^-17
        # enclosure rounded to ...948 or ...949 depending on the enclosure
        with localcontext() as ctx:
            ctx.prec = 60
            want = float((Decimal(5).sqrt() - 1) / 2)
        assert float(AlgebraicReal.from_root((-1, 1, 1), lo, hi)) == want == 0.6180339887498949

    @pytest.mark.parametrize("q", [Fraction(2), Fraction(1, 3), Fraction(7, 10**9), Fraction(10**12 + 3), Fraction(9, 7)])
    def test_square_roots_correctly_rounded(self, q):
        with localcontext() as ctx:
            ctx.prec = 60
            want = float((Decimal(q.numerator) / Decimal(q.denominator)).sqrt())
        assert float(AlgebraicReal.sqrt_rational(q)) == want
        assert float(-AlgebraicReal.sqrt_rational(q)) == -want
