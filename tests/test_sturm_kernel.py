"""The integer Sturm kernel: sign evaluation, bisection, and one isolation
per minimal polynomial in the cosine catalogs."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reptile_forge.algebra import algebraic, sturm, sturm_isolate
from reptile_forge.algebra import intpoly as ip
from reptile_forge.trig import RationalAngle, catalog, cos_two_pi_minpoly, cosine_of

polys = st.lists(st.integers(-10**6, 10**6), min_size=0, max_size=12).map(ip.poly)
fractions = st.builds(Fraction, st.integers(-10**9, 10**9), st.integers(1, 10**9))


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def _fraction_bisection(p, lo, hi, width):
    """refine_root as plain Fraction bisection with eval_at signs."""
    if lo == hi:
        return lo, hi
    slo = _sign(ip.eval_at(p, lo))
    while hi - lo >= width:
        m = (lo + hi) / 2
        sm = _sign(ip.eval_at(p, m))
        if sm == 0:
            return m, m
        if sm == slo:
            lo = m
        else:
            hi = m
    return lo, hi


class TestSignAt:
    @settings(max_examples=300, deadline=None)
    @given(polys, fractions)
    def test_matches_fraction_horner(self, p, x):
        assert ip.sign_at(p, x) == _sign(ip.eval_at(p, x))

    @settings(max_examples=200, deadline=None)
    @given(polys, fractions, st.integers(1, 50))
    def test_unreduced_ratio(self, p, x, k):
        # b^n p(a/b) keeps the sign of p(a/b) for any positive b
        assert ip.sign_at_ratio(p, k * x.numerator, k * x.denominator) == _sign(ip.eval_at(p, x))

    def test_integer_argument(self):
        p = (-6, 11, -6, 1)  # (x - 1)(x - 2)(x - 3)
        assert [ip.sign_at(p, x) for x in range(5)] == [-1, 0, 0, 0, 1]

    def test_exact_rational_root(self):
        p = (1, -5, 6)  # (2x - 1)(3x - 1)
        assert ip.sign_at(p, Fraction(1, 3)) == 0
        assert ip.sign_at(p, Fraction(1, 2)) == 0
        assert ip.sign_at(p, Fraction(2, 5)) == -1


class TestDeepIsolation:
    def test_roots_that_take_thousands_of_halvings(self):
        # x^4 - 2 10^200 x^2 + 4 10^100 x - 2: two roots near 10^-100 within
        # 10^-298 of each other, inside a root bound above 10^200, so the
        # bisection runs far deeper than Python's recursion limit
        p = (-2, 4 * 10**100, -2 * 10**200, 0, 1)
        seq = sturm.sturm_sequence(p)
        ivs = sturm.isolate_roots(p)
        assert len(ivs) == 4
        for (a, b), (c, d) in zip(ivs, ivs[1:]):
            assert a < b <= c < d
        for a, b in ivs:
            assert ip.sign_at(p, a) != 0 != ip.sign_at(p, b)
            assert sturm.count_roots(seq, a, b) == 1
        (a, _), (_, d) = ivs[1], ivs[2]
        assert 0 < a and d - a < Fraction(1, 10**298)


class TestRefineRoot:
    CASES = [
        ((-2, 0, 1), Fraction(1), Fraction(2)),  # sqrt 2
        ((-1, 0, 2), Fraction(2, 3), Fraction(5, 7)),  # sqrt(1/2), odd denominators
        ((-1, 4), Fraction(0), Fraction(1)),  # 1/4 is hit by a midpoint
        ((-3, 0, 0, 7), Fraction(-1, 3), Fraction(11, 5)),  # (3/7)^(1/3)
        ((1, -1, -1), Fraction(-2), Fraction(-1)),  # -phi
    ]

    @pytest.mark.parametrize("p,lo,hi", CASES)
    @pytest.mark.parametrize("width", [Fraction(1), Fraction(1, 3), Fraction(1, 2**20), Fraction(7, 10**30)])
    def test_same_endpoints_as_fraction_bisection(self, p, lo, hi, width):
        assert sturm.refine_root(p, lo, hi, width) == _fraction_bisection(p, lo, hi, width)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 10**6), st.integers(1, 10**3), st.integers(1, 80))
    def test_square_roots(self, n, q, bits):
        p = (-n, 0, q)  # root sqrt(n / q)
        lo, hi = Fraction(0), Fraction(n + q, q)
        width = Fraction(1, 2**bits)
        assert sturm.refine_root(p, lo, hi, width) == _fraction_bisection(p, lo, hi, width)

    def test_catalog_intervals(self):
        for n in (45, 59):
            mp = cos_two_pi_minpoly(n)
            for lo, hi in sturm.isolate_roots(mp):
                w = Fraction(1, 10**25)
                assert sturm.refine_root(mp, lo, hi, w) == _fraction_bisection(mp, lo, hi, w)

    def test_rejects_non_isolating_interval(self):
        with pytest.raises(ValueError):
            sturm.refine_root((-2, 0, 1), Fraction(2), Fraction(3), Fraction(1, 8))


quadratics = st.tuples(
    st.integers(-10**4, 10**4), st.integers(-10**4, 10**4), st.integers(1, 10**3), st.sampled_from((1, -1))
).map(lambda t: ip.poly((t[0], t[1], t[2] * t[3])))
QUADRATIC_WIDTHS = st.one_of(
    st.sampled_from((Fraction(1, 10**12), Fraction(1, 10**17))),
    st.integers(0, 90).map(lambda k: Fraction(1, 2**k)),
    st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**24)),
)


class TestQuadraticBracket:
    """An irreducible quadratic's bracket comes in closed form; every other
    polynomial is bisected.  _fraction_bisection is the reference."""

    @settings(max_examples=400, deadline=None)
    @given(quadratics, QUADRATIC_WIDTHS)
    def test_isolated_roots_match_bisection(self, p, width):
        assume(ip.degree(p) == 2 and p[1] * p[1] != 4 * p[0] * p[2])  # squarefree
        for lo, hi in sturm.isolate_roots(p):
            assert sturm.refine_root(p, lo, hi, width) == _fraction_bisection(p, lo, hi, width)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 10**9), st.integers(1, 10**9), QUADRATIC_WIDTHS, st.sampled_from((1, -1)))
    def test_square_root_brackets_match_bisection(self, num, den, width, lead):
        q = Fraction(num, den)
        assume(math.isqrt(q.numerator) ** 2 != q.numerator or math.isqrt(q.denominator) ** 2 != q.denominator)
        p = (-lead * q.numerator, 0, lead * q.denominator)
        for lo, hi in (algebraic._sqrt_bounds(q, Fraction(1, 16)), algebraic._sqrt_bounds(q, Fraction(1, 2**24))):
            assert sturm.refine_root(p, lo, hi, width) == _fraction_bisection(p, lo, hi, width)
            # the negative root, through the mirrored bracket
            assert sturm.refine_root(p, -hi, -lo, width) == _fraction_bisection(p, -hi, -lo, width)

    def test_two_signs_and_no_bisection(self, monkeypatch):
        calls = []
        real = ip.sign_at_ratio
        monkeypatch.setattr(ip, "sign_at_ratio", lambda *args: calls.append(args) or real(*args))
        lo, hi = Fraction(1), Fraction(2)
        got = sturm.refine_root((-2, 0, 1), lo, hi, Fraction(1, 10**17))
        assert len(calls) == 2
        monkeypatch.undo()
        assert got == _fraction_bisection((-2, 0, 1), lo, hi, Fraction(1, 10**17))

    @pytest.mark.parametrize(
        "p,lo,hi",
        [
            ((-3, 11, 4), Fraction(0), Fraction(1)),  # (4x - 1)(x + 3): bisection hits 1/4
            ((3, -11, -4), Fraction(0), Fraction(1)),
            ((-1, 0, 4), Fraction(0), Fraction(1)),  # 1/2, the first midpoint
            ((-6, 1, 1), Fraction(1), Fraction(5)),  # (x - 2)(x + 3): 2 is no midpoint
        ],
    )
    @pytest.mark.parametrize("width", [Fraction(1, 3), Fraction(1, 10**12), Fraction(1, 10**17)])
    def test_reducible_quadratics_keep_bisection(self, p, lo, hi, width):
        got = sturm.refine_root(p, lo, hi, width)
        assert got == _fraction_bisection(p, lo, hi, width)
        if p[0] in (-3, 3, -1) and width < Fraction(1, 4):
            root = Fraction(1, 4) if p[0] != -1 else Fraction(1, 2)
            assert got == (root, root)


def _angles_over(q: int) -> list[RationalAngle]:
    return [RationalAngle.of(p, q) for p in range(1, q) if math.gcd(p, q) == 1]


class TestCosineIntervals:
    def _check(self, angle: RationalAngle, isolated: dict) -> None:
        c = cosine_of(angle)
        if c.is_rational:
            return
        if c.minpoly not in isolated:
            isolated[c.minpoly] = sturm.isolate_roots(c.minpoly)
        roots = isolated[c.minpoly]
        want = math.cos(math.pi * angle.p / angle.q)
        (home,) = [iv for iv in roots if float(iv[0]) < want < float(iv[1])]
        assert (c.interval().lo, c.interval().hi) == home

    def test_catalogs_one_to_eight(self):
        isolated = {}
        for d in range(1, 9):
            for angle, _ in catalog(d).entries:
                self._check(angle, isolated)

    def test_sweep_over_59(self):
        isolated = {}
        for angle in _angles_over(59):
            self._check(angle, isolated)

    def test_one_isolation_per_minimal_polynomial(self, monkeypatch):
        calls = []
        real = sturm.isolate_roots

        def counting(p, *args, **kwargs):
            calls.append(p)
            return real(p, *args, **kwargs)

        monkeypatch.setattr(sturm, "isolate_roots", counting)
        algebraic._root_intervals.cache_clear()
        try:
            for angle in _angles_over(59):
                cosine_of(angle)
        finally:
            algebraic._root_intervals.cache_clear()
        assert sorted(calls) == sorted({cos_two_pi_minpoly(59), cos_two_pi_minpoly(118)})


small_polys = st.lists(st.integers(-20, 20), min_size=0, max_size=6).map(ip.poly)
nonzero_polys = small_polys.filter(bool)


def _normal(p):
    """Primitive part with positive leading coefficient, as a tuple."""
    return ip.primitive(ip.poly(p))


class TestIntegerKernelMatchesSympy:
    """div_exact, gcd_poly, squarefree_part and Sturm counts agree with sympy."""

    @staticmethod
    def _sympy_poly(p):
        sympy = pytest.importorskip("sympy")
        return sympy.Poly(list(reversed(p)) or [0], sympy.Symbol("x"), domain="QQ")

    @staticmethod
    def _coeffs(poly):
        return ip.poly(int(c) for c in reversed(poly.all_coeffs())) if not poly.is_zero else ()

    @settings(max_examples=300, deadline=None)
    @given(nonzero_polys, small_polys, st.one_of(st.just(ip.ZERO), small_polys), st.integers(1, 4))
    def test_div_exact(self, q, c, r, m):
        # p = q c + r divided by m q: exact, inexact, or with a non-integral quotient
        p = ip.add(ip.mul(q, c), r)
        d = ip.scale(q, m)
        quo, rem = self._sympy_poly(p).div(self._sympy_poly(d))
        if rem.is_zero and all(x.is_integer for x in quo.all_coeffs()):
            assert ip.div_exact(p, d) == self._coeffs(quo)
            assert ip.divides(d, p)
        else:
            with pytest.raises(ValueError):
                ip.div_exact(p, d)
            assert not ip.divides(d, p)

    def test_div_exact_refusals(self):
        with pytest.raises(ValueError, match="inexact"):
            ip.div_exact((1, 0, 1), (-1, 1))  # x^2 + 1 = (x - 1)(x + 1) + 2
        with pytest.raises(ValueError, match="not integral"):
            ip.div_exact((1, 1), (2, 2))  # quotient 1/2
        with pytest.raises(ZeroDivisionError):
            ip.div_exact((1, 1), ip.ZERO)

    @settings(max_examples=200, deadline=None)
    @given(small_polys, small_polys, nonzero_polys)
    def test_gcd_poly(self, a, b, g):
        sympy = pytest.importorskip("sympy")
        p, q = ip.mul(a, g), ip.mul(b, g)
        want = sympy.gcd(self._sympy_poly(p), self._sympy_poly(q))
        assert ip.gcd_poly(p, q) == _normal(self._coeffs(want.clear_denoms()[1]))

    @settings(max_examples=200, deadline=None)
    @given(nonzero_polys, nonzero_polys, st.integers(1, 3))
    def test_squarefree_part(self, a, b, k):
        p = ip.mul(a, ip.pow_poly(b, k))
        want = self._sympy_poly(p).sqf_part()
        assert ip.squarefree_part(p) == _normal(self._coeffs(want.clear_denoms()[1]))

    @settings(max_examples=200, deadline=None)
    @given(nonzero_polys, nonzero_polys, st.integers(1, 3), fractions, fractions)
    def test_sturm_counts(self, a, b, k, x, y):
        sympy = pytest.importorskip("sympy")
        p = ip.mul(a, ip.pow_poly(b, k))
        lo, hi = min(x, y) / 10**7, max(x, y) / 10**7
        assume(lo < hi)
        seq = sturm.sturm_sequence(p)
        sqf = self._sympy_poly(p).sqf_part()
        # sympy counts distinct roots on [lo, hi]; the chain counts (lo, hi]
        want = sqf.count_roots(sympy.Rational(lo.numerator, lo.denominator),
                               sympy.Rational(hi.numerator, hi.denominator))
        want -= ip.eval_at(p, lo) == 0
        assert sturm.count_roots(seq, lo, hi) == want
        bound = ip.root_bound(ip.squarefree_part(p))
        assert sturm.count_roots(seq, -bound, bound) == sqf.count_roots()


class TestOneSquarefreePartPerChain:
    """A Sturm chain's first entry is the squarefree part, so no caller
    computes it again just to build the chain."""

    @staticmethod
    def _counting(monkeypatch, module, name) -> list:
        seen = []
        real = getattr(module, name)

        def counting(p):
            seen.append(p)
            return real(p)

        monkeypatch.setattr(module, name, counting)
        return seen

    def test_calls_on_cos_two_pi_over_59(self, monkeypatch):
        p = cos_two_pi_minpoly(59)
        seen = self._counting(monkeypatch, ip, "squarefree_part")
        counts = {}
        for name, call in [
            ("sturm_isolate", sturm_isolate),
            ("isolate_roots", sturm.isolate_roots),
            ("rational_roots", sturm.rational_roots),
        ]:
            seen.clear()
            call(p)
            counts[name] = len(seen)
        # sturm_isolate and rational_roots keep one of their own: snap_rational
        # needs the squarefree polynomial
        assert counts == {"sturm_isolate": 2, "isolate_roots": 1, "rational_roots": 2}

    def test_from_root_only_in_chains(self, monkeypatch):
        p = cos_two_pi_minpoly(17)
        lo, hi = sturm.isolate_roots(p)[-1]
        parts = self._counting(monkeypatch, ip, "squarefree_part")
        chains = self._counting(monkeypatch, sturm, "sturm_sequence")
        algebraic.AlgebraicReal.from_root(p, lo, hi, [p])
        assert chains and len(parts) == len(chains)

    def test_from_root_builds_one_chain(self, monkeypatch):
        # the chain of the defining polynomial also serves the owning
        # factor's root count and the final shrink when they are the same
        p = cos_two_pi_minpoly(17)
        lo, hi = sturm.isolate_roots(p)[-1]
        chains = self._counting(monkeypatch, sturm, "sturm_sequence")
        x = algebraic.AlgebraicReal.from_root(p, lo, hi, [p])
        assert chains == [p]
        assert x.minpoly == p and x.compare(cosine_of(RationalAngle.of(2, 17))) == 0
