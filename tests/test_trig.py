"""Rational-angle cosine classifier: minimal polynomials, degrees, catalogs."""

import math
from fractions import Fraction

import pytest
import sympy

from reptile_forge.algebra import AlgebraicReal, euler_totient
from reptile_forge.algebra import intpoly as ip
from reptile_forge.algebra.sturm import isolate_roots
from reptile_forge.jsonio import parse_real
from reptile_forge.trig import (
    RationalAngle,
    acos_enclosure,
    catalog,
    cos_two_pi_minpoly,
    cosine_degree,
    cosine_of,
    cyclotomic,
    match_rational_angle,
)


class TestRationalAngle:
    def test_canonicalization(self):
        assert RationalAngle.of(7, 3) == RationalAngle.of(1, 3) or RationalAngle.of(
            7, 3
        ).fraction_of_pi <= 1
        # 7pi/3 folds to pi/3; 5pi/4 reflects to 3pi/4
        assert RationalAngle.of(7, 3) == RationalAngle.of(1, 3)
        assert RationalAngle.of(5, 4) == RationalAngle.of(3, 4)
        assert RationalAngle.of(-1, 4) == RationalAngle.of(1, 4)

    def test_two_pi_form(self):
        assert RationalAngle.of(1, 3).two_pi_form() == (1, 6)
        assert RationalAngle.of(2, 5).two_pi_form() == (1, 5)

    def test_lowest_terms_enforced(self):
        with pytest.raises(ValueError):
            RationalAngle(2, 4)

    def test_degrees(self):
        assert RationalAngle.of(1, 4).degrees == 45

    def test_enclosure(self):
        lo, hi = RationalAngle.of(1, 3).enclosure(Fraction(1, 10**9))
        assert float(lo) <= math.pi / 3 <= float(hi)


class TestCyclotomic:
    def test_small_cases(self):
        assert cyclotomic(1) == (-1, 1)
        assert cyclotomic(2) == (1, 1)
        assert cyclotomic(3) == (1, 1, 1)
        assert cyclotomic(4) == (1, 0, 1)
        assert cyclotomic(12) == (1, 0, -1, 0, 1)

    def test_product_recovers_power(self):
        # prod over d | n of cyclotomic(d) = x^n - 1
        from reptile_forge.algebra import intpoly as ip

        for n in (6, 10, 12, 15):
            prod = (1,)
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = ip.mul(prod, cyclotomic(d))
            assert prod == ip.poly([-1] + [0] * (n - 1) + [1])


class TestCosineOf:
    def test_pi_over_3(self):
        c = cosine_of(RationalAngle.of(1, 3))
        assert c.is_rational and c.as_fraction() == Fraction(1, 2)

    def test_72_degrees(self):
        c = cosine_of(RationalAngle.of(2, 5))
        assert c.minpoly == (-1, 2, 4)  # 4x^2 + 2x - 1
        assert float(c) == pytest.approx(0.309, abs=1e-3)

    def test_15_degrees_quartic(self):
        c = cosine_of(RationalAngle.of(1, 12))
        assert c.degree == 4
        assert float(c) == pytest.approx(0.966, abs=1e-3)

    def test_degenerate_endpoints(self):
        assert cosine_of(RationalAngle.of(0, 1)).as_fraction() == 1
        assert cosine_of(RationalAngle.of(1, 1)).as_fraction() == -1

    def test_supplement_symmetry(self):
        for p, q in [(1, 3), (2, 5), (1, 12), (3, 8), (5, 7), (1, 15)]:
            a = RationalAngle.of(p, q)
            assert cosine_of(a.supplement()) == -cosine_of(a)

    def test_against_float_cosine(self):
        for p, q in [(1, 5), (3, 7), (2, 9), (5, 11), (1, 16)]:
            a = RationalAngle.of(p, q)
            assert float(cosine_of(a)) == pytest.approx(math.cos(math.pi * p / q), abs=1e-12)


class TestCosineDegree:
    def test_examples(self):
        assert cosine_degree(RationalAngle.of(1, 4)) == 2  # 45 degrees
        assert cosine_degree(RationalAngle.of(1, 3)) == 1  # 60 degrees
        assert cosine_degree(RationalAngle.of(7, 15)) == 4  # 84 degrees

    @pytest.mark.parametrize("n", range(1, 61))
    def test_totient_rule_for_all_small_orders(self, n):
        for m in range(n + 1):
            if math.gcd(m, n) != 1:
                continue
            ang = RationalAngle.of(2 * m, n)
            _, order = ang.two_pi_form()
            d = cosine_degree(ang)
            if order >= 3:
                assert d == euler_totient(order) // 2
            else:
                assert d == 1
            assert cosine_of(ang).degree == d


class TestCatalog:
    def test_degree_one(self):
        vals = sorted(x.as_fraction() for x in catalog(1).cosines())
        assert vals == [Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1)]

    def test_degree_two_matches_reference_decimals(self):
        cat = catalog(2)
        assert len(cat) == 8
        approx = sorted(float(c) for c in cat.cosines())
        expected = sorted(
            [0.309, 0.707, 0.809, 0.866, -0.309, -0.707, -0.809, -0.866]
        )
        for a, b in zip(approx, expected):
            assert a == pytest.approx(b, abs=1e-3)

    def test_degree_four_matches_reference_decimals(self):
        cat = catalog(4)
        assert len(cat) == 20
        ref = [0.105, 0.259, 0.383, 0.588, 0.669, 0.914, 0.924, 0.951, 0.966, 0.978]
        approx = sorted(float(c) for c in cat.cosines())
        expected = sorted(ref + [-v for v in ref])
        for a, b in zip(approx, expected):
            assert a == pytest.approx(b, abs=1e-3)

    def test_entries_sorted_and_distinct(self):
        for d in (1, 2, 4):
            cs = catalog(d).cosines()
            for a, b in zip(cs, cs[1:]):
                assert a.compare(b) < 0
            for _, c in catalog(d).entries:
                assert c.degree == d


class TestMatchRationalAngle:
    def test_half(self):
        assert match_rational_angle(Fraction(1, 2)) == RationalAngle.of(1, 3)

    def test_golden_value_unmatched(self):
        phim1 = AlgebraicReal.from_root([-1, 1, 1], 0, 1)
        assert match_rational_angle(phim1) is None

    def test_quartic_case_root_unmatched(self):
        # a determinant root near -0.348 (quartic) matches nothing
        root = AlgebraicReal.from_root(
            (-1, -8, -18, -8, 4), Fraction(-36, 100), Fraction(-34, 100)
        )
        assert root.degree == 4
        assert match_rational_angle(root) is None

    def test_domain_error(self):
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            match_rational_angle(Fraction(3, 2))

    @pytest.mark.parametrize("q", range(1, 61))
    def test_round_trip_identity(self, q):
        for p in range(q + 1):
            if math.gcd(p, q) != 1:
                continue
            ang = RationalAngle.of(p, q)
            if cosine_degree(ang) > 8:
                continue
            assert match_rational_angle(cosine_of(ang)) == ang

    @pytest.mark.parametrize("p, q", [(2, 19), (4, 27), (2, 59), (6, 59)])
    def test_cosines_past_degree_eight_match(self, p, q):
        ang = RationalAngle.of(p, q)
        assert cosine_degree(ang) > 8
        assert match_rational_angle(cosine_of(ang)) == ang

    def test_degree_nine_non_cosine_unmatched(self):
        # 2^(-1/9), the real root of 2x^9 - 1 (irreducible: its reversal
        # x^9 - 2 is Eisenstein at 2)
        root = AlgebraicReal((-1, 0, 0, 0, 0, 0, 0, 0, 0, 2), (Fraction(9, 10), Fraction(1)), _trusted=True)
        assert root.degree == 9
        assert match_rational_angle(root) is None


def _reference_match(x):
    """The catalog scan the matcher replaced: exact comparison with every
    cosine of x's degree."""
    if isinstance(x, Fraction):
        x = AlgebraicReal.from_rational(x)
    if x.compare(Fraction(-1)) < 0 or x.compare(Fraction(1)) > 0:
        raise ValueError("cosine values lie in [-1, 1]")
    if x.degree > 8:
        return None
    for ang, cos in catalog(x.degree).entries:
        if cos == x:
            return ang
    return None


def _wide_specs(minpoly):
    """One {"minpoly", "interval"} object per real root, each interval
    reaching to its neighbours' isolating intervals (or past the outer
    roots), so the matcher starts from coarse enclosures."""
    ivs = isolate_roots(minpoly)
    bound = ip.root_bound(minpoly)
    los = [-bound] + [hi for _, hi in ivs[:-1]]
    his = [lo for lo, _ in ivs[1:]] + [bound]
    return [
        {"minpoly": list(minpoly), "interval": [str(lo), str(hi)]} for lo, hi in zip(los, his)
    ]


def _chebyshev_off_cosines(d: int):
    """3 T_d(x) - 1: its roots are cos((arccos(1/3) + 2 pi k)/d), and
    arccos(1/3)/pi is irrational."""
    x = sympy.symbols("x")
    coeffs = sympy.Poly(3 * sympy.chebyshevt(d, x) - 1, x).all_coeffs()
    return ip.primitive(ip.poly([int(c) for c in reversed(coeffs)]))


# totally real irreducible polynomials none of whose roots is a
# rational-angle cosine: the final-cases quartic and 3 T_d(x) - 1
_NON_COSINES = [(-1, -8, -18, -8, 4)] + [_chebyshev_off_cosines(d) for d in range(2, 9)]


class TestMatchAgainstReferenceScan:
    def test_every_conjugate_from_a_wide_interval(self):
        for n in range(3, 61):
            mp = cos_two_pi_minpoly(n)
            if ip.degree(mp) > 8:
                continue
            for spec in _wide_specs(mp):
                got = match_rational_angle(parse_real(spec))
                assert got is not None
                assert got == _reference_match(parse_real(spec)), spec

    @pytest.mark.parametrize(
        "value", ["0", "1/2", "-1/2", "1", "-1", "1/3", "-2/5", "sqrt(2)/2", "sqrt(3)/7"]
    )
    def test_rationals_and_surds(self, value):
        assert match_rational_angle(parse_real(value)) == _reference_match(parse_real(value))

    @pytest.mark.parametrize("minpoly", _NON_COSINES, ids=lambda p: f"degree{len(p) - 1}")
    def test_non_cosines(self, minpoly):
        for spec in _wide_specs(minpoly):
            x = parse_real(spec)
            if x.compare(Fraction(-1)) < 0 or x.compare(Fraction(1)) > 0:
                with pytest.raises(ValueError):
                    match_rational_angle(parse_real(spec))
                continue
            assert match_rational_angle(parse_real(spec)) is None
            assert _reference_match(parse_real(spec)) is None

    def test_matching_builds_no_catalog(self, monkeypatch):
        import reptile_forge.trig as trig

        def refuse(degree):
            raise AssertionError("catalog built")

        monkeypatch.setattr(trig, "catalog", refuse)
        assert match_rational_angle(cosine_of(RationalAngle.of(13, 17))) == RationalAngle.of(13, 17)


class TestAcosEnclosure:
    def test_fraction(self):
        lo, hi = acos_enclosure(Fraction(1, 3), Fraction(1, 10**6))
        assert hi - lo < Fraction(1, 10**6)
        assert float(lo) <= math.acos(1 / 3) <= float(hi)

    def test_algebraic(self):
        x = AlgebraicReal.sqrt_rational(2) * Fraction(1, 2)
        lo, hi = acos_enclosure(x, Fraction(1, 10**6))
        assert float(lo) <= math.pi / 4 <= float(hi)
