"""Direct coverage for the field helpers behind the audit machinery."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reptile_forge.algebra import INV_PHI, INV_PHI2, PHI, QPHI, MPoly, NumberField
from reptile_forge.algebra import numberfield as nf
from reptile_forge.algebra.enclosure import acos_fraction_bounds, cos_bounds, pi_bounds

Q_SQRT2 = NumberField((-2, 0, 1), Fraction(1), Fraction(2), "r")


class TestNumberField:
    def test_reduction(self):
        # x^2 reduces to 2 in Q[x]/(x^2 - 2)
        assert Q_SQRT2.element([0, 0, 1]).c == (Fraction(2), Fraction(0))
        # x^3 = 2x
        assert Q_SQRT2.element([0, 0, 0, 1]).c == (Fraction(0), Fraction(2))

    def test_mul_inverse(self):
        a = Q_SQRT2.element([1, 1])  # 1 + sqrt2
        inv = a.inverse()
        assert a * inv == Q_SQRT2.one
        # (1 + sqrt2)^-1 = sqrt2 - 1
        assert inv.c == (Fraction(-1), Fraction(1))

    def test_division(self):
        a = QPHI.element([0, 1])  # phi
        b = QPHI.element([1, 1])  # 1 + phi = phi^2
        assert b / a == a  # phi^2 / phi = phi

    def test_zero_inverse_rejected(self):
        with pytest.raises(ZeroDivisionError):
            Q_SQRT2.zero.inverse()
        with pytest.raises(ZeroDivisionError):
            1 / Q_SQRT2.zero

    def test_to_algebraic(self):
        val = Q_SQRT2.element([Fraction(1, 2), Fraction(3)]).to_algebraic()
        # 1/2 + 3 sqrt2
        assert val.minpoly == (-71, -4, 4)
        assert float(val) == pytest.approx(0.5 + 3 * 2**0.5, abs=1e-12)

    def test_poly_gcd_picks_shared_conjugate(self):
        # D(t) = t - phi over Q(phi): gcd with t^2 - t - 1 is t - phi
        d = [-PHI, QPHI.one]
        m = [QPHI(c) for c in (-1, -1, 1)]
        g = nf.poly_gcd_in_t(d, m)
        assert len(g) == 2  # linear
        assert g[1] == QPHI.one
        assert g[0] == -PHI

    def test_poly_gcd_trivial_when_no_shared_root(self):
        d = [QPHI(5), QPHI.one]  # t + 5
        m = [QPHI(c) for c in (-1, -1, 1)]
        g = nf.poly_gcd_in_t(d, m)
        assert len(g) == 1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6))
    def test_field_axioms_sample(self, a0, a1, b0, b1):
        a = Q_SQRT2.element([a0, a1])
        b = Q_SQRT2.element([b0, b1])
        assert a * b == b * a
        if b:
            q = a / b
            assert q * b == a

    def test_mixed_fields_rejected(self):
        with pytest.raises(ValueError, match="number field"):
            PHI + Q_SQRT2.gen
        with pytest.raises(ValueError, match="number field"):
            QPHI(Q_SQRT2.one)


class TestGolden:
    def test_defining_identity(self):
        assert PHI * PHI == PHI + 1
        assert INV_PHI == PHI - 1
        assert INV_PHI2 == 1 / (PHI * PHI)

    def test_sign_near_zero(self):
        tiny = QPHI.element([-1, Fraction(10**9, 1618033989)])  # close to 0
        assert tiny.sign() in (-1, 0, 1)
        assert QPHI.zero.sign() == 0
        # b*phi + a = 0 only for a = b = 0
        assert QPHI.element([-8, 5]).sign() == (1 if 5 * 1.618 > 8 else -1)
        # a value the Fibonacci bracket cannot sign: 2971215073 phi - 4807526976
        straddling = QPHI.element([-4807526976, 2971215073])
        assert straddling.sign() == 1

    def test_to_algebraic_round_trip(self):
        g = QPHI.element([2, Fraction(-3, 2)])
        x = g.to_algebraic()
        assert float(x) == pytest.approx(2 - 1.5 * (1 + 5**0.5) / 2, abs=1e-12)

    def test_json_round_trip(self):
        g = QPHI.element([Fraction(-7, 3), Fraction(5, 11)])
        assert g.to_json() == "-7/3+5/11*phi"
        assert QPHI.from_json(g.to_json()) == g
        with pytest.raises(ValueError, match="malformed"):
            QPHI.from_json("1+2*psi")

    @settings(max_examples=80, deadline=None)
    @given(
        st.fractions(-5, 5, max_denominator=40),
        st.fractions(-5, 5, max_denominator=40),
        st.fractions(-5, 5, max_denominator=40),
        st.fractions(-5, 5, max_denominator=40),
    )
    def test_field_ops_match_floats(self, a, b, c, d):
        x, y = QPHI.element([a, b]), QPHI.element([c, d])
        assert float(x + y) == pytest.approx(float(x) + float(y), rel=1e-9, abs=1e-9)
        assert float(x * y) == pytest.approx(float(x) * float(y), rel=1e-9, abs=1e-9)
        if y and abs(float(y)) > 1e-6:
            assert float(x / y) == pytest.approx(float(x) / float(y), rel=1e-6, abs=1e-6)


# each field with its generator as a sympy expression
SYMPY_FIELDS = {
    "phi": (NumberField((-1, -1, 1), Fraction(1), Fraction(2), "phi"), "(1 + sqrt(5)) / 2"),
    "sqrt2": (Q_SQRT2, "sqrt(2)"),
    "cbrt2": (NumberField((-2, 0, 0, 1), Fraction(1), Fraction(2), "c"), "cbrt(2)"),
}


@pytest.mark.parametrize("name", sorted(SYMPY_FIELDS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_field_ops_match_sympy(name, data):
    """Sums, products, inverses, signs and minimal polynomials of random
    elements of Q(phi), Q(sqrt 2) and Q(cbrt 2) agree with sympy."""
    sympy = pytest.importorskip("sympy")
    field, gen_src = SYMPY_FIELDS[name]
    gen = sympy.sympify(gen_src)

    def to_sympy(x):
        return sum(sympy.Rational(c.numerator, c.denominator) * gen**k for k, c in enumerate(x.c))

    coords = st.lists(st.fractions(-4, 4, max_denominator=6), min_size=field.degree, max_size=field.degree)
    x, y = field.element(data.draw(coords)), field.element(data.draw(coords))
    sx, sy = to_sympy(x), to_sympy(y)
    assert sympy.simplify(to_sympy(x + y) - (sx + sy)) == 0
    assert sympy.simplify(to_sympy(x - y) - (sx - sy)) == 0
    assert sympy.simplify(to_sympy(x * y) - sx * sy) == 0
    if y:
        assert sympy.simplify(to_sympy(y.inverse()) * sy - 1) == 0
    assert x.sign() == int(sympy.sign(sx))
    if not x.is_rational:
        z = sympy.Symbol("z")
        want = [int(c) for c in reversed(sympy.Poly(sympy.minimal_polynomial(sx, z), z).all_coeffs())]
        content = math.gcd(*want) * (1 if want[-1] > 0 else -1)
        alg = x.to_algebraic()
        assert alg.minpoly == tuple(c // content for c in want)
        iv = alg.interval()
        assert float(iv.lo) - 1e-12 <= float(sx) <= float(iv.hi) + 1e-12


class TestConversionHistory:
    def test_enclosure_independent_of_earlier_conversions(self):
        # x^3 - 3x + 1 has three real roots, so conversions must refine the
        # bracket (1, 2) of the root 1.53 to tell an element's conjugates apart
        field = NumberField((1, -3, 0, 1), Fraction(1), Fraction(2), "c")
        state = dict(vars(field))
        x = field.element([Fraction(1, 3), 1])
        first = x.to_algebraic()
        first_iv = first.interval()
        # convert and refine other elements of the same field
        for coeffs in ([0, 0, 1], [1, 1, 1], [Fraction(-5, 7), 0, 3], [7, -2]):
            other = field.element(coeffs).to_algebraic()
            other.refine_below(Fraction(1, 10**40))
            field.element(coeffs).sign()
        again = x.to_algebraic()
        assert (again.minpoly, again.interval()) == (first.minpoly, first_iv)
        assert vars(field) == state
        assert (field.lo, field.hi) == (Fraction(1), Fraction(2))


class TestMPoly:
    V = ("s", "t")

    def test_ring_identities(self):
        s = MPoly.variable(self.V, "s")
        t = MPoly.variable(self.V, "t")
        one = MPoly.constant(self.V, Fraction(1))
        assert (s + t) ** 2 == s**2 + 2 * s * t + t**2
        assert (s - s).is_zero
        assert (s + one) * (s - one) == s**2 - one

    def test_substitute_partial(self):
        s = MPoly.variable(self.V, "s")
        t = MPoly.variable(self.V, "t")
        p = s**2 + t
        q = p.substitute({"t": Fraction(3)})
        assert q == s**2 + MPoly.constant(self.V, Fraction(3))

    def test_evaluate_requires_all_vars(self):
        s = MPoly.variable(self.V, "s")
        with pytest.raises(ValueError, match="unbound"):
            s.evaluate({"s": Fraction(1)} | {})
        # both bound works
        t = MPoly.variable(self.V, "t")
        assert (s * t).evaluate({"s": Fraction(2), "t": Fraction(5)}) == 10

    def test_mixed_variable_sets_rejected(self):
        s = MPoly.variable(("s",), "s")
        t = MPoly.variable(("t",), "t")
        with pytest.raises(ValueError, match="mixed"):
            s + t


class TestEnclosures:
    def test_pi_tightens(self):
        w1 = pi_bounds(Fraction(1, 10**6))
        w2 = pi_bounds(Fraction(1, 10**30))
        assert w2[1] - w2[0] < Fraction(1, 10**30)
        assert w1[0] <= w2[0] and w2[1] <= w1[1]

    def test_cos_bracket_contains_truth(self):
        import math

        for num, den in [(1, 3), (7, 5), (22, 7), (-3, 2)]:
            lo, hi = cos_bounds(Fraction(num, den), Fraction(1, 10**12))
            assert float(lo) <= math.cos(num / den) <= float(hi)

    def test_acos_near_minus_one(self):
        import math

        lo, hi = acos_fraction_bounds(Fraction(-999999, 10**6), Fraction(1, 10**4))
        assert float(lo) <= math.acos(-0.999999) <= float(hi)

    def test_acos_endpoints(self):
        assert acos_fraction_bounds(Fraction(1), Fraction(1, 100)) == (0, 0)
        lo, hi = acos_fraction_bounds(Fraction(-1), Fraction(1, 100))
        import math

        assert float(lo) <= math.pi <= float(hi)
