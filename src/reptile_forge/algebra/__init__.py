"""Exact number tower: integer polynomials, Sturm isolation, algebraic reals.

Public surface:

- ``sturm_isolate(p, interval)``: one rational interval per distinct real root
- ``is_irreducible(p)`` / ``irreducible_factors(p)``: Zassenhaus factoring over Z[x], any degree
- ``AlgebraicReal`` with exact arithmetic, comparison, and refinement
- ``arith`` / ``compare`` / ``refine``: operation-style wrappers
- ``euler_totient(n)``
- ``eliminate``: resultant elimination of a shared generator
- ``NumberField`` / ``FieldElement`` / ``MPoly``: number fields Q[x]/(m), the
  golden-ratio field ``QPHI`` among them, and a small symbolic ring
- ``det``: the determinant over any of these rings (``linalg.det``)
- ``exact_json(x)``: the one JSON spelling of every exact value
"""

from __future__ import annotations

from fractions import Fraction

from . import enclosure, intpoly, sturm
from .algebraic import (
    DEGREE_CAP,
    AlgebraicReal,
    DegreeOverflowError,
    Interval,
    _ratio,
    arith,
    as_algebraic,
    compare,
    refine,
)
from .factor import FactorError, irreducible_factors, is_irreducible
from .intpoly import Poly
from .linalg import det, det_int
from .multipoly import MPoly
from .numberfield import INV_PHI, INV_PHI2, PHI, QPHI, FieldElement, NumberField

__all__ = [
    "AlgebraicReal",
    "DegreeOverflowError",
    "DEGREE_CAP",
    "FactorError",
    "FieldElement",
    "Fraction",
    "Interval",
    "MPoly",
    "NumberField",
    "PHI",
    "INV_PHI",
    "INV_PHI2",
    "QPHI",
    "Poly",
    "arith",
    "as_algebraic",
    "compare",
    "det",
    "eliminate",
    "enclosure",
    "euler_totient",
    "exact_json",
    "intpoly",
    "irreducible_factors",
    "is_irreducible",
    "refine",
    "sturm",
    "sturm_isolate",
    "totient_inverse",
]


def exact_json(x):
    """The JSON form of an exact value, the same at every writer.

    int, bool, None, str and float pass through: ranks, indices, counts and
    ``approx``.  A Fraction is "p/q", "1/1" and "0/1" included; an
    AlgebraicReal is "p/q" when rational, else its {"minpoly", "interval"}
    object; a FieldElement is its literal, in ``NumberField.from_json``'s
    grammar; an MPoly is its terms [[exponents, coefficient], ...], sorted.
    A tuple or list becomes a list and a dict a dict of encoded values.
    Anything else is a TypeError: nothing is printed by its repr.
    """
    if isinstance(x, (tuple, list)):
        # Fraction items without a call: vertex lists are most of what
        # a Hill subdivision prints
        return [_ratio(v) if type(v) is Fraction else exact_json(v) for v in x]
    if isinstance(x, Fraction):
        return _ratio(x)
    if x is None or isinstance(x, (int, str, float)):
        return x
    if isinstance(x, AlgebraicReal):
        return _ratio(x.as_fraction()) if x.is_rational else x.to_json()
    if isinstance(x, FieldElement):
        return x.to_json()
    if isinstance(x, MPoly):
        return [[list(e), exact_json(c)] for e, c in sorted(x.terms.items())]
    if isinstance(x, dict):
        return {k: exact_json(v) for k, v in x.items()}
    raise TypeError(f"no exact JSON form for {type(x).__name__}")


def sturm_isolate(p, interval: tuple | Interval | None = None) -> list[Interval]:
    """Isolating intervals for the distinct real roots of p.

    ``interval`` restricts the search to an open range.  Rational roots come
    back as degenerate point intervals (r, r).
    """
    p = intpoly.poly(p)
    if intpoly.is_zero(p):
        raise ValueError("undefined root set: zero polynomial")
    lo = hi = None
    if interval is not None:
        lo, hi = (interval.lo, interval.hi) if isinstance(interval, Interval) else interval
    f = intpoly.squarefree_part(p)
    return [Interval(*sturm.snap_rational(f, a, b)) for a, b in sturm.isolate_roots(f, lo, hi)]


def euler_totient(n: int) -> int:
    """Count of integers in [1, n] coprime to n, by trial-division factoring."""
    if n < 1:
        raise ValueError("totient is defined for positive integers")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1 if p == 2 else 2
    if m > 1:
        result -= result // m
    return result


def totient_inverse(value: int, bound: int | None = None) -> list[int]:
    """All n with euler_totient(n) == value, searched up to a safe bound.

    phi(n) >= sqrt(n/2) gives n <= 2*value^2 as a complete search range.
    """
    if value < 1:
        return []
    limit = bound if bound is not None else 2 * value * value
    limit = max(limit, 2)
    return [n for n in range(1, limit + 1) if euler_totient(n) == value]


def eliminate(coeffs_in_t: list, t_minpoly) -> Poly:
    """Eliminate the generator t from  sum_j c_j(t) * s^j  by a resultant.

    ``coeffs_in_t[j]`` is the integer polynomial in t multiplying s^j; the
    result is an integer polynomial in s whose real roots include every s
    at which the input vanishes for t a root of ``t_minpoly``.  Spurious
    roots (from conjugates of t) are the caller's to filter.
    """
    tp = intpoly.poly(t_minpoly)
    if intpoly.degree(tp) < 1:
        raise ValueError("generator minimal polynomial must be nonconstant")
    cs = [intpoly.poly(c) for c in coeffs_in_t]
    while cs and intpoly.is_zero(cs[-1]):
        cs.pop()
    if not cs:
        raise ValueError("zero polynomial has no eliminant")
    # view the input as a polynomial in t whose coefficients are in s:
    # formal degree in t must stay fixed so interpolation sees one determinant
    deg_t = max(intpoly.degree(c) for c in cs)
    if deg_t == 0:
        return intpoly.primitive(tuple(c[0] if c else 0 for c in cs))
    deg_s = len(cs) - 1
    bound = intpoly.degree(tp) * deg_s

    from .algebraic import _interp_resultant

    def res_at(s0: int) -> int:
        # coefficients of t^j in the input evaluated at s = s0
        h = [0] * (deg_t + 1)
        power = 1
        for c in cs:
            for j in range(len(c)):
                h[j] += c[j] * power
            power *= s0
        return det_int(intpoly.sylvester_matrix(tp, h))

    res = _interp_resultant(bound, res_at)
    if intpoly.is_zero(res):
        raise ValueError("inconsistent coefficient field: identically zero eliminant")
    return intpoly.primitive(res)
