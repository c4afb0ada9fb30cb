"""Real root counting and isolation via Sturm sequences.

Sequences are kept as primitive integer polynomials; each pseudo-remainder
step divides out content (a positive factor, so the sign pattern that
Sturm's theorem relies on is untouched).  Refinement bisects integer
numerators, except that an irreducible quadratic, such as the minimal
polynomial of a square root, gets the bracket bisection would end on in
closed form from one isqrt.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm

from . import intpoly as ip
from .intpoly import Poly


def _strip_content(p: Poly) -> Poly:
    """Divide out the (positive) content; unlike primitive() the sign of the
    leading coefficient is preserved, which Sturm chains depend on."""
    if not p:
        return p
    g = ip.content(p)
    return tuple(a // g for a in p)


def sturm_sequence(p: Poly) -> list[Poly]:
    """Sturm chain of the squarefree part of p, which is its first entry."""
    f = ip.squarefree_part(p)
    seq = [f, _strip_content(ip.derivative(f))]
    while seq[-1]:
        a, b = seq[-2], seq[-1]
        d = ip.degree(a) - ip.degree(b)
        if d < 0:
            raise AssertionError("degree must drop along the chain")
        # an even power of the leading coefficient keeps the sign of the
        # exact rational remainder
        rem = ip.pseudo_remainder(a, b, d + 1 + (d + 1) % 2)
        seq.append(_strip_content(ip.neg(rem)))
    seq.pop()
    return seq


def _variations(values: list[int]) -> int:
    signs = [v for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))


def variations_at(seq: list[Poly], x: Fraction) -> int:
    a, b = x.numerator, x.denominator
    return _variations([ip.sign_at_ratio(q, a, b) for q in seq])


def count_roots(seq: list[Poly], lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of the chain's polynomial in (lo, hi]."""
    if lo >= hi:
        return 0
    return variations_at(seq, lo) - variations_at(seq, hi)


def isolate_roots(
    p: Poly,
    lo: Fraction | None = None,
    hi: Fraction | None = None,
) -> list[tuple[Fraction, Fraction]]:
    """Disjoint rational intervals, one per distinct real root of p in the
    open range (lo, hi); unbounded sides default to a Cauchy bound.

    A rational root r is reported as the degenerate interval (r, r); any
    other interval (a, b) has p(a) != 0 != p(b) and exactly one root inside.
    """
    if ip.is_zero(p):
        raise ValueError("undefined root set: zero polynomial")
    if ip.degree(p) == 0:
        return []
    seq = sturm_sequence(p)
    f = seq[0]
    bound = ip.root_bound(f)
    left = -bound if lo is None else Fraction(lo)
    right = bound if hi is None else Fraction(hi)
    if left >= right:
        return []

    # bisect (a, b], holding the roots of f in it, with an explicit stack
    # rather than recursion: roots that need more halvings than Python's
    # recursion limit allows still separate
    out: set[tuple[Fraction, Fraction]] = set()
    stack = [(left, right, variations_at(seq, left), variations_at(seq, right))]
    while stack:
        a, b, va, vb = stack.pop()
        n = va - vb
        if n == 1:
            out.add(_one_root(f, seq, a, b, vb))
        elif n > 1:
            m = (a + b) / 2
            vm = variations_at(seq, m)
            stack += [(m, b, vm, vb), (a, m, va, vm)]
    # roots exactly at the requested endpoints are excluded (open range)
    return sorted(
        (a, b) for a, b in out if not (a == b and (a == left or a == right))
    )


def _one_root(f: Poly, seq: list[Poly], a: Fraction, b: Fraction, vb: int) -> tuple:
    """The isolating interval of the one root of f in (a, b]: the point (r,
    r) for a root r met exactly, else (a, b) once f(a) != 0."""
    if ip.sign_at(f, b) == 0:
        return b, b
    while ip.sign_at(f, a) == 0:
        m = (a + b) / 2
        if ip.sign_at(f, m) == 0:
            return m, m
        vm = variations_at(seq, m)
        if vm - vb == 1:
            a = m
        else:
            b, vb = m, vm
    return a, b


def refine_root(p: Poly, lo: Fraction, hi: Fraction, width: Fraction) -> tuple[Fraction, Fraction]:
    """Bisect an isolating interval of p below the requested width.

    The endpoints are kept as integer numerators a < b over one shared
    denominator d, which doubles at each step, so the midpoint is a + b over
    2d and its gap b - a never changes; signs come from sign_at_ratio.  An
    irreducible quadratic gets the bracket bisection ends on in closed form
    (``_quadratic_bracket``).
    """
    if lo == hi:
        return lo, hi
    d = lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (d // lo.denominator)
    b = hi.numerator * (d // hi.denominator)
    slo = ip.sign_at_ratio(p, a, d)
    shi = ip.sign_at_ratio(p, b, d)
    if slo == 0 or shi == 0 or slo == shi:
        raise ValueError("not a sign-isolating interval")
    # (b - a) / d >= width, with the gap b - a fixed as d doubles
    gap = (b - a) * width.denominator
    if len(p) == 3:
        steps = (gap // (width.numerator * d)).bit_length()
        bracket = _quadratic_bracket(p, a, b, d, shi, steps)
        if bracket is not None:
            return bracket
    while gap >= width.numerator * d:
        m = a + b
        d *= 2
        sm = ip.sign_at_ratio(p, m, d)
        if sm == 0:
            mid = Fraction(m, d)
            return mid, mid
        if sm == slo:
            a, b = m, 2 * b
        else:
            a, b = 2 * a, m
    return Fraction(a, d), Fraction(b, d)


def _quadratic_bracket(p: Poly, a: int, b: int, d: int, shi: int, steps: int):
    """The bracket that ``steps`` bisections of (a/d, b/d) end on, for a
    quadratic p with one root there and p's sign shi at b/d; None when the
    root is rational, since bisection may land on it.

    Over the final denominator D = 2^steps d the bracket is (A + j g, A +
    (j + 1) g) / D with A = 2^steps a and g = b - a, and j is the floor of
    (r D - A) / g for the root r = (-c1 + shi sqrt(disc)) / (2 c2), as c2
    and shi change sign together.  With c2 > 0 that floor is an integer
    floor of an integer floor, and the floor of +-sqrt(disc D^2) is one
    isqrt, as disc is not a square.
    """
    c0, c1, c2 = p
    disc = c1 * c1 - 4 * c0 * c2
    if isqrt(disc) ** 2 == disc:
        return None
    if c2 < 0:
        c1, c2, shi = -c1, -c2, -shi
    big_d, big_a, g = d << steps, a << steps, b - a
    root = isqrt(disc * big_d * big_d)
    if shi < 0:
        root = -root - 1
    j = (root - c1 * big_d - 2 * c2 * big_a) // (2 * c2 * g)
    left = big_a + j * g
    return Fraction(left, big_d), Fraction(left + g, big_d)


def simplest_in(lo: Fraction, hi: Fraction) -> Fraction:
    """The rational with smallest denominator (then numerator) in [lo, hi]."""
    if lo > hi:
        raise ValueError("empty interval")
    if lo <= 0 <= hi:
        return Fraction(0)
    if hi < 0:
        return -simplest_in(-hi, -lo)

    def rec(a: Fraction, b: Fraction) -> Fraction:
        ia = a.numerator // a.denominator
        if a.numerator % a.denominator == 0:
            return Fraction(ia)
        if ia < b.numerator // b.denominator or b.numerator % b.denominator == 0:
            return Fraction(ia + 1)
        fa = a - ia
        fb = b - ia
        return ia + 1 / rec(1 / fb, 1 / fa)

    return rec(lo, hi)


def snap_rational(f: Poly, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """An isolating interval of the squarefree f, as the point (r, r) when
    its root is a rational r, else refined below width 1/(2 lc(f)^2).

    Any rational root of f has denominator dividing the leading coefficient,
    so below that width the simplest rational in the bracket either is the
    root or proves there is none.
    """
    if lo == hi:
        return lo, hi
    bound = abs(f[-1])
    lo, hi = refine_root(f, lo, hi, Fraction(1, 2 * bound * bound))
    if lo != hi:
        cand = simplest_in(lo, hi)
        if cand.denominator <= bound and ip.eval_at(f, cand) == 0:
            return cand, cand
    return lo, hi


def rational_roots(p: Poly) -> list[Fraction]:
    """All rational roots of p, found exactly."""
    f = ip.squarefree_part(p)
    if ip.degree(f) < 1:
        return []
    return [lo for lo, hi in (snap_rational(f, *iv) for iv in isolate_roots(f)) if lo == hi]
