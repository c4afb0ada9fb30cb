"""Sparse multivariate polynomials over an exact field.

Coefficients may be Fraction or a number-field element such as one of
Q(phi) (anything with field arithmetic and truthiness).  Terms are keyed by
exponent tuples over a fixed variable list.  This is deliberately small:
the symbolic determinant identities need ring arithmetic, substitution, and
nothing else.  Their determinants and characteristic polynomials come from
``linalg.det`` and ``linalg.char_poly``, which use ring operations only.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import det as determinant  # noqa: F401  (the name perfbench/tracer.py wraps)


class MPoly:
    """Polynomial in the variables named at construction."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables: tuple[str, ...], terms: dict | None = None):
        self.vars = tuple(variables)
        cleaned = {}
        for exps, c in (terms or {}).items():
            if len(exps) != len(self.vars):
                raise ValueError("exponent arity mismatch")
            if c:
                cleaned[tuple(exps)] = c
        self.terms = cleaned

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, variables: tuple[str, ...], c) -> "MPoly":
        return cls(variables, {tuple([0] * len(variables)): c})

    @classmethod
    def variable(cls, variables: tuple[str, ...], name: str, one=Fraction(1)) -> "MPoly":
        exps = [0] * len(variables)
        exps[variables.index(name)] = 1
        return cls(variables, {tuple(exps): one})

    def _coerce(self, other) -> "MPoly":
        if isinstance(other, MPoly):
            if other.vars != self.vars:
                raise ValueError("mixed variable sets")
            return other
        return MPoly.constant(self.vars, other if not isinstance(other, int) else Fraction(other))

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "MPoly":
        o = self._coerce(other)
        out = dict(self.terms)
        for e, c in o.terms.items():
            out[e] = out.get(e, 0) + c if e in out else c
        return MPoly(self.vars, out)

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return MPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "MPoly":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "MPoly":
        o = self._coerce(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                out[e] = out[e] + prod if e in out else prod
        return MPoly(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise ValueError("negative power")
        out = MPoly.constant(self.vars, Fraction(1))
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, tuple(sorted(self.terms.items(), key=lambda kv: kv[0]))))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- queries and maps ----------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree_in(self, name: str) -> int:
        i = self.vars.index(name)
        return max((e[i] for e in self.terms), default=0)

    def _powers(self, values: list) -> list[list]:
        """``values[i] ** p`` at ``[i][p]`` for every exponent p of variable i
        up to its degree, each power one product from the one before."""
        out = []
        for name, v in zip(self.vars, values):
            row = [None, v]
            for _ in range(self.degree_in(name) - 1):
                row.append(row[-1] * v)
            out.append(row)
        return out

    def substitute(self, values: dict) -> "MPoly":
        """Substitute values (field elements or MPoly in the same vars) for
        some variables; unsubstituted variables survive."""
        bases = []
        for name in self.vars:
            v = values[name] if name in values else MPoly.variable(self.vars, name)
            bases.append(v if isinstance(v, MPoly) else MPoly.constant(self.vars, v))
        powers = self._powers(bases)
        out: dict = {}
        for e, c in self.terms.items():
            term = MPoly.constant(self.vars, c)
            for i, p in enumerate(e):
                if p:
                    term = term * powers[i][p]
            for e2, c2 in term.terms.items():
                out[e2] = out[e2] + c2 if e2 in out else c2
        return MPoly(self.vars, out)

    def evaluate(self, values: dict):
        """Full evaluation to a field element; every variable must be bound.
        The zero polynomial evaluates to the zero of the values' ring."""
        missing = [v for v in self.vars if v not in values]
        if missing:
            raise ValueError(f"unbound variables: {missing}")
        powers = self._powers([values[v] for v in self.vars])
        total = None
        for e, c in self.terms.items():
            term = c
            for i, p in enumerate(e):
                if p:
                    term = term * powers[i][p]
            total = term if total is None else total + term
        if total is None:
            return values[self.vars[0]] * 0 if self.vars else Fraction(0)
        return total

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in sorted(self.terms.items(), reverse=True):
            mono = "*".join(
                f"{v}^{p}" if p > 1 else v for v, p in zip(self.vars, e) if p
            )
            parts.append(f"({c})" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)

