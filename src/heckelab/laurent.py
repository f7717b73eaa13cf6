"""Exact scalar rings for the length-graded algebra layer.

LaurentScalar is a sparse Laurent polynomial over Q in a formal v whose
square plays the role of the residue cardinality q; half-integral
normalizations live here as odd v-powers.  RatFunc is its fraction
field, canonical by gcd reduction, used for exact kernel computations:
``rat_rank`` eliminates with the field-generic ``_linalg.echelon``.
Coefficients are ints or Fractions, kept as given: the two mix exactly
under +, - and *, so the Hecke algebra's scalars stay in Z[v, v^-1].
Division happens only in ``_poly_divmod`` and ``_poly_gcd``, on
Fraction lists: ``RatFunc`` reaches them through ``_to_poly``, which
makes the lists.
"""
from __future__ import annotations

from fractions import Fraction as Q
from typing import Sequence

from . import _linalg


class LaurentScalar:
    """Sparse Laurent polynomial in v with exact rational coefficients."""
    __slots__ = ("c",)

    def __init__(self, coeffs: dict[int, int | Q] | None = None) -> None:
        self.c = {k: x for k, x in (coeffs or {}).items() if x}

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentScalar":
        return cls()

    @classmethod
    def one(cls) -> "LaurentScalar":
        return cls({0: 1})

    @classmethod
    def v_power(cls, k: int, coeff=1) -> "LaurentScalar":
        return cls({k: coeff})

    @classmethod
    def q_power(cls, k: int, coeff=1) -> "LaurentScalar":
        return cls({2 * k: coeff})

    # -- ring structure --------------------------------------------------

    @classmethod
    def _own(cls, coeffs: dict[int, int | Q]) -> "LaurentScalar":
        """Wrap a freshly built dict of nonzero coefficients, uncopied."""
        out = object.__new__(cls)
        out.c = coeffs
        return out

    def __add__(self, other: "LaurentScalar") -> "LaurentScalar":
        out = dict(self.c)
        for k, x in other.c.items():
            if k in out:
                x = out[k] + x
                if not x:
                    del out[k]
                    continue
            out[k] = x
        return LaurentScalar._own(out)

    def __neg__(self) -> "LaurentScalar":
        return LaurentScalar._own({k: -x for k, x in self.c.items()})

    def __sub__(self, other: "LaurentScalar") -> "LaurentScalar":
        return self + (-other)

    def __mul__(self, other: "LaurentScalar") -> "LaurentScalar":
        out: dict[int, int | Q] = {}
        for k1, x1 in self.c.items():
            for k2, x2 in other.c.items():
                k = k1 + k2
                out[k] = out[k] + x1 * x2 if k in out else x1 * x2
        for k in [k for k, x in out.items() if not x]:
            del out[k]
        return LaurentScalar._own(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentScalar) and self.c == other.c

    def __hash__(self) -> int:
        return hash(frozenset(self.c.items()))

    @property
    def is_zero(self) -> bool:
        return not self.c

    def evaluate(self, v_value) -> Q:
        v = Q(v_value)
        return sum((x * v ** k for k, x in self.c.items()), Q(0))

    def __repr__(self) -> str:
        if not self.c:
            return "0"
        parts = [f"{x}*v^{k}" if k else str(x)
                 for k, x in sorted(self.c.items())]
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# ordinary polynomial helpers (ascending rational coefficient lists)
# ---------------------------------------------------------------------------

def _poly_trim(a: list[Q]) -> list[Q]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_divmod(a: Sequence[Q], b: Sequence[Q]) -> tuple[list[Q], list[Q]]:
    a = list(a)
    b = _poly_trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    quo = [Q(0)] * max(len(a) - len(b) + 1, 0)
    lead = b[-1]
    for k in range(len(a) - len(b), -1, -1):
        coeff = a[k + len(b) - 1] / lead
        quo[k] = coeff
        for i, bx in enumerate(b):
            a[k + i] -= coeff * bx
    return _poly_trim(quo), _poly_trim(a)


def _poly_gcd(a: Sequence[Q], b: Sequence[Q]) -> list[Q]:
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    if a:
        lead = a[-1]
        a = [x / lead for x in a]
    return a


def _to_poly(x: LaurentScalar) -> tuple[int, list[Q]]:
    # v-shift plus an ascending coefficient list with nonzero constant term
    if x.is_zero:
        return 0, []
    lo = min(x.c)
    hi = max(x.c)
    return lo, [Q(x.c.get(k, 0)) for k in range(lo, hi + 1)]


def _from_poly(shift: int, coeffs: Sequence[Q]) -> LaurentScalar:
    return LaurentScalar({shift + i: c for i, c in enumerate(coeffs)})


class RatFunc:
    """Fraction of Laurent polynomials, canonical: the common v-shift is
    pulled out, numerator and denominator are coprime, and the
    denominator is monic with no negative v-powers."""
    __slots__ = ("num", "den")

    def __init__(self, num: LaurentScalar, den: LaurentScalar) -> None:
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            self.num = LaurentScalar.zero()
            self.den = LaurentScalar.one()
            return
        ns, np = _to_poly(num)
        ds, dp = _to_poly(den)
        g = _poly_gcd(np, dp)
        if len(g) > 1:
            np = _poly_divmod(np, g)[0]
            dp = _poly_divmod(dp, g)[0]
        lead = dp[-1]
        np = [x / lead for x in np]
        dp = [x / lead for x in dp]
        self.num = _from_poly(ns - ds, np)
        self.den = _from_poly(0, dp)

    @classmethod
    def from_laurent(cls, x: LaurentScalar) -> "RatFunc":
        return cls(x, LaurentScalar.one())

    @classmethod
    def zero(cls) -> "RatFunc":
        return cls.from_laurent(LaurentScalar.zero())

    @classmethod
    def one(cls) -> "RatFunc":
        return cls.from_laurent(LaurentScalar.one())

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self) -> bool:
        return not self.num.is_zero

    def __add__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if other.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RatFunc) and self.num == other.num
                and self.den == other.den)

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        if self.den == LaurentScalar.one():
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


def _rat_inv(x: RatFunc) -> RatFunc:
    return RatFunc.one() / x


def rat_rank(rows: list[list[RatFunc] | dict[int, RatFunc]]) -> int:
    """Row rank by exact Gauss elimination over the fraction field, of
    dense or {column: entry} rows."""
    return len(_linalg.echelon(rows, _rat_inv)[1])
