"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Elements are stored in the power basis 1, x, ..., x^(phi(m)-1) modulo
the m-th cyclotomic polynomial, with int or Fraction coefficients kept
as given (an int equals and hashes like the equal Fraction), so
equality is literal tuple equality and nothing is ever rounded.  The
constants are ints: ``Cyc.zero``, ``Cyc.one``, ``Cyc.zeta``,
``Cyc.rational`` of an int and ``cyc_identity`` build no Fraction.  Only
the divisions, ``Cyc.inv`` and ``to_fraction``, make new Fractions.  The
conductor is a positive integer fixed per element; elements of different
conductors do not mix.  The cyclotomic polynomials come from exact
integer division of x^m - 1 by the monic product of the smaller ones,
so the module does not import ``laurent``.

There is one entry product, ``_coeff_mul(m, xc, yc)`` on coefficient
tuples, memoized by an ``lru_cache`` bounded at ``_COEFF_MUL_CACHE``
(4096) entries; ``Cyc.__mul__``, ``Cyc.inv`` and every matrix product go
through it.  Because 1 and Fraction(1) are one key of the memo, a
product may come back with Fraction coefficients for int inputs or the
reverse: the values and hashes are the same, so no comparison, hash or
printed coefficient can tell.  Matrix products work on packed matrices
(``cyc_pack``): per row, the (column, coefficient tuple) pairs of the
nonzero entries.  ``cyc_packed_matmul`` multiplies them and drops the
entries that cancel, so packed products compare with packed targets
directly; ``cyc_unpack`` gives the dense rows of ``Cyc`` back, and
``cyc_matmul`` is the same product on dense rows.

Also provides linear algebra over the field (rank, nullspace, solve,
column space) for the intertwiner and isotypic computations in
the character-theory modules.  It eliminates with the field-generic
``_linalg.echelon``, supplying only the field's zero, one and ``Cyc.inv``.
"""
from __future__ import annotations

from fractions import Fraction as Q
from functools import lru_cache
from typing import Sequence

from . import _linalg


def _poly_mul(a: tuple, b: tuple) -> tuple:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return tuple(out)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m, low degree first."""
    if m < 1:
        raise ValueError(f"conductor must be a positive integer, got {m}")
    if m == 1:
        return (-1, 1)
    rem = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    den = (1,)
    for d in range(1, m):
        if m % d == 0:
            den = _poly_mul(den, cyclotomic_polynomial(d))
    # den is monic with integer coefficients, so long division stays in ints
    top = len(den) - 1
    quot = [0] * (m - top + 1)
    for k in range(m - top, -1, -1):
        c = quot[k] = rem[k + top]
        if c:
            for i, b in enumerate(den):
                rem[k + i] -= c * b
    if any(rem):
        raise AssertionError("cyclotomic division left a remainder")
    return tuple(quot)


@lru_cache(maxsize=None)
def _power_table(m: int) -> tuple[tuple[int, ...], ...]:
    """x^j mod Phi_m for j = 0 .. max(m, 2*phi) - 1, as coefficient
    tuples of length phi(m)."""
    phi_poly = cyclotomic_polynomial(m)
    phi = len(phi_poly) - 1
    size = max(m, 2 * phi)
    table = []
    cur = [0] * phi
    if phi > 0:
        cur[0] = 1
    for _ in range(size):
        table.append(tuple(cur))
        nxt = [0] + cur[:]
        if nxt[phi]:
            top = nxt[phi]
            nxt = nxt[:phi]
            for i in range(phi):
                nxt[i] -= top * phi_poly[i]
        else:
            nxt = nxt[:phi]
        cur = nxt
    return tuple(table)


# bound on the memo of entry products; a clifford run on the builtin
# catalog fills under 300 entries
_COEFF_MUL_CACHE = 4096


@lru_cache(maxsize=_COEFF_MUL_CACHE)
def _coeff_mul(m: int, xc: tuple, yc: tuple) -> tuple:
    """The product of two elements of Q(zeta_m) given by their
    coefficient tuples: the one entry product of this module."""
    table = _power_table(m)
    out = [0] * len(xc)
    for i, x in enumerate(xc):
        if not x:
            continue
        for j, y in enumerate(yc):
            if not y:
                continue
            prod = x * y
            for k, t in enumerate(table[i + j]):
                if t:
                    out[k] += prod * t
    return tuple(out)


class Cyc:
    """An element of Q(zeta_m) in the power basis mod Phi_m."""

    __slots__ = ("m", "c")

    def __init__(self, m: int, coeffs: Sequence[Q]):
        phi = len(cyclotomic_polynomial(m)) - 1
        if len(coeffs) != phi:
            raise ValueError("coefficient vector has wrong length")
        self.m = m
        self.c = tuple(coeffs)

    # construction -----------------------------------------------------
    @staticmethod
    def zero(m: int) -> "Cyc":
        phi = len(cyclotomic_polynomial(m)) - 1
        return Cyc(m, [0] * phi)

    @staticmethod
    def one(m: int) -> "Cyc":
        return Cyc.rational(m, 1)

    @staticmethod
    def rational(m: int, value: int | Q) -> "Cyc":
        out = list(Cyc.zero(m).c)
        out[0] = value
        return Cyc(m, out)

    @staticmethod
    def zeta(m: int, k: int = 1) -> "Cyc":
        return Cyc(m, _power_table(m)[k % m])

    # ring ops ---------------------------------------------------------
    def _check(self, other: "Cyc"):
        if self.m != other.m:
            raise ValueError(f"conductor mismatch: {self.m} and {other.m}")

    def __add__(self, other: "Cyc") -> "Cyc":
        self._check(other)
        return Cyc(self.m, [a + b for a, b in zip(self.c, other.c)])

    def __sub__(self, other: "Cyc") -> "Cyc":
        self._check(other)
        return Cyc(self.m, [a - b for a, b in zip(self.c, other.c)])

    def __neg__(self) -> "Cyc":
        return Cyc(self.m, [-a for a in self.c])

    def __mul__(self, other):
        if isinstance(other, (int, Q)):
            return Cyc(self.m, [a * other for a in self.c])
        self._check(other)
        return Cyc(self.m, _coeff_mul(self.m, self.c, other.c))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (isinstance(other, Cyc) and self.m == other.m
                and self.c == other.c)

    def __hash__(self):
        return hash((self.m, self.c))

    def __bool__(self) -> bool:
        return any(self.c)

    def __repr__(self) -> str:
        if not self:
            return "Cyc(0)"
        bits = []
        for j, a in enumerate(self.c):
            if a:
                term = str(a) if j == 0 else (f"z^{j}" if a == 1 else f"{a}*z^{j}")
                bits.append(term)
        return f"Cyc[{self.m}](" + " + ".join(bits) + ")"

    # field structure ---------------------------------------------------
    def galois(self, k: int) -> "Cyc":
        """Apply zeta -> zeta^k; k must be prime to the conductor."""
        import math
        if math.gcd(k, self.m) != 1:
            raise ValueError("not a Galois automorphism")
        table = _power_table(self.m)
        phi = len(self.c)
        out = [0] * phi
        for j, a in enumerate(self.c):
            if not a:
                continue
            for i, t in enumerate(table[(j * k) % self.m]):
                if t:
                    out[i] += a * t
        return Cyc(self.m, out)

    def conjugate(self) -> "Cyc":
        return self.galois(self.m - 1)

    def is_rational(self) -> bool:
        return not any(self.c[1:])

    def to_fraction(self) -> Q:
        if not self.is_rational():
            raise ValueError(f"not rational: {self!r}")
        return Q(self.c[0])

    def inv(self) -> "Cyc":
        if not self:
            raise ZeroDivisionError("cyclotomic zero has no inverse")
        phi = len(self.c)
        # column j is self * x^j, and x^j (j < phi) is the j-th unit vector
        cols = [_coeff_mul(self.m, self.c, basis)
                for basis in _power_table(self.m)[:phi]]
        mat = tuple(tuple(cols[j][i] for j in range(phi)) for i in range(phi))
        e = (1,) + (0,) * (phi - 1)
        sol = _linalg.solve(mat, e)
        if sol is None:
            raise AssertionError("a nonzero cyclotomic has no inverse")
        return Cyc(self.m, sol)


# ---------------------------------------------------------------------------
# linear algebra over the field
# ---------------------------------------------------------------------------

def cyc_pack(rows, m: int) -> tuple:
    """The packed form of a matrix over Q(zeta_m): per row, the tuple of
    (column, coefficient tuple) pairs of its nonzero entries, in column
    order.  Raises ValueError on an entry of another conductor, zero
    entries included."""
    packed = []
    for row in rows:
        prow = []
        for j, x in enumerate(row):
            if x.m != m:
                raise ValueError(f"conductor mismatch: {m} and {x.m}")
            if any(x.c):
                prow.append((j, x.c))
        packed.append(tuple(prow))
    return tuple(packed)


def cyc_packed_matmul(m: int, a: tuple, b: tuple) -> tuple:
    """The product of two packed matrices over Q(zeta_m), packed: entries
    whose terms cancel to zero are dropped, so two packed matrices are
    equal exactly when their dense forms are.  Packed entries are nonzero,
    as ``cyc_pack`` and this product leave them, so a row with one entry
    gives one nonzero product per entry of the row it selects."""
    out = []
    for arow in a:
        if len(arow) == 1:
            # one term per entry, and a product of nonzeros is nonzero
            (k, xc), = arow
            out.append(tuple([(j, _coeff_mul(m, xc, yc)) for j, yc in b[k]]))
            continue
        acc = {}
        for k, xc in arow:
            for j, yc in b[k]:
                term = _coeff_mul(m, xc, yc)
                prev = acc.get(j)
                acc[j] = term if prev is None else tuple(
                    u + v for u, v in zip(prev, term))
        out.append(tuple(sorted(item for item in acc.items() if any(item[1]))))
    return tuple(out)


def cyc_unpack(m: int, packed: tuple, width: int) -> list:
    """The dense rows, ``width`` entries each, of a packed matrix over
    Q(zeta_m)."""
    zero = Cyc.zero(m)
    out = []
    for prow in packed:
        row = [zero] * width
        for j, coeffs in prow:
            row[j] = Cyc(m, coeffs)
        out.append(row)
    return out


def cyc_matmul(a, b):
    m = a[0][0].m
    return cyc_unpack(m, cyc_packed_matmul(m, cyc_pack(a, m), cyc_pack(b, m)),
                      len(b[0]))


def cyc_identity(n: int, m: int):
    one, zero = Cyc.one(m), Cyc.zero(m)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def cyc_trace(a) -> Cyc:
    out = Cyc.zero(a[0][0].m)
    for i in range(len(a)):
        out = out + a[i][i]
    return out


def cyc_rank(rows) -> int:
    return len(_linalg.echelon(rows, Cyc.inv)[1])


def cyc_nullspace(rows):
    """Basis of the right kernel of the matrix (list of vectors)."""
    if not rows:
        return []
    m = rows[0][0].m
    return _linalg.kernel_basis(rows, Cyc.zero(m), Cyc.one(m), Cyc.inv)


def cyc_solve(rows, rhs):
    """One solution of A x = b over the field, or None."""
    if not rows:
        return None
    return _linalg.one_solution(rows, rhs, Cyc.zero(rows[0][0].m), Cyc.inv)


def cyc_column_space(rows):
    """Basis of the column span: the pivot columns of the matrix."""
    _, pivots = _linalg.echelon(rows, Cyc.inv)
    return [[rows[i][p] for i in range(len(rows))] for p in pivots]


def cyc_solve_matrix(a, b):
    """X with A X = B, for A of full column rank; raises if inconsistent."""
    nc, width = len(a[0]), len(a[0]) + len(b[0])
    zero = Cyc.zero(a[0][0].m)
    red, pivots = _linalg.echelon([list(ra) + list(rb) for ra, rb in zip(a, b)], Cyc.inv)
    if pivots != list(range(nc)):
        raise ValueError("coefficient matrix is rank deficient")
    if any(red[nc:]):  # a nonzero row left below the pivots
        raise ValueError("inconsistent system")
    return [[row.get(c, zero) for c in range(nc, width)] for row in red[:nc]]
