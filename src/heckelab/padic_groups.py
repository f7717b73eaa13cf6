"""Congruence subgroups of GL_n over a local field, as bound matrices.

A group scheme here is an n x n matrix of valuation bounds: entry (i,j)
with i != j means the matrix entry has valuation at least m_ij; a
diagonal entry d >= 1 means the (i,i) entry lies in 1 + p^d O (pro-p
diagonal), while d = 0 means the entry is any unit (Iwahori-like
diagonal).  A bound of None freezes the entry to exactly zero, which is
how block (Levi) forms are represented.  Construction validates the
closure conditions that make the bound set an actual subgroup:

    m_ik <= m_ij + m_jk              (distinct i, j, k)
    m_ij + m_ji >= max(1, d_i, d_j)  (i != j)

the second encoding that off-diagonal products land inside the diagonal
congruence condition.  ``from_filtration`` builds the matrix of the
depth-r filtration group at a point x from (datum, x, r) alone: its
bound (i, j) is the ``apartment.threshold`` of the root e_i - e_j.

Volumes are exact symbolic monomials q^a (q-1)^b, computed from point
counts over O/p^N and checked to be independent of N.  Equal bounds up
to permutation conjugation keep volume; distinct volume is a proof of
non-conjugacy over the field (Haar measure is conjugation invariant),
which is the obstruction that finishes the wall-point example.

An entry constraint is the units (a diagonal bound 0) or a residue
class r + p^m O, r = 1 on the diagonal and 0 off it, m infinite for an
entry frozen to r.  One rule counts its residues mod p^N
(_entry_exponents), one lists them (_constraint_values) and one tests
a residue (_meets).  A bound group is an entrywise product set, so the
exhaustive routes work one entry at a time in exact Python ints:
brute_point_count multiplies the lengths of the entries' value lists,
and iwahori_factorization_check proves the factorization by block-LDU
uniqueness and an entrywise sumset test of the products.  Above the
point cap the analytic count comparison stands alone and is flagged,
never silently trusted.
"""
from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction as Q
from typing import NamedTuple, Sequence

from . import _linalg
from ._record import Record, _set
from .root_datum import RootDatum

Bound = int | None  # None = entry frozen to 0

DEFAULT_BRUTE_CAP = 2_000_000

_INF = 10 ** 6  # stand-in for None in closure arithmetic
# finite bounds stay below this, so that a sum of two of them, and every
# level N = largest bound + 1, stays below _INF
MAX_BOUND = _INF // 2 - 1


def _b(x: Bound) -> int:
    return _INF if x is None else x


class ValuationGroupScheme(Record):
    __slots__ = _compared = ("bounds",)

    def __init__(self, bounds: tuple[tuple[Bound, ...], ...]):
        _set(self, "bounds", bounds)
        n = len(bounds)
        for row in bounds:
            if len(row) != n:
                raise ValueError("bounds matrix must be square")
        for i in range(n):
            d = self.bounds[i][i]
            if d is None or d < 0:
                raise ValueError(f"diagonal bound ({i},{i}) must be >= 0")
            for j in range(n):
                m = self.bounds[i][j]
                if i != j and m is not None and m < 0:
                    raise ValueError(f"bound ({i},{j}) must be >= 0")
                if m is not None and m > MAX_BOUND:
                    raise ValueError(f"bound ({i},{j}) must be <= {MAX_BOUND}")
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                needed = max(1, self.bounds[i][i], self.bounds[j][j])
                if _b(self.bounds[i][j]) + _b(self.bounds[j][i]) < needed:
                    raise ValueError(
                        f"closure violation at pair ({i},{j}): "
                        f"m[{i}][{j}] + m[{j}][{i}] < {needed}")
                for k in range(n):
                    if k in (i, j):
                        continue
                    if _b(self.bounds[i][k]) > _b(self.bounds[i][j]) + _b(self.bounds[j][k]):
                        raise ValueError(
                            f"closure violation at triple ({i},{j},{k}): "
                            f"m[{i}][{k}] > m[{i}][{j}] + m[{j}][{k}]")

    @property
    def size(self) -> int:
        return len(self.bounds)

    def max_finite_bound(self) -> int:
        return max((x for row in self.bounds for x in row if x is not None),
                   default=0)

    def to_lists(self) -> list[list[Bound]]:
        return [list(row) for row in self.bounds]


def scheme(rows: Sequence[Sequence[Bound]]) -> ValuationGroupScheme:
    return ValuationGroupScheme(tuple(tuple(row) for row in rows))


def iwahori_scheme(n: int) -> ValuationGroupScheme:
    """Unit diagonal, integral above, level-1 below."""
    return scheme([[0 if j >= i else 1 for j in range(n)] for i in range(n)])


# ---------------------------------------------------------------------------
# Bridges and transforms
# ---------------------------------------------------------------------------

def from_filtration(datum: RootDatum, x: Sequence, r) -> ValuationGroupScheme:
    """Bound matrix of the depth-r filtration group at the point x, for
    a general-linear datum: entry (i, j), i != j, is the threshold
    ceil(r - x_i + x_j) of the root e_i - e_j (``apartment.threshold``),
    and every diagonal entry is ceil(r).  On X = D x and R = D r, D the
    least common denominator, a threshold is ceil((R - X_i + X_j) / D),
    read off integer floor division."""
    if not datum.is_general_linear:
        raise ValueError("filtration bridge needs a general-linear datum")
    n = datum.ambient_rank
    r = Q(r)
    if len(x) != n:
        raise ValueError(f"point needs {n} coordinates")
    if r <= 0:
        raise ValueError("depth must be positive")
    D, (*X, R) = _linalg.scaled((*x, r))
    diag = math.ceil(r)
    rows = [[diag if i == j else -((X[i] - X[j] - R) // D)
             for j in range(n)] for i in range(n)]
    if min(b for row in rows for b in row) < 0:
        raise ValueError("negative bound: the point is too far from the "
                         "base point for a single integral model")
    return scheme(rows)


def conjugate_by_permutation(K: ValuationGroupScheme,
                             sigma: Sequence[int]) -> ValuationGroupScheme:
    """Bounds of n K n^{-1} for the permutation matrix of sigma."""
    n = K.size
    if sorted(sigma) != list(range(n)):
        raise ValueError("sigma must be a permutation of 0..n-1")
    return scheme([[K.bounds[sigma[i]][sigma[j]] for j in range(n)]
                   for i in range(n)])


def _block_owner(n: int, blocks: Sequence[Sequence[int]]) -> list[int]:
    """The block index of each row, for blocks that partition 0..n-1 in
    order."""
    if [i for b in blocks for i in b] != list(range(n)):
        raise ValueError("blocks must partition 0..n-1 in order")
    return [k for k, b in enumerate(blocks) for _ in b]


def intersect_levi(K: ValuationGroupScheme,
                   blocks: Sequence[Sequence[int]]) -> ValuationGroupScheme:
    """Block-diagonal part: bounds kept inside each block, all other
    entries frozen to zero."""
    owner = _block_owner(K.size, blocks)
    n = K.size
    return scheme([[K.bounds[i][j] if owner[i] == owner[j] else None
                    for j in range(n)] for i in range(n)])


def block_of(K: ValuationGroupScheme, block: Sequence[int]) -> ValuationGroupScheme:
    """The bound matrix restricted to one block, as a smaller scheme."""
    return scheme([[K.bounds[i][j] for j in block] for i in block])


def theta_blocks(n: int, theta: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Partition of matrix rows 0..n-1 merging i with i+1 for each
    simple index i in theta (general-linear simple roots are adjacent
    coordinate differences)."""
    blocks: list[list[int]] = [[0]]
    for i in range(1, n):
        if (i - 1) in theta:
            blocks[-1].append(i)
        else:
            blocks.append([i])
    return tuple(tuple(b) for b in blocks)


# ---------------------------------------------------------------------------
# Entry constraints: a residue class or the units, counted and enumerated
# ---------------------------------------------------------------------------

Constraint = tuple  # ("class", r, m) = r + p^m O, m = _INF frozen; ("unit",)


def _entry_constraint(K: ValuationGroupScheme, i: int, j: int) -> Constraint:
    m = K.bounds[i][j]
    if i == j and m == 0:
        return ("unit",)
    return ("class", int(i == j), _b(m))


def _constraints(K: ValuationGroupScheme) -> list[list[Constraint]]:
    return [[_entry_constraint(K, i, j) for j in range(K.size)]
            for i in range(K.size)]


def _entry_exponents(c: Constraint, N: int) -> tuple[int, int]:
    """The residues mod p^N meeting c number p^a (p-1)^b; returns (a, b)."""
    if c[0] == "unit":
        return N - 1, 1
    return max(N - c[2], 0), 0


def _grid_exponents(constraints: list[list[Constraint]],
                    N: int) -> tuple[int, int]:
    exps = [_entry_exponents(c, N) for row in constraints for c in row]
    return sum(a for a, _ in exps), sum(b for _, b in exps)


# ---------------------------------------------------------------------------
# Volumes
# ---------------------------------------------------------------------------

class VolumeExponent(NamedTuple):
    """Monomial q^a (q-1)^b: a point-count ratio of two bound groups."""
    q_power: int
    unit_power: int

    def __str__(self) -> str:
        parts = []
        if self.q_power:
            parts.append("q" if self.q_power == 1 else f"q^{self.q_power}")
        if self.unit_power:
            parts.append("(q-1)" if self.unit_power == 1
                         else f"(q-1)^{self.unit_power}")
        return "*".join(parts) or "1"


def count_exponents(K: ValuationGroupScheme, N: int) -> tuple[int, int]:
    """Point count of K over O/p^N is p^a (p-1)^b; returns (a, b)."""
    if N < max(1, K.max_finite_bound()):
        raise ValueError("N too small for the bounds")
    return _grid_exponents(_constraints(K), N)


def point_count(K: ValuationGroupScheme, p: int, N: int) -> int:
    a, b = count_exponents(K, N)
    return p ** a * (p - 1) ** b


def contains(A: ValuationGroupScheme, B: ValuationGroupScheme) -> bool:
    """Whether B is a subgroup of A (entrywise tighter bounds)."""
    if A.size != B.size:
        return False
    return all(_b(B.bounds[i][j]) >= _b(A.bounds[i][j])
               for i in range(A.size) for j in range(A.size))


def log_volume(K: ValuationGroupScheme,
               reference: ValuationGroupScheme) -> VolumeExponent:
    """Index [reference : K] as a symbolic monomial; requires K inside
    the reference group.  Internally recomputed at two levels N to
    confirm the ratio does not depend on N."""
    if not contains(reference, K):
        raise ValueError("index requested for a group not inside the reference")
    N = max(K.max_finite_bound(), reference.max_finite_bound(), 1) + 1
    out = None
    for level in (N, N + 1):
        ar, br = count_exponents(reference, level)
        ak, bk = count_exponents(K, level)
        cur = VolumeExponent(ar - ak, br - bk)
        if out is not None and cur != out:
            raise AssertionError("volume ratio depends on N")
        out = cur
    return out


def conjugacy_obstruction(K1: ValuationGroupScheme,
                          K2: ValuationGroupScheme) -> str:
    """DISTINCT_VOLUME proves K1 and K2 are not conjugate over the
    field; INCONCLUSIVE says volumes agree (which proves nothing)."""
    if K1.size != K2.size:
        raise ValueError("groups live in different general linear groups")
    N = max(K1.max_finite_bound(), K2.max_finite_bound(), 1) + 1
    verdicts = set()
    for level in (N, N + 1):
        verdicts.add(count_exponents(K1, level) != count_exponents(K2, level))
    if len(verdicts) != 1:
        raise AssertionError("volume comparison depends on N")
    return "DISTINCT_VOLUME" if verdicts.pop() else "INCONCLUSIVE"


class LeviVolumeComparison(NamedTuple):
    at_x: ValuationGroupScheme       # theta-Levi intersection of the first model
    at_image: ValuationGroupScheme   # and of the second
    blocks: tuple[tuple[tuple[int, ...], str], ...]  # (block, obstruction)

    @property
    def status(self) -> str:
        return ("DISTINCT_VOLUME" if any(v == "DISTINCT_VOLUME"
                                         for _, v in self.blocks)
                else "INCONCLUSIVE")


def compare_levi_volumes(K1: ValuationGroupScheme, K2: ValuationGroupScheme,
                         theta: Sequence[int]) -> LeviVolumeComparison:
    """Cut both models to their theta-Levi intersections and compare the
    volumes block by block.  DISTINCT_VOLUME on any block proves the two
    Levi intersections are not conjugate in the Levi subgroup."""
    blocks = theta_blocks(K1.size, theta)
    at_x, at_image = intersect_levi(K1, blocks), intersect_levi(K2, blocks)
    return LeviVolumeComparison(at_x, at_image, tuple(
        (b, conjugacy_obstruction(block_of(at_x, b), block_of(at_image, b)))
        for b in blocks))


# ---------------------------------------------------------------------------
# Exhaustive enumeration over Z/p^N, one entry at a time
# ---------------------------------------------------------------------------

def _constraint_values(c: Constraint, p: int, N: int) -> list[int]:
    """The residues mod p^N meeting c, in increasing order."""
    if c[0] == "unit":
        return [x for x in range(p ** N) if x % p]
    _, r, m = c
    return list(range(r, p ** N, p ** min(m, N)))


def _meets(c: Constraint, v: int, p: int, N: int) -> bool:
    """Whether the residue v mod p^N meets c."""
    if c[0] == "unit":
        return v % p != 0
    _, r, m = c
    return (v - r) % p ** min(m, N) == 0


def _count_at_most(p: int, a: int, b: int, cap: int) -> int | None:
    """The count p^a (p-1)^b, or None when it is above cap.  Since
    p^a >= 2^a, an exponent a >= cap.bit_length() is refused before any
    power is built."""
    if a >= cap.bit_length():
        return None
    count = p ** a * (p - 1) ** b
    return None if count > cap else count


# p <= 2^k for k the bit length of p - 1, so p^a (p-1)^b < 2^((a+b) k); a
# count of at most this many bits has at most 4215 decimal digits, under
# CPython's default limit of 4300 digits on int-to-str conversion
_DECIMAL_BITS = 14_000


def _count_text(p: int, a: int, b: int) -> str:
    """The count p^a (p-1)^b in decimal, or as that product of powers
    when its decimal form could be too long to print."""
    if (a + b) * (p - 1).bit_length() <= _DECIMAL_BITS:
        return str(p ** a * (p - 1) ** b)
    return f"{p}^{a}" + (f"*{p - 1}^{b}" if b and p > 2 else "")


def _enumerate(constraints: list[list[Constraint]], p: int, N: int,
               cap: int) -> list[list[list[int]]] | None:
    """The value list of every entry, or None if more than cap matrices
    over Z/p^N meet the constraints; the cap is checked on the exponents
    before any list is built.  Each constraint binds its entry alone, so
    the matrices are exactly the choices of one value per entry."""
    a, b = _grid_exponents(constraints, N)
    if _count_at_most(p, a, b, cap) is None:
        return None
    return [[_constraint_values(c, p, N) for c in row] for row in constraints]


def brute_point_count(K: ValuationGroupScheme, p: int, N: int,
                      cap: int = DEFAULT_BRUTE_CAP) -> int | None:
    """The number of matrices over Z/p^N in K, as the product of the
    lengths of its entries' value lists, or None above cap."""
    values = _enumerate(_constraints(K), p, N, cap)
    return None if values is None else math.prod(
        len(v) for row in values for v in row)


# ---------------------------------------------------------------------------
# Iwahori factorization
# ---------------------------------------------------------------------------

def _factor_constraints(K: ValuationGroupScheme, blocks: Sequence[Sequence[int]],
                        part: str) -> list[list[Constraint]]:
    """Constraints for K cut down to one factor of the decomposition:
    'levi' (block diagonal), 'upper' or 'lower' (block unipotent)."""
    owner = _block_owner(K.size, blocks)
    kept = {"levi": operator.eq, "upper": operator.lt,
            "lower": operator.gt}[part]
    n = K.size
    out: list[list[Constraint]] = [
        [_entry_constraint(K, i, j) if kept(owner[i], owner[j])
         else ("class", 0, _INF) for j in range(n)] for i in range(n)]
    if part != "levi":
        for i in range(n):
            out[i][i] = ("class", 1, _INF)
    return out


def _invertible_mod_p(rows: list[list[int]], p: int) -> bool:
    """Whether a square integer matrix is invertible mod p, by Gaussian
    elimination over F_p."""
    rows = [[x % p for x in row] for row in rows]
    for c in range(len(rows)):
        k = next((k for k in range(c, len(rows)) if rows[k][c]), None)
        if k is None:
            return False
        rows[c], rows[k] = rows[k], rows[c]
        inv = pow(rows[c][c], -1, p)
        for k in range(c + 1, len(rows)):
            f = rows[k][c] * inv % p
            rows[k] = [(x - f * y) % p for x, y in zip(rows[k], rows[c])]
    return True


def _levi_invertible(levi: list[list[list[int]]],
                     blocks: Sequence[Sequence[int]], p: int) -> bool:
    """Whether every matrix whose entries are chosen from the value lists
    ``levi`` has every diagonal block invertible mod p.  A block's
    residues mod p are every choice of one residue per entry, and each
    choice is eliminated over F_p."""
    for block in blocks:
        k = len(block)
        cells = [sorted({v % p for v in levi[i][j]})
                 for i in block for j in block]
        if not all(_invertible_mod_p([flat[i:i + k]
                                      for i in range(0, k * k, k)], p)
                   for flat in itertools.product(*cells)):
            return False
    return True


def _products_in(target: list[list[Constraint]], lo: list[list[list[int]]],
                 mid: list[list[list[int]]], hi: list[list[list[int]]],
                 p: int, N: int) -> bool:
    """Whether every product l m u, one value per entry from each of the
    three value grids, meets the target constraints; decided one entry
    at a time (see iwahori_factorization_check)."""
    q = p ** N
    n = len(target)
    terms = [(a, b, mid[a][b]) for a in range(n) for b in range(n)
             if mid[a][b] != [0]]
    for i in range(n):
        for j in range(n):
            c = target[i][j]
            cols = list(itertools.product(*(hi[b][j] for b in range(n))))
            seen = set()
            for row in itertools.product(*lo[i]):
                for col in cols:
                    coeffs = tuple(row[a] * col[b] % q for a, b, _ in terms)
                    if coeffs in seen:
                        continue
                    seen.add(coeffs)
                    # the values of sum_ab c_ab m_ab: a sumset of c_ab M_ab
                    sums = {0}
                    for (_, _, values), k in zip(terms, coeffs):
                        if k:
                            step = {k * v % q for v in values}
                            sums = {(s + t) % q for s in sums for t in step}
                    if not all(_meets(c, v, p, N) for v in sums):
                        return False
    return True


UNVERIFIED = "UNVERIFIED_EXHAUSTIVELY"


class FactorizationReport(NamedTuple):
    analytic_match: bool
    exhaustive: tuple[tuple[int, bool | None], ...]  # (p, verdict)
    flags: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return self.analytic_match and all(v is not False
                                           for _, v in self.exhaustive)

    @property
    def fully_verified(self) -> bool:
        return self.passed and all(v is True for _, v in self.exhaustive)


def iwahori_factorization_check(K: ValuationGroupScheme,
                                blocks: Sequence[Sequence[int]],
                                convention: str = "upper",
                                primes: Sequence[int] = (2, 3),
                                cap: int = DEFAULT_BRUTE_CAP
                                ) -> FactorizationReport:
    """Does K factor as (K cap N^-)(K cap M)(K cap N) for the block
    parabolic?  The analytic check compares the point-count exponents
    (a, b) of the three factors, summed, with those of K.

    The exhaustive check, over Z/p^N with N = largest bound + 1, rests
    on block-LDU uniqueness: if l m u = l' m' u' with l, l' block lower
    unipotent, u, u' block upper unipotent and m, m' block diagonal and
    invertible, then l'^-1 l m = m' u' u^-1 is both block lower and
    block upper triangular, so m = m', l = l' and u = u'.  Each factor
    set is a product of per-entry value lists, so it has the product of
    their lengths as its size, and these three sizes must multiply to
    the point count of K.  Once every Levi element is shown invertible
    mod p (each block's residues mod p, eliminated over F_p), the
    products are that many distinct matrices, and it remains to show
    that each lies in K: then the product set is the point set of K.

    Membership is decided entry by entry.  Fix row i of l and column j
    of u; entry (i, j) of l m u is the linear form sum_ab (l_ia u_bj)
    m_ab in the Levi entries, which range independently over their
    value lists M_ab, so its values mod p^N are exactly the sumset of
    the sets (l_ia u_bj) M_ab.  Row i of l and column j of u range
    independently of each other and of m, so the union of these sumsets
    over them is exactly the set of values entry (i, j) takes over all
    triples.  K is an entrywise product set: a matrix lies in K when
    each entry meets its own constraint, so every product lies in K
    exactly when every value of every entry meets that entry's
    constraint.  The test is therefore the same as testing each of the
    |lo| |mid| |hi| products, with every value an exact int.

    A prime is left unverified (verdict None, flagged) when K has more
    than cap points."""
    if convention not in ("upper", "lower"):
        raise ValueError("convention must be 'upper' or 'lower'")
    first, last = ("lower", "upper") if convention == "upper" else ("upper", "lower")
    parts = [_factor_constraints(K, blocks, part)
             for part in (first, "levi", last)]

    N = K.max_finite_bound() + 1
    a, b = count_exponents(K, N)
    # exponents add entry by entry: the three grids count as one
    analytic = _grid_exponents([row for cs in parts for row in cs], N) == (a, b)

    exhaustive: list[tuple[int, bool | None]] = []
    flags: list[str] = []
    for p in primes:
        expected = _count_at_most(p, a, b, cap)
        if expected is None:
            exhaustive.append((p, None))
            flags.append(f"{UNVERIFIED}(p={p}, expected={_count_text(p, a, b)})")
            continue
        grids = [_enumerate(cs, p, N, expected) for cs in parts]
        if (any(g is None for g in grids)
                or math.prod(len(v) for g in grids for row in g for v in row)
                != expected):
            exhaustive.append((p, False))
            continue
        lo, mid, hi = grids
        exhaustive.append((p, _levi_invertible(mid, blocks, p)
                           and _products_in(_constraints(K), lo, mid, hi, p, N)))
    return FactorizationReport(analytic, tuple(exhaustive), tuple(flags))
