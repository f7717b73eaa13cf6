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
them (_constraint_mask).  Brute force enumerates matrices over Z/p^N in
numpy int64, and iwahori_factorization_check proves the factorization
by block-LDU uniqueness; above the element cap, or outside the int64
precondition, the analytic count comparison stands alone and is
flagged, never silently trusted.  numpy is imported only when a
brute-force enumeration runs (the helpers that build arrays import it
themselves), so the bound matrices, volumes and Levi comparisons load
without it.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import TYPE_CHECKING, Sequence

from .apartment import threshold
from .root_datum import RootDatum

if TYPE_CHECKING:
    import numpy as np

Bound = int | None  # None = entry frozen to 0

DEFAULT_BRUTE_CAP = 2_000_000

_INF = 10 ** 6  # stand-in for None in closure arithmetic


def _b(x: Bound) -> int:
    return _INF if x is None else x


@dataclass(frozen=True)
class ValuationGroupScheme:
    bounds: tuple[tuple[Bound, ...], ...]

    def __post_init__(self):
        n = len(self.bounds)
        for row in self.bounds:
            if len(row) != n:
                raise ValueError("bounds matrix must be square")
        for i in range(n):
            d = self.bounds[i][i]
            if d is None or d < 0:
                raise ValueError(f"diagonal bound ({i},{i}) must be >= 0")
            for j in range(n):
                if i != j and self.bounds[i][j] is not None and self.bounds[i][j] < 0:
                    raise ValueError(f"bound ({i},{j}) must be >= 0")
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


def principal_congruence_scheme(n: int, level: int) -> ValuationGroupScheme:
    if level < 1:
        raise ValueError("level must be >= 1")
    return scheme([[level] * n for _ in range(n)])


# ---------------------------------------------------------------------------
# Bridges and transforms
# ---------------------------------------------------------------------------

def from_filtration(datum: RootDatum, x: Sequence, r) -> ValuationGroupScheme:
    """Bound matrix of the depth-r filtration group at the point x, for
    a general-linear datum: entry (i, j), i != j, is the threshold of
    the root e_i - e_j, and every diagonal entry is ceil(r)."""
    if not datum.is_general_linear:
        raise ValueError("filtration bridge needs a general-linear datum")
    n = datum.ambient_rank
    diag = math.ceil(Q(r))
    # the root e_i - e_j has coordinates (k == i) - (k == j)
    rows = [[diag if i == j else threshold(
                datum, [(k == i) - (k == j) for k in range(n)], x, r)
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

@dataclass(frozen=True)
class VolumeExponent:
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

    def evaluate(self, q: int) -> Q:
        return Q(q) ** self.q_power * Q(q - 1) ** self.unit_power


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


@dataclass(frozen=True)
class LeviVolumeComparison:
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
# Brute-force enumeration over Z/p^N
# ---------------------------------------------------------------------------

def _constraint_values(c: Constraint, p: int, N: int) -> np.ndarray:
    import numpy as np
    if c[0] == "unit":
        return np.array([x for x in range(p ** N) if x % p], dtype=np.int64)
    _, r, m = c
    return np.arange(r, p ** N, p ** min(m, N), dtype=np.int64)


def _constraint_mask(c: Constraint, entries: np.ndarray, p: int, N: int) -> np.ndarray:
    if c[0] == "unit":
        return entries % p != 0
    _, r, m = c
    q = p ** min(m, N)
    return entries % q == r % q


def _enumerate(constraints: list[list[Constraint]], p: int, N: int,
               cap: int) -> np.ndarray | None:
    """All matrices over Z/p^N meeting the entry constraints, or None
    if there are more than cap of them; the cap is checked on the counts
    before any value array is built."""
    import numpy as np
    n = len(constraints)
    a, b = _grid_exponents(constraints, N)
    total = p ** a * (p - 1) ** b
    if total > cap:
        return None
    cells = [(i, j, _constraint_values(constraints[i][j], p, N))
             for i in range(n) for j in range(n)]
    out = np.zeros((total, n, n), dtype=np.int64)
    stride = total
    idx = np.arange(total)
    for i, j, vals in cells:
        stride //= len(vals)
        out[:, i, j] = vals[(idx // stride) % len(vals)]
    return out


def _member_mask(K: ValuationGroupScheme, mats: np.ndarray, p: int,
                 N: int) -> np.ndarray:
    import numpy as np
    ok = np.ones(len(mats), dtype=bool)
    for i in range(K.size):
        for j in range(K.size):
            ok &= _constraint_mask(_entry_constraint(K, i, j),
                                   mats[:, i, j], p, N)
    return ok


def group_elements(K: ValuationGroupScheme, p: int, N: int,
                   cap: int = DEFAULT_BRUTE_CAP) -> np.ndarray | None:
    return _enumerate(_constraints(K), p, N, cap)


def brute_point_count(K: ValuationGroupScheme, p: int, N: int,
                      cap: int = DEFAULT_BRUTE_CAP) -> int | None:
    mats = group_elements(K, p, N, cap)
    return None if mats is None else len(mats)


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


def _levi_invertible(levi: np.ndarray, blocks: Sequence[Sequence[int]],
                     p: int) -> bool:
    """Whether every diagonal block of every matrix in levi is invertible
    mod p, shown with integers only: m v is nonzero mod p for every
    nonzero v in F_p^k, k the block size."""
    import numpy as np
    for block in map(list, blocks):
        nonzero = list(itertools.product(range(p), repeat=len(block)))[1:]
        vecs = np.array(nonzero, dtype=np.int64).T
        chunk = max(1, 1_000_000 // vecs.size)
        for start in range(0, len(levi), chunk):
            sub = levi[start:start + chunk][:, block][:, :, block] % p
            images = sub @ vecs % p
            if (images == 0).all(axis=1).any():
                return False
    return True


def _products_in(K: ValuationGroupScheme, lo: np.ndarray, mid: np.ndarray,
                 hi: np.ndarray, p: int, N: int) -> bool:
    """Whether every product l m u lies in K, checked one by one."""
    mod = p ** N
    n = K.size
    pairs = (lo[:, None] @ mid[None]).reshape(-1, n, n) % mod
    chunk = max(1, 500_000 // len(hi))
    for start in range(0, len(pairs), chunk):
        prods = pairs[start:start + chunk, None] @ hi[None]
        if not _member_mask(K, prods.reshape(-1, n, n) % mod, p, N).all():
            return False
    return True


UNVERIFIED = "UNVERIFIED_EXHAUSTIVELY"


@dataclass(frozen=True)
class FactorizationReport:
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
    block upper triangular, so m = m', l = l' and u = u'.  Once every
    enumerated Levi element is shown invertible mod p, the products
    are |lo| |mid| |hi| distinct matrices; each product is tested for
    membership in K, and the count is compared with the point count of
    K, so equality proves the product set is the point set of K.

    A prime is left unverified (verdict None, flagged) when the int64
    precondition n (p^N - 1)^2 < 2^63 fails or K has more than cap
    points."""
    if convention not in ("upper", "lower"):
        raise ValueError("convention must be 'upper' or 'lower'")
    first, last = ("lower", "upper") if convention == "upper" else ("upper", "lower")
    parts = [_factor_constraints(K, blocks, part)
             for part in (first, "levi", last)]

    N = K.max_finite_bound() + 1
    # exponents add entry by entry: the three grids count as one
    analytic = (_grid_exponents([row for cs in parts for row in cs], N)
                == count_exponents(K, N))

    exhaustive: list[tuple[int, bool | None]] = []
    flags: list[str] = []
    for p in primes:
        # the one precondition of the int64 arithmetic: a product of two
        # matrices with entries in [0, p^N) stays below 2^63
        if K.size * (p ** N - 1) ** 2 >= 2 ** 63:
            exhaustive.append((p, None))
            flags.append(f"{UNVERIFIED}(p={p}, n*(p^N-1)^2 >= 2^63)")
            continue
        expected = point_count(K, p, N)
        if expected > cap:
            exhaustive.append((p, None))
            flags.append(f"{UNVERIFIED}(p={p}, expected={expected})")
            continue
        sets = [_enumerate(cs, p, N, expected) for cs in parts]
        if (any(s is None for s in sets)
                or math.prod(map(len, sets)) != expected):
            exhaustive.append((p, False))
            continue
        lo, mid, hi = sets
        exhaustive.append((p, _levi_invertible(mid, blocks, p)
                           and _products_in(K, lo, mid, hi, p, N)))
    return FactorizationReport(analytic, tuple(exhaustive), tuple(flags))
