"""Exact linear algebra: the one Gaussian elimination, and Q entry points.

``echelon`` row-reduces over any exact field, given only the reciprocal
of its elements; ``kernel_basis`` and ``one_solution`` are derived from
it.  Q (here), Q(zeta_m) (``cyclotomic``) and Q(v) (``laurent``) all
eliminate through them.  The Q entry points take int or Fraction
entries as they are: the two mix exactly under +, - and *, and only a
division makes a Fraction.  ``nullspace`` and ``solve`` divide by
``_q_inv``, so their pivot rows, kernel vectors and solutions hold
Fractions.  ``mat_rank`` returns only a count, so it keeps a +-1 pivot
as it is (1/x = x there), and rows whose pivots are units eliminate in
ints.  The large matrices (the Satake commutator matrix, its v-free
rows over Q, the torus rows e_dst - e_src) hold a few nonzero entries
per row, so ``echelon`` keeps rows as {column: entry} dicts of nonzero
entries and never touches a zero.
"""
from __future__ import annotations

from fractions import Fraction as Q
from typing import Callable, Iterable, Mapping, Sequence


def _items(row: Sequence | Mapping) -> Iterable[tuple[int, object]]:
    return row.items() if isinstance(row, Mapping) else enumerate(row)


def echelon(rows: Iterable[Sequence | Mapping], inv: Callable
            ) -> tuple[list[dict], list[int]]:
    """Reduced row echelon form of a copy of ``rows`` over any exact field.

    A row is a dense sequence or a {column: entry} mapping.  Returns
    (reduced rows as {column: nonzero entry} dicts, pivot column
    indices).  Entries are tested for zero by truthiness and ``inv``
    gives the reciprocal of a nonzero entry; that is all the routine
    knows of the field.  The pivot of a column is the first row at or
    below the current one with a nonzero entry there, so bases read off
    the result are deterministic.  Elimination stops once every row
    holds a pivot.
    """
    rows = [{c: x for c, x in _items(row) if x} for row in rows]
    # holders[c]: positions of the rows with a nonzero entry in column c;
    # fill-in only reaches columns some row already holds
    holders: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for c in row:
            holders.setdefault(c, set()).add(i)
    pivots: list[int] = []
    r = 0
    for c in sorted(holders):
        if r == len(rows):
            break
        pivot = min((i for i in holders[c] if i >= r), default=None)
        if pivot is None:
            continue
        if pivot != r:
            for k in rows[r].keys() ^ rows[pivot].keys():
                moved = holders[k]
                if k in rows[r]:
                    moved.discard(r)
                    moved.add(pivot)
                else:
                    moved.discard(pivot)
                    moved.add(r)
            rows[r], rows[pivot] = rows[pivot], rows[r]
        scale = inv(rows[r][c])
        prow = rows[r] = {k: x * scale for k, x in rows[r].items()}
        for i in list(holders[c]):
            if i == r:
                continue
            row = rows[i]
            f = row[c]
            for k, y in prow.items():
                x = row.get(k)
                x = -(f * y) if x is None else x - f * y
                if x:
                    row[k] = x
                    holders[k].add(i)
                else:
                    row.pop(k, None)
                    holders[k].discard(i)
        pivots.append(c)
        r += 1
    return rows, pivots


def kernel_basis(rows: Sequence[Sequence], zero, one, inv: Callable) -> list[list]:
    """Basis of the right kernel {v : rows @ v = 0}, one vector per
    non-pivot column, over the field given by ``zero``, ``one``, ``inv``."""
    red, pivots = echelon(rows, inv)
    ncols = len(rows[0]) if rows else 0
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [zero] * ncols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -red[r].get(fc, zero)
        basis.append(v)
    return basis


def one_solution(rows: Sequence[Sequence], b: Sequence, zero, inv: Callable) -> list | None:
    """One solution of rows @ x = b (free variables zero), or None if
    the system is inconsistent; ``rows`` must be nonempty."""
    ncols = len(rows[0])
    red, pivots = echelon([list(row) + [bi] for row, bi in zip(rows, b, strict=True)], inv)
    if ncols in pivots:  # pivot in the augmented column
        return None
    x = [zero] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r].get(ncols, zero)
    return x


def _q_inv(x: Q) -> Q:
    return Q(1) / x


def _unit_inv(x: Q) -> Q:
    # 1/x = x on a +-1 pivot, so int rows of unit pivots stay int
    return x if x == 1 or x == -1 else Q(1, x)


def mat_rank(m: Sequence[Sequence | Mapping]) -> int:
    """Rank over Q of dense or {column: entry} rows."""
    return len(echelon(m, _unit_inv)[1])


def nullspace(m: Sequence[Sequence]) -> list[tuple[Q, ...]]:
    """Basis of {v : m @ v = 0}, exact."""
    return [tuple(v) for v in kernel_basis(m, Q(0), Q(1), _q_inv)]


def solve(m: Sequence[Sequence], b: Sequence) -> tuple[Q, ...] | None:
    """One exact solution of m @ x = b, or None if inconsistent."""
    if not m:
        return ()
    x = one_solution(m, b, Q(0), _q_inv)
    return None if x is None else tuple(x)
