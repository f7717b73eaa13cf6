"""The one exact elimination kernel is field-generic.

Oracle: a matrix with small integer entries has the same rank,
nullspace basis and solution whether it is eliminated over Q, over
Q(zeta_m) through the rational embedding, or over Q(v) through the
constant embedding, because every field runs the same pivot rule.
The same matrix given as dense rows or as {column: entry} rows reduces
to the same rows, and both match a textbook dense reduction over Q.
"""
from fractions import Fraction as Q

from hypothesis import given, settings
from hypothesis import strategies as st

from heckelab._linalg import (
    echelon,
    kernel_basis,
    mat_rank,
    nullspace,
    one_solution,
    solve,
)
from heckelab.cyclotomic import Cyc, cyc_nullspace, cyc_rank, cyc_solve
from heckelab.laurent import LaurentScalar, RatFunc, rat_rank


@st.composite
def _systems(draw):
    nrows = draw(st.integers(1, 4))
    ncols = draw(st.integers(1, 4))
    entry = st.integers(-3, 3)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    rhs = draw(st.lists(entry, min_size=nrows, max_size=nrows))
    return rows, rhs


@settings(max_examples=80, deadline=None)
@given(_systems(), st.sampled_from([1, 3, 4, 12]))
def test_rank_nullspace_solve_agree_across_fields(system, m):
    rows, rhs = system

    def cyc(xs):
        return [Cyc.rational(m, x) for x in xs]

    crows = [cyc(r) for r in rows]
    rank = mat_rank(rows)
    assert cyc_rank(crows) == rank
    assert rat_rank([[RatFunc.from_laurent(LaurentScalar.rational(x))
                      for x in r] for r in rows]) == rank

    basis = nullspace(rows)
    assert len(basis) == len(rows[0]) - rank
    assert cyc_nullspace(crows) == [cyc(v) for v in basis]

    x = solve(rows, rhs)
    got = cyc_solve(crows, cyc(rhs))
    if x is None:
        assert got is None
    else:
        assert got == cyc(x)
        assert [sum((Q(a) * b for a, b in zip(r, x)), Q(0)) for r in rows] == rhs


def _dense_rref(rows):
    """Reference: reduced row echelon form by the textbook dense loop
    over Q, the pivot of a column being the first row at or below the
    current one with a nonzero entry there."""
    rows = [[Q(x) for x in row] for row in rows]
    pivots, r = [], 0
    for c in range(len(rows[0])):
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        lead = rows[r][c]
        rows[r] = [x / lead for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


@st.composite
def _sparse_systems(draw):
    """Mostly-zero matrices, some with an all-zero row and an all-zero
    column, and the same rows as {column: entry} dicts that keep some
    explicit zero values."""
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-3, 3))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    if draw(st.booleans()):
        rows[draw(st.integers(0, nrows - 1))] = [0] * ncols
    if draw(st.booleans()):
        dead = draw(st.integers(0, ncols - 1))
        for row in rows:
            row[dead] = 0
    dicts = [{c: x for c, x in enumerate(row) if x or draw(st.booleans())}
             for row in rows]
    rhs = draw(st.lists(st.integers(-3, 3), min_size=nrows, max_size=nrows))
    return rows, dicts, rhs


_FIELDS = {
    "Q": (Q, lambda x: 1 / x),
    "Q(zeta_12)": (lambda x: Cyc.rational(12, x), Cyc.inv),
    "Q(v)": (lambda x: RatFunc.from_laurent(LaurentScalar.rational(x)),
             lambda x: RatFunc.one() / x),
}


@settings(max_examples=60, deadline=None)
@given(_sparse_systems(), st.sampled_from(sorted(_FIELDS)))
def test_sparse_and_dense_rows_reduce_alike(system, field):
    rows, dicts, rhs = system
    emb, inv = _FIELDS[field]
    zero, one = emb(0), emb(1)
    dense = [[emb(x) for x in row] for row in rows]
    sparse = [{c: emb(x) for c, x in row.items()} for row in dicts]

    ref_rows, ref_pivots = _dense_rref(rows)
    want = [{c: emb(x) for c, x in enumerate(row) if x} for row in ref_rows]
    assert echelon(dense, inv) == (want, ref_pivots)
    assert echelon(sparse, inv) == (want, ref_pivots)
    assert mat_rank(dicts) == mat_rank(rows) == len(ref_pivots)

    basis = kernel_basis(dense, zero, one, inv)
    assert basis == [[emb(x) for x in v] for v in nullspace(rows)]
    assert len(basis) == len(rows[0]) - len(ref_pivots)
    for v in nullspace(rows):  # annihilates the sparse rows too
        assert all(sum((Q(x) * v[c] for c, x in row.items()), Q(0)) == 0
                   for row in dicts)

    x = one_solution(dense, [emb(b) for b in rhs], zero, inv)
    ref = solve(rows, rhs)
    assert x == (None if ref is None else [emb(a) for a in ref])
    if ref is not None:
        assert [sum((Q(a) * ref[c] for c, a in row.items()), Q(0))
                for row in dicts] == rhs
