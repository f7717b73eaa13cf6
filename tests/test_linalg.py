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
    _q_inv,
    echelon,
    kernel_basis,
    mat_rank,
    nullspace,
    one_solution,
    solve,
)
from heckelab.cyclotomic import Cyc, cyc_nullspace, cyc_rank, cyc_solve
from heckelab.laurent import LaurentScalar, RatFunc, rat_rank

from oracles import base_alcove_barycenter


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
    assert rat_rank([[RatFunc.from_laurent(LaurentScalar({0: x}))
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
    "Q(v)": (lambda x: RatFunc.from_laurent(LaurentScalar({0: x})),
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


@st.composite
def _rank_rows(draw):
    """Int, Fraction or mixed rows, dense or {column: entry}, with unit
    entries frequent so that both unit and non-unit pivots occur."""
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 6))
    ints = st.one_of(st.sampled_from([0, 0, 1, -1]), st.integers(-5, 5))
    fracs = st.one_of(ints.map(Q), st.fractions(-3, 3, max_denominator=4))
    entry = draw(st.sampled_from([ints, fracs, st.one_of(ints, fracs)]))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    if draw(st.booleans()):
        rows = [dict(enumerate(row)) for row in rows]
    return rows


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_rank_rows())
def test_rank_on_unit_pivots_is_the_fraction_rank(rows):
    # mat_rank keeps +-1 pivots integral; the count must not move
    assert mat_rank(rows) == len(echelon(rows, _q_inv)[1])
    dense = [[row[c] for c in range(len(row))] for row in rows]
    basis = nullspace(dense)
    x = solve(dense, [1] * len(dense))
    assert all(type(a) is Q for v in basis for a in v)
    assert x is None or all(type(a) is Q for a in x)


# -- exactness at the division sites -------------------------------------
# Coefficients are kept as given, so ints reach every division; each
# site must still answer with Fractions (int / int would be a float,
# which compares equal to a Fraction and so would pass the oracles).

def _floats(value) -> list:
    if isinstance(value, float):
        return [value]
    if isinstance(value, LaurentScalar):
        return _floats(value.c)
    if isinstance(value, RatFunc):
        return _floats(value.num) + _floats(value.den)
    if isinstance(value, Cyc):
        return _floats(value.c)
    if isinstance(value, dict):
        return _floats(list(value.values()))
    if isinstance(value, (list, tuple)):
        return [f for v in value for f in _floats(v)]
    return []


def test_int_rows_solve_and_reduce_to_fractions():
    rows = [[2, 1, 0], [0, 3, 1], [2, 4, 1]]
    assert mat_rank(rows) == 2 and mat_rank([dict(enumerate(r)) for r in rows]) == 2
    x = solve(rows, [1, 1, 2])
    assert x == (Q(1, 3), Q(1, 3), 0) and not _floats(x)
    assert all(type(a) is Q for a in x)
    basis = nullspace(rows)
    assert basis == [(Q(1, 6), Q(-1, 3), 1)]
    assert all(type(a) is Q for v in basis for a in v)
    assert solve([[2, 4]], [1]) == (Q(1, 2), 0) and solve([[0], [0]], [1, 0]) is None


def test_int_laurent_coefficients_divide_exactly():
    num = LaurentScalar({0: 1, 1: 2})       # 1 + 2v
    den = LaurentScalar({1: 3, 3: 3})       # 3v + 3v^3
    f = RatFunc(num, den)
    assert f.num == LaurentScalar({-1: Q(1, 3), 0: Q(2, 3)})
    assert f.den == LaurentScalar({0: 1, 2: 1})
    assert not _floats(f)
    assert not _floats(RatFunc.one() / f) and not _floats(f * f - f)
    assert rat_rank([[RatFunc.from_laurent(LaurentScalar({0: 2})), f],
                     [RatFunc.from_laurent(LaurentScalar({0: 4})), f + f]]) == 1


def test_inner_product_of_int_cyc_character_is_a_fraction():
    from heckelab.representations import inner_product
    chi = {0: Cyc(1, [1]), 1: Cyc(1, [0])}  # int coefficients, not coerced
    ip = inner_product(chi, chi, [0, 1])
    assert ip == Q(1, 2) and type(ip) is Q
    rho = {0: Cyc(3, [1, 0]), 1: Cyc(3, [0, 1]), 2: Cyc(3, [-1, -1])}
    one = {g: Cyc(3, [1, 0]) for g in range(3)}
    assert inner_product(rho, rho, [0, 1, 2]) == 1
    assert inner_product(rho, one, [0, 1, 2]) == 0
    assert type(inner_product(rho, one, [0, 1, 2])) is Q
    assert Cyc(3, [2, 0]).inv() == Cyc(3, [Q(1, 2), 0])
    assert not _floats(Cyc(3, [2, 0]).inv())


def test_coweights_and_barycenters_are_fractions():
    from heckelab.root_datum import REGISTRY, datum_from_config
    for name in ("a2", "b3", "c3", "g2", "gl3"):
        datum = datum_from_config(REGISTRY[name])
        omegas = datum.fundamental_coweights()
        assert all(type(a) is Q for w in omegas for a in w)
        assert [[datum.pairing(datum.roots[i], w) for w in omegas]
                for i in datum.simple] == [[int(i == j) for j in range(len(omegas))]
                                           for i in range(len(omegas))]
        assert all(type(a) is Q for a in base_alcove_barycenter(datum))
        assert all(type(c) is Q for c in datum.simple_coefficients(datum.roots[0]))
