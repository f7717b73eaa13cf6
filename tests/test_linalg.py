"""The one exact elimination kernel is field-generic.

Oracle: a matrix with small integer entries has the same rank,
nullspace basis and solution whether it is eliminated over Q, over
Q(zeta_m) through the rational embedding, or over Q(v) through the
constant embedding, because every field runs the same pivot rule.
"""
from fractions import Fraction as Q

from hypothesis import given, settings
from hypothesis import strategies as st

from heckelab._linalg import mat_rank, nullspace, solve
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
