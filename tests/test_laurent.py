"""Laurent scalars in v (v^2 standing for q) and their fraction field."""
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckelab.laurent import LaurentScalar, RatFunc, rat_rank

from oracles import scalar_value, v_power as V

ONE = LaurentScalar.one()
ZERO = LaurentScalar.zero()


def test_basic_ring_oracles():
    v = V(1)
    assert (v + ONE) * (v - ONE) == LaurentScalar({2: Q(1), 0: Q(-1)})
    assert LaurentScalar.q_power(1) == V(2)
    assert LaurentScalar.q_power(-2) == V(-4)
    assert v * V(-1) == ONE
    assert LaurentScalar({0: Q(2, 3)}) + LaurentScalar({0: Q(1, 3)}) == ONE


def test_zero_pruning_and_equality():
    assert LaurentScalar({3: Q(0), 1: Q(2)}) == LaurentScalar({1: Q(2)})
    assert (V(1) - V(1)).is_zero
    # a sum or product that cancels in one coefficient keeps the others
    assert ((V(1) + ONE) + V(1, -1)).c == {0: 1}
    assert ((V(1) + ONE) * (V(1) - ONE)).c == {2: 1, 0: -1}
    assert ZERO.is_zero and not ONE.is_zero
    assert hash(V(2, 3)) == hash(LaurentScalar({2: Q(3)}))


def test_evaluate():
    x = LaurentScalar({2: Q(1), 0: Q(-1)})   # q - 1
    assert scalar_value(x, 2) == 3
    assert scalar_value(x, Q(1, 2)) == Q(-3, 4)
    assert scalar_value(V(-2), 2) == Q(1, 4)


_coeffs = st.dictionaries(st.integers(-2, 2),
                          st.fractions(min_value=-3, max_value=3,
                                       max_denominator=4),
                          max_size=4)


@settings(max_examples=80, deadline=None)
@given(_coeffs, _coeffs, _coeffs)
def test_ring_axioms(a, b, c):
    x, y, z = LaurentScalar(a), LaurentScalar(b), LaurentScalar(c)
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + ZERO == x and x * ONE == x
    assert (x - x).is_zero


@settings(max_examples=60, deadline=None)
@given(_coeffs, _coeffs)
def test_evaluate_is_a_homomorphism(a, b):
    x, y = LaurentScalar(a), LaurentScalar(b)
    for point in (2, 3, Q(1, 2)):
        assert scalar_value(x * y, point) == \
            scalar_value(x, point) * scalar_value(y, point)
        assert scalar_value(x + y, point) == \
            scalar_value(x, point) + scalar_value(y, point)


def test_ratfunc_normalization():
    v = V(1)
    q_minus_1 = LaurentScalar({2: Q(1), 0: Q(-1)})
    assert RatFunc(q_minus_1, v - ONE) == RatFunc.from_laurent(v + ONE)
    # common factors cancel regardless of representative
    a, b, c = v + ONE, v - ONE, LaurentScalar({1: Q(3), -1: Q(2)})
    assert RatFunc(a * c, b * c) == RatFunc(a, b)
    assert RatFunc(ZERO, v).is_zero
    assert RatFunc(ZERO, v) == RatFunc.zero()


def test_ratfunc_arithmetic():
    v = V(1)
    half = RatFunc(ONE, v + ONE)
    other = RatFunc(v, v + ONE)
    assert half + other == RatFunc.one()
    assert (half * other) / other == half
    assert half - half == RatFunc.zero()
    inv = RatFunc.one() / half
    assert inv == RatFunc.from_laurent(v + ONE)


def test_ratfunc_division_errors():
    with pytest.raises(ZeroDivisionError):
        RatFunc(ONE, ZERO)
    with pytest.raises(ZeroDivisionError):
        RatFunc.one() / RatFunc.zero()


@settings(max_examples=60, deadline=None)
@given(_coeffs, _coeffs.filter(lambda d: LaurentScalar(d).c),
       _coeffs, _coeffs.filter(lambda d: LaurentScalar(d).c))
def test_field_axioms(an, ad, bn, bd):
    a = RatFunc(LaurentScalar(an), LaurentScalar(ad))
    b = RatFunc(LaurentScalar(bn), LaurentScalar(bd))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) - b == a
    if not b.is_zero:
        assert (a / b) * b == a
    if not a.is_zero:
        assert a / a == RatFunc.one()


def _ls(x: int) -> LaurentScalar:
    return LaurentScalar({0: x})


# (rows of Laurent scalars, rank over Q(v))
RANK_ORACLES = [
    ([], 0),
    ([[_ls(1), _ls(0)], [_ls(0), _ls(1)]], 2),
    ([[_ls(1), _ls(2)], [_ls(2), _ls(4)]], 1),
    ([[_ls(0), _ls(0)]], 0),
    ([[_ls(1), _ls(2), _ls(3)],
      [_ls(2), _ls(4), _ls(6)],
      [_ls(0), _ls(1), _ls(0)]], 2),
    # rank over the fraction field, not pointwise: v row vs 1 row
    ([[V(1), V(1)], [ONE, ONE]], 1),
]


def _rat_rows(rows):
    return [[RatFunc.from_laurent(x) for x in row] for row in rows]


def test_rat_rank_oracles():
    for rows, rank in RANK_ORACLES:
        assert rat_rank(_rat_rows(rows)) == rank
