"""Exact cyclotomic arithmetic and linear algebra over it.

Oracles: cyclotomic polynomials and specific field identities checked
against hand-computed values; linear-algebra routines checked against
small matrices solved by hand and against each other.
"""
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckelab.cyclotomic import (
    Cyc,
    cyc_column_space,
    cyc_identity,
    cyc_matmul,
    cyc_nullspace,
    cyc_rank,
    cyc_solve,
    cyc_solve_matrix,
    cyc_trace,
    cyclotomic_polynomial,
)


# hand-checked minimal polynomials (lowest degree first)
@pytest.mark.parametrize("m,coeffs", [
    (1, (-1, 1)),
    (2, (1, 1)),
    (3, (1, 1, 1)),
    (4, (1, 0, 1)),
    (6, (1, -1, 1)),
    (8, (1, 0, 0, 0, 1)),
    (12, (1, 0, -1, 0, 1)),
])
def test_cyclotomic_polynomials(m, coeffs):
    assert cyclotomic_polynomial(m) == coeffs


def test_wrong_coefficient_length_rejected():
    with pytest.raises(ValueError, match="wrong length"):
        Cyc(4, [Q(1)])


def test_nonpositive_conductor_rejected():
    for make in (lambda: Cyc(0, [Q(1)]), lambda: Cyc.zero(0),
                 lambda: Cyc.zeta(-3)):
        with pytest.raises(ValueError, match="conductor"):
            make()


def test_zeta_powers_and_reduction():
    z = Cyc.zeta(4)
    assert z * z == Cyc.rational(4, -1)
    assert z * z * z * z == Cyc.one(4)
    w = Cyc.zeta(3)
    # 1 + w + w^2 = 0
    assert Cyc.one(3) + w + w * w == Cyc.zero(3)


def test_twelfth_root_identities():
    z = Cyc.zeta(12)
    # zeta_12^3 = i and zeta_12^4 = zeta_3
    i = Cyc.zeta(12, 3)
    assert z * z * z == i
    assert i * i == Cyc.rational(12, -1)
    w = Cyc.zeta(12, 4)
    assert Cyc.one(12) + w + w * w == Cyc.zero(12)


def test_galois_and_conjugate():
    z = Cyc.zeta(8)
    assert z.galois(3) == z * z * z
    assert z.conjugate() == z.galois(7)
    assert (z + z.conjugate()).is_rational() is False  # sqrt(2) is irrational
    assert (z * z.conjugate()) == Cyc.one(8)
    with pytest.raises(ValueError):
        z.galois(2)


def test_rationality_and_fraction_roundtrip():
    c = Cyc.rational(12, Q(7, 3))
    assert c.is_rational()
    assert c.to_fraction() == Q(7, 3)
    z = Cyc.zeta(12)
    assert not z.is_rational()
    with pytest.raises(ValueError):
        z.to_fraction()


@pytest.mark.parametrize("m", [1, 3, 4, 8, 12])
def test_integral_constants_are_int_backed(m):
    assert all(type(c) is int for c in Cyc.one(m).c)
    assert all(type(c) is int for c in Cyc.rational(m, -2).c)
    for row in cyc_identity(3, m):
        assert all(type(c) is int for x in row for c in x.c)


@pytest.mark.parametrize("m", [1, 3, 4, 8, 12])
def test_divisions_of_int_backed_values_are_exact(m):
    # an int divided by an int would be a float: the divisions must not be
    one_inv = Cyc.one(m).inv()
    assert one_inv == Cyc.one(m)
    assert all(isinstance(c, (int, Q)) for c in one_inv.c)
    half = Cyc.rational(m, 2).inv()
    assert half.c[0] == Q(1, 2) and isinstance(half.c[0], Q)
    assert all(isinstance(c, (int, Q)) for c in half.c)
    value = Cyc.rational(m, 3).to_fraction()
    assert value == 3 and isinstance(value, Q)


def test_inverse_oracle():
    # 1 + z = -z^2, so (1 + z)^{-1} = -z^{-2} = -z  (z^3 = 1)
    w = Cyc.zeta(3)
    val = Cyc.one(3) + w
    assert val.inv() == -w
    assert val * val.inv() == Cyc.one(3)
    with pytest.raises(ZeroDivisionError):
        Cyc.zero(3).inv()


def _qmat(m, rows):
    return [[Cyc.rational(m, Q(x)) for x in row] for row in rows]


def test_rank_and_nullspace_oracle():
    a = _qmat(4, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert cyc_rank(a) == 2
    ns = cyc_nullspace(a)
    assert len(ns) == 1
    for row in a:
        acc = Cyc.zero(4)
        for x, v in zip(row, ns[0]):
            acc = acc + x * v
        assert acc == Cyc.zero(4)


def test_solve_oracle():
    a = _qmat(4, [[2, 0], [1, 1]])
    rhs = [Cyc.rational(4, 4), Cyc.rational(4, 3)]
    sol = cyc_solve(a, rhs)
    assert sol == [Cyc.rational(4, 2), Cyc.rational(4, 1)]
    # inconsistent system
    b = _qmat(4, [[1, 1], [1, 1]])
    assert cyc_solve(b, [Cyc.one(4), Cyc.zero(4)]) is None


def test_inverse_matrix_and_solve_matrix():
    z = Cyc.zeta(4)
    a = [[z, Cyc.one(4)], [Cyc.zero(4), z]]
    inv = cyc_solve_matrix(a, cyc_identity(2, 4))
    assert cyc_matmul(a, inv) == cyc_identity(2, 4)
    assert cyc_matmul(inv, a) == cyc_identity(2, 4)
    with pytest.raises(ValueError, match="rank deficient"):
        cyc_solve_matrix(_qmat(4, [[1, 1], [2, 2]]), cyc_identity(2, 4))


def test_column_space_picks_pivot_columns():
    a = _qmat(4, [[1, 2, 0], [2, 4, 1]])
    cols = cyc_column_space(a)
    assert cols == [[Cyc.one(4), Cyc.rational(4, 2)],
                    [Cyc.zero(4), Cyc.one(4)]]


def test_trace():
    a = _qmat(4, [[1, 5], [7, 2]])
    assert cyc_trace(a) == Cyc.rational(4, 3)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

_M = 12
_small = st.integers(min_value=-3, max_value=3)


def _cyc_strategy():
    # phi(12) = 4 coefficients
    return st.tuples(_small, _small, _small, _small).map(
        lambda t: Cyc(_M, [Q(x) for x in t]))


@settings(max_examples=60, deadline=None)
@given(_cyc_strategy(), _cyc_strategy(), _cyc_strategy())
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a + (-a) == Cyc.zero(_M)


@settings(max_examples=40, deadline=None)
@given(_cyc_strategy())
def test_inverse_roundtrip(a):
    if a:
        assert a * a.inv() == Cyc.one(_M)


@settings(max_examples=40, deadline=None)
@given(_cyc_strategy())
def test_galois_is_multiplicative(a):
    b = a.galois(5)
    assert (a * a).galois(5) == b * b


@settings(max_examples=25, deadline=None)
@given(st.lists(st.lists(_small, min_size=3, max_size=3),
                min_size=2, max_size=4))
def test_nullspace_vectors_annihilate(rows):
    a = [[Cyc.rational(_M, Q(x)) for x in row] for row in rows]
    for vec in cyc_nullspace(a):
        assert any(vec)
        for row in a:
            acc = Cyc.zero(_M)
            for x, v in zip(row, vec):
                acc = acc + x * v
            assert acc == Cyc.zero(_M)
    assert cyc_rank(a) + len(cyc_nullspace(a)) == 3
