"""Exact cyclotomic arithmetic and linear algebra over it.

Oracles: cyclotomic polynomials and specific field identities checked
against hand-computed values; linear-algebra routines checked against
small matrices solved by hand and against each other; products checked
against a schoolbook product that reduces by long division by Phi_m.
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
    cyc_pack,
    cyc_packed_matmul,
    cyc_rank,
    cyc_solve,
    cyc_solve_matrix,
    cyclotomic_polynomial,
)

from oracles import cyc_trace


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


# ---------------------------------------------------------------------------
# products against a schoolbook reference
# ---------------------------------------------------------------------------

def _reference_mul(m, xc, yc):
    """Coefficients of x*y: the full polynomial product, then long
    division by the monic Phi_m from the top degree down."""
    phi_poly = cyclotomic_polynomial(m)
    phi = len(phi_poly) - 1
    prod = [0] * (2 * phi - 1)
    for i, x in enumerate(xc):
        for j, y in enumerate(yc):
            prod[i + j] += x * y
    for top in range(len(prod) - 1, phi - 1, -1):
        lead = prod[top]
        for k, p in enumerate(phi_poly):
            prod[top - phi + k] -= lead * p
    return tuple(prod[:phi])


def _reference_matmul(a, b):
    """Dense schoolbook product of matrices over Q(zeta_m)."""
    m = a[0][0].m
    phi = len(cyclotomic_polynomial(m)) - 1
    out = []
    for arow in a:
        row = []
        for j in range(len(b[0])):
            acc = [0] * phi
            for x, brow in zip(arow, b):
                for k, t in enumerate(_reference_mul(m, x.c, brow[j].c)):
                    acc[k] += t
            row.append(Cyc(m, acc))
        out.append(row)
    return out


_CONDUCTORS = (1, 3, 4, 5, 8, 12)
# int and Fraction coefficients, some of them equal (1 and Q(1), ...)
_coeff = st.one_of(st.integers(-2, 2),
                   st.builds(Q, st.integers(-3, 3), st.integers(1, 3)))


@st.composite
def _matrix_pair(draw):
    m = draw(st.sampled_from(_CONDUCTORS))
    phi = len(cyclotomic_polynomial(m)) - 1
    rows, mid, cols = (draw(st.integers(1, 4)) for _ in range(3))

    def entry():
        if draw(st.booleans()):  # sparse, as the monomial models are
            return Cyc.zero(m)
        return Cyc(m, [draw(_coeff) for _ in range(phi)])

    def matrix(r, c):
        return [[Cyc.zero(m)] * c if draw(st.integers(0, 3)) == 0
                else [entry() for _ in range(c)] for _ in range(r)]

    return m, matrix(rows, mid), matrix(mid, cols)


def _check_products(m, a, b):
    want = _reference_matmul(a, b)
    assert cyc_matmul(a, b) == want
    assert cyc_packed_matmul(m, cyc_pack(a, m), cyc_pack(b, m)) \
        == cyc_pack(want, m)
    one = Cyc.one(m).c
    for arow in a:
        for x, brow in zip(arow, b):
            for y in brow:
                assert (x * y).c == _reference_mul(m, x.c, y.c)
            if x:
                assert _reference_mul(m, x.c, x.inv().c) == one


@settings(max_examples=80, deadline=None)
@given(_matrix_pair())
def test_products_match_the_schoolbook_reference(pair):
    _check_products(*pair)


@pytest.mark.parametrize("m", _CONDUCTORS)
def test_tall_products_with_zero_rows_match_the_reference(m):
    # a 4x2 block times 2x2 and 2x4, with a zero row and mixed int and
    # Fraction coefficients that are equal as numbers
    phi = len(cyclotomic_polynomial(m)) - 1
    z = Cyc.zeta(m)
    half = Cyc.rational(m, Q(1, 2))
    one_q = Cyc(m, [Q(1)] + [Q(0)] * (phi - 1))
    zero = Cyc.zero(m)
    a = [[z, zero], [zero, zero], [half, one_q], [Cyc.one(m), -z]]
    b = [[one_q, z], [z * z, Cyc.one(m)]]
    c = [[z, zero, half, Cyc.one(m)], [zero, zero, -one_q, z]]
    for left, right in ((a, b), (a, c), (c, a)):
        _check_products(m, left, right)


def test_packed_product_drops_cancelled_entries():
    one, zero = Cyc.one(4), Cyc.zero(4)
    a = cyc_pack([[one, one], [zero, zero]], 4)
    b = cyc_pack([[one], [-one]], 4)
    assert cyc_packed_matmul(4, a, b) == ((), ())
    assert cyc_matmul([[one, one], [zero, zero]], [[one], [-one]]) \
        == [[zero], [zero]]


def test_pack_refuses_another_conductor():
    with pytest.raises(ValueError, match="conductor mismatch: 4 and 8"):
        cyc_pack([[Cyc.one(4), Cyc.one(8)]], 4)
    with pytest.raises(ValueError, match="conductor mismatch: 4 and 3"):
        cyc_matmul([[Cyc.one(4)]], [[Cyc.one(3)]])
