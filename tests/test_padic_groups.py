"""Bound-matrix groups: construction, volumes, factorization.

Numeric oracles: point counts over Z/p^N computed from the literal
per-entry value lists, and indices in GL_2 computed as exact ratios of
those counts for p in {2, 3}; the symbolic machinery must reproduce
them.  The wall-point bound matrices are frozen from a hand evaluation
of ceil(r - a(x)) entry by entry.  The exhaustive factorization route
(block-LDU uniqueness and the entrywise sumset test) is checked against
an exact count of distinct products, computed with numpy over the
enumerated group, with factors cut out of that group itself.
"""
import copy
import itertools
import math
import time
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heckelab.apartment import base_alcove_closure_grid, threshold
from heckelab.padic_groups import (
    _INF,
    DEFAULT_BRUTE_CAP,
    MAX_BOUND,
    VolumeExponent,
    _constraint_values,
    _constraints,
    _entry_constraint,
    _entry_exponents,
    _enumerate,
    _factor_constraints,
    _levi_invertible,
    _meets,
    _products_in,
    block_of,
    brute_point_count,
    compare_levi_volumes,
    conjugacy_obstruction,
    conjugate_by_permutation,
    contains,
    count_exponents,
    from_filtration,
    intersect_levi,
    iwahori_factorization_check,
    iwahori_scheme,
    log_volume,
    point_count,
    principal_congruence_scheme,
    scheme,
    theta_blocks,
)
from heckelab.root_datum import datum_from_cartan, datum_general_linear

GL2 = datum_general_linear(2)
GL3 = datum_general_linear(3)

I2 = iwahori_scheme(2)                      # [[0,0],[1,0]]
K1 = principal_congruence_scheme(2, 1)      # [[1,1],[1,1]]
I1 = scheme([[1, 1], [2, 1]])               # pro-unipotent radical of I2

# depth-1 groups at the wall point (1/2, 0, 0) and at its reflection
WALL = scheme([[1, 1, 1], [2, 1, 1], [2, 1, 1]])
WALL_SWAP = scheme([[1, 2, 1], [1, 1, 1], [1, 2, 1]])


def _elements(K, p, N):
    """Every matrix over Z/p^N in K, as an int64 array of shape
    (count, n, n): every choice of one value per entry."""
    n = K.size
    values = [np.array(v, dtype=np.int64)
              for row in _enumerate(_constraints(K), p, N, DEFAULT_BRUTE_CAP)
              for v in row]
    grids = np.meshgrid(*values, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1).reshape(-1, n, n)


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_constructor_rejects_non_square():
    with pytest.raises(ValueError):
        scheme([[1, 1], [1, 1], [1, 1]])


def test_constructor_rejects_negative_bound():
    with pytest.raises(ValueError):
        scheme([[1, -1], [1, 1]])


def test_constructor_rejects_bound_above_max_bound():
    # N = largest bound + 1 must stay below the frozen-entry sentinel
    assert principal_congruence_scheme(2, MAX_BOUND).max_finite_bound() \
        == MAX_BOUND
    with pytest.raises(ValueError, match=rf"^bound \(1,0\) must be <= "
                       rf"{MAX_BOUND}$"):
        scheme([[1, 0], [MAX_BOUND + 1, 1]])


def test_constructor_rejects_pair_violation():
    # off-diagonal valuations sum to 0, diagonal needs level >= 1
    with pytest.raises(ValueError, match=r"pair \(0,1\)"):
        scheme([[1, 0], [0, 1]])


def test_constructor_rejects_triangle_violation():
    # (2,0) entry claims valuation 3 but products through index 1 only
    # guarantee 2, so the bound set is not multiplicatively closed
    with pytest.raises(ValueError, match=r"triple \(2,1,0\)"):
        scheme([[1, 0, 0], [1, 1, 0], [3, 1, 1]])


def test_iwahori_scheme_shape():
    assert iwahori_scheme(3).bounds == (
        (0, 0, 0), (1, 0, 0), (1, 1, 0))


# ---------------------------------------------------------------------------
# filtration bridge
# ---------------------------------------------------------------------------

def test_from_filtration_wall_point():
    assert from_filtration(GL3, (Q(1, 2), 0, 0), Q(1)).bounds == WALL.bounds


def test_from_filtration_swapped_wall_point():
    assert from_filtration(GL3, (0, Q(1, 2), 0), Q(1)).bounds == WALL_SWAP.bounds


def test_from_filtration_half_depth_origin():
    assert from_filtration(GL2, (0, 0), Q(1, 2)).bounds == ((1, 1), (1, 1))


@pytest.mark.parametrize("datum", [GL2, GL3], ids=["gl2", "gl3"])
@pytest.mark.parametrize("r", [Q(1, 2), Q(1), Q(3, 2), Q(2)], ids=str)
def test_from_filtration_is_the_threshold_matrix(datum, r):
    # entry (i, j) off the diagonal is the threshold of e_i - e_j, every
    # diagonal entry is ceil(r), at every point of the closure grid
    n = datum.ambient_rank
    for x in base_alcove_closure_grid(datum, 4):
        expected = tuple(tuple(
            math.ceil(r) if i == j else threshold(
                datum, tuple(1 if k == i else (-1 if k == j else 0)
                             for k in range(n)), x, r)
            for j in range(n)) for i in range(n))
        assert from_filtration(datum, x, r).bounds == expected, x


def test_from_filtration_rejects_far_away_points():
    # threshold of e1-e2 at (2,0) and depth 1/2 is -1: the group is not
    # contained in the integral points and has no bound-matrix model
    with pytest.raises(ValueError, match="^negative bound: the point is too "
                       "far from the base point for a single integral "
                       "model$"):
        from_filtration(GL2, (2, 0), Q(1, 2))


@pytest.mark.parametrize("r", [Q(0), Q(-1, 2)], ids=str)
def test_from_filtration_rejects_nonpositive_depth(r):
    with pytest.raises(ValueError, match="^depth must be positive$"):
        from_filtration(GL3, (0, 0, 0), r)


def test_from_filtration_needs_general_linear_datum():
    needle = "^filtration bridge needs a general-linear datum$"
    a2 = datum_from_cartan([[2, -1], [-1, 2]], label="A2")
    with pytest.raises(ValueError, match=needle):
        from_filtration(a2, (0, 0), Q(1))
    # the label is free text: an A2 Cartan datum called GL3 is no GL3
    fake = datum_from_cartan([[2, -1], [-1, 2]], label="GL3")
    with pytest.raises(ValueError, match=needle):
        from_filtration(fake, (0, 0), Q(1))


# ---------------------------------------------------------------------------
# permutation conjugation
# ---------------------------------------------------------------------------

def test_conjugation_matches_reflected_point():
    # swapping coordinates 0,1 must reproduce the bounds computed
    # directly at the swapped point
    assert conjugate_by_permutation(WALL, (1, 0, 2)).bounds == WALL_SWAP.bounds


def test_conjugation_rejects_non_permutation():
    with pytest.raises(ValueError):
        conjugate_by_permutation(WALL, (0, 0, 2))


def test_conjugation_preserves_point_count():
    for N in (2, 3):
        assert count_exponents(WALL, N) == count_exponents(WALL_SWAP, N)


# ---------------------------------------------------------------------------
# Levi intersection
# ---------------------------------------------------------------------------

def test_intersect_levi_blocks():
    L = intersect_levi(WALL, [(0,), (1, 2)])
    assert L.bounds == (
        (1, None, None),
        (None, 1, 1),
        (None, 1, 1))
    Ls = intersect_levi(WALL_SWAP, [(0,), (1, 2)])
    assert Ls.bounds == (
        (1, None, None),
        (None, 1, 1),
        (None, 2, 1))


def test_intersect_levi_rejects_scrambled_blocks():
    with pytest.raises(ValueError):
        intersect_levi(WALL, [(0, 2), (1,)])


def test_theta_blocks_merge_adjacent_rows():
    assert theta_blocks(3, (1,)) == ((0,), (1, 2))
    assert theta_blocks(3, ()) == ((0,), (1,), (2,))
    assert theta_blocks(3, (0, 1)) == ((0, 1, 2),)


def test_block_extraction():
    L = intersect_levi(WALL, [(0,), (1, 2)])
    assert block_of(L, (1, 2)).bounds == ((1, 1), (1, 1))
    Ls = intersect_levi(WALL_SWAP, [(0,), (1, 2)])
    assert block_of(Ls, (1, 2)).bounds == ((1, 1), (2, 1))


# ---------------------------------------------------------------------------
# point counts and volumes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("K,p,N,expected", [
    (I2, 2, 2, 32), (I2, 3, 2, 972),
    (K1, 2, 2, 16), (K1, 3, 2, 81),
    (I1, 2, 2, 8), (I1, 3, 2, 27),
    (I2, 2, 3, 2 ** 9), (K1, 2, 3, 2 ** 8), (I1, 2, 3, 2 ** 7),
])
def test_point_count_formula_matches_enumeration(K, p, N, expected):
    assert point_count(K, p, N) == expected
    assert brute_point_count(K, p, N) == expected


def test_enumeration_cap_checked_before_any_array_is_built():
    # 2^N unit-diagonal residues per diagonal entry: building them first
    # took a Python loop over range(2^N), a quarter of a second at N = 20
    start = time.perf_counter()
    assert brute_point_count(I2, 2, 22, cap=10) is None
    assert time.perf_counter() - start < 0.05
    # at and under the cap the enumeration is unchanged
    for K, p, N in [(I2, 2, 3), (K1, 3, 2), (I1, 2, 4), (WALL, 2, 2)]:
        count = point_count(K, p, N)
        assert brute_point_count(K, p, N, cap=count) == count
        assert brute_point_count(K, p, N, cap=count - 1) is None
        assert len(_elements(K, p, N)) == count


def _every_entry_constraint():
    """Each constraint the group and factorization grids use on four
    schemes, one of them a Levi intersection with frozen entries, and the
    largest finite bound among them."""
    split = [(0,), (1, 2)]
    cases = [(iwahori_scheme(3), [(0,), (1,), (2,)]), (WALL, split),
             (principal_congruence_scheme(2, 2), [(0,), (1,)]),
             (intersect_levi(WALL, split), split)]
    found = set()
    for K, blocks in cases:
        found |= {_entry_constraint(K, i, j)
                  for i in range(K.size) for j in range(K.size)}
        for part in ("levi", "upper", "lower"):
            found |= {c for row in _factor_constraints(K, blocks, part)
                      for c in row}
    return sorted(found), max(K.max_finite_bound() for K, _ in cases)


@pytest.mark.parametrize("p", [2, 3])
def test_entry_rules_agree_on_every_constraint(p):
    # the value list, the membership rule and the count exponents are
    # three readings of one constraint; each must give the same residues
    constraints, top = _every_entry_constraint()
    assert {("unit",), ("class", 0, 0), ("class", 0, _INF),
            ("class", 1, _INF)} <= set(constraints)
    for c in constraints:
        for N in range(1, top + 3):
            values = _constraint_values(c, p, N)
            members = [v for v in range(p ** N) if _meets(c, v, p, N)]
            assert values == members, (c, N)
            a, b = _entry_exponents(c, N)
            assert len(values) == p ** a * (p - 1) ** b, (c, N)


def test_point_count_rejects_small_level():
    with pytest.raises(ValueError):
        count_exponents(I1, 1)


def test_containments():
    assert contains(I2, K1) and contains(I2, I1) and contains(K1, I1)
    assert not contains(K1, I2)
    assert not contains(I1, K1)


def test_index_of_principal_in_iwahori():
    vol = log_volume(K1, I2)
    assert (vol.q_power, vol.unit_power) == (1, 2)
    assert str(vol) == "q*(q-1)^2"


def test_index_of_pro_unipotent_in_iwahori():
    vol = log_volume(I1, I2)
    assert (vol.q_power, vol.unit_power) == (2, 2)
    assert str(vol) == "q^2*(q-1)^2"


@pytest.mark.parametrize("p", [2, 3])
def test_indices_cross_checked_by_enumeration(p):
    # exact integer ratio of enumerated group orders in GL_2(Z/p^2)
    ratio_k1 = Q(brute_point_count(I2, p, 2), brute_point_count(K1, p, 2))
    ratio_i1 = Q(brute_point_count(I2, p, 2), brute_point_count(I1, p, 2))
    assert ratio_k1 == log_volume(K1, I2).evaluate(p)
    assert ratio_i1 == log_volume(I1, I2).evaluate(p)


def test_log_volume_requires_containment():
    with pytest.raises(ValueError):
        log_volume(I2, K1)


def test_trivial_index_is_one():
    vol = log_volume(K1, K1)
    assert vol == VolumeExponent(0, 0) and str(vol) == "1"


def test_equal_groups_volume_inconclusive():
    assert conjugacy_obstruction(WALL, WALL_SWAP) == "INCONCLUSIVE"


def test_distinct_volume_between_filtration_levels():
    assert conjugacy_obstruction(K1, I1) == "DISTINCT_VOLUME"


# ---------------------------------------------------------------------------
# the wall-point obstruction, end to end
# ---------------------------------------------------------------------------

def test_wall_point_levi_blocks_have_distinct_volume():
    # the depth-1 groups at (1/2,0,0) and its reflection restrict to
    # the same 2x2 Levi with different volumes, so the restrictions are
    # not conjugate inside that Levi
    part = [(0,), (1, 2)]
    b1 = block_of(intersect_levi(WALL, part), (1, 2))
    b2 = block_of(intersect_levi(WALL_SWAP, part), (1, 2))
    assert conjugacy_obstruction(b1, b2) == "DISTINCT_VOLUME"
    # concretely: one is the principal congruence group, the other the
    # pro-unipotent radical of the Iwahori, index gap a factor of q
    vol = log_volume(b2, b1)
    assert (vol.q_power, vol.unit_power) == (1, 0)


def test_levi_volume_comparison_at_the_wall_point():
    # theta = {1} cuts rows into 0 | 1,2: the 1x1 blocks agree, the 2x2
    # blocks are the principal congruence group and the pro-unipotent
    # radical
    cmp = compare_levi_volumes(WALL, WALL_SWAP, (1,))
    assert cmp.at_x.bounds == intersect_levi(WALL, [(0,), (1, 2)]).bounds
    assert cmp.at_image.bounds == intersect_levi(WALL_SWAP,
                                                 [(0,), (1, 2)]).bounds
    assert cmp.blocks == (((0,), "INCONCLUSIVE"),
                          ((1, 2), "DISTINCT_VOLUME"))
    assert cmp.status == "DISTINCT_VOLUME"
    # theta = {0} cuts 0,1 | 2, where the two models agree block by block
    assert compare_levi_volumes(WALL, WALL_SWAP, (0,)).status \
        == "INCONCLUSIVE"


def test_interior_critical_depth_levi_blocks_distinct():
    # interior point (1/2,1/3,0) at depth 1/2: the reflection through
    # e2-e3 changes the volume of the e1-e2 Levi block, the interior
    # failure mode at non-regular fractional depth
    x = (Q(1, 2), Q(1, 3), Q(0))
    x_img = (Q(1, 2), Q(0), Q(1, 3))
    K = from_filtration(GL3, x, Q(1, 2))
    Kv = from_filtration(GL3, x_img, Q(1, 2))
    part = [(0, 1), (2,)]
    b1 = block_of(intersect_levi(K, part), (0, 1))
    b2 = block_of(intersect_levi(Kv, part), (0, 1))
    assert b1.bounds == ((1, 1), (1, 1))
    assert b2.bounds == ((1, 0), (1, 1))
    assert conjugacy_obstruction(b1, b2) == "DISTINCT_VOLUME"


# ---------------------------------------------------------------------------
# Iwahori factorization
# ---------------------------------------------------------------------------

def test_factorization_iwahori_gl2():
    rep = iwahori_factorization_check(I2, [(0,), (1,)])
    assert rep.analytic_match
    assert rep.exhaustive == ((2, True), (3, True))
    assert rep.passed and rep.fully_verified and not rep.flags


def test_factorization_pro_unipotent_gl2_both_conventions():
    for conv in ("upper", "lower"):
        rep = iwahori_factorization_check(I1, [(0,), (1,)], convention=conv)
        assert rep.passed and rep.fully_verified


def test_factorization_wall_point_gl3():
    rep = iwahori_factorization_check(WALL, [(0,), (1, 2)])
    assert rep.analytic_match
    assert dict(rep.exhaustive)[2] is True
    assert rep.passed


def test_factorization_gl3_flags_oversized_brute_force():
    rep = iwahori_factorization_check(WALL, [(0,), (1, 2)], cap=10_000)
    assert rep.analytic_match and rep.passed
    assert dict(rep.exhaustive)[2] is None
    assert any("UNVERIFIED_EXHAUSTIVELY" in f for f in rep.flags)
    assert not rep.fully_verified


def _distinct_rows(mats):
    # each matrix as one row of its entries, in the least unsigned type
    # that holds them, sorted by every entry column; a row that differs
    # from the one before it starts a new distinct matrix
    flat = mats.reshape(len(mats), -1).astype(np.min_scalar_type(mats.max()))
    flat = flat[np.lexsort(flat.T[::-1])]
    fresh = np.ones(len(flat), dtype=bool)
    fresh[1:] = (flat[1:] != flat[:-1]).any(axis=1)
    return flat[fresh]


def _distinct_product_verdict(K, blocks, convention, p):
    """Literal set equality, counted exactly: the factors are the block
    lower unipotent, block diagonal and block upper unipotent elements
    of K's own point set, and their products must be exactly that set."""
    N = K.max_finite_bound() + 1
    mod, n = p ** N, K.size
    elems = _elements(K, p, N)
    owner = [b for b, block in enumerate(blocks) for _ in block]
    below = np.array([[owner[i] > owner[j] for j in range(n)]
                      for i in range(n)])
    above, within = below.T, ~(below | below.T)
    eye = np.eye(n, dtype=np.int64)

    def unipotent(zero_part):
        return elems[(elems[:, zero_part] == 0).all(axis=1)
                     & (elems[:, within] == eye[within]).all(axis=1)]

    lo, hi = unipotent(above), unipotent(below)
    if convention == "lower":
        lo, hi = hi, lo
    mid = elems[(elems[:, ~within] == 0).all(axis=1)]
    pairs = (lo[:, None] @ mid[None]).reshape(-1, n, n) % mod
    prods = (pairs[:, None] @ hi[None]).reshape(-1, n, n) % mod
    return np.array_equal(_distinct_rows(prods), _distinct_rows(elems))


CRITERION_3_CASES = [
    (from_filtration(datum, x, r), blocks)
    for datum, partitions in (
        (GL2, [((0,), (1,))]),
        (GL3, [((0,), (1,), (2,)), ((0,), (1, 2)), ((0, 1), (2,))]))
    for x in base_alcove_closure_grid(datum, 2)
    for r in (Q(1, 2), Q(1))
    for blocks in partitions]


def test_uniqueness_route_agrees_with_distinct_count_on_criterion_3_grid():
    compared = 0
    for K, blocks in CRITERION_3_CASES:
        rep = iwahori_factorization_check(K, blocks)
        for p, verdict in rep.exhaustive:
            if verdict is not None:
                assert verdict is _distinct_product_verdict(K, blocks,
                                                            "upper", p)
                compared += 1
    assert len(CRITERION_3_CASES) == 42 and compared == 60


def test_lower_convention_agrees_with_distinct_count():
    for K, blocks in CRITERION_3_CASES[::7]:
        rep = iwahori_factorization_check(K, blocks, convention="lower",
                                          cap=300_000)
        for p, verdict in rep.exhaustive:
            if verdict is not None:
                assert verdict is _distinct_product_verdict(K, blocks,
                                                            "lower", p)


# x = 0 at depth 4 in GL4: at p = 2 every partition's product set has
# 2^16 points, 4 x 4 matrices mod 2^5, 80 bits of entries each
GL4_DEPTH4 = from_filtration(datum_general_linear(4), (0, 0, 0, 0), Q(4))
GL4_PARTITIONS = [((0,), (1, 2, 3)), ((0, 1), (2, 3)), ((0, 1, 2), (3,)),
                  ((0,), (1,), (2, 3)), ((0,), (1, 2), (3,)),
                  ((0, 1), (2,), (3,)), ((0,), (1,), (2,), (3,))]


@pytest.mark.parametrize("blocks", GL4_PARTITIONS)
def test_gl4_depth4_factorization_verified_at_2(blocks):
    rep = iwahori_factorization_check(GL4_DEPTH4, blocks)
    assert rep.exhaustive[0] == (2, True) and rep.passed
    assert _distinct_product_verdict(GL4_DEPTH4, blocks, "upper", 2)


@pytest.mark.parametrize("r", [20, 30, 40])
def test_deep_gl2_never_false_and_flags_int64_overflow(r):
    # entries mod p^N up to 3^41: the exact route verifies every prime,
    # and the int64 oracle is compared only where n (p^N - 1)^2 < 2^63,
    # the primes at which its matrix products cannot overflow
    K = from_filtration(GL2, (0, 0), Q(r))
    N = K.max_finite_bound() + 1
    rep = iwahori_factorization_check(K, [(0,), (1,)])
    assert rep.exhaustive == ((2, True), (3, True)) and not rep.flags
    compared = [p for p in (2, 3) if 2 * (p ** N - 1) ** 2 < 2 ** 63]
    for p in compared:
        assert _distinct_product_verdict(K, [(0,), (1,)], "upper", p)
    assert compared == ([2] if r < 40 else [])


def test_levi_invertibility_check_catches_a_singular_block():
    blocks = [(0,), (1, 2)]
    levi = _enumerate(_factor_constraints(WALL, blocks, "levi"), 3, 2,
                      DEFAULT_BRUTE_CAP)
    assert _levi_invertible(levi, blocks, 3)
    singular = copy.deepcopy(levi)
    # the Levi element with block [[1, 3], [3, 0]]: second row zero mod 3
    assert 1 in levi[1][1] and 3 in levi[1][2] and 3 in levi[2][1]
    singular[2][2] = levi[2][2] + [0]
    assert not _levi_invertible(singular, blocks, 3)
    singular = copy.deepcopy(levi)
    singular[0][0] = levi[0][0] + [6]          # a 1x1 block divisible by 3
    assert not _levi_invertible(singular, blocks, 3)


def _tightened(c):
    """The constraint of the same entry with its bound raised by one."""
    return ("class", 1, 1) if c == ("unit",) else ("class", c[1], c[2] + 1)


@pytest.mark.parametrize("K,blocks", [
    (WALL, [(0,), (1, 2)]), (I2, [(0,), (1,)]),
    (from_filtration(GL3, (Q(1, 2), Q(1, 2), 0), Q(1, 2)), [(0, 1), (2,)])],
    ids=["wall", "iwahori", "criterion-3"])
@pytest.mark.parametrize("p", [2, 3])
def test_entrywise_product_test_rejects_every_tightened_bound(K, blocks, p):
    # the factors' products are exactly K, so once one finite bound of
    # K is raised by one, some product leaves the tightened set and the
    # entrywise sumset test must find it.  Every bound here is finite;
    # only the units at p = 2, which are 1 + 2O, lose no residue
    rep = iwahori_factorization_check(K, blocks, primes=(p,), cap=10 ** 8)
    assert rep.exhaustive == ((p, True),)
    N = K.max_finite_bound() + 1
    lo, mid, hi = (_enumerate(_factor_constraints(K, blocks, part), p, N,
                              10 ** 8)
                   for part in ("lower", "levi", "upper"))
    target = _constraints(K)
    assert _products_in(target, lo, mid, hi, p, N)
    for i, j in itertools.product(range(K.size), repeat=2):
        tight = copy.deepcopy(target)
        tight[i][j] = _tightened(target[i][j])
        if (_constraint_values(tight[i][j], p, N)
                == _constraint_values(target[i][j], p, N)):
            assert (target[i][j], p) == (("unit",), 2)
            continue
        assert not _products_in(tight, lo, mid, hi, p, N), (i, j)


def test_factorization_rejects_bad_convention():
    with pytest.raises(ValueError):
        iwahori_factorization_check(I2, [(0,), (1,)], convention="middle")


def test_non_closed_bounds_fail_before_factorization():
    with pytest.raises(ValueError):
        scheme([[1, 0, 0], [1, 1, 0], [3, 1, 1]])


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

GRID3 = base_alcove_closure_grid(GL3, 3)

coords = st.sampled_from(GRID3)
perms = st.permutations(range(3))
depths = st.sampled_from([Q(1, 2), Q(1), Q(3, 2), Q(2)])


def _gl3_scheme(x, r):
    return from_filtration(GL3, x, r)


@settings(max_examples=50, deadline=None)
@given(coords, depths)
def test_filtration_bounds_always_close(x, r):
    # constructor validation doubles as the closure theorem for
    # ceil(r - a(x)) bound matrices
    K = _gl3_scheme(x, r)
    assert K.size == 3


@settings(max_examples=40, deadline=None)
@given(coords, depths, perms, perms)
def test_conjugation_is_an_action(x, r, s, t):
    K = _gl3_scheme(x, r)
    st_comp = tuple(s[t[i]] for i in range(3))
    assert (conjugate_by_permutation(conjugate_by_permutation(K, s), t).bounds
            == conjugate_by_permutation(K, st_comp).bounds)


@settings(max_examples=40, deadline=None)
@given(coords, depths, perms)
def test_conjugation_preserves_volume(x, r, s):
    K = _gl3_scheme(x, r)
    Kc = conjugate_by_permutation(K, s)
    for N in (K.max_finite_bound() + 1, K.max_finite_bound() + 2):
        assert count_exponents(K, N) == count_exponents(Kc, N)


@settings(max_examples=25, deadline=None)
@given(coords, depths)
def test_factorization_analytic_always_holds(x, r):
    K = _gl3_scheme(x, r)
    rep = iwahori_factorization_check(K, [(0, 1), (2,)], primes=(2,),
                                      cap=300_000)
    assert rep.analytic_match
    assert rep.passed


@settings(max_examples=30, deadline=None)
@given(coords, depths)
def test_brute_count_matches_formula(x, r):
    K = _gl3_scheme(x, r)
    N = K.max_finite_bound() + 1
    cnt = brute_point_count(K, 2, N, cap=600_000)
    if cnt is not None:
        assert cnt == point_count(K, 2, N)


def test_group_elements_are_closed_under_multiplication():
    mats = _elements(I1, 2, 2)
    mod = 4
    prods = np.einsum("aij,bjk->abik", mats, mats).reshape(-1, 2, 2) % mod
    codes = {tuple(m.ravel()) for m in mats}
    assert {tuple(m.ravel()) for m in prods} <= codes
