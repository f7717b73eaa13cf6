"""Torus-side invariant algebra: residue characters, pair orbits,
stabilizers, block decomposition, and the three-way dimension check."""
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckelab.root_datum import (
    REGISTRY,
    WeylGroup,
    cartan_matrix,
    datum_from_cartan,
    datum_from_config,
    datum_general_linear,
)
from heckelab.torus_center import (
    OrbitSum,
    invariant_dimension,
    orbits,
    residue_modulus,
    roc_decomposition_check,
)

from oracles import weyl_act_pair

GL2 = WeylGroup(datum_general_linear(2))
GL3 = WeylGroup(datum_general_linear(3))
GL1 = WeylGroup(datum_from_cartan([], central_rank=1, label="GL1"))
A1 = WeylGroup(datum_from_cartan(cartan_matrix("A", 1)))
A2 = WeylGroup(datum_from_cartan(cartan_matrix("A", 2)))
B2 = WeylGroup(datum_from_cartan(cartan_matrix("B", 2)))


def _characters(group, modulus):
    # every character of the radius-0 box, as its orbits cover it
    return [chi for o in orbits(group, 0, modulus=modulus)
            for _lam, chi in o.orbit]


def test_character_counts():
    assert len(_characters(GL2, residue_modulus(3))) == 4
    assert len(_characters(GL1, residue_modulus(5))) == 4
    assert len(_characters(GL2, residue_modulus(2))) == 1
    assert len(_characters(GL3, residue_modulus(2))) == 1
    assert len(_characters(A2, residue_modulus(4))) == 9


def test_characters_duplicate_free_and_ordered():
    out = orbits(GL2, 0, modulus=residue_modulus(4))
    chars = [chi for o in out for _lam, chi in o.orbit]
    assert sorted(chars) == list(itertools.product(range(3), repeat=2))
    assert [o.orbit[0] for o in out] == sorted(o.orbit[0] for o in out)
    assert all(o.modulus == 3 for o in out)


def test_character_validation():
    assert [residue_modulus(q) for q in (2, 3, 4, 8, 9, 49)] == [
        1, 2, 3, 7, 8, 48]
    with pytest.raises(ValueError, match="prime power >= 2, got 6"):
        residue_modulus(6)
    with pytest.raises(ValueError, match="prime power >= 2, got 1"):
        residue_modulus(1)
    # the action reduces exponents mod the modulus it is given
    assert weyl_act_pair(GL2, GL2.identity, ((0, 0), (5, -1)), 2) == (
        (0, 0), (1, 1))
    assert weyl_act_pair(GL2, GL2.identity, ((0, 0), (7, 12)), 1) == (
        (0, 0), (0, 0))


def test_character_enumeration_needs_prime_power():
    # q - 1 = 0 would enumerate no characters and an empty center
    for q in (1, 0, 6, -7):
        with pytest.raises(ValueError, match="prime power"):
            residue_modulus(q)
    for modulus in (0, -1):
        with pytest.raises(ValueError, match="modulus must be >= 1"):
            orbits(GL2, 1, modulus=modulus)


def test_identity_acts_trivially():
    pair = ((3, -1), (1, 2))
    assert weyl_act_pair(GL2, GL2.identity, pair, 3) == pair


def test_swap_example():
    s = GL2.simple_reflection(0)
    assert weyl_act_pair(GL2, s, ((1, 0), (1, 2)), 3) == ((0, 1), (2, 1))


@pytest.mark.parametrize("group", [A1, A2, GL2, GL3, B2],
                         ids=["A1", "A2", "GL2", "GL3", "B2"])
def test_action_laws_over_whole_group(group):
    rank = group.datum.ambient_rank
    pairs = [((1,) + (0,) * (rank - 1), (1,) * rank),
             (tuple(range(1, rank + 1)), (0,) * rank)]
    for w1 in group.elements:
        for w2 in group.elements:
            both = group.mul(w1, w2)
            for p in pairs:
                assert weyl_act_pair(group, both, p, 2) == weyl_act_pair(
                    group, w1, weyl_act_pair(group, w2, p, 2), 2)
    for w in group.elements:
        for p in pairs:
            assert weyl_act_pair(group, group.inv(w),
                                 weyl_act_pair(group, w, p, 2), 2) == p


def test_singleton_orbit():
    out = orbits(GL2, 0, modulus=1)
    assert out == [OrbitSum((((0, 0), (0, 0)),), 1)]


def test_two_element_orbit_oracle():
    target = ((1, 0), (1, 0))
    match = [o for o in orbits(GL2, 1, modulus=2) if target in o.orbit]
    assert match == [OrbitSum((((0, 1), (0, 1)), ((1, 0), (1, 0))), 2)]


def test_orbits_partition_the_box():
    out = orbits(GL2, 1, modulus=2)
    seen: set = set()
    for o in out:
        members = set(o.orbit)
        assert not (members & seen)
        seen |= members
        assert list(o.orbit) == sorted(o.orbit)
    box = {(l1, l2) for l1 in (-1, 0, 1) for l2 in (-1, 0, 1)}
    for lam in box:
        for chi in ((0, 0), (0, 1), (1, 0), (1, 1)):
            assert (lam, chi) in seen


def test_negative_radius_rejected():
    with pytest.raises(ValueError, match="radius"):
        orbits(GL2, -1, modulus=2)


def test_stabilizer_oracles():
    assert len(GL2.character_stabilizer((0, 0), 2)) == 2
    assert len(GL2.character_stabilizer((1, 1), 2)) == 2
    stab = GL2.character_stabilizer((1, 0), 2)
    assert len(stab) == 1 and GL2.words[stab[0]] == ()
    assert len(GL3.character_stabilizer((0, 0, 0), 2)) == 6
    assert len(GL3.character_stabilizer((1, 1, 0), 2)) == 2


@pytest.mark.parametrize("group,q", [
    (GL3, 3), (WeylGroup(datum_from_cartan(cartan_matrix("G", 2))), 3),
    (GL2, 7)], ids=["gl3-q3", "g2-q3", "gl2-q7"])
def test_memoised_stabilizer_matches_a_brute_filter(group, q):
    zero = (0,) * group.datum.ambient_rank
    m = residue_modulus(q)
    for chi in _characters(group, m):
        brute = tuple(w for w in group.elements
                      if weyl_act_pair(group, w, (zero, chi), m)[1] == chi)
        stab = group.character_stabilizer(chi, m)
        assert stab == brute
        # a second call hands back the memoised tuple itself, also for
        # exponents that are not reduced mod m
        assert group.character_stabilizer(chi, m) is stab
        unreduced = tuple(c + m for c in chi)
        assert group.character_stabilizer(unreduced, m) is stab


def test_roc_singleton_passes():
    rep = roc_decomposition_check(GL2, orbits(GL2, 0, modulus=1)[0])
    assert rep.ok and rep.failures == ()
    assert rep.block_sizes == (1,)


def test_roc_gl2_full_sweep():
    for q in (2, 3, 4):
        for o in orbits(GL2, 2, modulus=residue_modulus(q)):
            rep = roc_decomposition_check(GL2, o)
            assert rep.ok, (q, rep.failures)
            assert sum(rep.block_sizes) == len(o.orbit)
            assert len(rep.block_characters) == len(
                {p[1] for p in o.orbit})


def test_roc_gl3_trivial_character_only():
    for o in orbits(GL3, 1, modulus=1):
        rep = roc_decomposition_check(GL3, o)
        assert rep.ok
        assert rep.block_characters == ((0, 0, 0),)
        assert rep.block_sizes == (len(o.orbit),)


def test_roc_block_structure_oracles():
    def orbit_of(pair):
        return next(o for o in orbits(GL2, 1, modulus=2) if pair in o.orbit)

    rep = roc_decomposition_check(GL2, orbit_of(((1, 0), (1, 0))))
    assert rep.block_characters == ((0, 1), (1, 0))
    assert rep.block_sizes == (1, 1)

    rep = roc_decomposition_check(GL2, orbit_of(((1, 0), (0, 0))))
    assert rep.block_sizes == (2,)

    rep = roc_decomposition_check(GL2, orbit_of(((1, -1), (1, 1))))
    assert rep.block_characters == ((1, 1),)
    assert rep.block_sizes == (2,)


def test_roc_rejects_non_orbit():
    two = [o for o in orbits(GL2, 1, modulus=2) if len(o.orbit) == 2]
    with pytest.raises(ValueError, match="not a single orbit"):
        roc_decomposition_check(GL2, OrbitSum(two[0].orbit[:1], 2))
    with pytest.raises(ValueError, match="empty"):
        roc_decomposition_check(GL2, OrbitSum((), 2))
    # closed under the group, but not connected
    union = OrbitSum(tuple(sorted(two[0].orbit + two[1].orbit)), 2)
    with pytest.raises(ValueError, match="not a single orbit"):
        roc_decomposition_check(GL2, union)
    # right size, one member swapped for a pair of another orbit
    swapped = OrbitSum((two[0].orbit[0], two[1].orbit[1]), 2)
    with pytest.raises(ValueError, match="not a single orbit"):
        roc_decomposition_check(GL2, swapped)
    # a repeated member keeps the member set an orbit; the sum is wrong
    rep = roc_decomposition_check(
        GL2, OrbitSum(two[0].orbit + two[0].orbit[-1:], 2))
    assert rep.failures == ("block sums do not add up to the orbit sum",)


def _gl3_three_blocks() -> OrbitSum:
    # members, in order: (0,0,1) and (0,1,0) with chi = (0,1,1); (0,0,1)
    # and (1,0,0) with (1,0,1); (0,1,0) and (1,0,0) with (1,1,0)
    pair = ((1, 0, 0), (1, 1, 0))
    return next(o for o in orbits(GL3, 1, modulus=2) if pair in o.orbit)


def _broken_action(monkeypatch, breaks):
    # permutation_action with each element's permutation passed through
    # breaks(w, perm) as a mutable list
    real = WeylGroup.permutation_action

    def broken(group, size, simple):
        return [breaks(w, list(pi))
                for w, pi in zip(group.elements, real(group, size, simple))]
    monkeypatch.setattr(WeylGroup, "permutation_action", broken)


def test_roc_catches_a_stabilizer_that_does_not_reach_its_block(monkeypatch):
    osum = _gl3_three_blocks()
    assert roc_decomposition_check(GL3, osum).ok
    chi = (1, 0, 1)
    stab = set(GL3.character_stabilizer(chi, 2))
    block = [j for j, (_lam, c) in enumerate(osum.orbit) if c == chi]
    assert block == [1, 4]

    # W_chi acts as the identity on chi's block and truly elsewhere: each
    # permutation stays a bijection that fixes the block, and member 0
    # still reaches every member
    def freeze(w, pi):
        if w in stab:
            for j in block:
                pi[j] = j
        return pi
    _broken_action(monkeypatch, freeze)
    rep = roc_decomposition_check(GL3, osum)
    assert rep.failures == ("block (1, 0, 1): stabilizer orbit of (0, 0, 1) "
                            "has 1 members, the block has 2",)


def test_roc_catches_a_block_sum_that_is_not_fixed(monkeypatch):
    osum = _gl3_three_blocks()

    # the identity swaps members 4 and 5, neither a block's seed nor
    # member 0: their blocks (1,0,1) and (1,1,0) are no longer fixed
    def swap(w, pi):
        if w == GL3.identity:
            pi[4], pi[5] = pi[5], pi[4]
        return pi
    _broken_action(monkeypatch, swap)
    rep = roc_decomposition_check(GL3, osum)
    assert rep.failures == ("block (1, 0, 1): sum is not fixed by <e>",
                            "block (1, 1, 0): sum is not fixed by <e>")


def test_invariant_dimension_catches_a_fixed_total_off_burnside(monkeypatch):
    orbs = orbits(GL3, 1, modulus=1)
    assert invariant_dimension(GL3, orbs) == 10

    # the identity swapping two pairs fixes 2 fewer: 2 is not 0 mod 6
    def swap(w, pi):
        if w == GL3.identity:
            pi[0], pi[1] = pi[1], pi[0]
        return pi
    _broken_action(monkeypatch, swap)
    with pytest.raises(AssertionError, match="not divisible by group order"):
        invariant_dimension(GL3, orbs)


def test_invariant_dimension_catches_counts_that_disagree():
    # a repeated orbit adds to the count but not to the pair span
    orbs = orbits(GL2, 1, modulus=2)
    assert invariant_dimension(GL2, orbs) == 21
    with pytest.raises(AssertionError, match="orbit count 22, kernel "
                       "dimension 21, and Burnside count 21 disagree"):
        invariant_dimension(GL2, orbs + orbs[:1])


def test_invariant_dimension_needs_one_modulus():
    assert invariant_dimension(GL2, []) == 0
    mixed = orbits(GL2, 1, modulus=2) + orbits(GL2, 0, modulus=1)
    with pytest.raises(ValueError, match=r"mixed moduli \[1, 2\]"):
        invariant_dimension(GL2, mixed)


def test_stabilizer_of_a_broken_action_is_not_closed(monkeypatch):
    # s_0 made to fix every character: the stabilizer of (1, 0, 0) mod 2
    # gains s_0 beside {e, s_1}, but not s_0 s_1
    group = WeylGroup(datum_general_linear(3))
    real = WeylGroup.act_character
    s0 = group.simple_reflection(0)
    monkeypatch.setattr(WeylGroup, "act_character",
                        lambda g, w, x: tuple(x) if w == s0 else real(g, w, x))
    with pytest.raises(AssertionError, match="stabilizer is not closed"):
        group.character_stabilizer((1, 0, 0), 2)


# m = 20 is the modulus of the depth-two characters at p = 5, and no
# prime power q has q - 1 = 20; GL2's count is also Burnside's by hand:
# the identity fixes 9 * 400 pairs, the swap 3 diagonal coweights times
# 20 symmetric characters
@pytest.mark.parametrize("group,expect", [(GL2, (3600 + 60) // 2), (A2, 897)],
                         ids=["gl2", "a2"])
def test_a_modulus_no_prime_power_gives(group, expect):
    with pytest.raises(ValueError, match="prime power"):
        residue_modulus(21)
    orbs = orbits(group, 1, modulus=20)
    assert invariant_dimension(group, orbs) == len(orbs) == expect
    assert {o.modulus for o in orbs} == {20}
    assert {c for o in orbs for _lam, chi in o.orbit for c in chi} == set(
        range(20))
    for o in orbs:
        rep = roc_decomposition_check(group, o)
        assert rep.ok, (o.orbit[0], rep.failures)
        assert sum(rep.block_sizes) == len(o.orbit)


# three-way dimension values, frozen from independent hand counts where
# feasible (GL2 values also follow from the Burnside formula by hand)
@pytest.mark.parametrize("group,q,radius,expect", [
    (GL2, 2, 0, 1),
    (GL2, 3, 1, 21),
    (GL2, 3, 2, 55),
    (GL2, 2, 2, 15),
    (GL2, 4, 2, 120),
    (A1, 2, 2, 3),
    (A2, 2, 2, 9),
    (A2, 3, 1, 12),
    (GL1, 5, 1, 12),
], ids=["gl2-q2-r0", "gl2-q3-r1", "gl2-q3-r2", "gl2-q2-r2", "gl2-q4-r2",
        "a1-q2-r2", "a2-q2-r2", "a2-q3-r1", "gl1-q5-r1"])
def test_invariant_dimension_oracles(group, q, radius, expect):
    orbs = orbits(group, radius, modulus=residue_modulus(q))
    assert invariant_dimension(group, orbs) == expect


def test_gl2_burnside_by_hand():
    # box 5x5 coweights, 4 characters: identity fixes 100 pairs, the
    # swap fixes 5 diagonal coweights x 2 symmetric characters
    assert invariant_dimension(GL2, orbits(GL2, 2, modulus=2)) == (100 + 10) // 2


def test_a2_orbits_escape_the_box_but_stay_closed():
    gens = [A2.simple_reflection(i) for i in range(2)]
    escaped = 0
    for o in orbits(A2, 2, modulus=1):
        members = set(o.orbit)
        if any(max(abs(x) for x in lam) > 2 for lam, _ in o.orbit):
            escaped += 1
        for p in o.orbit:
            for s in gens:
                assert weyl_act_pair(A2, s, p, 1) in members
    assert escaped == 3


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["gl2-3", "a2-2", "b2-2"]), st.data())
def test_orbit_sums_are_invariant(tag, data):
    group, q = {"gl2-3": (GL2, 3), "a2-2": (A2, 2),
                "b2-2": (B2, 2)}[tag]
    o = data.draw(st.sampled_from(orbits(group, 1, modulus=q - 1)))
    w = data.draw(st.sampled_from(group.elements))
    assert {weyl_act_pair(group, w, p, q - 1) for p in o.orbit} == set(o.orbit)


@pytest.mark.parametrize("name,q,radius", [("gl2", 7, 2), ("g2", 3, 2),
                                           ("gl4", 3, 1)])
def test_simple_pair_images_are_the_one_letter_actions(name, q, radius):
    # the memoised table behind orbits, the block check and the kernel
    # rows returns what the general action returns, and is built once
    group = WeylGroup(datum_from_config(REGISTRY[name]))
    m = residue_modulus(q)
    gens = [group.simple_reflection(i)
            for i in range(len(group.datum.simple))]
    for o in orbits(group, radius, modulus=m):
        for p in o.orbit:
            images = group.simple_pair_images(p, m)
            assert list(images) == [weyl_act_pair(group, s, p, m)
                                    for s in gens]
            assert group.simple_pair_images(p, m) is images
