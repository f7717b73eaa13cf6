"""Table-backed finite groups: constructors, subgroup machinery, and
abelian quotient characters.

Oracles are classical facts about the named groups (orders of elements,
commutator subgroups, class counts) checked against hand-enumerated
values.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckelab.finite_groups import (
    FiniteGroup,
    cyclic,
    dihedral,
    direct_product,
    from_permutations,
    heisenberg,
    quaternion,
    quotient_characters,
)

from oracles import commutator_subgroup, element_order

D8 = dihedral(4)
Q8 = quaternion(8)
HE3 = heisenberg(3)


def test_identity_and_inverses():
    for g in (D8, Q8, HE3):
        for x in range(g.order):
            assert g.mul(x, g.inv(x)) == 0
            assert g.mul(0, x) == x


def test_rejects_non_latin_square():
    with pytest.raises(ValueError, match="Latin square"):
        FiniteGroup(((0, 0), (1, 1)))


def test_rejects_nonassociative_latin_square():
    # a loop of order 5 (Latin square, identity 0) with 1*1 = 0 but
    # (1*2)*1 = 4 != 2 = 1*(2*1): not a group
    with pytest.raises(ValueError, match="associativity"):
        FiniteGroup(((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3),
                     (3, 2, 4, 0, 1), (4, 3, 1, 2, 0)))


def test_rejects_latin_rows_with_a_repeated_column():
    # every row is a permutation and 0 is an identity, but column 1
    # reads 1, 2, 1: Light's test refutes (1*1)*1 = 1*(1*1)
    with pytest.raises(ValueError, match="associativity"):
        FiniteGroup(((0, 1, 2), (1, 2, 0), (2, 1, 0)))


def test_greedy_generators():
    assert D8.generators() == [1, 4]
    assert Q8.generators() == [1, 4]
    assert D8.generators((0, 2, 4, 6)) == [2, 4]
    for g in (D8, Q8, HE3, direct_product(Q8, dihedral(4)),
              direct_product(cyclic(2), cyclic(2))):
        gens = g.generators()
        assert g.closure(gens) == tuple(range(g.order))
        assert 2 ** len(gens) <= g.order
        assert all(x not in g.closure(gens[:i]) for i, x in enumerate(gens))


def test_generating_sets_are_memoised(monkeypatch):
    from heckelab import _closure
    calls = []
    greedy = _closure.generators

    def counted(*args):
        calls.append(args)
        return greedy(*args)

    monkeypatch.setattr(_closure, "generators", counted)
    g = dihedral(4)
    calls.clear()  # the constructor's own generating set
    first = g.generators((0, 2, 4, 6))
    first.append(99)  # each call hands out its own list
    assert g.generators([6, 4, 2, 0]) == [2, 4]
    assert g.generators() == [1, 4]
    assert g.is_subgroup((4, 2, 0, 6))
    assert len(calls) == 1
    # a non-subgroup is memoised as None and still refused
    assert not g.is_subgroup((0, 1))
    assert g.generators((1, 0)) is None and not g.is_subgroup((0, 1))
    assert len(calls) == 2


def test_inverse_table():
    for g in (D8, Q8, HE3):
        assert [g.inv(x) for x in range(g.order)] == \
            [row.index(0) for row in g.table]
        assert all(g.conj(h, x) == g.mul(g.mul(h, x), g.inv(h))
                   for h in range(g.order) for x in range(g.order))


def test_rejects_shifted_identity():
    # Latin square whose row 0 is not the identity map
    with pytest.raises(ValueError, match="identity"):
        FiniteGroup(((1, 0), (0, 1)))


def test_dihedral_element_orders():
    # r has order 4, every reflection has order 2
    assert element_order(D8, 1) == 4
    assert element_order(D8, 2) == 2
    for k in range(4, 8):
        assert element_order(D8, k) == 2


def test_quaternion_structure():
    # b^2 = a^2 is the unique central involution
    assert Q8.mul(4, 4) == 2
    assert element_order(Q8, 2) == 2
    assert all(element_order(Q8, x) == 4 for x in (1, 3, 4, 5, 6, 7))
    assert Q8.conj(4, 1) == 3  # b a b^-1 = a^-1


def test_heisenberg_center_and_commutator():
    assert HE3.order == 27
    # [a, b] = z with a = (1,0,0), b = (0,1,0), z = (0,0,1)
    a, b = 9, 3
    comm = HE3.mul(HE3.mul(a, b), HE3.inv(HE3.mul(b, a)))
    assert comm == 1
    assert commutator_subgroup(HE3) == (0, 1, 2)


def test_commutator_subgroups():
    assert commutator_subgroup(D8) == (0, 2)
    assert commutator_subgroup(Q8) == (0, 2)
    assert commutator_subgroup(cyclic(6)) == (0,)


def test_closure_and_subgroups():
    assert D8.closure([1]) == (0, 1, 2, 3)
    assert D8.closure([2, 4]) == (0, 2, 4, 6)
    assert D8.is_subgroup((0, 2, 4, 6))
    assert not D8.is_subgroup((0, 1, 4))
    assert D8.is_normal((0, 2, 4, 6))
    # a reflection pair is not normal in the full dihedral group
    assert not D8.is_normal((0, 4))
    assert D8.is_normal((0, 4), (0, 2, 4, 6))


def test_conjugacy_classes_oracle():
    sizes = sorted(len(c) for c in D8.conjugacy_classes())
    assert sizes == [1, 1, 2, 2, 2]
    sizes = sorted(len(c) for c in Q8.conjugacy_classes())
    assert sizes == [1, 1, 2, 2, 2]
    sizes = sorted(len(c) for c in HE3.conjugacy_classes())
    assert sizes == [1, 1, 1] + [3] * 8


def test_transversal_and_double_cosets():
    reps = D8.transversal((0, 1, 2, 3), tuple(range(8)))
    assert len(reps) == 2 and reps[0] == 0
    dc = D8.double_coset_reps((0, 1, 2, 3))
    assert dc == [0, 4]
    # double cosets of a non-normal subgroup can have unequal sizes
    dc = D8.double_coset_reps((0, 4))
    sizes = []
    for g in dc:
        coset = {D8.mul(D8.mul(a, g), b) for a in (0, 4) for b in (0, 4)}
        sizes.append(len(coset))
    assert sum(sizes) == 8 and sorted(sizes) == [2, 2, 4]


def test_generation_tree_covers_closure():
    tree = D8.generation_tree([1, 4])
    built = {0}
    for elem, parent, gen in tree:
        assert parent in built and gen in (1, 4)
        assert D8.mul(parent, gen) == elem
        built.add(elem)
    assert built == set(range(8))


def test_direct_product_indexing():
    g = direct_product(Q8, cyclic(3))
    assert g.order == 24
    # index arithmetic: (x, c) lives at 3 x + c
    assert g.mul(3 * 1 + 0, 3 * 0 + 1) == 3 * 1 + 1
    assert element_order(g, 3 * 2 + 0) == 2
    assert element_order(g, 1) == 3


def test_direct_product_table_matches_the_coordinate_table():
    # the table read off the factor tables equals the one built from
    # pairs (a, b) and the componentwise product
    for g1, g2 in ((Q8, dihedral(4)), (D8, Q8), (Q8, cyclic(3)),
                   (cyclic(2), HE3)):
        coords = [(a, b) for a in range(g1.order) for b in range(g2.order)]
        index = {c: i for i, c in enumerate(coords)}
        table = tuple(tuple(index[(g1.mul(a, c), g2.mul(b, d))]
                            for c, d in coords) for a, b in coords)
        product = direct_product(g1, g2)
        assert product.table == table
        assert product.label == f"{g1.label}x{g2.label}"


def test_quotient_is_abelian_matches_the_commutator_subgroup():
    # the generator commutators decide G/N abelian as [G, G] <= N does,
    # on every normal subgroup of every group of the builtin catalog
    from heckelab.catalog import build_catalog
    from heckelab.clifford_lab import _subgroups_between
    groups = {m.group.table: m.group for m in build_catalog()}.values()
    for g in groups:
        derived = set(commutator_subgroup(g))
        normals = [s for s in _subgroups_between(g, (0,), range(g.order))
                   if g.is_normal(s)]
        assert {(0,), tuple(range(g.order))} <= set(normals)
        for n in normals:
            assert g.quotient_is_abelian(n) == (derived <= set(n))
        # G over its trivial subgroup is abelian only for abelian G
        assert g.quotient_is_abelian((0,)) == (derived == {0})


def test_from_permutations_s3():
    s3 = from_permutations([(1, 0, 2), (0, 2, 1)])
    assert s3.order == 6
    assert sorted(element_order(s3, x) for x in range(6)) == [1, 2, 2, 2, 3, 3]


def test_quotient_characters_oracles():
    e, chars = quotient_characters(Q8, tuple(range(8)), (0, 2))
    assert e == 2 and len(chars) == 4
    # the character group separates the V4 quotient
    keys = {tuple(sorted(c.items())) for c in chars}
    assert len(keys) == 4
    for c in chars:
        assert c[0] == 0 and c[2] == 0

    e, chars = quotient_characters(cyclic(8), tuple(range(8)), (0, 4))
    assert e == 4 and len(chars) == 4

    e, chars = quotient_characters(HE3, tuple(range(27)), (0, 1, 2))
    assert e == 3 and len(chars) == 9


def test_quotient_characters_rejects_nonabelian():
    with pytest.raises(ValueError, match="abelian"):
        quotient_characters(Q8, tuple(range(8)), (0,))


def test_quotient_characters_rejects_non_normal():
    with pytest.raises(ValueError, match="normal"):
        quotient_characters(D8, tuple(range(8)), (0, 4))


def test_quotient_characters_are_multiplicative():
    big = tuple(range(8))
    e, chars = quotient_characters(Q8, big, (0, 2))
    for c in chars:
        for a in big:
            for b in big:
                assert (c[Q8.mul(a, b)] - c[a] - c[b]) % e == 0


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

_GROUPS = [D8, Q8, HE3, cyclic(12), direct_product(D8, cyclic(3))]


@settings(max_examples=50, deadline=None)
@given(st.integers(0, len(_GROUPS) - 1), st.data())
def test_closure_is_subgroup(idx, data):
    g = _GROUPS[idx]
    gens = data.draw(st.lists(st.integers(0, g.order - 1), max_size=3))
    sub = g.closure(gens)
    assert g.is_subgroup(sub)
    assert g.order % len(sub) == 0  # Lagrange


@settings(max_examples=50, deadline=None)
@given(st.integers(0, len(_GROUPS) - 1), st.data())
def test_transversal_partitions(idx, data):
    g = _GROUPS[idx]
    gens = data.draw(st.lists(st.integers(0, g.order - 1), max_size=2))
    sub = g.closure(gens)
    reps = g.transversal(sub, tuple(range(g.order)))
    seen = set()
    for t in reps:
        coset = {g.mul(t, s) for s in sub}
        assert not (coset & seen)
        seen |= coset
    assert seen == set(range(g.order))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, len(_GROUPS) - 1), st.data())
def test_conjugation_is_automorphism(idx, data):
    g = _GROUPS[idx]
    a = data.draw(st.integers(0, g.order - 1))
    x = data.draw(st.integers(0, g.order - 1))
    y = data.draw(st.integers(0, g.order - 1))
    assert g.conj(a, g.mul(x, y)) == g.mul(g.conj(a, x), g.conj(a, y))
