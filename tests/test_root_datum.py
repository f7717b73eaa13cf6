from __future__ import annotations

import itertools
import time
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckelab import root_datum
from heckelab.root_datum import (
    REGISTRY,
    RootDatum,
    WeylGroup,
    cartan_matrix,
    datum_from_cartan,
    datum_from_config,
    datum_general_linear,
    weyl_order_lower_bound,
)

from oracles import base_alcove_barycenter, coset_split_minimal, word_element

# groups are immutable; build each configuration once
_CACHE: dict[str, tuple] = {}


def setup(key: str):
    if key not in _CACHE:
        cfgs = {
            "A1Z1": {"cartan": [[2]], "central_rank": 1},
            "A1A1": {"cartan": [[2, 0], [0, 2]]},
        }
        datum = datum_from_config(cfgs.get(key) or REGISTRY[key.lower()])
        _CACHE[key] = (datum, WeylGroup(datum))
    return _CACHE[key]


# -- frozen enumeration facts (independently countable by hand) -----------

WEYL_ORDERS = {
    "A1": 2, "A2": 6, "B2": 8, "B3": 48, "C3": 48,
    "G2": 12, "GL2": 2, "GL3": 6, "A1Z1": 2, "A1A1": 4,
}
ROOT_COUNTS = {
    "A1": 2, "A2": 6, "B2": 8, "B3": 18, "C3": 18,
    "G2": 12, "GL2": 2, "GL3": 6, "A1Z1": 2, "A1A1": 4,
}
LONGEST_LENGTH = {"A1": 1, "A2": 3, "B2": 4, "G2": 6, "GL3": 3}


@pytest.mark.parametrize("key", sorted(WEYL_ORDERS))
def test_weyl_order(key):
    _, group = setup(key)
    assert len(group) == WEYL_ORDERS[key]


@pytest.mark.parametrize("key", sorted(ROOT_COUNTS))
def test_root_count(key):
    datum, _ = setup(key)
    assert len(datum.roots) == ROOT_COUNTS[key]
    assert 2 * len(datum.positive_roots()) == len(datum.roots)


@pytest.mark.parametrize("key", sorted(LONGEST_LENGTH))
def test_longest_element_length(key):
    _, group = setup(key)
    assert max(w.length for w in group.elements) == LONGEST_LENGTH[key]


def test_b2_positive_roots_in_simple_coordinates():
    datum = setup("B2")[0]
    pos = {datum.roots[k] for k in datum.positive_roots()}
    assert pos == {(1, 0), (0, 1), (1, 1), (1, 2)}


def test_g2_positive_roots_in_simple_coordinates():
    datum = setup("G2")[0]
    pos = {datum.roots[k] for k in datum.positive_roots()}
    assert pos == {(1, 0), (0, 1), (1, 1), (1, 2), (1, 3), (2, 3)}


def test_gl3_roots_are_coordinate_differences():
    datum = setup("GL3")[0]
    expected = set()
    for i in range(3):
        for j in range(3):
            if i != j:
                v = [0, 0, 0]
                v[i], v[j] = 1, -1
                expected.add(tuple(v))
    assert set(datum.roots) == expected
    assert datum.roots == datum.coroots


def test_gl_coroot_pairing_is_two():
    datum = setup("GL3")[0]
    for a, av in zip(datum.roots, datum.coroots):
        assert datum.pairing(a, av) == 2
    with pytest.raises(ValueError):  # no silent truncation
        datum.pairing(datum.roots[0], (1, 0))


def test_central_padding_kills_roots():
    datum = setup("A1Z1")[0]
    assert datum.ambient_rank == 2
    for a in datum.roots:
        assert a[1] == 0


def test_cartan_matrix_shapes():
    assert cartan_matrix("B", 2) == [[2, -1], [-2, 2]]
    assert cartan_matrix("C", 3) == [[2, -1, 0], [-1, 2, -2], [0, -1, 2]]
    assert cartan_matrix("G", 2) == [[2, -1], [-3, 2]]
    with pytest.raises(ValueError):
        cartan_matrix("E", 8)
    with pytest.raises(ValueError):
        datum_from_cartan([[2, 1], [1, 2]])
    with pytest.raises(ValueError, match="central_rank"):
        datum_from_cartan([[2]], central_rank=-1)
    # the Cartan size counts toward the capped ambient rank
    assert datum_from_cartan([[2]], central_rank=127).ambient_rank == 128
    with pytest.raises(ValueError, match="ambient rank is 129; cap is 128"):
        datum_from_cartan([[2]], central_rank=128)


def _path_cartan(n: int, double_at: int | None = None) -> list[list[int]]:
    """Cartan matrix of a path of n nodes, with a double bond between
    nodes double_at and double_at + 1."""
    mat = [[2 if i == j else -int(abs(i - j) == 1) for j in range(n)]
           for i in range(n)]
    if double_at is not None:
        mat[double_at + 1][double_at] = -2
    return mat


@pytest.mark.parametrize("mat", [
    [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],    # affine A2: a triangle
    _path_cartan(5, double_at=2),               # affine F4
], ids=["affine_A2", "affine_F4"])
def test_cartan_of_no_finite_type_is_refused_before_roots(monkeypatch, mat):
    def enumerate_roots(simple_pairs):
        raise AssertionError("roots enumerated")

    monkeypatch.setattr(root_datum, "_generate_root_pairs", enumerate_roots)
    with pytest.raises(ValueError, match="^root system too large$"):
        datum_from_cartan(mat)
    # a finite type still reaches the root enumeration
    with pytest.raises(AssertionError, match="roots enumerated"):
        datum_from_cartan(_path_cartan(4, double_at=1))    # F4


def test_weyl_cap_enforced():
    datum = setup("B3")[0]
    with pytest.raises(ValueError):
        WeylGroup(datum, max_order=7)


# literal Cartan matrices with their Weyl group orders (A4, B4, C4, D4,
# D5, F4); E6, E7 and E8 come from their Dynkin diagrams below
LITERAL_CARTAN = {
    "A4": ([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
           120),
    "B4": ([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -2, 2]],
           384),
    "C4": ([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -2], [0, 0, -1, 2]],
           384),
    "D4": ([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
           192),
    "D5": ([[2, -1, 0, 0, 0], [-1, 2, -1, 0, 0], [0, -1, 2, -1, -1],
            [0, 0, -1, 2, 0], [0, 0, -1, 0, 2]], 1920),
    "F4": ([[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
           1152),
}


def simply_laced_cartan(n, edges):
    mat = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        mat[i][j] = mat[j][i] = -1
    return mat


def e_cartan(n):
    # Bourbaki numbering from 0: the path 0-2-3-...-(n-1), and node 1
    # on node 3
    return simply_laced_cartan(
        n, [(0, 2), (1, 3)] + [(k, k + 1) for k in range(2, n - 1)])


@pytest.mark.parametrize("key", sorted(WEYL_ORDERS))
def test_weyl_order_lower_bound(key):
    # the product of the components' exact orders
    datum, group = setup(key)
    assert weyl_order_lower_bound(datum) == len(group)


@pytest.mark.parametrize("name", sorted(LITERAL_CARTAN))
def test_weyl_order_lower_bound_is_exact_on_literal_types(name):
    mat, order = LITERAL_CARTAN[name]
    datum = datum_from_cartan(mat)
    assert weyl_order_lower_bound(datum) == len(WeylGroup(datum)) == order


@pytest.mark.parametrize("n,order", [(6, 51840), (7, 2903040),
                                     (8, 696729600)])
def test_type_e_refused_at_once(n, order):
    datum = datum_from_cartan(e_cartan(n))
    assert weyl_order_lower_bound(datum) == order
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"at least {order}; cap is 10080"):
        WeylGroup(datum)
    assert time.perf_counter() - start < 0.5


def test_weyl_order_lower_bound_of_no_finite_type():
    # a triangle (affine A2) and a path of five with a double bond in
    # the middle have infinite Weyl groups; each keeps (rank + 1)!.  The
    # bound reads only the simple pairs, so a datum of those suffices.
    def simple_pairs_only(mat):
        n = len(mat)
        basis = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        return RootDatum(n, basis, tuple(map(tuple, mat)), tuple(range(n)))

    triangle = simply_laced_cartan(3, [(0, 1), (1, 2), (0, 2)])
    assert weyl_order_lower_bound(simple_pairs_only(triangle)) == 24
    path = simply_laced_cartan(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    path[2][1] = -2
    assert weyl_order_lower_bound(simple_pairs_only(path)) == 720
    # the same path with the double bond at its end is B5
    path[2][1], path[4][3] = -1, -2
    assert weyl_order_lower_bound(simple_pairs_only(path)) == 2 ** 5 * 120


def test_weyl_group_needs_roots_closed_under_reflection():
    # the simple pairs of A2 alone: s_0 sends the first simple root to
    # its negative, which is not listed, so no root permutation exists
    datum = RootDatum(2, ((1, 0), (0, 1)), ((2, -1), (-1, 2)), (0, 1))
    with pytest.raises(ValueError):
        WeylGroup(datum)


def test_weyl_cap_enforced_before_enumeration():
    assert weyl_order_lower_bound(datum_general_linear(8)) == 40320
    with pytest.raises(ValueError, match="at least 40320"):
        WeylGroup(datum_general_linear(8))
    # B3 has order 48, refused from its type before enumeration
    with pytest.raises(ValueError, match="at least 48; cap is 23"):
        WeylGroup(setup("B3")[0], max_order=23)


def test_enumeration_backstop_still_caps(monkeypatch):
    # with no bound from the type, enumeration stops past the cap
    import heckelab.root_datum as rd
    monkeypatch.setattr(rd, "weyl_order_lower_bound", lambda datum: 1)
    with pytest.raises(ValueError, match="at least 48; cap is 47"):
        WeylGroup(setup("B3")[0], max_order=47)


# -- coset decomposition ----------------------------------------------------

def test_coset_split_a2_examples():
    _, group = setup("A2")
    s0, s1 = group.simple_reflection(0), group.simple_reflection(1)
    # w = s0 with theta = {1}: already minimal
    u, v = coset_split_minimal(group, s0, [1])
    assert (u, v) == (group.identity, s0)
    # w = s0*s1 with theta = {0}: peel one reflection
    w = group.mul(s0, s1)
    u, v = coset_split_minimal(group, w, [0])
    assert u == s0 and v == s1
    assert group.mul(u, v) == w


@pytest.mark.parametrize("key,theta", [
    ("A2", [0]), ("A2", [1]), ("B2", [0]), ("B2", [1]),
    ("G2", [0]), ("GL3", [1]), ("B3", [0, 2]), ("GL3", [0, 1]),
])
def test_coset_split_properties(key, theta):
    datum, group = setup(key)
    sub = set(group.subgroup_elements(theta))
    minimal_reps = set()
    for w in group.elements:
        u, v = coset_split_minimal(group, w, theta)
        assert group.mul(u, v) == w
        assert u in sub
        assert u.length + v.length == w.length
        vinv = group.inv(v)
        for i in theta:
            img = group.act_character(vinv, datum.roots[datum.simple[i]])
            assert datum.is_positive_root(img)
        minimal_reps.add(v)
    assert len(minimal_reps) == len(group) // len(sub)


# -- memoised derived sets and the closure proof ----------------------------

def _fresh_parabolic(group, theta):
    gens = [group.simple_reflection(i) for i in theta]
    seen, frontier = {group.identity}, [group.identity]
    while frontier:
        frontier = [group.mul(w, g) for w in frontier for g in gens]
        frontier = [w for w in set(frontier) if w not in seen]
        seen.update(frontier)
    return seen


def _by_length_word(elements):
    return tuple(sorted(elements, key=lambda w: (w.length, w.word)))


def test_memoised_parabolic_sets_match_a_fresh_computation():
    # every theta of B3, also unsorted, against a group built anew
    datum = setup("B3")[0]
    group = WeylGroup(datum)
    for size in range(4):
        for theta in itertools.combinations(range(3), size):
            reps = _by_length_word(
                {coset_split_minimal(group, w, theta)[1]
                 for w in group.elements})
            sub = _by_length_word(_fresh_parabolic(group, theta))
            for order in itertools.permutations(theta):
                assert group.minimal_coset_representatives(order) == reps
                assert group.subgroup_elements(list(order)) == sub
            assert len(reps) * len(sub) == len(group)
            # a second call hands back the memoised tuple itself
            assert (group.minimal_coset_representatives(theta)
                    is group.minimal_coset_representatives(theta[::-1]))
            assert group.subgroup_elements(theta) is group.subgroup_elements(
                theta[::-1])


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_minimal_coset_representatives_match_the_coset_split(name):
    # one pass by the exchange condition against peeling reflections off
    # each element, for every Levi subset of every registry datum
    datum = datum_from_config(REGISTRY[name])
    group = WeylGroup(datum)
    for size in range(datum.semisimple_rank + 1):
        for theta in itertools.combinations(range(datum.semisimple_rank),
                                            size):
            split = {coset_split_minimal(group, w, theta)[1]
                     for w in group.elements}
            assert (group.minimal_coset_representatives(theta)
                    == _by_length_word(split))


def test_closure_proof_rejects_a_non_subgroup():
    _, group = setup("A2")
    e, s0, s1 = (group.identity, group.simple_reflection(0),
                 group.simple_reflection(1))
    assert not group.is_subgroup([e, s0, s1])
    assert group.is_subgroup([s0, e])  # {e, s0} has order 2
    assert not group.is_subgroup([s0])  # no identity
    rotation = group.mul(s0, s1)
    assert not group.is_subgroup([e, rotation])  # rotation^2 is missing
    assert group.is_subgroup([e, rotation, group.mul(rotation, rotation)])
    assert group.is_subgroup(group.elements)


@pytest.mark.parametrize("key", sorted(WEYL_ORDERS))
def test_closure_proof_accepts_every_parabolic_subgroup(key):
    datum, group = setup(key)
    m = datum.semisimple_rank
    for size in range(m + 1):
        for theta in itertools.combinations(range(m), size):
            sub = group.subgroup_elements(theta)
            assert group.is_subgroup(sub)
            assert group.is_subgroup(sub[::-1])


# -- orbits, dominance, geometry -------------------------------------------

def test_gl3_orbits():
    _, group = setup("GL3")
    assert len(group.orbit_cocharacter((1, 0, 0))) == 3
    assert len(group.orbit_cocharacter((2, 1, 0))) == 6
    assert len(group.orbit_cocharacter((1, 1, 1))) == 1
    assert group.dominant_in_orbit((0, 1, 0)) == (1, 0, 0)
    assert group.dominant_in_orbit((0, 2, 1)) == (2, 1, 0)


def test_fundamental_coweights_pairings():
    for key in ["A2", "B2", "G2", "GL3", "A1Z1"]:
        datum, _ = setup(key)
        omegas = datum.fundamental_coweights()
        for i, a in enumerate(datum.simple_roots()):
            for j, om in enumerate(omegas):
                assert datum.pairing(a, om) == (1 if i == j else 0)


def test_gl3_fundamental_coweights_values():
    datum = setup("GL3")[0]
    assert datum.fundamental_coweights() == [
        (1, 0, 0),
        (1, 1, 0),
    ]


def test_barycenters():
    a2 = setup("A2")[0]
    assert base_alcove_barycenter(a2) == (Q(1, 3), Q(1, 3))
    b2 = setup("B2")[0]
    assert base_alcove_barycenter(b2) == (Q(1, 3), Q(1, 6))
    gl3 = setup("GL3")[0]
    assert base_alcove_barycenter(gl3) == (Q(2, 3), Q(1, 3), Q(0))


def test_barycenter_is_alcove_interior():
    for key in ["A2", "B2", "B3", "C3", "G2", "GL2", "GL3", "A1A1"]:
        datum, _ = setup(key)
        x = base_alcove_barycenter(datum)
        for k in datum.positive_roots():
            val = datum.pairing(datum.roots[k], x)
            assert 0 < val < 1


def test_general_linear_rejects_central_override():
    with pytest.raises(ValueError, match="unexpected keys"):
        datum_from_config({"general_linear": 3, "central_rank": 1})
    with pytest.raises(ValueError):
        datum_general_linear(1)


# -- property tests ----------------------------------------------------------

KEYS = ["A1", "A2", "B2", "G2", "GL2", "GL3", "A1Z1"]


@settings(max_examples=60, deadline=None)
@given(key=st.sampled_from(KEYS), data=st.data())
def test_weyl_action_preserves_pairing(key, data):
    datum, group = setup(key)
    w = data.draw(st.sampled_from(group.elements))
    lam = data.draw(st.tuples(*[st.integers(-4, 4)] * datum.ambient_rank))
    for a in datum.roots:
        lhs = datum.pairing(group.act_character(w, a), group.act_cocharacter(w, lam))
        assert lhs == datum.pairing(a, lam)


@settings(max_examples=60, deadline=None)
@given(key=st.sampled_from(KEYS), data=st.data())
def test_group_axioms_spotcheck(key, data):
    _, group = setup(key)
    a = data.draw(st.sampled_from(group.elements))
    b = data.draw(st.sampled_from(group.elements))
    assert group.mul(group.inv(a), a) == group.identity
    assert group.inv(group.mul(a, b)) == group.mul(group.inv(b), group.inv(a))
    assert word_element(group, a.word) == a


@settings(max_examples=40, deadline=None)
@given(key=st.sampled_from(KEYS), data=st.data())
def test_orbit_stabilizer_count(key, data):
    datum, group = setup(key)
    lam = data.draw(st.tuples(*[st.integers(-3, 3)] * datum.ambient_rank))
    orbit = group.orbit_cocharacter(lam)
    stab = sum(1 for w in group.elements if group.act_cocharacter(w, lam) == lam)
    assert len(orbit) * stab == len(group)
    assert group.dominant_in_orbit(lam) in orbit


@settings(max_examples=40, deadline=None)
@given(key=st.sampled_from(KEYS), data=st.data())
def test_roots_map_to_roots(key, data):
    datum, group = setup(key)
    w = data.draw(st.sampled_from(group.elements))
    images = {group.act_character(w, a) for a in datum.roots}
    assert images == set(datum.roots)
