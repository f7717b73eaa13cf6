from __future__ import annotations

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckelab.root_datum import (
    REGISTRY,
    WeylGroup,
    cartan_matrix,
    coset_split_minimal,
    datum_from_cartan,
    datum_from_config,
    datum_general_linear,
    weyl_order_lower_bound,
)

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


def test_weyl_cap_enforced():
    datum = setup("B3")[0]
    with pytest.raises(ValueError):
        WeylGroup(datum, max_order=7)


@pytest.mark.parametrize("key", sorted(WEYL_ORDERS))
def test_weyl_order_lower_bound(key):
    # product of (rank + 1)! over the Dynkin components; exact in type A
    datum, group = setup(key)
    bound = weyl_order_lower_bound(datum)
    assert bound <= len(group)
    if key in ("A1", "A2", "GL2", "GL3", "A1Z1", "A1A1"):
        assert bound == len(group)


def test_weyl_cap_enforced_before_enumeration():
    assert weyl_order_lower_bound(datum_general_linear(8)) == 40320
    with pytest.raises(ValueError, match="at least 40320"):
        WeylGroup(datum_general_linear(8))
    # B3 has order 48 and bound 4! = 24
    with pytest.raises(ValueError, match="at least 24"):
        WeylGroup(setup("B3")[0], max_order=23)


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
    assert a2.base_alcove_barycenter() == (Q(1, 3), Q(1, 3))
    b2 = setup("B2")[0]
    assert b2.base_alcove_barycenter() == (Q(1, 3), Q(1, 6))
    gl3 = setup("GL3")[0]
    assert gl3.base_alcove_barycenter() == (Q(2, 3), Q(1, 3), Q(0))


def test_barycenter_is_alcove_interior():
    for key in ["A2", "B2", "B3", "C3", "G2", "GL2", "GL3", "A1A1"]:
        datum, _ = setup(key)
        x = datum.base_alcove_barycenter()
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
def test_reflection_involution_on_cocharacters(key, data):
    datum, _ = setup(key)
    lam = data.draw(st.tuples(*[st.integers(-4, 4)] * datum.ambient_rank))
    for k in datum.simple:
        once = datum.reflect_cocharacter(k, lam)
        twice = datum.reflect_cocharacter(k, once)
        assert twice == lam


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
    assert group.word_element(a.word) == a


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
