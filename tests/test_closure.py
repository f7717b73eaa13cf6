from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckelab._closure import closure
from heckelab.finite_groups import dihedral, heisenberg, quaternion
from heckelab.root_datum import (
    REGISTRY,
    WeylElement,
    WeylGroup,
    _imat_mul,
    datum_from_cartan,
    datum_from_config,
)

# a DAG whose depth-first order differs from its breadth-first order,
# with two seeds, a shared child and an edge back to a seed
GRAPH = {
    "a": ["b", "c"],
    "b": ["d", "e"],
    "c": ["e", "f", "a"],
    "d": ["g"],
    "e": [],
    "f": ["g", "h"],
    "g": [],
    "h": [],
    "z": ["h", "y"],
    "y": [],
}


def graph_step(x):
    return ((f"{x}{y}", y) for y in GRAPH[x])


def level_by_level(seeds, step):
    """Reference: the frontier loop the library used before ``closure``."""
    tree = {s: (None, None) for s in seeds}
    frontier = list(tree)
    while frontier:
        nxt = []
        for x in frontier:
            for label, y in step(x):
                if y not in tree:
                    tree[y] = (x, label)
                    nxt.append(y)
        frontier = nxt
    return tree


def test_discovery_order_is_level_by_level():
    tree = closure(["a", "z"], graph_step)
    assert list(tree) == ["a", "z", "b", "c", "h", "y", "d", "e", "f", "g"]
    assert list(tree.items()) == list(level_by_level(["a", "z"], graph_step).items())
    assert tree["a"] == tree["z"] == (None, None)
    assert tree["e"] == ("b", "be")
    assert tree["g"] == ("d", "dg")
    assert tree["h"] == ("z", "zh")


def test_limit_stops_at_one_past():
    def step(n):
        return [("+1", n + 1), ("+2", n + 2)]

    for limit in (1, 5, 100):
        tree = closure([0], step, limit=limit)
        assert len(tree) == limit + 1
        assert list(tree) == list(range(limit + 1))
    # a closure of exactly ``limit`` points runs to its end
    assert len(closure(["a"], graph_step, limit=8)) == 8
    assert len(closure(["a"], graph_step, limit=7)) == 8


def reference_weyl_elements(group: WeylGroup) -> list[WeylElement]:
    """The level-by-level enumeration ``WeylGroup`` used before
    ``closure``: the first discovery of each cocharacter matrix fixes its
    character matrix and word."""
    elements = [group.identity]
    seen = {group.identity.cochar_mat}
    frontier = [group.identity]
    while frontier:
        new = []
        for w in frontier:
            for i, (cochar_s, char_s) in enumerate(
                    zip(group._simple_cochar, group._simple_char)):
                cochar = _imat_mul(w.cochar_mat, cochar_s)
                if cochar not in seen:
                    seen.add(cochar)
                    new.append(WeylElement(cochar, _imat_mul(w.char_mat, char_s),
                                           w.word + (i,)))
        elements.extend(new)
        frontier = new
    return elements


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_weyl_elements_match_the_frontier_loop(name):
    group = WeylGroup(datum_from_config(REGISTRY[name]))
    expected = reference_weyl_elements(group)
    assert [(w.cochar_mat, w.char_mat, w.word) for w in group.elements] == \
        [(w.cochar_mat, w.char_mat, w.word) for w in expected]


@pytest.mark.parametrize("name", ["a3", "g2"])
def test_each_weyl_word_is_shortlex_least(name):
    group = WeylGroup(datum_from_config(REGISTRY[name]))
    rank = len(group.datum.simple)
    least = {}
    # the longest element has one letter per positive root
    for n in range(len(group.datum.positive_roots()) + 1):
        for word in itertools.product(range(rank), repeat=n):
            least.setdefault(group.word_element(word), word)
    assert all(least[w] == w.word for w in group.elements)


def test_infinite_root_system_is_refused():
    # affine A1: the roots a + k d never close
    with pytest.raises(ValueError, match="^root system too large$"):
        datum_from_cartan([[2, -2], [-2, 2]])


SMALL_GROUPS = {"D8": dihedral(4), "Q8": quaternion(8), "He3": heisenberg(3)}


def reference_generators(group, subset=None):
    """The greedy loop ``FiniteGroup.generators`` used before
    ``_closure.generators``: rebuild the closure after each kept
    element."""
    gens: list[int] = []
    span = {0}
    for x in (range(group.order) if subset is None else sorted(subset)):
        if x not in span:
            gens.append(x)
            span = set(group.closure(gens))
    return gens


@pytest.mark.parametrize("name", sorted(SMALL_GROUPS))
def test_generators_match_the_rebuild_loop_on_every_subgroup(name):
    group = SMALL_GROUPS[name]
    # every subgroup of these groups is generated by two elements
    subgroups = {group.closure([a, b])
                 for a in range(group.order) for b in range(group.order)}
    assert group.generators() == reference_generators(group)
    for sub in subgroups:
        assert group.generators(sub) == reference_generators(group, sub)
        assert group.is_subgroup(sub)


@st.composite
def subsets(draw):
    name = draw(st.sampled_from(sorted(SMALL_GROUPS)))
    group = SMALL_GROUPS[name]
    elements = st.integers(0, group.order - 1)
    if draw(st.booleans()):
        subset = set(draw(st.sets(elements)))
    else:
        # a subgroup, perhaps with one element toggled
        subset = set(group.closure(draw(st.lists(elements, max_size=3))))
        if draw(st.booleans()):
            subset ^= {draw(elements)}
    return group, subset


@settings(max_examples=200, deadline=None)
@given(subsets())
def test_is_subgroup_matches_the_pairwise_definition(drawn):
    group, subset = drawn
    pairwise = 0 in subset and all(group.mul(a, b) in subset
                                   for a in subset for b in subset)
    assert group.is_subgroup(subset) == pairwise
    assert (group.generators(subset) is not None) == pairwise
