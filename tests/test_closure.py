from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckelab._closure import closure
from heckelab.finite_groups import dihedral, heisenberg, quaternion
from heckelab.root_datum import (
    REGISTRY,
    WeylGroup,
    datum_from_cartan,
    datum_from_config,
)

from oracles import word_element

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


def _mat_mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b))
                 for row in a)


def reference_weyl_elements(datum):
    """The level-by-level enumeration ``WeylGroup`` used before
    ``closure``, on integer matrices built here from the simple pairs:
    the first discovery of each cocharacter matrix fixes its character
    matrix and word.  A list of (cocharacter matrix, character matrix,
    word)."""
    n = datum.ambient_rank
    eye = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    simple = []
    for k in datum.simple:
        a, av = datum.roots[k], datum.coroots[k]
        char = tuple(tuple(int(r == c) - a[r] * av[c] for c in range(n))
                     for r in range(n))
        simple.append((tuple(zip(*char)), char))
    elements = [(eye, eye, ())]
    seen = {eye}
    frontier = list(elements)
    while frontier:
        new = []
        for cochar_w, char_w, word in frontier:
            for i, (cochar_s, char_s) in enumerate(simple):
                cochar = _mat_mul(cochar_w, cochar_s)
                if cochar not in seen:
                    seen.add(cochar)
                    new.append((cochar, _mat_mul(char_w, char_s), word + (i,)))
        elements.extend(new)
        frontier = new
    return elements


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_weyl_elements_match_the_frontier_loop(name):
    # both actions, read off on the basis vectors as matrix columns
    datum = datum_from_config(REGISTRY[name])
    group = WeylGroup(datum)
    n = datum.ambient_rank
    basis = [tuple(int(i == j) for i in range(n)) for j in range(n)]

    def matrix(act, w):
        return tuple(zip(*(act(w, e) for e in basis)))

    assert [(matrix(group.act_cocharacter, w), matrix(group.act_character, w),
             group.words[w]) for w in group.elements] == reference_weyl_elements(datum)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_permutation_action_matches_the_letter_by_letter_action(name):
    # two W-stable sets: the roots under the character action, and the
    # orbit of 2 rho-check, a regular coweight, under the cocharacter one
    datum = datum_from_config(REGISTRY[name])
    group = WeylGroup(datum)
    n = datum.ambient_rank
    rho2 = tuple(sum(datum.coroots[k][c] for k in datum.positive_roots())
                 for c in range(n))
    orbit = sorted(group.orbit_cocharacter(rho2))
    assert len(orbit) == len(group)
    gens = [group.simple_reflection(i) for i in range(len(datum.simple))]
    for points, act in ((list(datum.roots), group.act_character),
                        (orbit, group.act_cocharacter)):
        index = {p: j for j, p in enumerate(points)}
        simple = [[index[act(s, p)] for p in points] for s in gens]
        perms = group.permutation_action(len(points), simple)
        assert len(perms) == len(group)
        for w, pi in zip(group.elements, perms):
            assert list(pi) == [index[act(w, p)] for p in points]
    # on the roots it is each element's own permutation
    simple = [list(group.perms[s]) for s in gens]
    assert group.permutation_action(len(datum.roots), simple) == list(
        group.perms)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_each_weyl_word_is_shortlex_least(name):
    group = WeylGroup(datum_from_config(REGISTRY[name]))
    rank = len(group.datum.simple)
    least = {}
    # the longest element has one letter per positive root
    for n in range(len(group.datum.positive_roots()) + 1):
        for word in itertools.product(range(rank), repeat=n):
            least.setdefault(word_element(group, word), word)
    assert all(least[w] == group.words[w] for w in group.elements)
    # so index order is (length, word) order
    assert list(group.elements) == sorted(
        group.elements, key=lambda w: (group.length(w), group.words[w]))


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
