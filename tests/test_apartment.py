from __future__ import annotations

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckelab import apartment as ap
from heckelab.root_datum import REGISTRY, WeylGroup, datum_from_config

_CACHE: dict[str, tuple] = {}


def setup(key: str):
    if key not in _CACHE:
        datum = datum_from_config(REGISTRY[key.lower()])
        _CACHE[key] = (datum, WeylGroup(datum))
    return _CACHE[key]


def gl3_wall_point():
    return ap.as_point([Q(1, 2), 0, 0])


# -- thresholds ---------------------------------------------------------------

def test_threshold_basic_values():
    datum, _ = setup("A1")
    # root value 1/2 at depth 1
    assert ap.threshold(datum, (1,), [Q(1, 2)], 1) == 1
    # special point, depth 1
    assert ap.threshold(datum, (1,), [Q(0)], 1) == 1


def test_threshold_gl3_negative_root():
    datum, _ = setup("GL3")
    assert ap.threshold(datum, (-1, 1, 0), gl3_wall_point(), 1) == 2


def test_threshold_rejects_nonpositive_depth():
    datum, _ = setup("A1")
    with pytest.raises(ValueError):
        ap.threshold(datum, (1,), [Q(1, 2)], 0)


@pytest.mark.parametrize("r", [0, Q(-1, 2)], ids=str)
def test_heart_check_rejects_nonpositive_depth_when_it_reads_a_threshold(r):
    # theta = () has no Levi root, so no threshold is read and no depth
    # is refused; any other theta reads one
    _, group = setup("GL3")
    assert ap.heart_condition1_check(group, (0, 0, 0), r, ()).proven
    for theta in [(0,), (0, 1)]:
        with pytest.raises(ValueError, match="^depth must be positive$"):
            ap.heart_condition1_check(group, (0, 0, 0), r, theta)


@pytest.mark.parametrize("key", ["A2", "B2", "GL3", "G2"])
def test_heart_check_thresholds_agree_with_the_fraction_route(key):
    # the integer thresholds on D x must be ceil(r - a(x)) as computed
    # over Q by ``threshold``, witness by witness, at every grid point
    datum, group = setup(key)
    mismatches = 0
    for x in ap.alcove_interior_points(datum, 6)[::2]:
        for r in (Q(1, 2), Q(2, 3), Q(1), Q(3, 2)):
            for theta in all_subsets(datum):
                verdict = ap.heart_condition1_check(group, x, r, theta)
                found = set()
                for v in group.minimal_coset_representatives(theta):
                    image = group.act_cocharacter(v, x)
                    for k in ap.levi_root_indices(datum, theta):
                        a = datum.roots[k]
                        pair = (ap.threshold(datum, a, x, r),
                                ap.threshold(datum, a, image, r))
                        if pair[0] != pair[1]:
                            found.add((v, a, *pair))
                assert {(w.w2, w.root, w.threshold_at_x,
                         w.threshold_at_image)
                        for w in verdict.witnesses} == found
                assert verdict.proven == (not found)
                mismatches += len(found)
    assert mismatches


def _gl_threshold_matrix(datum, x, r):
    n = datum.ambient_rank
    out = {}
    for i in range(n):
        for j in range(n):
            if i != j:
                root = tuple(1 if k == i else (-1 if k == j else 0) for k in range(n))
                out[(i + 1, j + 1)] = ap.threshold(datum, root, x, r)
    return out


def test_gl3_wall_profile_matrix():
    datum, _ = setup("GL3")
    got = _gl_threshold_matrix(datum, gl3_wall_point(), 1)
    assert got == {(1, 2): 1, (1, 3): 1,
                   (2, 1): 2, (2, 3): 1,
                   (3, 1): 2, (3, 2): 1}


def test_gl3_wall_profile_matrix_at_swapped_point():
    datum, group = setup("GL3")
    moved = group.act_cocharacter(group.simple_reflection(0), gl3_wall_point())
    assert moved == (0, Q(1, 2), 0)
    got = _gl_threshold_matrix(datum, moved, 1)
    assert got == {(1, 2): 2, (1, 3): 1,
                   (2, 1): 1, (2, 3): 1,
                   (3, 1): 1, (3, 2): 2}


def test_profile_at_base_point_all_ones():
    for key in ["A2", "GL3", "B2"]:
        datum, _ = setup(key)
        x = [0] * datum.ambient_rank
        assert {ap.threshold(datum, a, x, 1) for a in datum.roots} == {1}


# -- classification -----------------------------------------------------------

def test_classify_base_point_special():
    for key in ["A2", "GL3"]:
        datum, _ = setup(key)
        cls = ap.classify_point(datum, [0] * datum.ambient_rank)
        assert cls.kind == "SPECIAL"
        assert cls.facet_dimension == datum.ambient_rank - datum.semisimple_rank


def test_classify_barycenter_interior():
    datum, _ = setup("A2")
    cls = ap.classify_point(datum, datum.base_alcove_barycenter())
    assert cls.kind == "ALCOVE_INTERIOR"
    assert cls.facet_dimension == 2
    assert cls.integral_root_indices == ()


def test_classify_gl3_wall_point():
    datum, _ = setup("GL3")
    cls = ap.classify_point(datum, gl3_wall_point())
    assert cls.kind == "FACET"
    assert cls.facet_dimension == 2
    assert len(cls.integral_root_indices) == 2


def test_classify_b2_nonspecial_vertex():
    # alcove vertex where only the long-root walls pass: a facet of
    # dimension 0 that is still not a special point
    datum, _ = setup("B2")
    cls = ap.classify_point(datum, [Q(0), Q(1, 2)])
    assert cls.kind == "FACET"
    assert cls.facet_dimension == 0


# -- condition-(1) certificate ------------------------------------------------

def all_subsets(datum):
    import itertools
    m = datum.semisimple_rank
    return [tuple(c) for size in range(m + 1)
            for c in itertools.combinations(range(m), size)]


def test_heart_a2_barycenter_depth_one_all_proven():
    for key in ["A2", "GL3"]:
        datum, group = setup(key)
        x = datum.base_alcove_barycenter()
        for theta in all_subsets(datum):
            verdict = ap.heart_condition1_check(group, x, 1, theta)
            assert verdict.proven, (key, theta)


def test_heart_special_point_all_proven():
    for key in ["A2", "GL3", "B2"]:
        datum, group = setup(key)
        x = [0] * datum.ambient_rank
        for theta in all_subsets(datum):
            assert ap.heart_condition1_check(group, x, 1, theta).proven


def test_heart_gl3_wall_mismatch_with_expected_witness():
    _, group = setup("GL3")
    verdict = ap.heart_condition1_check(group, gl3_wall_point(), 1, ())
    assert verdict.status == "PROVEN_CONDITION_1"
    verdict = ap.heart_condition1_check(group, gl3_wall_point(), 1, (1,))
    assert verdict.status == "MISMATCH"
    s0 = group.simple_reflection(0)
    hits = [w for w in verdict.witnesses
            if w.w2 == s0 and w.root == (0, -1, 1)]
    assert len(hits) == 1
    assert (hits[0].threshold_at_x, hits[0].threshold_at_image) == (1, 2)


def test_heart_half_integer_depth_fails_even_at_barycenter():
    # the equality certificate is strictly stronger than profile
    # conjugacy: at depth 1/2 it already fails at the barycenter
    datum, group = setup("A2")
    x = datum.base_alcove_barycenter()
    verdict = ap.heart_condition1_check(group, x, Q(1, 2), (0,))
    assert verdict.status == "MISMATCH"
    s1 = group.simple_reflection(1)
    got = {(w.root, w.threshold_at_x, w.threshold_at_image)
           for w in verdict.witnesses if w.w2 == s1}
    assert ((1, 0), 1, 0) in got
    assert ((-1, 0), 1, 2) in got
    assert ap.heart_condition1_check(group, x, Q(3, 2), (0,)).status == "MISMATCH"


@pytest.mark.parametrize("key", ["A1", "A2", "B2", "GL2", "GL3"])
def test_heart_integer_depths_proven_on_interior_grid(key):
    # at integer depths the certificate does hold on the open alcove
    datum, group = setup(key)
    for x in ap.alcove_interior_points(datum, 4):
        for r in (1, 2):
            for theta in all_subsets(datum):
                verdict = ap.heart_condition1_check(group, x, r, theta)
                assert verdict.proven, (x, r, theta)


# -- key inequality -----------------------------------------------------------

def test_key_inequality_failure_is_reproducible():
    # minimal coset factors can pull a positive Levi root to a root
    # whose difference pairs negatively with interior points
    _, group = setup("A2")
    recs = ap.key_inequality_report(group, (Q(3, 5), Q(1, 5)), (0,))
    bad = [rec for rec in recs if not rec.inequality_holds]
    assert any(rec.w2.word == (1, 0) and rec.root == (1, 0)
               and rec.delta == Q(-2, 5) for rec in bad)


def test_inequality_alone_does_not_certify_threshold_equality():
    # at the barycenter the inequality holds for the factor below, yet
    # the depth-1/2 thresholds still differ: the inequality is not a
    # sufficient certificate at non-integer depths
    datum, group = setup("A2")
    x = datum.base_alcove_barycenter()
    recs = ap.key_inequality_report(group, x, (0,))
    s1 = group.simple_reflection(1)
    rec = next(r for r in recs if r.w2 == s1 and r.root == (1, 0))
    assert rec.inequality_holds and rec.delta == Q(1, 3)
    assert ap.threshold(datum, (1, 0), x, Q(1, 2)) == 1
    assert ap.threshold(datum, (1, 0), group.act_cocharacter(s1, x), Q(1, 2)) == 0


# -- repaired statement: translation witnesses --------------------------------

@pytest.mark.parametrize("key", ["A1", "A2", "B2", "GL2", "GL3"])
def test_translation_witness_exists_at_depth_regular_interior_points(key):
    # repaired statement: if x is alcove-interior AND avoids the depth-r
    # critical hyperplanes, the two Levi profiles are identified by a
    # Levi Weyl element plus an integral translation
    datum, group = setup(key)
    depths = [Q(1, 2), Q(1), Q(3, 2), Q(2)]
    checked = 0
    for x in ap.alcove_interior_points(datum, 4):
        for r in depths:
            if not ap.depth_regular_point(datum, x, r):
                continue
            for theta in all_subsets(datum):
                for v in group.minimal_coset_representatives(theta):
                    w = ap.levi_profile_translation_witness(
                        group, x, r, theta, v)
                    assert w is not None, (x, theta, v, r)
                    checked += 1
    assert checked > 0


def test_integer_depths_are_always_regular_on_interior():
    for key in ["A2", "B2", "GL3"]:
        datum, _ = setup(key)
        for x in ap.alcove_interior_points(datum, 4):
            assert ap.depth_regular_point(datum, x, 1)
            assert ap.depth_regular_point(datum, x, 2)


def test_interior_volume_obstruction_at_critical_depth():
    # at fractional depth an interior point sitting on a depth-critical
    # hyperplane can have Levi profiles of genuinely different total
    # weight; no translation witness can exist since translations and
    # Levi Weyl elements preserve the pair sums t_a + t_{-a}
    datum, group = setup("GL3")
    x = ap.as_point([Q(1, 2), Q(1, 3), 0])
    assert ap.classify_point(datum, x).kind == "ALCOVE_INTERIOR"
    assert not ap.depth_regular_point(datum, x, Q(1, 2))
    v = group.simple_reflection(1)
    assert ap.levi_profile_translation_witness(
        group, x, Q(1, 2), (0,), v) is None
    a, neg = (1, -1, 0), (-1, 1, 0)
    img = group.act_cocharacter(v, x)
    sum_x = (ap.threshold(datum, a, x, Q(1, 2))
             + ap.threshold(datum, neg, x, Q(1, 2)))
    sum_img = (ap.threshold(datum, a, img, Q(1, 2))
               + ap.threshold(datum, neg, img, Q(1, 2)))
    assert (sum_x, sum_img) == (2, 1)


def test_translation_witness_values_at_barycenter_failure():
    datum, group = setup("A2")
    x = datum.base_alcove_barycenter()
    s1 = group.simple_reflection(1)
    wp, nu = ap.levi_profile_translation_witness(
        group, x, Q(1, 2), (0,), s1)
    assert wp == group.identity
    assert nu == (-1, 0)


def test_no_translation_witness_at_gl3_wall():
    # this is exactly where the volume obstruction takes over
    _, group = setup("GL3")
    s0 = group.simple_reflection(0)
    w = ap.levi_profile_translation_witness(
        group, gl3_wall_point(), 1, (1,), s0)
    assert w is None


# -- scans and grids ----------------------------------------------------------

def test_alcove_interior_point_counts():
    a1, _ = setup("A1")
    assert len(ap.alcove_interior_points(a1, 6)) == 11
    a2, _ = setup("A2")
    assert set(ap.alcove_interior_points(a2, 3)) == {
        (Q(1, 3), Q(1, 3)), (Q(1, 3), Q(1, 2)), (Q(1, 2), Q(1, 3))}
    gl2, _ = setup("GL2")
    assert ap.alcove_interior_points(gl2, 2) == [(Q(1, 2), Q(0))]


def test_closure_grid_contains_vertices():
    datum, _ = setup("GL3")
    grid = ap.base_alcove_closure_grid(datum, 2)
    assert (Q(0), Q(0), Q(0)) in grid
    assert (Q(1, 2), Q(0), Q(0)) in grid
    assert (Q(1), Q(0), Q(0)) in grid
    # GL3 has no interior point of denominator at most 2; at 6 it has
    # several, and each lies in the closure grid of the same denominators
    interior = ap.alcove_interior_points(datum, 6)
    assert interior
    assert set(interior) < set(ap.base_alcove_closure_grid(datum, 6))


# -- properties ---------------------------------------------------------------

KEYS = ["A1", "A2", "B2", "GL2", "GL3"]


@settings(max_examples=50, deadline=None)
@given(key=st.sampled_from(KEYS), data=st.data())
def test_threshold_weyl_equivariance(key, data):
    datum, group = setup(key)
    pts = ap.base_alcove_closure_grid(datum, 4)
    x = data.draw(st.sampled_from(pts))
    w = data.draw(st.sampled_from(group.elements))
    r = data.draw(st.sampled_from([Q(1, 2), Q(1), Q(3, 2), Q(2)]))
    wx = group.act_cocharacter(w, x)
    for a in datum.roots:
        wa = group.act_character(w, a)
        assert ap.threshold(datum, wa, wx, r) == ap.threshold(datum, a, x, r)


@settings(max_examples=50, deadline=None)
@given(key=st.sampled_from(KEYS), data=st.data())
def test_threshold_monotone_in_depth(key, data):
    datum, _ = setup(key)
    pts = ap.base_alcove_closure_grid(datum, 3)
    x = data.draw(st.sampled_from(pts))
    r1 = data.draw(st.sampled_from([Q(1, 2), Q(1), Q(3, 2)]))
    r2 = r1 + data.draw(st.sampled_from([Q(0), Q(1, 2), Q(1)]))
    for a in datum.roots:
        assert ap.threshold(datum, a, x, r1) <= ap.threshold(datum, a, x, r2)


@settings(max_examples=50, deadline=None)
@given(key=st.sampled_from(KEYS), data=st.data())
def test_opposite_threshold_sum_bound(key, data):
    import math
    datum, _ = setup(key)
    pts = ap.base_alcove_closure_grid(datum, 3)
    x = data.draw(st.sampled_from(pts))
    r = data.draw(st.sampled_from([Q(1, 2), Q(1), Q(3, 2), Q(2)]))
    for a in datum.roots:
        neg = tuple(-c for c in a)
        s = ap.threshold(datum, a, x, r) + ap.threshold(datum, neg, x, r)
        assert s >= math.ceil(2 * r) - 1
