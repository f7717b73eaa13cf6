"""Clifford-theory engine and its curated catalog.

Every catalog entry carries a full set of hand-derived expected values
(multiplicity, orbit size, inertia / stabilizer / twist-kernel orders,
twist count, both sides of the transfer and center checks, and the
three commutativity booleans).  The stabilizer subgroups for the
higher-multiplicity entries are pinned as explicit closures, derived
independently of the line-fixing search.
"""
import json
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckelab.catalog import (
    _coeffs_from_json,
    build_catalog,
    catalog_from_json,
    catalog_to_json,
    evaluate_catalog,
    evaluate_entry,
    model_from_json,
    model_to_json,
)
from heckelab.clifford_lab import (
    FiniteGroupModel,
    ModelAnalysis,
    _multiplicity_factor,
    check_hypotheses,
    conjugate_orbit,
    mackey_terms,
    maximal_stabilizer,
    restrict_decompose,
    twist_group,
)
from heckelab.cyclotomic import Cyc, cyc_pack
from heckelab.finite_groups import (FiniteGroup, cyclic, dihedral, heisenberg,
                                    quaternion)
from heckelab.representations import (
    Representation,
    char_key,
    induced_representation,
    inner_product,
    restrict_character,
)

from oracles import induced_character

MODELS = {m.name: m for m in build_catalog()}
_RESULTS: dict = {}
_ANALYSES: dict = {}


def _result(name):
    """The catalog record of an entry."""
    if name not in _RESULTS:
        _RESULTS[name] = evaluate_entry(MODELS[name])
    return _RESULTS[name]


def _analysis(name):
    """The Clifford objects of an entry, for the sets a record counts."""
    if name not in _ANALYSES:
        _ANALYSES[name] = ModelAnalysis(MODELS[name])
    return _ANALYSES[name]


def _facts(analysis):
    """(multiplicity, orbit size, inertia, stabilizer, twist kernel,
    twist count) of an analysis."""
    rest, tw = analysis.restriction, analysis.twists
    return (rest.multiplicity, rest.orbit_size, rest.inertia,
            analysis.stabilizer, tw.dagger, tw.order)


# name -> (m, k, |inertia|, |stabilizer|, |dagger|, twist count,
#          (transfer over N, transfer over J), (constituents, dagger idx),
#          (normal-free, j-free, end-commutes))
EXPECTED = {
    "d8_rho2": (1, 2, 4, 4, 4, 2, (1, 1), (1, 1), (True, True, True)),
    "d8_klein": (1, 2, 4, 4, 4, 2, (1, 1), (1, 1), (True, True, True)),
    "q8_rho2": (2, 1, 8, 4, 2, 4, (2, 2), (1, 1), (False, False, False)),
    "q8_n_c4": (1, 2, 4, 4, 4, 2, (1, 1), (1, 1), (True, True, True)),
    "he3_z": (3, 1, 27, 9, 3, 9, (3, 3), (1, 1), (False, False, False)),
    "he3_n9": (1, 3, 9, 9, 9, 3, (1, 1), (1, 1), (True, True, True)),
    "d16_rho": (1, 2, 8, 8, 8, 2, (1, 1), (1, 1), (True, True, True)),
    "q16_rho": (1, 2, 8, 8, 8, 2, (1, 1), (1, 1), (True, True, True)),
    "q8xc3": (2, 1, 24, 12, 6, 4, (2, 2), (1, 1), (False, False, False)),
    "q8xd8": (2, 1, 32, 16, 8, 4, (2, 2), (1, 1), (False, False, False)),
    "c4_in_q8": (1, 1, 4, 4, 4, 1, (1, 1), (1, 1), (True, True, True)),
    "c6_triv": (1, 1, 6, 6, 6, 1, (1, 1), (1, 1), (True, True, True)),
    "d8_triv": (1, 1, 8, 8, 8, 1, (1, 1), (1, 1), (True, True, True)),
    "he3_sub": (1, 1, 9, 9, 9, 1, (1, 1), (1, 1), (True, True, True)),
    "c8_faithful": (1, 1, 8, 8, 8, 1, (1, 1), (4, 4), (True, True, True)),
    "d8q8_mixed": (2, 2, 32, 16, 8, 8, (2, 2), (1, 1),
                   (False, False, False)),
    "q8q8_tensor": (2, 1, 64, 32, 16, 4, (2, 2), (1, 1),
                    (False, False, False)),
}

SKIP_EXPECTED = {
    "skip_c4": ("induced representation is reducible",
                "intertwining of a restriction constituent escapes the "
                "inducing subgroup"),
    "skip_d8_center": ("intertwining of a restriction constituent escapes "
                       "the inducing subgroup",),
}


def test_catalog_size_and_order_bound():
    models = build_catalog()
    assert len(models) >= 12
    assert all(m.group.order <= 512 for m in models)
    assert len({m.name for m in models}) == len(models)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_entry_oracle(name):
    m, k, n_int, n_st, n_dag, n_tw, tr, ce, booleans = EXPECTED[name]
    r = _result(name)
    assert r["multiplicity"] == m
    assert r["orbit_size"] == k
    assert r["inertia_order"] == n_int
    assert r["stabilizer_order"] == n_st
    assert r["dagger_order"] == n_dag
    assert r["twist_order"] == n_tw
    assert r["transfer"]["status"] == "OK"
    assert (r["transfer"]["over_normal"], r["transfer"]["over_j"]) == tr
    assert r["transfer"]["equal"] is True
    assert (r["center"]["constituents"], r["center"]["dagger_index"]) == ce
    assert r["center"]["equal"] is True
    comm = r["commutativity"]
    assert (comm["normal_restriction_free"], comm["j_restriction_free"],
            comm["endomorphisms_commute"]) == booleans
    assert comm["coincide"] is True
    assert r["passed"] is True


@pytest.mark.parametrize("name", sorted(SKIP_EXPECTED))
def test_skipped_entries(name):
    r = _result(name)
    assert r["transfer"]["status"] == "SKIPPED"
    assert r["center"]["status"] == "SKIPPED"
    assert r["commutativity"]["status"] == "SKIPPED"
    assert r["transfer"]["failures"] == list(SKIP_EXPECTED[name])
    assert r["transfer"]["equal"] is None and r["center"]["equal"] is None
    assert r["commutativity"]["coincide"] is None
    assert r["passed"] is True  # a skip is an honest outcome, not a failure


def test_stabilizer_sets_match_independent_closures():
    # derived by hand: the largest subgroup of the inertia group whose
    # multiplicity-space lifts commute, tie-broken lexicographically
    cases = {
        "q8_rho2": [1],            # the <a> cyclic four-group
        "he3_z": [3, 1],           # <b, z>, the lex-least order-9 subgroup
        "q8xc3": [3, 1, 6],        # <a> x C3
        "q8xd8": [8, 1, 16],       # <a> x C4
        "d8q8_mixed": [8, 1, 2],   # rotations x <a>
        "q8q8_tensor": [8, 32, 2, 1],  # Q8 x <a>
    }
    for name, gens in cases.items():
        model = MODELS[name]
        expect = model.group.closure(gens)
        assert _analysis(name).stabilizer == expect, name


def test_stabilizer_index_ladder():
    # on every entry where the stabilizer is computed, the inertia,
    # stabilizer, and twist-kernel orders form a geometric ladder with
    # ratio equal to the common multiplicity
    for name in EXPECTED:
        r = _result(name)
        assert r["inertia_order"] == r["multiplicity"] * r["stabilizer_order"]
        assert r["stabilizer_order"] == r["multiplicity"] * r["dagger_order"]


def test_dimension_identity():
    # dim(big) = orbit size x multiplicity x dim(constituent)
    for name, m in MODELS.items():
        r = _result(name)
        assert m.rho_tilde.dim == r["orbit_size"] * r["multiplicity"] * m.rho.dim


def test_twist_count_equals_kernel_index():
    for name, m in MODELS.items():
        r = _result(name)
        assert r["twist_order"] * r["dagger_order"] == len(m.j_tilde)


def test_dagger_contains_j_and_sits_in_inertia_ladder():
    for name, m in MODELS.items():
        a = _analysis(name)
        dagger, inertia = a.twists.dagger, a.restriction.inertia
        assert set(m.j) <= set(dagger) <= set(a.stabilizer or dagger)
        assert set(dagger) <= set(inertia) <= set(m.j_tilde)


def test_frobenius_reciprocity_per_entry():
    # multiplicity of rho in the restriction equals the multiplicity of
    # rho_tilde in the induction, and both equal the reported m
    for name in ("d8_rho2", "q8_rho2", "he3_n9", "c8_faithful", "q8xd8"):
        model = MODELS[name]
        g = model.group
        jt = tuple(sorted(model.j_tilde))
        chi_t = model.rho_tilde.character()
        chi_r = model.rho.character()
        res_side = inner_product(restrict_character(chi_t, model.j),
                                 chi_r, model.j)
        ind = induced_character(g, model.j, chi_r, jt)
        ind_side = inner_product(ind, chi_t, jt)
        assert res_side == ind_side == _result(name)["multiplicity"]


def test_mackey_route_matches_character_norm():
    for model in MODELS.values():
        (terms,) = mackey_terms(model.group, model.j, [model.rho.character()])
        dim_end = sum(dim for _, dim in terms)
        ind = induced_representation(model.group, model.j, model.rho)
        chi = ind.character()
        assert dim_end == inner_product(chi, chi, ind.domain)


def test_restriction_orbit_rebuilds_character():
    model = MODELS["d8q8_mixed"]
    rep = restrict_decompose(model.group, model.j, model.rho_tilde,
                             constituent=model.rho.character())
    assert rep.multiplicity == 2 and rep.orbit_size == 2
    assert rep.orbit is not None and len(rep.orbit) == 2
    chi = model.rho_tilde.character()
    for x in model.j:
        total = Cyc.zero(4)
        for cc in rep.orbit:
            total = total + cc[x]
        assert total * 2 == chi[x]
    keys = {char_key(cc) for cc in rep.orbit}
    assert char_key(model.rho.character()) in keys


def test_restrict_decompose_rejects_reducible():
    g = dihedral(4)
    one = Cyc.one(4)
    zero = Cyc.zero(4)
    mats = {h: [[one, zero], [zero, (one if h in (0, 1, 2, 3) else -one)]]
            for h in range(8)}
    rep = Representation.from_matrices(
        g, tuple(range(8)), {h: cyc_pack(m, 4) for h, m in mats.items()}, 4)
    with pytest.raises(ValueError, match="reducible"):
        restrict_decompose(g, (0, 1, 2, 3), rep, rep.character())


def test_restrict_decompose_rejects_non_normal():
    model = MODELS["d8_rho2"]
    with pytest.raises(ValueError, match="normal"):
        restrict_decompose(model.group, (0, 4), model.rho_tilde,
                           model.rho.character())


def test_twist_group_rejects_small_conductor():
    c6 = cyclic(6)
    rep = Representation.from_generators(
        c6, [1], [[[Cyc.rational(4, -1)]]], 4)
    with pytest.raises(ValueError, match="conductor"):
        twist_group(c6, tuple(range(6)), (0, 3), rep)


def test_twist_group_on_faithful_character_is_trivial():
    model = MODELS["c8_faithful"]
    tw = twist_group(model.group, tuple(range(8)), (0, 4), model.rho_tilde)
    assert tw.order == 1
    assert tw.exponent == 4          # the quotient is cyclic of order 4
    assert tw.dagger == tuple(range(8))


def test_inertia_oracle():
    model = MODELS["d8_klein"]
    _, inert = conjugate_orbit(model.group, tuple(range(8)), model.j,
                               model.rho.character())
    assert inert == (0, 2, 4, 6)


def test_conjugate_orbit_matches_brute_force():
    for model in MODELS.values():
        g, j, chi = model.group, model.j, model.rho.character()
        big = sorted(model.j_tilde)
        orbit, inert = conjugate_orbit(g, big, j, chi)
        moved = [{x: chi[g.conj(h, x)] for x in j} for h in big]
        assert inert == tuple(h for h, cc in zip(big, moved)
                              if all(cc[x] == chi[x] for x in j)), model.name
        first = []
        for cc in moved:
            if char_key(cc) not in [char_key(o) for o in first]:
                first.append(cc)
        assert [char_key(o) for o in orbit] == [char_key(o) for o in first]
        assert char_key(orbit[0]) == char_key(chi)
        assert len(orbit) * len(inert) == len(big)


def test_conjugate_orbit_checks_orbit_stabilizer():
    # the identity and two reflections: both move the faithful character
    # of the rotations to its complex conjugate, so 2 * 1 != 3
    model = MODELS["d8_rho2"]
    with pytest.raises(AssertionError, match="inertia"):
        conjugate_orbit(model.group, (0, 4, 5), model.j,
                        model.rho.character())


def _intertwining_reps(model):
    (terms,) = mackey_terms(model.group, model.j, [model.rho.character()])
    return [g for g, dim in terms if dim]


def test_intertwining_set_escapes_for_central_character():
    model = MODELS["skip_d8_center"]
    reps = _intertwining_reps(model)
    assert any(r not in set(model.j_tilde) for r in reps)


def test_intertwining_set_stays_inside_for_regular_orbit():
    model = MODELS["c4_in_q8"]
    reps = _intertwining_reps(model)
    assert set(reps) <= set(model.j_tilde)


def test_check_hypotheses_reports_pi():
    model = MODELS["he3_sub"]
    analysis = ModelAnalysis(model)
    assert check_hypotheses(analysis) == ()
    pi = analysis.induced_from_jt
    assert pi.dim == 3
    assert inner_product(pi.character(), pi.character(), pi.domain) == 1


def test_maximal_stabilizer_m1_shortcut():
    model = MODELS["d16_rho"]
    analysis = _analysis("d16_rho")
    stab = maximal_stabilizer(model.group, model.j, model.rho_tilde,
                              model.rho, analysis.twists.dagger,
                              analysis.restriction)
    assert stab == analysis.restriction.inertia


def _zmat(cond, rows):
    """Matrix over Q(zeta_cond) from entries (a, k) = a * zeta^k."""
    return [[Cyc.zeta(cond, k) * a for a, k in row] for row in rows]


def _kron(b, a):
    return [[x * y for x in b_row for y in a_row]
            for b_row in b for a_row in a]


# (conductor, B, A): B acts on C^m, A on C^d
KRONECKER_CASES = {
    "z4_d1": (4, [[(1, 1), (1, 0)], [(0, 0), (-1, 0)]], [[(1, 3)]]),
    "z4_d2": (4, [[(0, 0), (1, 0)], [(1, 0), (2, 1)]],
              [[(1, 1), (-1, 0)], [(1, 0), (1, 1)]]),
    "z4_a_row0_zero": (4, [[(1, 0), (1, 1)], [(1, 1), (1, 0)]],
                       [[(0, 0), (0, 0)], [(1, 1), (1, 0)]]),
    "z3_m3": (3, [[(1, 1), (0, 0), (1, 0)], [(0, 0), (1, 2), (0, 0)],
                  [(1, 0), (0, 0), (-1, 1)]],
              [[(1, 2), (1, 0)], [(1, 0), (1, 1)]]),
    "z3_m1": (3, [[(2, 1)]], [[(1, 0), (1, 1)], [(0, 0), (1, 2)]]),
}


@pytest.mark.parametrize("case", sorted(KRONECKER_CASES))
def test_multiplicity_factor_reads_the_left_kronecker_factor(case):
    cond, b_src, a_src = KRONECKER_CASES[case]
    b, a = _zmat(cond, b_src), _zmat(cond, a_src)
    got = _multiplicity_factor(_kron(b, a), len(b), len(a))
    # a nonzero scalar multiple of B
    r, s = next((r, s) for r, row in enumerate(b) for s, x in enumerate(row)
                if x)
    c = got[r][s] * b[r][s].inv()
    assert c
    assert got == [[c * x for x in row] for row in b]


@pytest.mark.parametrize("case", ["z4_d2", "z4_a_row0_zero", "z3_m3"])
def test_multiplicity_factor_rejects_a_changed_entry(case):
    # B and A have at least two nonzero entries each, so changing any one
    # entry of B (x) A leaves no Kronecker product
    cond, b_src, a_src = KRONECKER_CASES[case]
    mat = _kron(_zmat(cond, b_src), _zmat(cond, a_src))
    m, d = len(b_src), len(a_src)
    for i in range(m * d):
        for j in range(m * d):
            bad = [list(row) for row in mat]
            bad[i][j] = bad[i][j] + Cyc.one(cond)
            with pytest.raises(AssertionError, match="Kronecker"):
                _multiplicity_factor(bad, m, d)


@pytest.mark.parametrize("name", sorted(n for n, e in EXPECTED.items()
                                        if e[0] > 1))
def test_maximal_stabilizer_orders_at_higher_multiplicity(name):
    model = MODELS[name]
    analysis = ModelAnalysis(model)
    stab = maximal_stabilizer(model.group, model.j, model.rho_tilde,
                              model.rho, analysis.twists.dagger,
                              analysis.restriction)
    assert analysis.restriction.multiplicity > 1
    assert len(stab) == EXPECTED[name][3]


def test_one_evaluation_shares_multiplicity_and_double_cosets(monkeypatch):
    # on an m = 2 entry the stabilizer search needs (m, k) of the
    # restriction of rho_tilde to J, and the hypothesis and commutativity
    # checks both need the double cosets of J: each is computed once.
    # On d8q8_mixed Jt = G, so pi is rho_tilde itself and N = J: one
    # (representation, subgroup) pair; on q8xd8 Jt < G: two
    import heckelab.clifford_lab as lab
    multiplicity = lab.common_multiplicity
    double_cosets = FiniteGroup.double_coset_reps
    for name, distinct in (("d8q8_mixed", 1), ("q8xd8", 2)):
        model = MODELS[name]
        pairs, walks = [], []

        def counted_multiplicity(rep, sub):
            pairs.append((id(rep), tuple(sorted(sub))))
            return multiplicity(rep, sub)

        def counted_double_cosets(self, j):
            j = tuple(j)
            walks.append(j)
            return double_cosets(self, j)

        monkeypatch.setattr(lab, "common_multiplicity", counted_multiplicity)
        monkeypatch.setattr(FiniteGroup, "double_coset_reps",
                            counted_double_cosets)
        result = evaluate_entry(model)
        assert result["multiplicity"] == 2 and result["passed"]
        assert len(pairs) == len(set(pairs)) == distinct
        assert walks.count(model.j) == 1


def test_model_validation_rejects_bad_inputs():
    good = MODELS["d8_rho2"]
    bad = FiniteGroupModel("bad", good.group, (0, 4), good.j_tilde,
                           good.rho_tilde, good.rho)
    with pytest.raises(ValueError, match="normal"):
        bad.validate()
    bad2 = FiniteGroupModel("bad2", good.group, good.normal, (0, 1, 2, 3),
                            good.rho_tilde, good.rho)
    with pytest.raises(ValueError, match="inducing"):
        bad2.validate()


def test_model_validation_refuses_a_nonabelian_quotient():
    # D8 over its trivial subgroup: N is normal and Jt a subgroup, but
    # G/N = D8 is not abelian
    good = MODELS["d8_rho2"]
    bad = FiniteGroupModel("bad", good.group, (0,), good.j_tilde,
                           good.rho_tilde, good.rho)
    with pytest.raises(ValueError, match="G/N must be abelian"):
        bad.validate()


def _subgroups_between_by_elements(group, lower, upper):
    """The walk that tries every x in upper outside s, the oracle of the
    coset walk."""
    from heckelab import _closure

    def step(s):
        for x in set(upper).difference(s):
            yield x, group.closure(list(s) + [x])

    found = _closure.closure([group.closure(lower)], step)
    return sorted(found, key=lambda s: (-len(s), s))


def test_coset_walk_matches_the_element_walk_on_every_model():
    from heckelab.clifford_lab import _subgroups_between
    for model in MODELS.values():
        analysis = ModelAnalysis(model)
        dagger, inertia = analysis.twists.dagger, analysis.restriction.inertia
        assert (_subgroups_between(model.group, dagger, inertia)
                == _subgroups_between_by_elements(model.group, dagger,
                                                  inertia))


@pytest.mark.parametrize("group", [dihedral(4), quaternion(8), heisenberg(3)],
                         ids=["D8", "Q8", "He3"])
def test_coset_walk_matches_the_element_walk_on_every_subgroup_pair(group):
    from heckelab.clifford_lab import _subgroups_between
    subgroups = _subgroups_between_by_elements(group, (0,), range(group.order))
    assert len(subgroups) == {8: 10 if group.label == "D8" else 6,
                              27: 19}[group.order]
    for lower in subgroups:
        for upper in subgroups:
            if set(lower) <= set(upper):
                assert (_subgroups_between(group, lower, upper)
                        == _subgroups_between_by_elements(group, lower,
                                                          upper))


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------

def test_json_roundtrip_preserves_reports():
    for name in ("d8_rho2", "q8_rho2", "he3_sub"):
        model = MODELS[name]
        back = model_from_json(json.loads(json.dumps(model_to_json(model))))
        assert back.name == model.name
        assert back.normal == model.normal and back.j_tilde == model.j_tilde
        assert _facts(ModelAnalysis(back)) == _facts(_analysis(name))
        assert evaluate_entry(back) == _result(name)


def test_json_roundtrip_of_a_trivial_domain():
    # J = {0} has no greedy generator: its matrix is written at 0
    g = cyclic(2)
    sign = Representation.from_generators(g, [1], [[[Cyc.rational(2, -1)]]],
                                          2)
    trivial = Representation.from_generators(g, [0], [[[Cyc.one(2)]]], 2)
    model = FiniteGroupModel("c2_sign", g, (0,), (0, 1), sign, trivial)
    data = json.loads(json.dumps(model_to_json(model)))
    assert data["rho"]["generators"] == [0]
    back = model_from_json(data)
    assert back.rho.domain == (0,) and back.rho.dim == 1
    assert evaluate_entry(back) == evaluate_entry(model)


def test_catalog_roundtrip_names():
    data = catalog_to_json(build_catalog())
    names = [e["name"] for e in data["entries"]]
    back = catalog_from_json(data)
    assert [m.name for m in back] == names


def _integral_fractions(models) -> list:
    """(entry, element) of every matrix holding an integral Fraction."""
    bad = []
    for model in models:
        for rep in (model.rho_tilde, model.rho):
            for g in rep.domain:
                if any(isinstance(c, Q) and c.denominator == 1
                       for row in rep.matrix(g) for x in row for c in x.c):
                    bad.append((model.name, g))
    return bad


def test_catalog_matrices_hold_int_coefficients():
    # builtin and reloaded entries alike: integral coefficients are ints,
    # so every product in a representation's verification runs on ints
    models = build_catalog()
    assert _integral_fractions(models) == []
    assert _integral_fractions(catalog_from_json(catalog_to_json(models))) == []


def test_json_coefficients_are_int_when_integral():
    value = _coeffs_from_json(4, ["3", "-1"])
    assert value.c == (3, -1) and all(type(c) is int for c in value.c)
    value = _coeffs_from_json(4, ["1/2", "0"])
    assert value.c == (Q(1, 2), 0)
    assert isinstance(value.c[0], Q) and type(value.c[1]) is int


def test_json_rejects_bad_payloads():
    data = model_to_json(MODELS["d8_rho2"])
    broken = json.loads(json.dumps(data))
    broken["rho"]["matrices"][0][0][0] = ["1"]   # wrong coefficient length
    with pytest.raises(ValueError, match="wrong length"):
        model_from_json(broken)
    no_group = json.loads(json.dumps(data))
    no_group["group"] = {"label": "nope"}
    with pytest.raises(ValueError, match="table or permutation"):
        model_from_json(no_group)


def test_permutation_group_input():
    # a single 4-cycle closes to C4 with index = exponent, so the JSON
    # below is a complete hand-written entry over a permutation group
    zeta = ["0", "1"]   # the primitive fourth root in the power basis
    data = {
        "name": "c4_json",
        "group": {"permutations": [[1, 2, 3, 0]]},
        "normal": [0, 1, 2, 3],
        "j_tilde": [0, 1, 2, 3],
        "conductor": 4,
        "rho_tilde": {"generators": [1], "matrices": [[[zeta]]]},
        "rho": {"generators": [1], "matrices": [[[zeta]]]},
    }
    model = model_from_json(data)
    c4 = (0, 1, 2, 3)
    assert _facts(ModelAnalysis(model)) == (1, 1, c4, c4, c4, 1)
    chi = model.rho_tilde.character()
    assert chi[1] == Cyc.zeta(4) and chi[2] == -Cyc.one(4)


# ---------------------------------------------------------------------------
# evaluation driver
# ---------------------------------------------------------------------------

def test_evaluate_catalog_order():
    light = [MODELS[n] for n in
             ("d8_rho2", "q8_rho2", "skip_c4", "c8_faithful", "he3_n9")]
    assert [r["name"] for r in evaluate_catalog(light)] \
        == [m.name for m in light]


def test_entry_record_shape():
    # the record is the JSON entry itself, its keys in report order
    d = _result("q8_rho2")
    assert list(d) == ["name", "multiplicity", "orbit_size", "inertia_order",
                       "stabilizer_order", "dagger_order", "twist_order",
                       "transfer", "center", "commutativity", "passed"]
    assert list(d["transfer"]) == ["status", "failures", "over_normal",
                                   "over_j", "equal"]
    assert list(d["center"]) == ["status", "constituents", "dagger_index",
                                 "equal"]
    assert list(d["commutativity"]) == [
        "status", "normal_restriction_free", "j_restriction_free",
        "endomorphisms_commute", "coincide"]
    assert d["multiplicity"] == 2 and d["stabilizer_order"] == 4
    assert d["transfer"]["status"] == "OK"
    assert d["passed"] is True
    d = _result("skip_c4")
    assert d["transfer"]["status"] == "SKIPPED"
    assert d["transfer"]["failures"]
    assert json.loads(json.dumps(d)) == d


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

_LIGHT = ["d8_rho2", "d8_klein", "q8_rho2", "q8_n_c4", "c4_in_q8",
          "c6_triv", "d8_triv", "c8_faithful", "skip_c4", "skip_d8_center"]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_LIGHT), st.data())
def test_conjugate_constituent_stays_in_orbit(name, data):
    model = MODELS[name]
    g = data.draw(st.sampled_from(sorted(model.j_tilde)))
    rep = restrict_decompose(model.group, model.j, model.rho_tilde,
                             constituent=model.rho.character())
    chi = model.rho.character()
    moved = {x: chi[model.group.conj(g, x)] for x in model.j}
    assert char_key(moved) in {char_key(c) for c in rep.orbit}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_LIGHT))
def test_twists_form_a_group(name):
    model = MODELS[name]
    tw = twist_group(model.group, tuple(sorted(model.j_tilde)), model.j,
                     model.rho_tilde)
    e = tw.exponent
    keys = {tuple(sorted(t.items())) for t in tw.twists}
    for t1 in tw.twists:
        for t2 in tw.twists:
            prod = {g: (t1[g] + t2[g]) % e for g in t1}
            assert tuple(sorted(prod.items())) in keys


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_LIGHT), st.data())
def test_inertia_is_closed_under_product(name, data):
    model = MODELS[name]
    inertia = _analysis(name).restriction.inertia
    a = data.draw(st.sampled_from(inertia))
    b = data.draw(st.sampled_from(inertia))
    assert model.group.mul(a, b) in set(inertia)
