"""Lattice-presentation algebra: finite relations, commutation rules,
central orbit sums, and the truncated-center dimension check."""
import itertools
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckelab import iwahori_hecke
from heckelab.iwahori_hecke import (
    BernsteinAlgebra,
    HeckeElement,
    commutator_rows,
    label_orbits,
    satake_check,
)
from heckelab.laurent import LaurentScalar
from heckelab.root_datum import (
    REGISTRY,
    WeylGroup,
    cartan_matrix,
    datum_from_cartan,
    datum_from_config,
    datum_general_linear,
)

from oracles import (
    commutator_matvec,
    finite_hecke_multiply,
    is_central,
    scalar_value,
    t_element,
    t_word,
)

A1 = WeylGroup(datum_from_cartan(cartan_matrix("A", 1)))
A2 = WeylGroup(datum_from_cartan(cartan_matrix("A", 2)))
B2 = WeylGroup(datum_from_cartan(cartan_matrix("B", 2)))
GL2 = WeylGroup(datum_general_linear(2))
GL3 = WeylGroup(datum_general_linear(3))

Q_MINUS_1 = LaurentScalar({2: Q(1), 0: Q(-1)})

_ALGS: dict[str, BernsteinAlgebra] = {}


def alg_for(name: str) -> BernsteinAlgebra:
    if name not in _ALGS:
        _ALGS[name] = BernsteinAlgebra(
            {"A1": A1, "A2": A2, "B2": B2, "GL2": GL2, "GL3": GL3}[name])
    return _ALGS[name]


def bword(alg: BernsteinAlgebra, word) -> HeckeElement:
    out = alg.one()
    for i in word:
        out = alg.bernstein_multiply(out, t_element(alg, i))
    return out


def test_identity_is_neutral():
    alg = alg_for("GL2")
    x = alg.bernstein_multiply(t_element(alg, 0), alg.theta((1, -2)))
    assert alg.bernstein_multiply(x, alg.one()) == x
    assert alg.bernstein_multiply(alg.one(), x) == x
    assert finite_hecke_multiply(alg, alg.one(), t_element(alg, 0)) == \
        t_element(alg, 0)


def test_quadratic_relation_both_routes():
    alg = alg_for("A1")
    ts = t_element(alg, 0)
    expect = ts.scale(Q_MINUS_1) + alg.one().scale(LaurentScalar.q_power(1))
    assert finite_hecke_multiply(alg, ts, ts) == expect
    assert alg.bernstein_multiply(ts, ts) == expect


@pytest.mark.parametrize("name,w1,w2", [
    ("A2", (0, 1, 0), (1, 0, 1)),
    ("GL3", (0, 1, 0), (1, 0, 1)),
    ("B2", (0, 1, 0, 1), (1, 0, 1, 0)),
])
def test_braid_relations_both_routes(name, w1, w2):
    alg = alg_for(name)
    assert t_word(alg, w1) == t_word(alg, w2)
    assert bword(alg, w1) == bword(alg, w2)
    assert t_word(alg, w1) == bword(alg, w1)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 1), max_size=5),
       st.lists(st.integers(0, 1), max_size=5))
def test_finite_routes_agree_on_random_words(wa, wb):
    alg = alg_for("A2")
    x, y = t_word(alg, wa), t_word(alg, wb)
    assert finite_hecke_multiply(alg, x, y) == alg.bernstein_multiply(x, y)


def test_finite_multiply_rejects_lattice_support():
    alg = alg_for("GL2")
    with pytest.raises(ValueError, match="finite part"):
        finite_hecke_multiply(alg, alg.theta((1, 0)), t_element(alg, 0))


def test_theta_zero_is_identity():
    alg = alg_for("GL2")
    assert alg.theta((0, 0)) == alg.one()


@settings(max_examples=50, deadline=None)
@given(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
       st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
def test_theta_additivity_and_inverse(lam, mu):
    alg = alg_for("GL2")
    total = tuple(a + b for a, b in zip(lam, mu))
    assert alg.bernstein_multiply(alg.theta(lam), alg.theta(mu)) == \
        alg.theta(total)
    neg = tuple(-a for a in lam)
    assert alg.bernstein_multiply(alg.theta(lam), alg.theta(neg)) == alg.one()


def test_commutation_rule_oracle():
    # moving the swap generator past a one-step lattice label leaves an
    # exact single-term remainder with coefficient q - 1
    alg = alg_for("GL2")
    ts, th = t_element(alg, 0), alg.theta
    lhs = alg.bernstein_multiply(th((1, 0)), ts) - \
        alg.bernstein_multiply(ts, th((0, 1)))
    assert lhs == th((1, 0)).scale(Q_MINUS_1)
    # pairing value two leaves a two-term geometric remainder
    alg1 = alg_for("A1")
    lhs = alg1.bernstein_multiply(alg1.theta((2,)), t_element(alg1, 0)) - \
        alg1.bernstein_multiply(t_element(alg1, 0), alg1.theta((-2,)))
    assert lhs == (alg1.theta((2,)) + alg1.theta((0,))).scale(Q_MINUS_1)


def _candidates(alg: BernsteinAlgebra, rank: int) -> list[HeckeElement]:
    lam1 = (1,) + (0,) * (rank - 1)
    lam2 = (-1, 1) + (0,) * (rank - 2) if rank >= 2 else (-2,)
    base = [t_element(alg, i) for i in range(len(alg.datum.simple))]
    base += [alg.theta(lam1), alg.theta(lam2)]
    base.append(alg.bernstein_multiply(base[0], base[-1]))
    return base


@pytest.mark.parametrize("name", ["A1", "GL2", "A2", "B2"])
def test_associativity_exhaustive_over_candidates(name):
    alg = alg_for(name)
    cands = _candidates(alg, alg.rank)
    for x, y, z in itertools.product(cands, repeat=3):
        assert alg.bernstein_multiply(alg.bernstein_multiply(x, y), z) == \
            alg.bernstein_multiply(x, alg.bernstein_multiply(y, z))


def test_central_element_oracles():
    alg = alg_for("GL2")
    assert alg.central_element((0, 0)) == alg.one()
    z = alg.central_element((1, 0))
    assert z == alg.theta((1, 0)) + alg.theta((0, 1))
    assert alg.central_element((1, 1)) == alg.theta((1, 1))


def test_central_element_normalizes_with_notice():
    alg = alg_for("GL2")
    with pytest.warns(UserWarning, match="dominant"):
        z = alg.central_element((0, 1))
    assert z == alg.central_element((1, 0))


def test_is_central_oracles():
    alg = alg_for("GL2")
    assert is_central(alg, alg.one())
    assert is_central(alg, alg.central_element((1, 0)))
    assert is_central(alg, alg.central_element((2, -1)))
    assert not is_central(alg, t_element(alg, 0))
    assert not is_central(alg, alg.theta((1, 0)))
    alg1 = alg_for("A1")
    assert not is_central(alg1, t_element(alg1, 0))
    assert is_central(alg1, alg1.central_element((2,)))


@pytest.mark.parametrize("name,radius,dim", [
    ("A1", 0, 1), ("A1", 1, 2), ("A1", 2, 3),
    ("GL2", 0, 1), ("GL2", 1, 6), ("GL2", 2, 15),
    ("B2", 1, 4),
])
def test_satake_dimensions(name, radius, dim):
    group = alg_for(name).group
    rep = satake_check(group, label_orbits(group, radius))
    assert rep.ok, rep.failures
    assert rep.center_dimension == dim
    assert len(rep.representatives) == dim
    assert all(alg_for(name).datum.is_dominant_coweight(r)
               for r in rep.representatives)


def test_satake_gl2_representatives_frozen():
    rep = satake_check(GL2, label_orbits(GL2, 1))
    assert rep.representatives == (
        (-1, -1), (0, -1), (0, 0), (1, -1), (1, 0), (1, 1))
    assert rep.orbits[2] == ((0, 0),)
    assert set(rep.orbits[4]) == {(1, 0), (0, 1)}


def test_satake_rejects_negative_radius():
    with pytest.raises(ValueError, match="radius"):
        label_orbits(GL2, -1)


def test_satake_orbits_match_torus_orbits():
    # the supports of the central elements are exactly the coweight
    # orbits of the torus layer at the trivial residue character
    from heckelab.torus_center import orbits
    rep = satake_check(GL2, label_orbits(GL2, 2))
    hecke_supports = {frozenset(o) for o in rep.orbits}
    torus_supports = {frozenset(lam for lam, _chi in o.orbit)
                      for o in orbits(GL2, 2, modulus=1)}
    assert hecke_supports == torus_supports


def _tampered(z: HeckeElement) -> HeckeElement:
    # the same support with its first coefficient doubled
    first = z.support[0]
    return HeckeElement({**z.c, first: z.c[first] + z.c[first]})


@pytest.mark.parametrize("name", ["GL2", "A2", "B2"])
def test_commutator_matvec_agrees_with_is_central(name):
    alg = alg_for(name)
    orbit_map = label_orbits(alg.group, 1)
    rows = commutator_rows(
        alg, sorted(lam for orb in orbit_map.values() for lam in orb))
    for rep in orbit_map:
        z = alg.central_element(rep)
        assert commutator_matvec(rows, z) == {} and is_central(alg, z)
        if len(z.c) > 1:
            bad = _tampered(z)
            assert commutator_matvec(rows, bad) and not is_central(alg, bad)
    th = alg.theta((1, 0))
    assert commutator_matvec(rows, th) and not is_central(alg, th)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_commutator_columns_match_the_general_product(name):
    # second route: [theta_lam, T_i] from two general products, label
    # by label, against the rows read off the Bernstein relation
    alg = BernsteinAlgebra(WeylGroup(datum_from_config(REGISTRY[name])))
    for radius in (1, 2):
        basis = sorted(lam for orb in label_orbits(alg.group, radius).values()
                       for lam in orb)
        rows = {}
        for i in range(len(alg.datum.simple)):
            g = t_element(alg, i)
            for lam in basis:
                th = alg.theta(lam)
                comm = alg.bernstein_multiply(th, g) - alg.bernstein_multiply(g, th)
                for lab, scal in comm.c.items():
                    rows.setdefault((i, lab), {})[lam] = scal
        assert commutator_rows(alg, basis) == rows, (name, radius)


def test_satake_fails_on_a_tampered_bernstein_relation(monkeypatch):
    orbit_map = label_orbits(GL2, 1)
    assert satake_check(GL2, orbit_map).ok
    real = BernsteinAlgebra._commute_one

    # T_0 theta_(1,0) = theta_(0,1) T_0 + (q - 1) theta_(1,0), with the
    # remainder coefficient doubled
    def doubled(alg, i, lam):
        terms = real(alg, i, lam)
        if (i, lam) == (0, (1, 0)):
            nu, keeps_gen, c = terms[-1]
            terms[-1] = (nu, keeps_gen, c + c)
        return terms
    monkeypatch.setattr(BernsteinAlgebra, "_commute_one", doubled)
    rep = satake_check(GL2, orbit_map)
    assert not rep.ok and rep.rank_route == "Q(v)"
    assert "orbit sum of (1, 0) is not central" in rep.failures


def test_satake_catches_lattice_generators_that_fail_to_commute(monkeypatch):
    real = BernsteinAlgebra._commute_word

    # commuting a nonzero label past the empty word doubles it: then
    # theta_0 theta_(e_j) = 2 theta_(e_j), but theta_(e_j) theta_0 is
    # still theta_(e_j).  The check names every label that breaks the
    # rule _commute_word((), lam) = theta_lam
    def doubled(alg, word, lam):
        out = real(alg, word, lam)
        if not word and any(lam):
            out = {k: c + c for k, c in out.items()}
        return out
    monkeypatch.setattr(BernsteinAlgebra, "_commute_word", doubled)
    rep = satake_check(GL2, label_orbits(GL2, 1))
    assert not rep.ok and rep.rank_route == "Q(v)"
    assert rep.failures == tuple(
        f"lattice label {lam} does not pass the empty word unchanged"
        for lam in itertools.product((-1, 0, 1), repeat=2) if any(lam))
    assert rep.center_dimension == 6


def test_satake_names_the_one_label_that_breaks_the_empty_word_rule(
        monkeypatch):
    real = BernsteinAlgebra._commute_word

    def doubled(alg, word, lam):
        out = real(alg, word, lam)
        if not word and lam == (1, 1):
            out = {k: c + c for k, c in out.items()}
        return out
    monkeypatch.setattr(BernsteinAlgebra, "_commute_word", doubled)
    rep = satake_check(GL2, label_orbits(GL2, 1))
    assert not rep.ok and rep.rank_route == "Q(v)"
    assert rep.failures == (
        "lattice label (1, 1) does not pass the empty word unchanged",)


def test_satake_catches_overlapping_orbit_supports():
    # the orbit of (1, 0) merged into that of (1, 1), and still listed
    orbit_map = dict(label_orbits(GL2, 1))
    orbit_map[(1, 1)] = tuple(sorted(orbit_map[(1, 1)] + orbit_map[(1, 0)]))
    rep = satake_check(GL2, orbit_map)
    assert not rep.ok
    assert rep.failures == ("support of the orbit sum of (1, 1) is wrong",
                            "orbit supports overlap")
    assert rep.rank_route == "Q(v)"


def _count_rat_rank(monkeypatch) -> list[int]:
    calls = [0]
    real = iwahori_hecke.rat_rank

    def counted(rows):
        calls[0] += 1
        return real(rows)
    monkeypatch.setattr(iwahori_hecke, "rat_rank", counted)
    return calls


@pytest.mark.parametrize("name,radius",
                         [(name, 1) for name in sorted(REGISTRY)] + [("gl3", 2)])
def test_satake_certifies_from_the_v_free_rows(name, radius, monkeypatch):
    group = WeylGroup(datum_from_config(REGISTRY[name]))
    built = []
    real = iwahori_hecke.commutator_rows

    def recorded(*args):
        built.append(real(*args))
        return built[-1]
    monkeypatch.setattr(iwahori_hecke, "commutator_rows", recorded)
    calls = _count_rat_rank(monkeypatch)
    rep = satake_check(group, label_orbits(group, radius))
    assert rep.ok, rep.failures
    assert rep.rank_route == "Q (v-free rows)" and calls == [0]
    assert rep.center_dimension == len(rep.representatives)
    # the Bernstein relation: the row of T_i at (mu, s_i) is e_mu - e_{s_i mu}
    # at every basis label mu that s_i moves
    rows, = built
    basis = {lam for orb in rep.orbits for lam in orb}
    one = LaurentScalar.one()
    keys = set()
    for (i, (mu, w)), row in rows.items():
        s = group.simple_reflection(i)
        if w == s:
            assert row == {mu: one, group.act_cocharacter(s, mu): -one}
            keys.add((i, mu))
    assert keys == {(i, mu) for i in range(len(group.datum.simple))
                    for mu in basis
                    if group.act_cocharacter(group.simple_reflection(i), mu) != mu}


@pytest.mark.parametrize("name", ["GL2", "A2"])
def test_satake_falls_back_to_rat_rank(name, monkeypatch):
    group = alg_for(name).group
    orbit_map = label_orbits(group, 1)
    certified = satake_check(group, orbit_map)
    assert certified.rank_route == "Q (v-free rows)"
    calls = _count_rat_rank(monkeypatch)
    # a v-free rank that falls short leaves the dimension unproven
    real = iwahori_hecke.mat_rank
    monkeypatch.setattr(iwahori_hecke, "mat_rank", lambda rows: real(rows) - 1)
    fallback = satake_check(group, orbit_map)
    assert calls == [1]
    assert fallback.rank_route == "Q(v)"
    assert fallback == certified._replace(rank_route="Q(v)")


def test_satake_failed_checks_take_the_q_v_route(monkeypatch):
    calls = _count_rat_rank(monkeypatch)
    # a support that misses part of its orbit
    orbit_map = dict(label_orbits(GL2, 1))
    orbit_map[(1, 0)] = ((1, 0),)
    rep = satake_check(GL2, orbit_map)
    assert "support of the orbit sum of (1, 0) is wrong" in rep.failures
    assert rep.rank_route == "Q(v)" and calls == [1]
    # an orbit sum with a coefficient other than 1; 2 z is central
    # whenever z is, but it is not the unit orbit sum that the row pass
    # checks
    real = BernsteinAlgebra.central_element
    two = LaurentScalar({0: 2})
    for n, (bad_rep, tamper) in enumerate(
            [((1, 0), _tampered), ((1, 1), lambda z: z.scale(two))], start=2):
        monkeypatch.setattr(
            BernsteinAlgebra, "central_element",
            lambda alg, mu: tamper(real(alg, mu)) if tuple(mu) == bad_rep
            else real(alg, mu))
        rep = satake_check(GL2, label_orbits(GL2, 1))
        assert rep.failures == (
            f"orbit sum of {bad_rep} has a coefficient other than 1",)
        assert rep.rank_route == "Q(v)" and calls == [n]
        assert rep.center_dimension == 6


def test_label_orbits_closes_each_orbit_once(monkeypatch):
    calls = [0]
    real = WeylGroup.orbit_cocharacter

    def counted(group, lam):
        calls[0] += 1
        return real(group, lam)
    monkeypatch.setattr(WeylGroup, "orbit_cocharacter", counted)
    orbit_map = label_orbits(GL3, 2)
    assert len(orbit_map) == 35 and calls == [35]


def test_specialization_coherence():
    # evaluating v at a concrete value commutes with multiplication,
    # checked on the coefficients of a braid product
    alg = alg_for("A2")
    x = bword(alg, (0, 1, 0))
    y = bword(alg, (1, 0, 1))
    for lab in x.support:
        assert scalar_value(x.c[lab], 2) == scalar_value(y.c[lab], 2)
    prod = alg.bernstein_multiply(alg.theta((1, 0)), t_element(alg, 0))
    again = alg.bernstein_multiply(alg.theta((1, 0)), t_element(alg, 0))
    for lab in prod.support:
        assert scalar_value(prod.c[lab], 3) == scalar_value(again.c[lab], 3)


def test_element_arithmetic_and_repr():
    alg = alg_for("GL2")
    x = t_element(alg, 0) + alg.theta((1, 0)).scale(LaurentScalar.q_power(1))
    assert x.coefficient((1, 0), alg.group.identity) == LaurentScalar.q_power(1)
    assert (x - x).is_zero
    s0 = alg.group.simple_reflection(0)
    assert f"*T[w{s0}]" in repr(t_element(alg, 0))
    assert repr(HeckeElement()) == "0"
