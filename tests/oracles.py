"""Test-side oracles: second routes and conveniences that only the tests read.

The package keeps one route per result.  What the tests compare it
against lives here: the reflection route of the two apartment
certificates (the image v(x) computed by reflecting the point, one
pairing per root and coset factor), the alcove grid walked on
Fractions, the coset split that peels off one reflection at a time,
and small helpers over the package's objects (element
orders, traces, induced characters, word products, centrality by
products with every generator, values of Laurent scalars and volume
monomials).  Nothing under ``src/`` imports this module.
"""
from __future__ import annotations

import itertools
from fractions import Fraction as Q
from typing import Iterable, Sequence

from heckelab import _linalg
from heckelab.apartment import (LEVEL_GAP, HeartVerdict, HeartWitness,
                                KeyInequalityRecord, as_point,
                                levi_root_indices, root_value)
from heckelab.cyclotomic import Cyc
from heckelab.iwahori_hecke import BernsteinAlgebra, HeckeElement
from heckelab.laurent import LaurentScalar
from heckelab.padic_groups import ValuationGroupScheme, VolumeExponent, scheme
from heckelab.root_datum import RootDatum, WeylElement, WeylGroup

# ---------------------------------------------------------------------------
# apartment: the reflection route of the certificates, the Fraction grid
# ---------------------------------------------------------------------------


def heart_condition1_by_reflection(group: WeylGroup, x: Sequence, r,
                                   theta: Sequence[int]) -> HeartVerdict:
    """``apartment.heart_condition1_check`` with each image v(X) computed
    by reflecting X along v's word, and each threshold there read off
    its own pairing."""
    datum = group.datum
    x = as_point(x)
    r = Q(r)
    theta = tuple(sorted(theta))
    levi = [datum.roots[k] for k in levi_root_indices(datum, theta)]
    if levi and r <= 0:
        raise ValueError("depth must be positive")
    D, (*X, R) = _linalg.scaled((*x, r))

    def level(a, point) -> int:
        return -((datum.pairing(a, point) - R) // D)

    at_x = [(a, level(a, X)) for a in levi]
    witnesses = []
    for v in group.minimal_coset_representatives(theta):
        image = group.act_cocharacter(v, X)
        for a, t_x in at_x:
            t_img = level(a, image)
            if t_x != t_img:
                witnesses.append(HeartWitness(theta, v, a, t_x, t_img))
    if witnesses:
        return HeartVerdict("MISMATCH", tuple(witnesses))
    return HeartVerdict("PROVEN_CONDITION_1", ())


def key_inequality_by_reflection(group: WeylGroup, x: Sequence,
                                 theta: Sequence[int]
                                 ) -> list[KeyInequalityRecord]:
    """``apartment.key_inequality_report`` with v^-1(a) computed by
    reflecting the root a along the word of v^-1."""
    datum = group.datum
    D, X = _linalg.scaled(as_point(x))
    theta = tuple(sorted(theta))
    pos_levi = [k for k in levi_root_indices(datum, theta)
                if datum.is_positive_root(datum.roots[k])]
    out = []
    for v in group.minimal_coset_representatives(theta):
        vinv = group.inv(v)
        for k in pos_levi:
            a = datum.roots[k]
            pulled = group.act_character(vinv, a)
            shift = datum.pairing(pulled, X) - datum.pairing(a, X)
            out.append(KeyInequalityRecord(
                theta, v, a, Q(shift, D), 0 <= shift < LEVEL_GAP * D))
    return out


def fraction_alcove_grid(datum: RootDatum, max_denominator: int,
                         closed: bool) -> list[tuple[Q, ...]]:
    """``apartment._alcove_grid`` walked on Fractions: every grid point,
    central coordinates zero, tested root by root."""
    inside = (lambda v: 0 <= v <= 1) if closed else (lambda v: 0 < v < 1)
    vals = sorted(v for v in {Q(k, d) for d in range(1, max_denominator + 1)
                              for k in range(d + 1)} if inside(v))
    free = (datum.ambient_rank - 1 if datum.is_general_linear
            else datum.semisimple_rank)
    pad = (Q(0),) * (datum.ambient_rank - free)
    pos = [datum.roots[k] for k in datum.positive_roots()]
    out = []
    for coords in itertools.product(vals, repeat=free):
        x = coords + pad
        if all(inside(root_value(datum, a, x)) for a in pos):
            out.append(x)
    return out


def base_alcove_closure_grid(datum: RootDatum, max_denominator: int
                             ) -> list[tuple[Q, ...]]:
    """All base-alcove closure points of the grid (weak inequalities)."""
    return fraction_alcove_grid(datum, max_denominator, closed=True)


def highest_root_marks(datum: RootDatum, component: list[int]) -> dict[int, Q]:
    """Simple-root coefficients of the highest root of a component."""
    best = None
    for a in datum.roots:
        coeffs = datum.simple_coefficients(a)
        if coeffs is None or any(c < 0 for c in coeffs):
            continue
        support = {i for i, c in enumerate(coeffs) if c != 0}
        if not support or not support.issubset(set(component)):
            continue
        total = sum(coeffs)
        if best is None or total > best[0]:
            best = (total, {i: coeffs[i] for i in component})
    if best is None:
        raise ValueError("component has no roots")
    return best[1]


def base_alcove_barycenter(datum: RootDatum) -> tuple[Q, ...]:
    """Interior point of the fundamental alcove: average of the alcove
    vertices (origin and fundamental coweights scaled by the inverse
    highest-root marks), taken per Dynkin component."""
    omegas = datum.fundamental_coweights()
    x = [Q(0)] * datum.ambient_rank
    for comp in datum.dynkin_components():
        marks = highest_root_marks(datum, comp)
        acc = [Q(0)] * datum.ambient_rank
        for i in comp:
            acc = [s + w / marks[i] for s, w in zip(acc, omegas[i], strict=True)]
        x = [s + a / (len(comp) + 1) for s, a in zip(x, acc, strict=True)]
    return tuple(x)


# ---------------------------------------------------------------------------
# Weyl groups and the torus action
# ---------------------------------------------------------------------------

def word_element(group: WeylGroup, word: Iterable[int]) -> WeylElement:
    acc = group.identity
    for i in word:
        acc = group.mul(acc, group.simple_reflection(i))
    return acc


def coset_split_minimal(group: WeylGroup, w: WeylElement,
                        theta: Sequence[int]) -> tuple[WeylElement, WeylElement]:
    """Write ``w = u * v`` with ``u`` in the standard parabolic subgroup
    for ``theta`` (positions into the simple list) and ``v`` the minimal
    representative of its coset, by peeling off theta-simple reflections
    on the left while they shorten ``v``.  Lengths add up."""
    u = group.identity
    v = w
    while True:
        for i in theta:
            s = group.simple_reflection(i)
            sv = group.mul(s, v)
            if sv.length < v.length:
                v = sv
                u = group.mul(u, s)
                break
        else:
            return u, v


def weyl_act_pair(group: WeylGroup, w: WeylElement, pair, modulus: int):
    """Simultaneous action: w moves the coweight as a cocharacter and
    the exponent tuple, reduced mod ``modulus``, as a character."""
    lam, chi = pair
    return (group.act_cocharacter(w, lam),
            tuple(c % modulus for c in group.act_character(w, chi)))


# ---------------------------------------------------------------------------
# finite groups, characters, cyclotomic matrices
# ---------------------------------------------------------------------------

def element_order(group, a: int) -> int:
    k, cur = 1, a
    while cur != 0:
        cur = group.mul(cur, a)
        k += 1
    return k


def commutator_subgroup(group) -> tuple[int, ...]:
    """[G, G], closed from all |G|^2 commutators."""
    comms = {group.mul(group.mul(a, b), group.inv(group.mul(b, a)))
             for a in range(group.order) for b in range(group.order)}
    return group.closure(comms)


def induced_character(group, sub: Sequence[int], chi, ambient=None):
    """The induced class function by the Frobenius formula."""
    amb = tuple(ambient) if ambient is not None else tuple(range(group.order))
    sub_set = set(sub)
    m = next(iter(chi.values())).m
    out = {}
    for g in amb:
        acc = Cyc.zero(m)
        for x in amb:
            y = group.conj(x, g)
            if y in sub_set:
                acc = acc + chi[y]
        out[g] = acc * Q(1, len(sub))
    return out


def cyc_trace(a) -> Cyc:
    out = Cyc.zero(a[0][0].m)
    for i in range(len(a)):
        out = out + a[i][i]
    return out


# ---------------------------------------------------------------------------
# Laurent scalars, the Hecke algebra, volume monomials
# ---------------------------------------------------------------------------

def v_power(k: int, coeff=1) -> LaurentScalar:
    return LaurentScalar({k: coeff})


def scalar_value(x: LaurentScalar, v_value) -> Q:
    """The Laurent scalar at v = v_value."""
    v = Q(v_value)
    return sum((c * v ** k for k, c in x.c.items()), Q(0))


def volume_value(vol: VolumeExponent, q: int) -> Q:
    """q^a (q-1)^b at a number q."""
    return Q(q) ** vol.q_power * Q(q - 1) ** vol.unit_power


def principal_congruence_scheme(n: int, level: int) -> ValuationGroupScheme:
    if level < 1:
        raise ValueError("level must be >= 1")
    return scheme([[level] * n for _ in range(n)])


def t_element(alg: BernsteinAlgebra, i: int) -> HeckeElement:
    """The generator T_i."""
    return HeckeElement({(alg._zero, alg.group.simple_reflection(i)):
                         LaurentScalar.one()})


def finite_hecke_multiply(alg: BernsteinAlgebra, x: HeckeElement,
                          y: HeckeElement) -> HeckeElement:
    """Word-by-word product route for elements with no lattice part;
    independent of the commutation rewriting."""
    zero = alg._zero
    for lam, _w in itertools.chain(x.c, y.c):
        if lam != zero:
            raise ValueError(
                "finite multiplication needs elements supported on the "
                "finite part")
    out = {}
    for (_z1, w1), c1 in x.c.items():
        for (_z2, w2), c2 in y.c.items():
            for w, d in alg._t_word_mul(w1, w2).items():
                k = (zero, w)
                out[k] = out.get(k, LaurentScalar.zero()) + c1 * c2 * d
    return HeckeElement(out)


def t_word(alg: BernsteinAlgebra, word) -> HeckeElement:
    out = alg.one()
    for i in word:
        out = finite_hecke_multiply(alg, out, t_element(alg, i))
    return out


def is_central(alg: BernsteinAlgebra, z: HeckeElement) -> bool:
    """z commutes with the finite generators and the lattice basis
    directions, which generate the algebra (commuting passes to
    inverses), by general products on both sides."""
    gens = [t_element(alg, i) for i in range(len(alg.datum.simple))]
    for j in range(alg.rank):
        gens.append(alg.theta(tuple(int(k == j) for k in range(alg.rank))))
    return all(alg.bernstein_multiply(z, g) == alg.bernstein_multiply(g, z)
               for g in gens)
