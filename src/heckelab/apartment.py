"""Filtration thresholds on a single apartment.

Points of the apartment are rational cocharacter vectors, always stored
as offsets from a fixed special base point at the origin.  Affine roots
are pairs (root, integer level); the split, residually-split convention
is hard-wired: every root takes levels in Z and the level gap e_a is 1.
Non-split echelonnage data are rejected at the door by not being
constructible here.

The depth-r filtration of the root subgroup attached to a root ``a`` at
a point ``x`` is recorded by its integer threshold, the least level k
with a(x) + k >= r.  ``padic_groups.from_filtration`` reads the bound
matrix of a general-linear filtration group off these thresholds.

``heart_condition1_check`` runs the Levi-intersection comparison behind
the one-alcove positivity argument: decompose every Weyl element across
a standard parabolic subgroup, then compare the Levi-root thresholds at
x with those at the image of x under the minimal coset factor.  The
verdict is an equality certificate, not a conjugacy decision: a
MISMATCH only says the certificate failed and must be escalated to the
valuation-matrix obstruction before drawing any conclusion.

``levi_profile_translation_witness`` implements the repaired form of
the claim: even when the equality certificate fails, the two Levi
threshold profiles are usually identified by an integral cocharacter
translation combined with a Levi Weyl element.  At depth-regular
alcove-interior points (see ``depth_regular_point``) the witness search
succeeds on every tested instance.  At depth-critical interior points
and at wall points it can genuinely fail: a translation keeps every
pair sum t_a + t_{-a} and a Levi Weyl element permutes them, so when
the multisets of pair sums over the positive Levi roots differ at x and
at v(x) no witness exists (on general-linear data the volume
obstruction then proves non-conjugacy as well).
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction as Q
from typing import Iterable, NamedTuple, Sequence

from . import _linalg
from .root_datum import IVec, RootDatum, WeylElement, WeylGroup

ApartmentPoint = tuple[Q, ...]

LEVEL_GAP = 1  # e_a for every root in the split convention


def as_point(coords: Iterable) -> ApartmentPoint:
    return tuple(Q(c) for c in coords)


def root_value(datum: RootDatum, root: Sequence[int], x: Sequence) -> Q:
    return datum.pairing(root, x)


def threshold(datum: RootDatum, root: Sequence[int], x: Sequence, r) -> int:
    """Least integer level k with root(x) + k >= r."""
    r = Q(r)
    if r <= 0:
        raise ValueError("depth must be positive")
    return math.ceil(r - root_value(datum, root, x))


def _scaled(values: Sequence[Q]) -> tuple[int, list[int]]:
    """(D, [D v for v in values]) for D the least common denominator of
    the values, every entry an int."""
    D = math.lcm(*(v.denominator for v in values))
    return D, [v.numerator * (D // v.denominator) for v in values]


# ---------------------------------------------------------------------------
# Point classification
# ---------------------------------------------------------------------------

class PointClassification(NamedTuple):
    kind: str  # SPECIAL | ALCOVE_INTERIOR | FACET
    facet_dimension: int
    integral_root_indices: tuple[int, ...]


def classify_point(datum: RootDatum, x: Sequence) -> PointClassification:
    x = as_point(x)
    integral = tuple(k for k, a in enumerate(datum.roots)
                     if root_value(datum, a, x).denominator == 1)
    int_rank = _linalg.mat_rank([datum.roots[k] for k in integral]) if integral else 0
    dim = datum.ambient_rank - int_rank
    if not integral:
        kind = "ALCOVE_INTERIOR"
    elif len(integral) == len(datum.roots):
        kind = "SPECIAL"
    else:
        kind = "FACET"
    return PointClassification(kind, dim, integral)


# ---------------------------------------------------------------------------
# Levi root bookkeeping
# ---------------------------------------------------------------------------

def levi_root_indices(datum: RootDatum, theta: Sequence[int]) -> list[int]:
    """Indices of roots lying in the span of the theta-simple roots."""
    out = []
    for k, a in enumerate(datum.roots):
        coeffs = datum.simple_coefficients(a)
        if coeffs is not None and all(
                c == 0 for i, c in enumerate(coeffs) if i not in theta):
            out.append(k)
    return out


# ---------------------------------------------------------------------------
# Condition-(1) equality certificate
# ---------------------------------------------------------------------------

class HeartWitness(NamedTuple):
    theta: tuple[int, ...]
    w2: WeylElement
    root: IVec
    threshold_at_x: int
    threshold_at_image: int


class HeartVerdict(NamedTuple):
    status: str  # PROVEN_CONDITION_1 | MISMATCH
    witnesses: tuple[HeartWitness, ...]

    @property
    def proven(self) -> bool:
        return self.status == "PROVEN_CONDITION_1"


def heart_condition1_check(group: WeylGroup, x: Sequence, r,
                           theta: Sequence[int]) -> HeartVerdict:
    """Compare Levi-root thresholds at x and at w2(x) for the minimal
    coset factor w2 of every Weyl element.

    On X = D x and R = D r, D the least common denominator of x and r,
    the threshold ceil(r - a(x)) is ceil((R - a(X)) / D), read off
    integer floor division."""
    datum = group.datum
    x = as_point(x)
    r = Q(r)
    theta = tuple(sorted(theta))
    levi = [datum.roots[k] for k in levi_root_indices(datum, theta)]
    if levi and r <= 0:
        raise ValueError("depth must be positive")
    D, (*X, R) = _scaled((*x, r))

    def level(a: IVec, point: Sequence[int]) -> int:
        return -((datum.pairing(a, point) - R) // D)

    # the thresholds at x do not depend on the coset factor
    at_x = [(a, level(a, X)) for a in levi]
    witnesses: list[HeartWitness] = []
    for v in group.minimal_coset_representatives(theta):
        image = group.act_cocharacter(v, X)
        for a, t_x in at_x:
            t_img = level(a, image)
            if t_x != t_img:
                witnesses.append(HeartWitness(theta, v, a, t_x, t_img))
    if witnesses:
        return HeartVerdict("MISMATCH", tuple(witnesses))
    return HeartVerdict("PROVEN_CONDITION_1", ())


class KeyInequalityRecord(NamedTuple):
    theta: tuple[int, ...]
    w2: WeylElement
    root: IVec
    delta: Q  # (w2^{-1}(a) - a)(x)
    inequality_holds: bool  # 0 <= delta < LEVEL_GAP


def key_inequality_report(group: WeylGroup, x: Sequence,
                          theta: Sequence[int]) -> list[KeyInequalityRecord]:
    """Evaluate, for every minimal coset factor and every positive Levi
    root, the positivity-plus-gap inequality that the one-alcove
    argument leans on.  Reported verbatim; see the decision notes for
    where it genuinely fails.  The shifts are evaluated on X = D x, D
    the least common denominator of x, as the ints D delta."""
    datum = group.datum
    D, X = _scaled(as_point(x))
    theta = tuple(sorted(theta))
    pos_levi = [k for k in levi_root_indices(datum, theta)
                if datum.is_positive_root(datum.roots[k])]
    out: list[KeyInequalityRecord] = []
    for v in group.minimal_coset_representatives(theta):
        vinv = group.inv(v)
        for k in pos_levi:
            a = datum.roots[k]
            pulled = group.act_character(vinv, a)
            shift = datum.pairing(pulled, X) - datum.pairing(a, X)
            out.append(KeyInequalityRecord(
                theta, v, a, Q(shift, D), 0 <= shift < LEVEL_GAP * D))
    return out


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------

def _alcove_grid(datum: RootDatum, max_denominator: int,
                 closed: bool) -> list[ApartmentPoint]:
    """Grid points whose coordinates are fractions with denominator at
    most ``max_denominator`` (central coordinates normalized to zero)
    and whose positive root values lie in [0, 1] when ``closed``, in
    (0, 1) otherwise."""
    inside = (lambda v: 0 <= v <= 1) if closed else (lambda v: 0 < v < 1)
    vals = sorted(v for v in {Q(k, d) for d in range(1, max_denominator + 1)
                              for k in range(d + 1)} if inside(v))
    # general-linear data are normalized by setting the last coordinate
    # to zero (root values ignore the central direction); Cartan-style
    # data keep central coordinates at zero as well
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


def alcove_interior_points(datum: RootDatum, max_denominator: int) -> list[ApartmentPoint]:
    """All base-alcove interior points of the grid (strict inequalities)."""
    return _alcove_grid(datum, max_denominator, closed=False)


def base_alcove_closure_grid(datum: RootDatum, max_denominator: int) -> list[ApartmentPoint]:
    """All base-alcove closure points of the grid (weak inequalities)."""
    return _alcove_grid(datum, max_denominator, closed=True)


def depth_regular_point(datum: RootDatum, x: Sequence, r) -> bool:
    """True when no root value at x is congruent to the depth mod the
    level lattice, i.e. x avoids every depth-r critical hyperplane
    a = r - k.  On critical hyperplanes a threshold sits exactly at its
    jump and Levi profile volumes can change under Weyl images; off
    them, pair sums t_a + t_{-a} are rigid."""
    r = Q(r)
    return all((r - root_value(datum, a, x)).denominator != 1
               for a in datum.roots)


# ---------------------------------------------------------------------------
# Repaired conjugacy statement: translation witnesses
# ---------------------------------------------------------------------------

def levi_profile_translation_witness(group: WeylGroup, x: Sequence, r,
                                     theta: Sequence[int], v: WeylElement
                                     ) -> tuple[WeylElement, IVec] | None:
    """Search for (w', nu) with w' in the theta-parabolic subgroup and
    nu an integral cocharacter such that conjugating the x-profile by
    them matches the v(x)-profile on every Levi root:

        threshold(a, v(x)) = threshold(w'^{-1}(a), x) + a(nu).

    Conjugation by a translation shifts the bound of root a by a(nu);
    a Levi Weyl element permutes the Levi bounds.  Returns None when no
    witness exists (which happens at genuine obstruction points)."""
    datum = group.datum
    x = as_point(x)
    r = Q(r)
    theta = tuple(sorted(theta))
    levi = levi_root_indices(datum, theta)
    if not levi:
        return group.identity, tuple([0] * datum.ambient_rank)
    image = group.act_cocharacter(v, x)
    target = {datum.roots[k]: threshold(datum, datum.roots[k], image, r)
              for k in levi}
    source = {datum.roots[k]: threshold(datum, datum.roots[k], x, r)
              for k in levi}
    omegas = datum.fundamental_coweights()
    for wp in group.subgroup_elements(theta):
        wp_inv = group.inv(wp)
        # solve for nu on the theta-simple roots, then verify globally
        nu = [Q(0)] * datum.ambient_rank
        ok = True
        for i in theta:
            a = datum.roots[datum.simple[i]]
            d = target[a] - source[group.act_character(wp_inv, a)]
            nu = [n + d * w for n, w in zip(nu, omegas[i], strict=True)]
        if any(c.denominator != 1 for c in nu):
            continue
        for k in levi:
            a = datum.roots[k]
            shift = root_value(datum, a, nu)
            if target[a] != source[group.act_character(wp_inv, a)] + shift:
                ok = False
                break
        if ok:
            return wp, tuple(int(c) for c in nu)
    return None
