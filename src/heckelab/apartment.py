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

The certificate and ``key_inequality_report`` read every root value off
one integer table.  On X = D x (D the least common denominator of x,
and of r for the thresholds), vals[k] = <roots[k], X> is computed once
per call.  The value of roots[k] at the image v(X) is then vals[p[k]],
where p is the permutation of v^-1 on the roots (``WeylGroup.perms``,
which comes from the same ``_reflect`` calls as the Weyl action):
<a, v X> = <v^-1 a, X>, because the pairing is W-invariant.  A simple
reflection acts by s(chi) = chi - <chi, a^v> a on characters and by
s(lam) = lam - <a, lam> a^v on cocharacters, so
<s chi, s lam> = <chi, lam> + <chi, a^v> <a, lam> (<a, a^v> - 2), which
is <chi, lam> because <a, a^v> = 2 (``heckelab rootdatum`` checks it
for every pair).  The Levi root indices and each coset
representative's inverse permutation are memoised per Levi subset on
the group.  The alcove grids walk one integer scale as well and make
Fractions only for the points they return.

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
import operator
from fractions import Fraction as Q
from typing import Iterable, NamedTuple, Sequence

from . import _linalg
from .root_datum import IVec, RootDatum, WeylGroup

ApartmentPoint = tuple[Q, ...]

LEVEL_GAP = 1  # e_a for every root in the split convention


def _exact(value) -> Q:
    """The value as a Fraction; a Fraction is kept as it is."""
    return value if type(value) is Q else Q(value)


def as_point(coords: Iterable) -> ApartmentPoint:
    return tuple(map(_exact, coords))


def root_value(datum: RootDatum, root: Sequence[int], x: Sequence) -> Q:
    return datum.pairing(root, x)


def threshold(datum: RootDatum, root: Sequence[int], x: Sequence, r) -> int:
    """Least integer level k with root(x) + k >= r."""
    r = Q(r)
    if r <= 0:
        raise ValueError("depth must be positive")
    return math.ceil(r - root_value(datum, root, x))


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


def _levi_table(group: WeylGroup, theta: tuple[int, ...]) -> tuple:
    """(Levi root indices, positive Levi root indices, ((v, p), ...)) for
    the sorted subset theta, with v running over the minimal coset
    representatives in their order and p the permutation of v^-1 on the
    roots: v^-1(roots[k]) = roots[p[k]].  Memoised on the group."""
    table = group._levi_tables.get(theta)
    if table is None:
        datum = group.datum
        levi = levi_root_indices(datum, theta)
        positive = [k for k in levi if datum.is_positive_root(datum.roots[k])]
        cosets = tuple((v, group.perms[group.inv(v)])
                       for v in group.minimal_coset_representatives(theta))
        table = group._levi_tables[theta] = (levi, positive, cosets)
    return table


def _root_values(datum: RootDatum, X: Sequence[int]) -> list[int]:
    """<a, X> for every root a, in root order."""
    if len(X) != datum.ambient_rank:
        raise ValueError(f"point needs {datum.ambient_rank} coordinates")
    return [sum(map(operator.mul, a, X)) for a in datum.roots]


# ---------------------------------------------------------------------------
# Condition-(1) equality certificate
# ---------------------------------------------------------------------------

class HeartWitness(NamedTuple):
    theta: tuple[int, ...]
    w2: int
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
    integer floor division.  The root values at an image come from one
    table: a(v X) = (v^-1 a)(X), and v^-1 permutes the roots."""
    datum = group.datum
    x = as_point(x)
    r = _exact(r)
    theta = tuple(sorted(theta))
    levi, _, cosets = _levi_table(group, theta)
    if not levi:
        return HeartVerdict("PROVEN_CONDITION_1", ())
    if r <= 0:
        raise ValueError("depth must be positive")
    D, (*X, R) = _linalg.scaled((*x, r))
    # the threshold of every root at x; roots[k] at v(x) has the one of
    # roots[p[k]] at x
    level = [-((val - R) // D) for val in _root_values(datum, X)]
    witnesses = [HeartWitness(theta, v, datum.roots[k], level[k], level[p[k]])
                 for v, p in cosets for k in levi if level[k] != level[p[k]]]
    if witnesses:
        return HeartVerdict("MISMATCH", tuple(witnesses))
    return HeartVerdict("PROVEN_CONDITION_1", ())


class KeyInequalityRecord(NamedTuple):
    theta: tuple[int, ...]
    w2: int
    root: IVec
    delta: Q  # (w2^{-1}(a) - a)(x)
    inequality_holds: bool  # 0 <= delta < LEVEL_GAP


def key_inequality_report(group: WeylGroup, x: Sequence,
                          theta: Sequence[int]) -> list[KeyInequalityRecord]:
    """Evaluate, for every minimal coset factor and every positive Levi
    root, the positivity-plus-gap inequality that the one-alcove
    argument leans on.  Reported verbatim; see the decision notes for
    where it genuinely fails.  The shifts are evaluated on X = D x, D
    the least common denominator of x, as the ints D delta, from the
    table of root values that ``heart_condition1_check`` reads."""
    datum = group.datum
    D, X = _linalg.scaled(as_point(x))
    theta = tuple(sorted(theta))
    _, positive, cosets = _levi_table(group, theta)
    if not positive:
        return []
    vals = _root_values(datum, X)
    out: list[KeyInequalityRecord] = []
    for v, p in cosets:
        for k in positive:
            shift = vals[p[k]] - vals[k]
            out.append(KeyInequalityRecord(
                theta, v, datum.roots[k], Q(shift, D),
                0 <= shift < LEVEL_GAP * D))
    return out


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------

def _alcove_grid(datum: RootDatum, max_denominator: int,
                 closed: bool) -> list[ApartmentPoint]:
    """Grid points whose coordinates are fractions with denominator at
    most ``max_denominator`` (central coordinates normalized to zero)
    and whose positive root values lie in [0, 1] when ``closed``, in
    (0, 1) otherwise.  The walk runs on one integer scale, L the lcm of
    1..max_denominator, and makes Fractions only for the points kept."""
    L = math.lcm(*range(1, max_denominator + 1))
    inside = (lambda v: 0 <= v <= L) if closed else (lambda v: 0 < v < L)
    # each coordinate k/d, 0 <= k <= d, as the int k (L/d)
    vals = sorted(v for v in {k * (L // d) for d in range(1, max_denominator + 1)
                              for k in range(d + 1)} if inside(v))
    # general-linear data are normalized by setting the last coordinate
    # to zero (root values ignore the central direction); Cartan-style
    # data keep central coordinates at zero as well
    free = (datum.ambient_rank - 1 if datum.is_general_linear
            else datum.semisimple_rank)
    pad = (Q(0),) * (datum.ambient_rank - free)
    pos = [datum.roots[k][:free] for k in datum.positive_roots()]
    coordinate = {v: Q(v, L) for v in vals}
    out = []
    for coords in itertools.product(vals, repeat=free):
        if all(inside(datum.pairing(a, coords)) for a in pos):
            out.append(tuple(map(coordinate.__getitem__, coords)) + pad)
    return out


def alcove_interior_points(datum: RootDatum, max_denominator: int) -> list[ApartmentPoint]:
    """All base-alcove interior points of the grid (strict inequalities)."""
    return _alcove_grid(datum, max_denominator, closed=False)


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
                                     theta: Sequence[int], v: int
                                     ) -> tuple[int, IVec] | None:
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
