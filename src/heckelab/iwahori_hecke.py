"""Length-graded algebra of a split datum in its lattice presentation.

Basis labels pair a coweight with a finite Weyl element.  The finite
part carries the braid and quadratic relations; lattice labels multiply
additively; moving a finite generator past a lattice label re-expands
through an exact geometric sum (the divided difference of a label by
its reflection is always lattice-polynomial, asserted by construction).
Scalars are Laurent polynomials in a formal v with v^2 = q, the
normalization under which a dominant translation label abbreviates the
length-rescaled translation and a general label is independent of how
it splits as a difference of dominant ones.

``satake_check`` verifies the truncated center on an orbit-closed set
of lattice labels from the rewriting rules alone.  The commutator
matrix M of the finite generators on the span of those labels is built
once as sparse rows keyed by label, each read off the Bernstein relation
for T_i theta_lam (``_commute_one``); one pass over the rows sums each
over every orbit, the entries of M z for the unit orbit sums z.
Lattice labels commute by the rule ``_commute_word((), lam) = theta_lam``.
The center dimension is proven by the rank over Q of the rows of M
whose entries are all free of v.  By the Bernstein relation the row of
T_i at a label (mu, s_i) is e_mu - e_{s_i mu}, so these rows already
have full rank.  Elimination over Q(v) (``laurent.rat_rank``) stays the
route whenever that certificate does not close.  The general product
``bernstein_multiply`` is an independent oracle for the tests.
"""
from __future__ import annotations

import itertools
import warnings
from typing import NamedTuple

from ._linalg import mat_rank
from .laurent import LaurentScalar, RatFunc, rat_rank
from .root_datum import RootDatum, WeylGroup

Coweight = tuple[int, ...]
Label = tuple[Coweight, int]

_Q_MINUS_ONE = LaurentScalar({2: 1, 0: -1})


class HeckeElement:
    """Finite scalar combination of (coweight, finite Weyl) labels, the
    Weyl part an element index of the algebra's group.  Zero
    coefficients are pruned; equality is label-wise."""
    __slots__ = ("c",)

    def __init__(self, coeffs: dict[Label, LaurentScalar] | None = None):
        self.c = {k: v for k, v in (coeffs or {}).items() if not v.is_zero}

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        out = dict(self.c)
        for k, v in other.c.items():
            out[k] = out[k] + v if k in out else v
        return HeckeElement(out)

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        out = dict(self.c)
        for k, v in other.c.items():
            out[k] = out[k] - v if k in out else -v
        return HeckeElement(out)

    def scale(self, s: LaurentScalar) -> "HeckeElement":
        return HeckeElement({k: v * s for k, v in self.c.items()})

    def coefficient(self, lam, w: int) -> LaurentScalar:
        return self.c.get((tuple(lam), w), LaurentScalar.zero())

    @property
    def support(self) -> list[Label]:
        return sorted(self.c)

    @property
    def is_zero(self) -> bool:
        return not self.c

    def __eq__(self, other) -> bool:
        return isinstance(other, HeckeElement) and self.c == other.c

    def __repr__(self) -> str:
        if not self.c:
            return "0"
        bits = []
        for lam, w in self.support:
            bits.append(f"({self.c[(lam, w)]!r})*th{lam}*T[w{w}]")
        return " + ".join(bits)


class BernsteinAlgebra:
    """Multiplication engine over the datum of a fixed Weyl group:
    finite-word products, lattice labels, the commutation rewriting,
    and centrality checks."""

    def __init__(self, group: WeylGroup):
        self.group = group
        self.datum = group.datum
        self.rank = group.datum.ambient_rank
        self._zero = (0,) * self.rank
        self._commute_cache: dict = {}

    # -- constructors ----------------------------------------------------

    def one(self) -> HeckeElement:
        return HeckeElement({(self._zero, self.group.identity):
                             LaurentScalar.one()})

    def theta(self, lam) -> HeckeElement:
        """Lattice label: for dominant input it stands for the
        length-rescaled translation, in general for the difference of
        two dominant ones; additivity makes the splitting immaterial."""
        return HeckeElement({(tuple(int(x) for x in lam),
                              self.group.identity): LaurentScalar.one()})

    # -- rewriting rules ---------------------------------------------------

    def _pair_simple(self, i: int, lam: Coweight) -> int:
        alpha = self.datum.roots[self.datum.simple[i]]
        return sum(a * x for a, x in zip(alpha, lam))

    def _coroot(self, i: int) -> Coweight:
        return self.datum.coroots[self.datum.simple[i]]

    def _t_times_s(self, u: int, i: int) -> dict[int, LaurentScalar]:
        group = self.group
        us = group.mul(u, group.simple_reflection(i))
        if group.length(us) == group.length(u) + 1:
            return {us: LaurentScalar.one()}
        return {u: _Q_MINUS_ONE, us: LaurentScalar.q_power(1)}

    def _commute_one(self, i: int, lam: Coweight):
        # moving one finite generator left past a lattice label: the
        # reflected label keeps the generator, and the remainder is the
        # exact geometric sum interpolating the label and its reflection
        n = self._pair_simple(i, lam)
        av = self._coroot(i)
        slam = tuple(x - n * a for x, a in zip(lam, av))
        terms: list[tuple[Coweight, bool, LaurentScalar]] = [
            (slam, True, LaurentScalar.one())]
        if n > 0:
            for t in range(n):
                terms.append((tuple(x - t * a for x, a in zip(lam, av)),
                              False, _Q_MINUS_ONE))
        elif n < 0:
            for t in range(1, -n + 1):
                terms.append((tuple(x + t * a for x, a in zip(lam, av)),
                              False, -_Q_MINUS_ONE))
        return terms

    def _commute_word(self, word: tuple[int, ...], lam: Coweight
                      ) -> dict[Label, LaurentScalar]:
        key = (word, lam)
        cached = self._commute_cache.get(key)
        if cached is not None:
            return cached
        if not word:
            out = {(lam, self.group.identity): LaurentScalar.one()}
        else:
            prefix, last = word[:-1], word[-1]
            acc: dict[Label, LaurentScalar] = {}
            for nu, keeps_gen, coeff in self._commute_one(last, lam):
                for (mu, u), c in self._commute_word(prefix, nu).items():
                    c = c * coeff
                    if keeps_gen:
                        for x, d in self._t_times_s(u, last).items():
                            k = (mu, x)
                            acc[k] = acc.get(k, LaurentScalar.zero()) + c * d
                    else:
                        k = (mu, u)
                        acc[k] = acc.get(k, LaurentScalar.zero()) + c
            out = {k: v for k, v in acc.items() if not v.is_zero}
        self._commute_cache[key] = out
        return out

    def _t_word_mul(self, u: int, w: int) -> dict[int, LaurentScalar]:
        acc = {u: LaurentScalar.one()}
        for i in self.group.words[w]:
            nxt: dict[int, LaurentScalar] = {}
            for x, c in acc.items():
                for y, d in self._t_times_s(x, i).items():
                    nxt[y] = nxt.get(y, LaurentScalar.zero()) + c * d
            acc = {k: v for k, v in nxt.items() if not v.is_zero}
        return acc

    # -- products ----------------------------------------------------------

    def bernstein_multiply(self, x: HeckeElement, y: HeckeElement
                           ) -> HeckeElement:
        out: dict[Label, LaurentScalar] = {}
        words = self.group.words
        for (lam1, w1), c1 in x.c.items():
            for (lam2, w2), c2 in y.c.items():
                c12 = c1 * c2
                for (mu, u), c in self._commute_word(words[w1], lam2).items():
                    shifted = tuple(a + b for a, b in zip(lam1, mu))
                    for w, d in self._t_word_mul(u, w2).items():
                        k = (shifted, w)
                        out[k] = out.get(k, LaurentScalar.zero()) + c12 * c * d
        return HeckeElement(out)

    # -- central elements ----------------------------------------------------

    def central_element(self, mu) -> HeckeElement:
        mu = tuple(int(x) for x in mu)
        if not self.datum.is_dominant_coweight(mu):
            warnings.warn("coweight is not dominant; using its orbit")
        return HeckeElement({(lam, self.group.identity): LaurentScalar.one()
                             for lam in self.group.orbit_cocharacter(mu)})


# ---------------------------------------------------------------------------
# truncated center: orbit sums span the commutant of the generators
# ---------------------------------------------------------------------------

class SatakeReport(NamedTuple):
    """Truncated-center verification: every orbit sum is central, their
    supports partition the orbit-closed label set, and the commutant of
    the generators inside the lattice span has exactly their dimension.
    ``central_elements`` holds the orbit sum of each representative;
    ``rank_route`` names the rank that fixed the dimension, "Q (v-free
    rows)" or "Q(v)"."""
    ok: bool
    failures: tuple[str, ...]
    center_dimension: int
    representatives: tuple[Coweight, ...]
    orbits: tuple[tuple[Coweight, ...], ...]
    central_elements: tuple[HeckeElement, ...]
    rank_route: str


def label_weight(datum: RootDatum, lam: Coweight) -> int:
    """1 + sum_i |<lam, alpha_i>| over the simple roots alpha_i: the
    share of satake_check's work that the label lam brings, since the
    commutator of T_i with theta_lam has about |<lam, alpha_i>| terms."""
    return 1 + sum(abs(sum(a * c for a, c in zip(datum.roots[i], lam)))
                   for i in datum.simple)


def label_orbits(group: WeylGroup, radius: int, cap: int | None = None
                 ) -> dict[Coweight, tuple[Coweight, ...]]:
    """W-orbits of the coweights in the box [-radius, radius]^rank, keyed
    by dominant representative; their union is the orbit-closed label
    set.  With ``cap``, stop as soon as the labels found weigh more than
    ``cap`` in total (``label_weight``), so an oversized truncation is
    refused without enumerating it."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    orbit_map: dict[Coweight, tuple[Coweight, ...]] = {}
    labels: set[Coweight] = set()
    weight = 0
    for lam in itertools.product(range(-radius, radius + 1),
                                 repeat=group.datum.ambient_rank):
        if lam in labels:
            continue
        orb = tuple(sorted(group.orbit_cocharacter(lam)))
        doms = [mu for mu in orb if group.datum.is_dominant_coweight(mu)]
        if len(doms) != 1:
            raise AssertionError("orbit must contain exactly one dominant point")
        orbit_map[doms[0]] = orb
        labels |= set(orb)
        if cap is not None:
            weight += sum(label_weight(group.datum, mu) for mu in orb)
            if weight > cap:
                break
    return orbit_map


def commutator_rows(alg: BernsteinAlgebra, basis: list[Coweight]
                    ) -> dict[tuple[int, Label], dict[Coweight, LaurentScalar]]:
    """The matrix M of the finite generators acting on the span of the
    lattice labels ``basis``, as sparse rows: row (i, label) maps each
    basis label lam to the coefficient at that label of [theta_lam, T_i].
    An element z of the span commutes with every T_i exactly when
    M z = 0.

    Each entry is read off the Bernstein relation T_i theta_lam =
    theta_{s_i lam} T_i + sum_t c_t theta_{nu_t} (``_commute_one``):
    [theta_lam, T_i] is +1 at (lam, s_i), -1 at (s_i lam, s_i) and -c_t
    at each (nu_t, e), about |<lam, alpha_i>| entries, and empty when
    s_i fixes lam."""
    rows: dict[tuple[int, Label], dict[Coweight, LaurentScalar]] = {}
    for i in range(len(alg.datum.simple)):
        s = alg.group.simple_reflection(i)
        for lam in basis:
            comm = {(lam, s): LaurentScalar.one()}
            for nu, keeps_gen, c in alg._commute_one(i, lam):
                lab = (nu, s if keeps_gen else alg.group.identity)
                comm[lab] = comm[lab] - c if lab in comm else -c
            for lab, scal in comm.items():
                if not scal.is_zero:
                    rows.setdefault((i, lab), {})[lam] = scal
    return rows


def satake_check(group: WeylGroup,
                 orbit_map: dict[Coweight, tuple[Coweight, ...]]
                 ) -> SatakeReport:
    """Verify the truncated center on the orbit-closed label set of
    ``orbit_map`` (as ``label_orbits`` returns it).

    Centrality of an orbit sum z is M z = 0 for the commutator matrix M.
    An orbit sum that is not the unit sum over its ``orbit_map`` entry
    fails on that count alone; for the others an entry of M z is a row's
    sum over the orbit, all taken in one pass over the rows of M.  The
    lattice generators commute with every label by the rule
    ``_commute_word((), lam) = theta_lam``, checked at each basis label
    and each lattice generator.  The dimension is proven without
    elimination over Q(v) when every check passed and the rank over Q of
    the v-free rows of M equals |basis| - #orbits: the disjoint central
    orbit sums bound the kernel from below, and a minor of those rows is
    a minor of M, so their rank bounds the rank of M from below.
    Otherwise ``rat_rank`` computes the rank over Q(v)."""
    alg = BernsteinAlgebra(group)
    labels = {lam for orb in orbit_map.values() for lam in orb}
    reps = sorted(orbit_map)
    basis = sorted(labels)
    rows = list(commutator_rows(alg, basis).values())

    e = group.identity
    one = LaurentScalar.one()
    central = tuple(alg.central_element(rep) for rep in reps)
    wrong: dict[Coweight, str] = {}
    owners: dict[Coweight, list[Coweight]] = {}  # unit orbit sums at lam
    for rep, z in zip(reps, central):
        if z.support != [(lam, e) for lam in orbit_map[rep]]:
            wrong[rep] = f"support of the orbit sum of {rep} is wrong"
        elif any(c != one for c in z.c.values()):
            wrong[rep] = f"orbit sum of {rep} has a coefficient other than 1"
        else:
            for lam in orbit_map[rep]:
                owners.setdefault(lam, []).append(rep)
    # each row's sums over the orbits are entries of M z: no multiplication
    for row in rows:
        sums: dict[Coweight, LaurentScalar] = {}
        for lam, x in row.items():
            for rep in owners.get(lam, ()):
                sums[rep] = sums[rep] + x if rep in sums else x
        wrong.update((rep, f"orbit sum of {rep} is not central")
                     for rep, total in sums.items() if not total.is_zero)
    failures = [wrong[rep] for rep in reps if rep in wrong]

    if sum(len(o) for o in orbit_map.values()) != len(labels):
        failures.append("orbit supports overlap")

    # a product theta_mu theta_lam is rewritten through
    # _commute_word((), lam); where that is theta_lam at every basis
    # label and every lattice generator e_j, theta_lam theta_(e_j) =
    # theta_(e_j) theta_lam = theta_(lam + e_j)
    units = [tuple(int(k == j) for k in range(alg.rank))
             for j in range(alg.rank)]
    for lam in sorted(labels.union(units)):
        if alg._commute_word((), lam) != alg.theta(lam).c:
            failures.append(
                f"lattice label {lam} does not pass the empty word unchanged")

    free = [{k: x.c[0] for k, x in row.items()} for row in rows
            if all(x.c.keys() == {0} for x in row.values())]
    if not failures and len(basis) - mat_rank(free) == len(reps):
        kdim, route = len(reps), "Q (v-free rows)"
    else:
        kdim = len(basis) - rat_rank(
            [{k: RatFunc.from_laurent(x) for k, x in row.items()} for row in rows])
        route = "Q(v)"
    if kdim != len(reps):
        failures.append(f"truncated center has dimension {kdim}, "
                        f"expected {len(reps)}")
    return SatakeReport(not failures, tuple(failures), kdim, tuple(reps),
                        tuple(orbit_map[r] for r in reps), central, route)
