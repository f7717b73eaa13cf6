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
once, each column read off the Bernstein relation for T_i theta_lam
(``_commute_one``); an orbit sum is central when M annihilates it.
Lattice labels commute by the rule ``_commute_word((), lam) = theta_lam``.
The center dimension is proven by the rank over Q of the rows of M
whose entries are all free of v.  By the Bernstein relation the row of
T_i at a label (mu, s_i) is e_mu - e_{s_i mu}, so these rows already
have full rank.  Elimination over Q(v) (``laurent.rat_rank``) stays the
route whenever that certificate does not close.  ``bernstein_multiply``
and ``is_central`` are independent oracles for the tests.
"""
from __future__ import annotations

import itertools
import warnings
from typing import NamedTuple

from ._linalg import mat_rank
from .laurent import LaurentScalar, RatFunc, rat_rank
from .root_datum import RootDatum, WeylElement, WeylGroup

Coweight = tuple[int, ...]
Label = tuple[Coweight, WeylElement]

_Q_MINUS_ONE = LaurentScalar({2: 1, 0: -1})


class HeckeElement:
    """Finite scalar combination of (coweight, finite Weyl) labels.
    Zero coefficients are pruned; equality is label-wise."""
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

    def coefficient(self, lam, w: WeylElement) -> LaurentScalar:
        return self.c.get((tuple(lam), w), LaurentScalar.zero())

    @property
    def support(self) -> list[Label]:
        return sorted(self.c, key=lambda k: (k[0], k[1].word))

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
            word = "*".join(f"s{i}" for i in w.word) or "e"
            bits.append(f"({self.c[(lam, w)]!r})*th{lam}*T[{word}]")
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

    def t_element(self, i: int) -> HeckeElement:
        return HeckeElement({(self._zero, self.group.simple_reflection(i)):
                             LaurentScalar.one()})

    def t_word(self, word) -> HeckeElement:
        out = self.one()
        for i in word:
            out = self.finite_hecke_multiply(out, self.t_element(i))
        return out

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

    def _t_times_s(self, u: WeylElement, i: int
                   ) -> dict[WeylElement, LaurentScalar]:
        s = self.group.simple_reflection(i)
        us = self.group.mul(u, s)
        if us.length == u.length + 1:
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

    def _t_word_mul(self, u: WeylElement, w: WeylElement
                    ) -> dict[WeylElement, LaurentScalar]:
        acc = {u: LaurentScalar.one()}
        for i in w.word:
            nxt: dict[WeylElement, LaurentScalar] = {}
            for x, c in acc.items():
                for y, d in self._t_times_s(x, i).items():
                    nxt[y] = nxt.get(y, LaurentScalar.zero()) + c * d
            acc = {k: v for k, v in nxt.items() if not v.is_zero}
        return acc

    # -- products ----------------------------------------------------------

    def finite_hecke_multiply(self, x: HeckeElement, y: HeckeElement
                              ) -> HeckeElement:
        """Word-by-word product route for elements with no lattice part;
        independent of the commutation rewriting."""
        for lam, _w in itertools.chain(x.c, y.c):
            if lam != self._zero:
                raise ValueError(
                    "finite multiplication needs elements supported on the "
                    "finite part")
        out: dict[Label, LaurentScalar] = {}
        for (_z1, w1), c1 in x.c.items():
            for (_z2, w2), c2 in y.c.items():
                for w, d in self._t_word_mul(w1, w2).items():
                    k = (self._zero, w)
                    out[k] = out.get(k, LaurentScalar.zero()) + c1 * c2 * d
        return HeckeElement(out)

    def bernstein_multiply(self, x: HeckeElement, y: HeckeElement
                           ) -> HeckeElement:
        out: dict[Label, LaurentScalar] = {}
        for (lam1, w1), c1 in x.c.items():
            for (lam2, w2), c2 in y.c.items():
                c12 = c1 * c2
                for (mu, u), c in self._commute_word(w1.word, lam2).items():
                    shifted = tuple(a + b for a, b in zip(lam1, mu))
                    for w, d in self._t_word_mul(u, w2).items():
                        k = (shifted, w)
                        out[k] = out.get(k, LaurentScalar.zero()) + c12 * c * d
        return HeckeElement(out)

    # -- central elements ----------------------------------------------------

    def central_element(self, mu) -> HeckeElement:
        mu = tuple(int(x) for x in mu)
        if not self.datum.is_dominant_coweight(mu):
            warnings.warn("coweight is not dominant; "
                          "using its dominant representative")
            mu = self.group.dominant_in_orbit(mu)
        return HeckeElement({(lam, self.group.identity): LaurentScalar.one()
                             for lam in self.group.orbit_cocharacter(mu)})

    def is_central(self, z: HeckeElement) -> bool:
        # the finite generators and the lattice basis directions generate
        # the algebra, and commuting passes to inverses, so this suffices
        gens = [self.t_element(i) for i in range(len(self.datum.simple))]
        for j in range(self.rank):
            gens.append(self.theta(tuple(int(k == j) for k in range(self.rank))))
        return all(self.bernstein_multiply(z, g) == self.bernstein_multiply(g, z)
                   for g in gens)


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
        orbit_map[group.dominant_in_orbit(lam)] = orb
        labels |= set(orb)
        if cap is not None:
            weight += sum(label_weight(group.datum, mu) for mu in orb)
            if weight > cap:
                break
    return orbit_map


class CommutatorMatrix:
    """The matrix M of the finite generators acting on a span of lattice
    labels: one column per basis label lam, and row (i, label) holding
    the coefficient at that label of [theta_lam, T_i].  An element z of
    the span commutes with every T_i exactly when M z = 0.

    Each column is read off the Bernstein relation T_i theta_lam =
    theta_{s_i lam} T_i + sum_t c_t theta_{nu_t} (``_commute_one``):
    [theta_lam, T_i] is +1 at (lam, s_i), -1 at (s_i lam, s_i) and -c_t
    at each (nu_t, e), about |<lam, alpha_i>| entries, and empty when
    s_i fixes lam."""

    def __init__(self, alg: BernsteinAlgebra, basis: list[Coweight]):
        self.column_of = {lam: k for k, lam in enumerate(basis)}
        self.rows: dict[tuple[int, Label], dict[int, LaurentScalar]] = {}
        # columns[k]: the (row, entry) pairs of column k, for M z
        self.columns: list[list[tuple[tuple[int, Label], LaurentScalar]]] = \
            [[] for _ in basis]
        e = alg.group.identity
        for i in range(len(alg.datum.simple)):
            s = alg.group.simple_reflection(i)
            for k, lam in enumerate(basis):
                comm = {(lam, s): LaurentScalar.one()}
                for nu, keeps_gen, c in alg._commute_one(i, lam):
                    lab = (nu, s if keeps_gen else e)
                    comm[lab] = comm[lab] - c if lab in comm else -c
                for lab, scal in comm.items():
                    if not scal.is_zero:
                        self.rows.setdefault((i, lab), {})[k] = scal
                        self.columns[k].append(((i, lab), scal))

    def annihilates(self, z: HeckeElement) -> bool:
        """M z = 0, walking only the columns in the support of z, whose
        labels must all be basis labels with the identity Weyl part."""
        acc: dict[tuple[int, Label], LaurentScalar] = {}
        for (lam, _w), c in z.c.items():
            for key, entry in self.columns[self.column_of[lam]]:
                acc[key] = acc.get(key, LaurentScalar.zero()) + c * entry
        return all(x.is_zero for x in acc.values())


def satake_check(group: WeylGroup,
                 orbit_map: dict[Coweight, tuple[Coweight, ...]]
                 ) -> SatakeReport:
    """Verify the truncated center on the orbit-closed label set of
    ``orbit_map`` (as ``label_orbits`` returns it).

    Centrality of an orbit sum is M z = 0 for the commutator matrix M;
    an orbit sum whose support is not its ``orbit_map`` entry fails on
    that count alone.  The lattice generators commute with every label
    by the rule ``_commute_word((), lam) = theta_lam``, checked at each
    basis label and each lattice generator.  The dimension is proven
    without elimination over Q(v) when every check passed and the rank
    over Q of the v-free rows of M equals |basis| - #orbits: the
    disjoint central orbit sums bound the kernel from below, and a minor
    of those rows is a minor of M, so their rank bounds the rank of M
    from below.  Otherwise ``rat_rank`` computes the rank over Q(v)."""
    alg = BernsteinAlgebra(group)
    labels = {lam for orb in orbit_map.values() for lam in orb}
    reps = sorted(orbit_map)
    basis = sorted(labels)
    matrix = CommutatorMatrix(alg, basis)

    e = group.identity
    failures: list[str] = []
    central = tuple(alg.central_element(rep) for rep in reps)
    for rep, z in zip(reps, central):
        if z.support != [(lam, e) for lam in orbit_map[rep]]:
            failures.append(f"support of the orbit sum of {rep} is wrong")
        elif not matrix.annihilates(z):
            failures.append(f"orbit sum of {rep} is not central")

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

    rows = list(matrix.rows.values())
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
