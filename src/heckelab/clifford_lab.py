"""Clifford theory for explicit finite-group models, by brute force.

The setting throughout: a finite group G with a normal subgroup N of
abelian quotient, an inducing subgroup Jt with J = Jt ∩ N, an
irreducible representation rho_tilde of Jt and an irreducible summand
rho of its restriction to J.  The module computes restriction
multiplicities, twist groups and their common kernel, inertia and
maximal-stabilizer subgroups, intertwining sets, and runs the three
model-level checks (multiplicity transfer, center dimension,
commutativity), each by at least two independent routes where the
statement being tested is an equality.  ModelAnalysis computes each
Clifford object of one model once: the Jt-orbit of rho and its inertia
group (conjugate_orbit), the Mackey terms of that orbit over the double
cosets of J (mackey_terms), the multiplicity of rho in rho_tilde, the
twist kernel, the maximal stabilizer, the failing hypotheses and each
induced representation.  Each check reads it and returns its part of
the model's catalog record, keyed as the JSON report prints it.
The stabilizer search reads the action of an inertia element on the
multiplicity space Hom_J(rho, rho_tilde) off the left Kronecker factor of
its matrix B_g (x) A_g on C^m (x) C^d, checked exactly on every entry.
Its candidate subgroups between the twist kernel and the inertia group
come from a walk that extends each subgroup s by one x per left coset
x s, since s and x h generate the same subgroup for every h in s.

All arithmetic is exact over a fixed cyclotomic field.  Nothing here
assumes the statements under test; checks that depend on unverified
hypotheses are reported as SKIPPED with the failing hypothesis named.
"""
from __future__ import annotations

from fractions import Fraction as Q
from functools import cached_property
from typing import NamedTuple, Sequence

from . import _closure
from .cyclotomic import (
    Cyc,
    cyc_column_space,
    cyc_matmul,
    cyc_nullspace,
    cyc_solve_matrix,
)
from .finite_groups import FiniteGroup, quotient_characters
from .representations import (
    Char,
    Representation,
    char_key,
    common_multiplicity,
    constituent_count,
    induced_representation,
    inner_product,
    is_irreducible,
    restrict_character,
)


# ---------------------------------------------------------------------------
# model container
# ---------------------------------------------------------------------------

class FiniteGroupModel(NamedTuple):
    """G with normal N (abelian quotient), inducing subgroup Jt with an
    irreducible rho_tilde, and an irreducible summand rho of the
    restriction to J = Jt ∩ N."""
    name: str
    group: FiniteGroup
    normal: tuple[int, ...]
    j_tilde: tuple[int, ...]
    rho_tilde: Representation
    rho: Representation

    @property
    def j(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.j_tilde) & set(self.normal)))

    def validate(self) -> None:
        g = self.group
        if not g.is_subgroup(self.normal) or not g.is_normal(self.normal):
            raise ValueError("N must be a normal subgroup")
        if not g.is_subgroup(self.j_tilde):
            raise ValueError("inducing set must be a subgroup")
        if not g.quotient_is_abelian(self.normal):
            raise ValueError("G/N must be abelian")
        if self.rho_tilde.domain != tuple(sorted(self.j_tilde)):
            raise ValueError("rho_tilde must live on the inducing subgroup")
        if self.rho.domain != self.j:
            raise ValueError("rho must live on J")
        if not is_irreducible(self.rho_tilde):
            raise ValueError("rho_tilde must be irreducible")
        if not is_irreducible(self.rho):
            raise ValueError("rho must be irreducible")
        mult = inner_product(restrict_character(self.rho_tilde.character(),
                                                self.j),
                             self.rho.character(), self.j)
        if mult < 1:
            raise ValueError("rho is not a constituent of the restriction")


# ---------------------------------------------------------------------------
# restriction to a normal subgroup
# ---------------------------------------------------------------------------

class RestrictionReport(NamedTuple):
    multiplicity: int
    orbit_size: int
    orbit: tuple  # the constituent's conjugate characters
    inertia: tuple[int, ...]  # the constituent's inertia subgroup


def conjugate_orbit(group: FiniteGroup, big: Sequence[int],
                    sub: Sequence[int], chi: Char
                    ) -> tuple[tuple[Char, ...], tuple[int, ...]]:
    """The distinct conjugates x -> chi(g x g^-1) of a character of sub
    by the elements g of big, in order of first appearance over sorted
    big (so chi itself, from the identity 0, comes first), and the
    inertia subgroup of the g that fix chi.  Orbit-stabilizer is checked:
    |orbit| * |inertia| = |big|."""
    big, sub = tuple(sorted(big)), tuple(sorted(sub))
    fixed = char_key({x: chi[x] for x in sub})
    seen: dict[tuple, Char] = {}
    inertia = []
    for g in big:
        cc = {x: chi[group.conj(g, x)] for x in sub}
        key = char_key(cc)
        seen.setdefault(key, cc)
        if key == fixed:
            inertia.append(g)
    if len(seen) * len(inertia) != len(big):
        raise AssertionError("orbit size times inertia order is not |big|")
    return tuple(seen.values()), tuple(inertia)


def restrict_decompose(group: FiniteGroup, sub: Sequence[int],
                       rep: Representation, constituent: Char
                       ) -> RestrictionReport:
    """Common multiplicity and conjugate orbit of the restriction of an
    irreducible representation to a normal subgroup of its domain.

    The multiplicity is computed twice: from the norm of the restricted
    character and from the class-sum rank.  The orbit and inertia
    subgroup of the known constituent character are assembled and the
    literal identity  Res = m * (sum of the orbit)  is checked
    pointwise."""
    sub = tuple(sorted(sub))
    if not group.is_normal(sub, rep.domain):
        raise ValueError("restriction target must be normal in the domain")
    chi = rep.character()
    norm = inner_product(chi, chi, rep.domain)
    if norm != 1:
        raise ValueError(
            f"representation is reducible: <chi,chi> = {norm}")
    m, k = common_multiplicity(rep, sub)
    orbit, inertia = conjugate_orbit(group, rep.domain, sub, constituent)
    if len(orbit) != k:
        raise AssertionError("orbit size disagrees with class-sum count")
    for x in sub:
        total = Cyc.zero(rep.conductor)
        for cc in orbit:
            total = total + cc[x]
        if total * m != chi[x]:
            raise AssertionError("orbit sum does not rebuild the restriction")
    d = constituent[0].to_fraction()
    if rep.dim != k * m * d:
        raise AssertionError("dimension identity fails")
    return RestrictionReport(m, k, orbit, inertia)


# ---------------------------------------------------------------------------
# twists
# ---------------------------------------------------------------------------

class TwistReport(NamedTuple):
    order: int
    exponent: int                    # values are zeta_exponent^k
    twists: tuple                    # dicts g -> exponent k
    dagger: tuple[int, ...]          # common kernel of the twists


def twist_group(group: FiniteGroup, big: Sequence[int], sub: Sequence[int],
                rep: Representation) -> TwistReport:
    """Characters of big/sub fixing the representation (by character
    equality), and their common kernel."""
    e, qchars = quotient_characters(group, tuple(sorted(big)),
                                    tuple(sorted(sub)))
    cond = rep.conductor
    if e > 1 and cond % e != 0:
        raise ValueError("conductor does not contain the quotient exponent")
    chi = rep.character()
    fixing = []
    for nu in qchars:
        if all(chi[g] * Cyc.zeta(cond, nu[g] * (cond // e) if e > 1 else 0)
                == chi[g] for g in big):
            fixing.append(nu)
    dagger = tuple(sorted(g for g in big
                          if all(nu[g] % e == 0 for nu in fixing)))
    if len(fixing) * len(dagger) != len(tuple(big)):
        raise AssertionError("twist count must equal the kernel index")
    return TwistReport(len(fixing), e, tuple(fixing), dagger)


# ---------------------------------------------------------------------------
# maximal stabilizer
# ---------------------------------------------------------------------------

def _subgroups_between(group: FiniteGroup, lower: Sequence[int],
                       upper: Sequence[int]) -> list[tuple[int, ...]]:
    upper_set = set(upper)

    # s is a subgroup, so its generators and x generate the span of s and
    # x, and so does x h for every h in s: one x per left coset x s
    def step(s: tuple[int, ...]):
        gens = group.generators(s)
        covered = set(s)
        for x in upper_set.difference(s):
            if x not in covered:
                covered.update(map(group.table[x].__getitem__, s))
                yield x, group.closure(gens + [x])

    found = _closure.closure([group.closure(lower)], step)
    return sorted(found, key=lambda s: (-len(s), s))


def _multiplicity_factor(mat, m: int, d: int):
    """B up to a scalar, for mat = B (x) A on C^m (x) C^d: the m x m
    slice b at the offset (k, l) of the first nonzero entry
    (r0 d + k, s0 d + l), beside the d x d block a at (r0, s0).  Every
    entry is checked against b[r][s] a[k'][l'] / mat[r0 d + k][s0 d + l],
    which it equals exactly when mat is a Kronecker product."""
    i0, j0 = next((i, j) for i, row in enumerate(mat)
                  for j, x in enumerate(row) if x)
    (r0, k), (s0, l) = divmod(i0, d), divmod(j0, d)
    b = [[mat[r * d + k][s * d + l] for s in range(m)] for r in range(m)]
    a = [row[s0 * d:s0 * d + d] for row in mat[r0 * d:r0 * d + d]]
    for i, row in enumerate(mat):
        for j, x in enumerate(row):
            if x * mat[i0][j0] != b[i // d][j // d] * a[i % d][j % d]:
                raise AssertionError("action is not a Kronecker product")
    return b


def _pairwise_commuting(mats) -> bool:
    """Whether the lifted multiplicity-space matrices commute exactly.

    The projective images commute (the quotient acting on the
    multiplicity space is abelian), so each commutator of lifts is a
    scalar matrix, and that scalar does not depend on the scalar
    normalization of the lifts.  The lifts have finite order up to
    scalar, hence are diagonalizable, so a common eigenline exists
    exactly when every commutator scalar is 1, i.e. when the lifts
    commute on the nose."""
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if cyc_matmul(mats[i], mats[j]) != cyc_matmul(mats[j], mats[i]):
                return False
    return True


def maximal_stabilizer(group: FiniteGroup, sub: Sequence[int],
                       rep: Representation, constituent: Representation,
                       dagger: Sequence[int],
                       restriction: RestrictionReport
                       ) -> tuple[int, ...] | None:
    """Largest subgroup between the twist kernel and the inertia group
    that stabilizes an irreducible sub-module of the restriction
    isomorphic to the given constituent, whose restriction report (with
    its inertia group) is passed in.  Ties break toward the
    lexicographically smallest element tuple.  Returns None if no
    candidate subgroup stabilizes a line over the working field."""
    sub = tuple(sorted(sub))
    m, k, inertia = (restriction.multiplicity, restriction.orbit_size,
                     restriction.inertia)
    if m == 1:
        return inertia
    cond = rep.conductor
    d = constituent.dim

    # the constituent-isotypic subspace, as an inertia-representation
    if k == 1:
        iso_mats = {g: rep.matrix(g) for g in inertia}
        dim_iso = rep.dim
    else:
        chi = constituent.character()
        proj = None
        for h in sub:
            coeff = chi[group.inv(h)] * Q(d, len(sub))
            mat = rep.matrix(h)
            term = [[mat[i][j] * coeff for j in range(rep.dim)]
                    for i in range(rep.dim)]
            proj = term if proj is None else [
                [proj[i][j] + term[i][j] for j in range(rep.dim)]
                for i in range(rep.dim)]
        basis_cols = cyc_column_space(proj)
        dim_iso = len(basis_cols)
        cmat = [list(r) for r in zip(*basis_cols)]
        iso_mats = {}
        for g in inertia:
            image = cyc_matmul(rep.matrix(g), cmat)
            iso_mats[g] = cyc_solve_matrix(cmat, image)
    if dim_iso != m * d:
        raise AssertionError("isotypic dimension mismatch")

    # basis of the intertwiner space Hom(constituent, isotypic)
    gens_h = group.generators(sub)
    rows = []
    for h in gens_h:
        a = iso_mats[h] if k > 1 else rep.matrix(h)
        b = constituent.matrix(h)
        for i in range(dim_iso):
            for l in range(d):
                row = [Cyc.zero(cond)] * (dim_iso * d)
                for r in range(dim_iso):
                    if a[i][r]:
                        row[r * d + l] = row[r * d + l] + a[i][r]
                for t in range(d):
                    if b[t][l]:
                        row[i * d + t] = row[i * d + t] - b[t][l]
                rows.append(row)
    hom_basis = cyc_nullspace(rows)
    if len(hom_basis) != m:
        raise AssertionError("intertwiner space has wrong dimension")

    # change of basis identifying the isotypic space with C^m (x) C^d
    phi = [[hom_basis[i][r * d + l] for i in range(m) for l in range(d)]
           for r in range(dim_iso)]

    # phi^-1 iso(g) phi = B_g (x) A_g, B_g acting on the multiplicity space
    for cand in _subgroups_between(group, dagger, inertia):
        gens = [g for g in group.generators(cand) if g not in sub]
        bmats = [_multiplicity_factor(
            cyc_solve_matrix(phi, cyc_matmul(iso_mats[g], phi)), m, d)
            for g in gens]
        if _pairwise_commuting(bmats):
            return cand
    return None


# ---------------------------------------------------------------------------
# intertwining
# ---------------------------------------------------------------------------

def mackey_terms(group: FiniteGroup, j: Sequence[int],
                 chars: Sequence[Char]) -> list[tuple[tuple[int, int], ...]]:
    """For each character chi of J, the Mackey terms (g, dim) over the
    double-coset representatives g of J in G: dim is the intertwining
    dimension of chi against its conjugate x -> chi(g x g^-1) on the
    overlap J ∩ g^-1 J g, nonzero exactly when g intertwines chi.  The
    terms of chi sum to dim End Ind_J^G chi.  The double cosets and
    overlaps are walked once for all the characters."""
    j = tuple(sorted(j))
    j_set = set(j)
    terms: list[list[tuple[int, int]]] = [[] for _ in chars]
    for g in group.double_coset_reps(j):
        # x lies in the overlap exactly when g x g^-1 lies in J
        pairs = [(x, y) for x in j for y in (group.conj(g, x),) if y in j_set]
        for out, chi in zip(terms, chars):
            acc = Cyc.zero(next(iter(chi.values())).m)
            for x, y in pairs:
                acc = acc + chi[x] * chi[y].conjugate()
            dim = acc.to_fraction() / len(pairs)
            if dim.denominator != 1:
                raise AssertionError("Mackey term is not an integer")
            out.append((g, int(dim)))
    return [tuple(t) for t in terms]


# ---------------------------------------------------------------------------
# model-level checks
# ---------------------------------------------------------------------------

def check_hypotheses(analysis: ModelAnalysis) -> tuple[str, ...]:
    """The failing hypotheses: pi = Ind_Jt^G rho_tilde is irreducible, and
    no double coset outside Jt intertwines a restriction constituent."""
    failures = []
    if not is_irreducible(analysis.induced_from_jt):
        failures.append("induced representation is reducible")
    jt_set = set(analysis.model.j_tilde)
    if any(dim and g not in jt_set
           for terms in analysis.intertwining for g, dim in terms):
        failures.append("intertwining of a restriction constituent escapes "
                        "the inducing subgroup")
    return tuple(failures)


class ModelAnalysis:
    """Every Clifford object of one model, each computed on first use
    and kept only as long as this object: one evaluation builds each
    induced representation once, conjugates rho once and walks the
    double cosets of J once."""

    def __init__(self, model: FiniteGroupModel):
        self.model = model

    @cached_property
    def restriction(self) -> RestrictionReport:
        m = self.model
        return restrict_decompose(m.group, m.j, m.rho_tilde,
                                  constituent=m.rho.character())

    @cached_property
    def twists(self) -> TwistReport:
        m = self.model
        return twist_group(m.group, tuple(sorted(m.j_tilde)), m.j,
                           m.rho_tilde)

    @cached_property
    def stabilizer(self) -> tuple[int, ...] | None:
        m = self.model
        return maximal_stabilizer(m.group, m.j, m.rho_tilde, m.rho,
                                  self.twists.dagger, self.restriction)

    @cached_property
    def induced_from_jt(self) -> Representation:
        m = self.model
        return induced_representation(m.group, tuple(sorted(m.j_tilde)),
                                      m.rho_tilde)

    @cached_property
    def failures(self) -> tuple[str, ...]:
        return check_hypotheses(self)

    @cached_property
    def intertwining(self) -> list[tuple[tuple[int, int], ...]]:
        """Mackey terms of each character in the restriction orbit, in
        orbit order, so those of rho come first."""
        m = self.model
        return mackey_terms(m.group, m.j, self.restriction.orbit)

    @cached_property
    def multiplicity_over_normal(self) -> int:
        """Common multiplicity of the restriction of pi to N."""
        pi = self.induced_from_jt
        if pi is self.model.rho_tilde:
            # Jt = G, so N = J and this is the restriction's multiplicity
            return self.restriction.multiplicity
        return common_multiplicity(pi, self.model.normal)[0]

    @cached_property
    def induced_from_j(self) -> Representation:
        m = self.model
        return induced_representation(m.group, m.j, m.rho)

    @cached_property
    def induced_constituents(self) -> int:
        """Number of distinct irreducible constituents of Ind_J^G rho."""
        return constituent_count(self.induced_from_j,
                                 range(self.model.group.order))


def multiplicity_transfer_check(analysis: ModelAnalysis) -> dict:
    """The common multiplicity of pi over N against that of rho_tilde
    over J; only this record lists the failing hypotheses."""
    if analysis.failures:
        return dict(status="SKIPPED", failures=list(analysis.failures),
                    over_normal=None, over_j=None, equal=None)
    a, b = analysis.multiplicity_over_normal, analysis.restriction.multiplicity
    return dict(status="OK", failures=[], over_normal=a, over_j=b, equal=a == b)


def center_dimension_check(analysis: ModelAnalysis) -> dict:
    """The constituent count of Ind_J^G rho against [J^dagger : J]."""
    if analysis.failures:
        return dict(status="SKIPPED", constituents=None, dagger_index=None,
                    equal=None)
    k = analysis.induced_constituents
    index = len(analysis.twists.dagger) // len(analysis.model.j)
    return dict(status="OK", constituents=k, dagger_index=index,
                equal=k == index)


def commutativity_check(analysis: ModelAnalysis) -> dict:
    """pi free over N, rho_tilde free over J, and End Ind_J^G rho
    commutative (Mackey dimension = constituent count) must coincide."""
    if analysis.failures:
        return dict(status="SKIPPED", normal_restriction_free=None,
                    j_restriction_free=None, endomorphisms_commute=None,
                    coincide=None)
    k = analysis.induced_constituents
    ind = analysis.induced_from_j
    chi_ind = ind.character()
    dim_end = inner_product(chi_ind, chi_ind, ind.domain)
    if dim_end.denominator != 1:
        raise AssertionError("endomorphism dimension is not an integer")
    mackey = sum(dim for _, dim in analysis.intertwining[0])
    if mackey != int(dim_end):
        raise AssertionError("coset-by-coset and global endomorphism "
                             "dimensions disagree")
    n_free = analysis.multiplicity_over_normal == 1
    j_free = analysis.restriction.multiplicity == 1
    commute = mackey == k
    return dict(status="OK", normal_restriction_free=n_free,
                j_restriction_free=j_free, endomorphisms_commute=commute,
                coincide=n_free == j_free == commute)
