"""Exact matrix representations of small finite groups.

Matrices live over a fixed cyclotomic field; a representation stores a
full element-to-matrix map.  The homomorphism property is proven,
not sampled, at every domain order: the domain must be the closure of a
greedy generating set S (at most log2 of its order elements), the
identity must map to I, and rho(g) rho(s) = rho(gs) must hold for every
g in the domain and s in S; induction on the length of h as a word in S
then gives rho(g) rho(h) = rho(gh) for all g, h.  The proof packs each
matrix of the map once (``cyclotomic.cyc_pack``: the nonzero entries of
each row, with their columns), refusing any entry whose conductor is not
the representation's; ``from_generators`` builds the map along a
spanning tree of packed products, so its packed forms are at hand and
each product is unpacked once for the map.  The proof compares each
packed product rho(g) rho(s)
(``cyc_packed_matmul``, one memoized product per pair of nonzero entries)
with the packed rho(gs); for the monomial models that is one entry
product per row.  Character arithmetic
(inner products, restriction, conjugation, induction) is exact; the
number of distinct irreducible constituents of a representation is
computed by the rank of the span of its class-sum images, which needs
no character table of the ambient group.
"""
from __future__ import annotations

from fractions import Fraction as Q
from math import isqrt
from typing import Mapping, Sequence

from ._record import Record, _set
from .cyclotomic import (Cyc, cyc_identity, cyc_pack, cyc_packed_matmul,
                         cyc_rank, cyc_trace, cyc_unpack)
from .finite_groups import FiniteGroup

Char = dict[int, Cyc]


class Representation(Record):
    _compared = ("group", "domain", "matrices", "conductor")
    __slots__ = (*_compared, "_char")

    def __init__(self, group: FiniteGroup, domain: tuple[int, ...],
                 matrices: Mapping[int, list], conductor: int):
        _set(self, "group", group)
        _set(self, "domain", domain)
        _set(self, "matrices", matrices)
        _set(self, "conductor", conductor)
        _set(self, "_char", {})

    @staticmethod
    def from_generators(group: FiniteGroup, gens: Sequence[int],
                        mats: Sequence, conductor: int) -> "Representation":
        domain = group.closure(gens)
        full: dict[int, list] = {0: cyc_identity(len(mats[0]), conductor)}
        packed = {0: cyc_pack(full[0], conductor)}
        gen_map = dict(zip(gens, mats))
        # each generator is packed, and its conductor checked, when the
        # tree first multiplies by it
        gen_packed: dict[int, tuple] = {}
        for elem, parent, g in group.generation_tree(list(gens)):
            if g not in gen_packed:
                gen_packed[g] = cyc_pack(gen_map[g], conductor)
            packed[elem] = cyc_packed_matmul(conductor, packed[parent],
                                             gen_packed[g])
            full[elem] = cyc_unpack(conductor, packed[elem], len(gen_map[g][0]))
        rep = Representation(group, domain, full, conductor)
        rep._verify(packed)
        return rep

    @staticmethod
    def from_matrices(group: FiniteGroup, domain: Sequence[int],
                      mats: Mapping[int, list], conductor: int
                      ) -> "Representation":
        rep = Representation(group, tuple(sorted(domain)), dict(mats),
                             conductor)
        rep._verify()
        return rep

    @property
    def dim(self) -> int:
        return len(self.matrices[0])

    def matrix(self, g: int) -> list:
        return self.matrices[g]

    def _verify(self, packed: dict[int, tuple] | None = None):
        """Prove the map a homomorphism; ``packed`` holds the packed form
        of every matrix when the caller has it already."""
        dom, mats, group = self.domain, self.matrices, self.group
        if set(dom) != set(mats):
            raise ValueError("matrix map does not cover the domain")
        gens = group.generators(dom)
        if gens is None or len(set(dom)) != len(dom):
            raise ValueError("domain is not a subgroup")
        dim = self.dim
        if any(len(m) != dim or any(len(row) != dim for row in m)
               for m in mats.values()):
            raise ValueError("matrices are not all square of one size")
        if mats[0] != cyc_identity(dim, self.conductor):
            raise ValueError("matrices are not a homomorphism: the identity "
                             "does not map to I")
        cond = self.conductor
        if packed is None:
            packed = {g: cyc_pack(mat, cond) for g, mat in mats.items()}
        for g in dom:
            left = packed[g]
            for s in gens:
                if (cyc_packed_matmul(cond, left, packed[s])
                        != packed[group.mul(g, s)]):
                    raise ValueError(
                        f"matrices are not a homomorphism at ({g},{s})")

    def character(self) -> Char:
        if not self._char:
            self._char.update({g: cyc_trace(m)
                               for g, m in self.matrices.items()})
        return self._char


# ---------------------------------------------------------------------------
# character arithmetic
# ---------------------------------------------------------------------------

def inner_product(chi1: Char, chi2: Char, subset: Sequence[int]) -> Q:
    """<chi1, chi2> over the subgroup; must come out rational."""
    m = next(iter(chi1.values())).m
    acc = Cyc.zero(m)
    for x in subset:
        acc = acc + chi1[x] * chi2[x].conjugate()
    return acc.to_fraction() / len(subset)


def restrict_character(chi: Char, subset: Sequence[int]) -> Char:
    return {x: chi[x] for x in subset}


def char_key(chi: Char) -> tuple:
    return tuple(sorted((g, v.c) for g, v in chi.items()))


def is_irreducible(rep: Representation) -> bool:
    chi = rep.character()
    return inner_product(chi, chi, rep.domain) == 1


def induced_character(group: FiniteGroup, sub: Sequence[int], chi: Char,
                      ambient: Sequence[int] | None = None) -> Char:
    amb = tuple(ambient) if ambient is not None else tuple(range(group.order))
    sub_set = set(sub)
    m = next(iter(chi.values())).m
    out: Char = {}
    for g in amb:
        acc = Cyc.zero(m)
        for x in amb:
            y = group.conj(x, g)
            if y in sub_set:
                acc = acc + chi[y]
        out[g] = acc * Q(1, len(sub))
    return out


def induced_representation(group: FiniteGroup, sub: Sequence[int],
                           rep: Representation,
                           ambient: Sequence[int] | None = None
                           ) -> Representation:
    """Block-monomial model of Ind from the subgroup to the ambient
    subgroup (default: the whole group)."""
    amb = tuple(sorted(ambient)) if ambient is not None else tuple(range(group.order))
    sub_set = set(sub)
    reps = group.transversal(sub_set, amb)
    r, d = len(reps), rep.dim
    zero = Cyc.zero(rep.conductor)
    mats: dict[int, list] = {}
    for g in amb:
        big = [[zero for _ in range(r * d)] for _ in range(r * d)]
        for j, tj in enumerate(reps):
            target = group.mul(g, tj)
            for i, ti in enumerate(reps):
                h = group.mul(group.inv(ti), target)
                if h in sub_set:
                    block = rep.matrix(h)
                    for k in range(d):
                        for l in range(d):
                            big[i * d + k][j * d + l] = block[k][l]
                    break
            else:
                raise AssertionError("transversal does not cover")
        mats[g] = big
    return Representation.from_matrices(group, amb, mats, rep.conductor)


def constituent_count(rep: Representation, sub: Sequence[int]) -> int:
    """Number of distinct irreducible constituents of the restriction
    of rep to the subgroup: rank of the span of its class-sum images
    (class sums act by distinct central-character tuples)."""
    classes = rep.group.conjugacy_classes(tuple(sub))
    zero = Cyc.zero(rep.conductor)
    vecs = []
    for cls in classes:
        dim = rep.dim
        acc = [[zero for _ in range(dim)] for _ in range(dim)]
        for x in cls:
            mat = rep.matrix(x)
            for i in range(dim):
                row = mat[i]
                arow = acc[i]
                for j in range(dim):
                    if row[j]:
                        arow[j] = arow[j] + row[j]
        vecs.append([acc[i][j] for i in range(dim) for j in range(dim)])
    return cyc_rank(vecs)


def common_multiplicity(rep: Representation, sub: Sequence[int]) -> tuple[int, int]:
    """(m, k) for the restriction to a normal subgroup of the domain:
    k distinct constituents, all of multiplicity m.  Uses the identity
    <Res chi, Res chi> = m^2 k and the class-sum rank for k; the two
    routes must be consistent."""
    sub = tuple(sorted(sub))
    chi = restrict_character(rep.character(), sub)
    a = inner_product(chi, chi, sub)
    k = constituent_count(rep, sub)
    if a.denominator != 1 or a.numerator % k != 0:
        raise AssertionError("restriction is not multiplicity-homogeneous")
    m2 = a.numerator // k
    m = isqrt(m2)
    if m * m != m2:
        raise AssertionError("restriction is not multiplicity-homogeneous")
    return m, k
