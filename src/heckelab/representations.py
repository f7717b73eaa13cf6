"""Exact matrix representations of small finite groups.

Matrices live over a fixed cyclotomic field; a representation stores a
full element-to-matrix map, packed (``cyclotomic.cyc_pack``: per row,
the nonzero entries with their columns).  The homomorphism property is
proven, not sampled, at every domain order: the domain must be the
closure of a greedy generating set S (at most log2 of its order
elements), the identity must map to I, and rho(g) rho(s) = rho(gs) must
hold for every g in the domain and s in S; induction on the length of h
as a word in S then gives rho(g) rho(h) = rho(gh) for all g, h.  The
proof compares each packed product rho(g) rho(s) (``cyc_packed_matmul``,
one memoized product per pair of nonzero entries) with the packed
rho(gs); for the monomial models that is one entry product per row.

The packed map the proof reads is the one the representation keeps
from construction on.  ``from_generators``, the route for outside
input, checks the generator matrices square and packs each once,
refusing any entry whose conductor is not the representation's, then
builds the map along a spanning tree of packed products.
``from_matrices`` takes a packed map as built: ``induced_representation``
writes its block-monomial rows straight from the packed blocks of the
induced representation, and returns a representation of the whole
ambient group as it is.  A dense matrix is unpacked when it is first
read, and equality compares the dense maps.  Characters sum the packed
diagonals.  Character arithmetic (inner products, restriction,
conjugation, induction) is exact; the number of distinct irreducible
constituents of a representation is computed by the rank of the span of
its class-sum images, accumulated on the packed matrices, which needs no
character table of the ambient group.
"""
from __future__ import annotations

from fractions import Fraction as Q
from math import isqrt
from operator import add
from typing import Mapping, Sequence

from ._record import Record, _set
from .cyclotomic import (Cyc, cyc_identity, cyc_pack, cyc_packed_matmul,
                         cyc_rank, cyc_unpack)
from .finite_groups import FiniteGroup

Char = dict[int, Cyc]


class Representation(Record):
    _compared = ("group", "domain", "matrices", "conductor")
    __slots__ = ("group", "domain", "packed", "conductor", "_dense", "_char")

    def __init__(self, group: FiniteGroup, domain: tuple[int, ...],
                 packed: Mapping[int, tuple], conductor: int):
        _set(self, "group", group)
        _set(self, "domain", domain)
        _set(self, "packed", packed)
        _set(self, "conductor", conductor)
        _set(self, "_dense", {})
        _set(self, "_char", {})

    @staticmethod
    def from_generators(group: FiniteGroup, gens: Sequence[int],
                        mats: Sequence, conductor: int) -> "Representation":
        dim = len(mats[0])
        if any(len(m) != dim or any(len(row) != dim for row in m)
               for m in mats):
            raise ValueError("matrices are not all square of one size")
        domain = group.closure(gens)
        packed = {0: cyc_pack(cyc_identity(dim, conductor), conductor)}
        gen_map = dict(zip(gens, mats))
        # each generator is packed, and its conductor checked, when the
        # tree first multiplies by it
        gen_packed: dict[int, tuple] = {}
        for elem, parent, g in group.generation_tree(list(gens)):
            if g not in gen_packed:
                gen_packed[g] = cyc_pack(gen_map[g], conductor)
            packed[elem] = cyc_packed_matmul(conductor, packed[parent],
                                             gen_packed[g])
        rep = Representation(group, domain, packed, conductor)
        rep._verify()
        return rep

    @staticmethod
    def from_matrices(group: FiniteGroup, domain: Sequence[int],
                      packed: Mapping[int, tuple], conductor: int
                      ) -> "Representation":
        """The representation with the packed matrices ``packed``
        (``cyc_pack``), once the map is proven a homomorphism."""
        rep = Representation(group, tuple(sorted(domain)), packed, conductor)
        rep._verify()
        return rep

    @property
    def dim(self) -> int:
        return len(self.packed[0])

    def matrix(self, g: int) -> list:
        """The dense matrix of g, unpacked when first read."""
        mat = self._dense.get(g)
        if mat is None:
            mat = self._dense[g] = cyc_unpack(self.conductor, self.packed[g],
                                              self.dim)
        return mat

    @property
    def matrices(self) -> dict[int, list]:
        return {g: self.matrix(g) for g in self.packed}

    def _verify(self):
        """Prove the packed map a homomorphism."""
        dom, packed, group = self.domain, self.packed, self.group
        if set(dom) != set(packed):
            raise ValueError("matrix map does not cover the domain")
        gens = group.generators(dom)
        if gens is None or len(set(dom)) != len(dom):
            raise ValueError("domain is not a subgroup")
        cond = self.conductor
        one = Cyc.one(cond).c
        if packed[0] != tuple(((i, one),) for i in range(self.dim)):
            raise ValueError("matrices are not a homomorphism: the "
                             "identity does not map to I")
        for g in dom:
            left = packed[g]
            for s in gens:
                if (cyc_packed_matmul(cond, left, packed[s])
                        != packed[group.mul(g, s)]):
                    raise ValueError(
                        f"matrices are not a homomorphism at ({g},{s})")

    def character(self) -> Char:
        """The trace of every matrix, summed on its packed diagonal."""
        if not self._char:
            cond = self.conductor
            zero = Cyc.zero(cond).c
            for g, mat in self.packed.items():
                acc = zero
                for i, prow in enumerate(mat):
                    for j, coeffs in prow:
                        if j == i:
                            acc = tuple(map(add, acc, coeffs))
                            break
                self._char[g] = Cyc(cond, acc)
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


def induced_representation(group: FiniteGroup, sub: Sequence[int],
                           rep: Representation,
                           ambient: Sequence[int] | None = None
                           ) -> Representation:
    """Block-monomial model of Ind from the subgroup to the ambient
    subgroup (default: the whole group); Ind_G^G rho is rho itself.
    Block (i, j) of g is rho(t_i^-1 g t_j) when that lies in the
    subgroup, built packed from the packed blocks of rho."""
    amb = tuple(sorted(ambient)) if ambient is not None else tuple(range(group.order))
    sub_set = set(sub)
    if rep.domain == amb and sub_set == set(amb):
        return rep
    reps = group.transversal(sub_set, amb)
    d = rep.dim
    # x = t_i h with h in the subgroup: x lies in coset i
    coset = {group.mul(t, h): i for i, t in enumerate(reps) for h in sub_set}
    inverse = [group.inv(t) for t in reps]
    blocks = rep.packed
    packed: dict[int, tuple] = {}
    for g in amb:
        rows: list = [None] * (len(reps) * d)
        for j, tj in enumerate(reps):
            target = group.mul(g, tj)
            i = coset.get(target)
            if i is None:
                raise AssertionError("transversal does not cover")
            off = j * d
            for k, prow in enumerate(blocks[group.mul(inverse[i], target)]):
                rows[i * d + k] = tuple((off + l, c) for l, c in prow)
        packed[g] = tuple(rows)
    return Representation.from_matrices(group, amb, packed, rep.conductor)


def class_sums(rep: Representation, sub: Sequence[int]) -> list[list[Cyc]]:
    """The image of each class sum of the subgroup, over its classes
    under its own conjugation, as a dense row-major vector; each sum is
    accumulated on the packed matrices."""
    cond, dim = rep.conductor, rep.dim
    zero = Cyc.zero(cond)
    vecs = []
    for cls in rep.group.conjugacy_classes(tuple(sub)):
        acc: dict[int, tuple] = {}
        for x in cls:
            for i, prow in enumerate(rep.packed[x]):
                for j, coeffs in prow:
                    prev = acc.get(i * dim + j)
                    acc[i * dim + j] = (coeffs if prev is None
                                        else tuple(map(add, prev, coeffs)))
        vec = [zero] * (dim * dim)
        for cell, coeffs in acc.items():
            vec[cell] = Cyc(cond, coeffs)
        vecs.append(vec)
    return vecs


def constituent_count(rep: Representation, sub: Sequence[int]) -> int:
    """Number of distinct irreducible constituents of the restriction
    of rep to the subgroup: rank of the span of its class-sum images
    (class sums act by distinct central-character tuples)."""
    return cyc_rank(class_sums(rep, sub))


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
