"""Small finite groups as explicit multiplication tables.

Elements are integers 0..n-1 with 0 the identity.  Constructors cover
the families used by the character-theory catalog (cyclic, dihedral,
generalized quaternion, Heisenberg mod p, direct products, permutation
closures).  Every table is validated exactly and exhaustively: every
row must be a permutation, 0 must be an identity, and associativity is
proven by Light's test, (x s) y = x (s y) for all x, y and every s in a
greedy generating set, which implies (x a) y = x (a y) for every product
a of generators and so for every element.  Each row holds 0, so each
element has a right inverse, and such a monoid is a group: its columns
are permutations too.  Inverses are tabulated once.

Subgroup closures, generation trees and permutation groups come from
the breadth-first ``_closure``, in its order of discovery.
"""
from __future__ import annotations

import itertools
from math import gcd
from operator import itemgetter
from typing import Iterable, Sequence

from . import _closure
from ._record import Record, _set

# a table holds order^2 entries; larger groups are refused up front
MAX_GROUP_ORDER = 4_096


def _check_order(n: int) -> None:
    if n > MAX_GROUP_ORDER:
        raise ValueError(f"group order is at least {n}; "
                         f"cap is {MAX_GROUP_ORDER}")


class FiniteGroup(Record):
    _compared = ("table", "label")
    __slots__ = (*_compared, "_inverse", "_generating_sets")

    def __init__(self, table: tuple[tuple[int, ...], ...], label: str = ""):
        _set(self, "table", table)
        _set(self, "label", label)
        n = len(table)
        _check_order(n)
        idx = set(range(n))
        for row in table:
            if len(row) != n or set(row) != idx:
                raise ValueError("multiplication table is not a Latin square")
        if not n or any(table[0][g] != g or table[g][0] != g
                        for g in range(n)):
            raise ValueError("element 0 is not an identity")
        _set(self, "_inverse", tuple(row.index(0) for row in table))
        _set(self, "_generating_sets", {})
        # Light's test, a whole row at a time: (x s) y = x (s y) for all
        # y says that row x s equals row x read through row s
        for s in self.generators():
            through_s = itemgetter(*table[s])
            for x, row in enumerate(table):
                if through_s(row) != table[row[s]]:
                    y = next(y for y in range(n)
                             if table[row[s]][y] != row[table[s][y]])
                    raise ValueError(
                        f"associativity fails on ({x},{s},{y})")

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inverse[a]

    def conj(self, g: int, x: int) -> int:
        """g x g^{-1}"""
        return self.table[self.table[g][x]][self._inverse[g]]

    # subgroup machinery -------------------------------------------------
    def closure(self, gens: Iterable[int]) -> tuple[int, ...]:
        return tuple(sorted(self._closure_tree(list(gens))))

    def _closure_tree(self, gens: list[int]) -> dict[int, tuple]:
        table = self.table
        return _closure.closure(
            [0], lambda x: zip(gens, map(table[x].__getitem__, gens)))

    def generators(self, subset: Iterable[int] | None = None
                   ) -> list[int] | None:
        """Greedy generating set of the subset (default: the group) in
        increasing order, or None if it is not a subgroup.  Each kept
        element at least doubles the closure, so at most log2 of the
        subset's size are kept.  Memoised per subset, None included; each
        call returns a fresh list."""
        key = None if subset is None else tuple(sorted(subset))
        memo = self._generating_sets
        if key not in memo:
            gens = _closure.generators(
                range(self.order) if key is None else key, self.mul, 0)
            memo[key] = None if gens is None else tuple(gens)
        gens = memo[key]
        return None if gens is None else list(gens)

    def generation_tree(self, gens: Sequence[int]) -> list[tuple[int, int, int]]:
        """Spanning tree of the closure: (element, parent, generator)
        triples in BFS order with element = parent * generator."""
        return [(y, x, g) for y, (x, g) in self._closure_tree(list(gens)).items()
                if x is not None]

    def is_subgroup(self, subset: Iterable[int]) -> bool:
        return self.generators(subset) is not None

    def is_normal(self, subset: Iterable[int],
                  ambient: Iterable[int] | None = None) -> bool:
        s = set(subset)
        amb = range(self.order) if ambient is None else ambient
        return all(self.conj(g, x) in s for g in amb for x in s)

    def conjugacy_classes(self, subset: Sequence[int] | None = None
                          ) -> list[tuple[int, ...]]:
        """Classes of the subgroup under its own conjugation."""
        elems = tuple(subset) if subset is not None else tuple(range(self.order))
        left = set(elems)
        out = []
        for x in sorted(elems):
            if x not in left:
                continue
            cls = {self.conj(g, x) for g in elems}
            out.append(tuple(sorted(cls)))
            left -= cls
        return out

    def transversal(self, subgroup: Iterable[int],
                    ambient: Iterable[int] | None = None) -> list[int]:
        """Minimal-index left coset representatives g*S."""
        s = set(subgroup)
        amb = sorted(range(self.order) if ambient is None else ambient)
        seen: set[int] = set()
        reps = []
        for g in amb:
            if g in seen:
                continue
            reps.append(g)
            seen |= {self.mul(g, x) for x in s}
        return reps

    def double_coset_reps(self, J: Iterable[int]) -> list[int]:
        s = sorted(J)
        seen: set[int] = set()
        reps = []
        for g in range(self.order):
            if g in seen:
                continue
            reps.append(g)
            seen |= {self.mul(self.mul(a, g), b) for a in s for b in s}
        return reps

    def quotient_is_abelian(self, normal: Iterable[int]) -> bool:
        """Whether G/N is abelian, for N normal: G/N is generated by the
        images of G's generators, so it is abelian exactly when their
        commutators lie in N."""
        n = set(normal)
        gens = self.generators()
        return all(self.mul(self.mul(a, b), self.inv(self.mul(b, a))) in n
                   for a in gens for b in gens)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def _table_from_coords(coords: list, op, label: str) -> FiniteGroup:
    index = {c: i for i, c in enumerate(coords)}
    table = tuple(tuple(index[op(a, b)] for b in coords) for a in coords)
    return FiniteGroup(table, label)


def cyclic(n: int) -> FiniteGroup:
    return _table_from_coords(list(range(n)), lambda a, b: (a + b) % n,
                              f"C{n}")


def dihedral(n: int) -> FiniteGroup:
    """Order 2n: coords (i, e) = r^i s^e with s r s = r^-1."""
    coords = [(i, e) for e in range(2) for i in range(n)]

    def op(a, b):
        i, e = a
        j, f = b
        return ((i + (j if e == 0 else -j)) % n, (e + f) % 2)

    return _table_from_coords(coords, op, f"D{2 * n}")


def quaternion(order: int) -> FiniteGroup:
    """Generalized quaternion of order 4m: a^(2m) = 1, b^2 = a^m,
    b a b^-1 = a^-1.  coords (i, j) = a^i b^j."""
    if order % 4 != 0 or order < 8:
        raise ValueError("order must be a multiple of 4, at least 8")
    m2 = order // 2
    coords = [(i, j) for j in range(2) for i in range(m2)]

    def op(a, b):
        i, e = a
        j, f = b
        i2 = (i + (j if e == 0 else -j)) % m2
        if e + f == 2:
            return ((i2 + m2 // 2) % m2, 0)
        return (i2, e + f)

    return _table_from_coords(coords, op, f"Q{order}")


def heisenberg(p: int) -> FiniteGroup:
    """Upper unitriangular 3x3 over Z/p: coords (a, b, c) with
    (a,b,c)(a',b',c') = (a+a', b+b', c+c'+a*b')."""
    coords = [(a, b, c) for a in range(p) for b in range(p) for c in range(p)]

    def op(x, y):
        a, b, c = x
        d, e, f = y
        return ((a + d) % p, (b + e) % p, (c + f + a * e) % p)

    return _table_from_coords(coords, op, f"Heis{p}")


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """(a, b) is element a * |g2| + b, so the row of (a, b) is read off
    row a of g1 and row b of g2."""
    n2 = g2.order
    scaled = [[u * n2 for u in row] for row in g1.table]
    table = tuple(tuple(u + v for u in scaled[a] for v in row2)
                  for a in range(g1.order) for row2 in g2.table)
    return FiniteGroup(table, f"{g1.label}x{g2.label}")


def from_permutations(gens: Sequence[Sequence[int]], label: str = "") -> FiniteGroup:
    """Closure of permutation generators (tuples acting on 0..k-1)."""
    k = len(gens[0])
    ident = tuple(range(k))
    gens = [tuple(g) for g in gens]
    order = list(_closure.closure(
        [ident], lambda x: ((g, tuple(x[g[i]] for i in range(k))) for g in gens),
        MAX_GROUP_ORDER))
    _check_order(len(order))
    return _table_from_coords(
        order, lambda a, b: tuple(a[b[i]] for i in range(k)),
        label or f"Perm{len(order)}")


# ---------------------------------------------------------------------------
# abelian quotient characters
# ---------------------------------------------------------------------------

def quotient_characters(group: FiniteGroup, big: Sequence[int],
                        small: Sequence[int]) -> tuple[int, list[dict[int, int]]]:
    """All homomorphisms big/small -> C^x, for small normal in big with
    abelian quotient.  Returns (e, chars): each char maps an element g
    of big to the exponent k of its value zeta_e^k."""
    big = tuple(sorted(big))
    small_set = set(small)
    if not group.is_subgroup(big) or not group.is_subgroup(small_set):
        raise ValueError("inputs must be subgroups")
    if not group.is_normal(small_set, big):
        raise ValueError("denominator is not normal in the numerator")

    # cosets, labeled by minimal representative
    coset_of: dict[int, int] = {}
    reps = []
    for g in big:
        if g in coset_of:
            continue
        members = {group.mul(g, s) for s in small_set}
        rep = min(members)
        for x in members:
            coset_of[x] = rep
        reps.append(rep)
    qmul = {(a, b): coset_of[group.mul(a, b)] for a in reps for b in reps}
    if any(qmul[a, b] != qmul[b, a] for a in reps for b in reps):
        raise ValueError("quotient is not abelian")

    # coset orders in the quotient
    def q_order(a: int) -> int:
        k, cur = 1, a
        while cur != coset_of[0]:
            cur = qmul[cur, a]
            k += 1
        return k

    e = 1
    for a in reps:
        o = q_order(a)
        e = e * o // gcd(e, o)

    # greedy generating set of the quotient
    gens = _closure.generators(sorted(reps), lambda a, b: qmul[a, b],
                               coset_of[0])

    # spans the quotient; each generator hangs off the identity coset
    tree = list(_closure.closure(
        [coset_of[0]],
        lambda x: ((k, qmul[x, g]) for k, g in enumerate(gens))).items())
    chars: list[dict[int, int]] = []
    for assign in itertools.product(range(e), repeat=len(gens)):
        # values along the tree; the full table decides if they are a character
        val = {}
        for y, (x, k) in tree:
            val[y] = 0 if x is None else (val[x] + assign[k]) % e
        if all((val[qmul[a, b]] - val[a] - val[b]) % e == 0
               for a in reps for b in reps):
            chars.append({g: val[coset_of[g]] for g in big})
    if len(chars) != len(reps):
        raise AssertionError("character count must equal quotient order")
    return e, chars
