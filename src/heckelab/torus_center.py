"""Torus-side model of a depth-one Hecke algebra center.

The commutative algebra attached to a maximal split torus is spanned by
monomials indexed by pairs (coweight, exponents) of integer tuples: the
coweight records a lattice translation, the exponents a character of
the residue torus through a fixed generator of a cyclic group of order
m, reduced mod m.  Over F_q, m = q - 1 (``residue_modulus``, the one
test of q); the functions here take m, so a deeper filtration's
(p - 1) p^(k - 1) passes unchanged.  The finite Weyl group acts on both
factors at once; the invariant subalgebra has the orbit sums as a basis,
each orbit the breadth-first ``_closure`` of a pair under the simple
reflections.  Each pair's simple-reflection images are computed once,
in ``WeylGroup.simple_pair_images``, and the orbits, the block check
and the kernel rows all read them.  The block and Burnside checks act
on an indexed set of pairs with each simple reflection once and read
the whole group off ``WeylGroup.permutation_action``.  All computations here are exact:
integer lattice points, exponent tuples mod m, and rational linear
algebra for the independent dimension routes.
"""
from __future__ import annotations

import itertools
from typing import NamedTuple, Sequence

from . import _closure, _linalg
from .root_datum import WeylGroup


def residue_modulus(q: int) -> int:
    """The modulus m = q - 1 of the depth-zero residue characters over
    F_q; ValueError unless q is a prime power."""
    # q is a power of its least prime factor p iff q divides p^bits(q)
    p = next((d for d in range(2, q + 1) if q % d == 0), None)
    if p is None or p ** q.bit_length() % q:
        raise ValueError(f"q must be a prime power >= 2, got {q}")
    return q - 1


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

# (coweight, character exponents reduced mod the orbit's modulus)
Pair = tuple[tuple[int, ...], tuple[int, ...]]


class OrbitSum(NamedTuple):
    """A full Weyl orbit of pairs, sorted, standing for the
    unit-coefficient sum of its monomials (lattice translation times
    residue character); the exponents are reduced mod ``modulus``."""
    orbit: tuple[Pair, ...]
    modulus: int


# ---------------------------------------------------------------------------
# the Weyl action on pairs
# ---------------------------------------------------------------------------

def _full_orbit(group: WeylGroup, pair: Pair, modulus: int) -> set[Pair]:
    # closure under the simple reflections; orbits are finite, so this
    # terminates even when members leave any given coordinate box
    return set(_closure.closure(
        [pair], lambda p: enumerate(group.simple_pair_images(p, modulus))))


def orbits(group: WeylGroup, radius: int, *, modulus: int) -> list[OrbitSum]:
    """All orbits meeting the product of the sup-norm box of the given
    radius with the modulus^rank characters.  Each orbit is completed
    even past the box: truncation selects which orbits appear, it never
    clips one."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if modulus < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
    rank = group.datum.ambient_rank
    out: list[OrbitSum] = []
    seen: set[Pair] = set()
    box = itertools.product(range(-radius, radius + 1), repeat=rank)
    chars = itertools.product(range(modulus), repeat=rank)
    for pair in itertools.product(box, chars):
        if pair in seen:
            continue
        orb = _full_orbit(group, pair, modulus)
        seen |= orb
        out.append(OrbitSum(tuple(sorted(orb)), modulus))
    out.sort(key=lambda o: o.orbit[0])
    return out


# ---------------------------------------------------------------------------
# block decomposition of an orbit sum by residue character
# ---------------------------------------------------------------------------

class RocReport(NamedTuple):
    """Decomposition of one orbit sum into character blocks: each block
    must be a single orbit of that character's stabilizer, the blocks
    must rebuild the sum, and each block sum must be stabilizer-fixed."""
    ok: bool
    failures: tuple[str, ...]
    block_characters: tuple[tuple[int, ...], ...]
    block_sizes: tuple[int, ...]


def _simple_permutations(group: WeylGroup, points: Sequence, lookup,
                         modulus: int) -> list:
    images = [group.simple_pair_images(p, modulus) for p in points]
    return [[lookup(img[i]) for img in images]
            for i in range(len(group.datum.simple))]


def roc_decomposition_check(group: WeylGroup, osum: OrbitSum) -> RocReport:
    members = list(dict.fromkeys(osum.orbit))
    if not members:
        raise ValueError("empty orbit")
    index = {p: j for j, p in enumerate(members)}
    modulus = osum.modulus
    sigma = _simple_permutations(group, members, index.get, modulus)
    # one orbit: no image is missing, and all are images of member 0
    perms = [] if any(None in row for row in sigma) else (
        group.permutation_action(len(members), sigma))
    if len({pi[0] for pi in perms}) != len(members):
        raise ValueError("input is not a single orbit")
    failures: list[str] = []

    blocks: dict[tuple[int, ...], set[tuple[int, ...]]] = {}
    for lam, chi in members:
        blocks.setdefault(chi, set()).add(lam)

    # the characters that appear must form one orbit of the group.  The
    # single-orbit test implies this: the character part of the action
    # does not read the coweight, so the characters of one orbit of
    # pairs are the orbit of member 0's character
    zero = (0,) * group.datum.ambient_rank
    char_orbit = {p[1] for p in _full_orbit(group, (zero, members[0][1]),
                                            modulus)}
    if set(blocks) != char_orbit:
        failures.append("character blocks do not form a single group orbit")

    for chi in sorted(blocks):
        lams = blocks[chi]
        stab = group.character_stabilizer(chi, modulus)
        seed = min(lams)
        # w fixes chi, so w moves (lam, chi) to (w(lam), chi).  For a true
        # action the single-orbit test implies this check and the next:
        # members of one block differ by an element of W_chi, which keeps
        # chi and so maps the block into itself.  Only a broken
        # permutation_action reaches their failures.
        reached = {members[perms[w][index[seed, chi]]][0] for w in stab}
        if reached != lams:
            failures.append(
                f"block {chi}: stabilizer orbit of {seed} has "
                f"{len(reached)} members, the block has {len(lams)}")
        block = {index[lam, chi] for lam in lams}
        for w in stab:
            if {perms[w][j] for j in block} != block:
                name = "*".join(f"s{i}" for i in group.words[w]) or "e"
                failures.append(f"block {chi}: sum is not fixed by <{name}>")
                break

    rebuilt = sorted((lam, chi) for chi in blocks for lam in blocks[chi])
    if tuple(rebuilt) != osum.orbit:
        failures.append("block sums do not add up to the orbit sum")

    chars = tuple(sorted(blocks))
    return RocReport(not failures, tuple(failures), chars,
                     tuple(len(blocks[c]) for c in chars))


# ---------------------------------------------------------------------------
# dimension of the truncated invariant space, three independent ways
# ---------------------------------------------------------------------------

def invariant_dimension(group: WeylGroup, orbs: Sequence[OrbitSum]) -> int:
    """Dimension of the truncated invariant space: the number of
    ``orbs``, the orbits of a truncation box as ``orbits`` returns them.
    Cross-checked against the kernel dimension of the stacked (w - 1)
    actions on the orbit-closed monomial span, and against the Burnside
    average of fixed pairs; the three counts must agree exactly.  The
    orbits must share one modulus; an empty list has dimension 0."""
    count = len(orbs)
    moduli = {o.modulus for o in orbs} or {1}  # no pairs to act on
    if len(moduli) > 1:
        raise ValueError(f"orbits of mixed moduli {sorted(moduli)}")
    (modulus,) = moduli

    basis = sorted({p for o in orbs for p in o.orbit})
    index = {p: i for i, p in enumerate(basis)}
    npairs = len(basis)

    sigma = _simple_permutations(group, basis, index.__getitem__, modulus)
    rows = [{dst: 1, src: -1} for row in sigma
            for src, dst in enumerate(row) if dst != src]
    kernel_dim = npairs - _linalg.mat_rank(rows)

    fixed_total = sum(sum(map(int.__eq__, pi, range(npairs)))
                      for pi in group.permutation_action(npairs, sigma))
    # Burnside: a true action's fixed-point total is |W| times its
    # orbit count, so only a broken permutation_action leaves a remainder
    burnside, rem = divmod(fixed_total, len(group))
    if rem:
        raise AssertionError("fixed-pair total not divisible by group order")
    if not (count == kernel_dim == burnside):
        raise AssertionError(
            f"orbit count {count}, kernel dimension {kernel_dim}, and "
            f"Burnside count {burnside} disagree")
    return count
