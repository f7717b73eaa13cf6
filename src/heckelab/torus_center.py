"""Torus-side model of a depth-one Hecke algebra center.

The commutative algebra attached to a maximal split torus is spanned by
monomials indexed by pairs (coweight, residue character): the coweight
records a lattice translation, the character a homomorphism from the
depth-zero residue torus through a fixed generator of the residue
field's unit group.  The finite Weyl group acts on both factors at
once; the invariant subalgebra has the orbit sums as a basis, each
orbit the breadth-first ``_closure`` of a pair under the simple
reflections.  The block and Burnside checks act on an indexed set of
pairs with each simple reflection once and read the whole group off
``WeylGroup.permutation_action``.  All computations here are exact:
integer lattice points, exponent tuples mod q - 1, and rational linear
algebra for the independent dimension routes.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Sequence

from . import _closure, _linalg
from .root_datum import RootDatum, WeylElement, WeylGroup


# pure, and asked again for every character the Weyl action builds
@functools.cache
def _is_prime_power(q: int) -> bool:
    if q < 2:
        return False
    p = next(d for d in range(2, q + 1) if q % d == 0)
    while q % p == 0:
        q //= p
    return q == 1


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidueCharacter:
    """Character of the depth-zero residue torus: one exponent per
    cocharacter-basis vector, each read mod q - 1 through a fixed
    generator of the residue unit group.  Depth one only."""
    components: tuple[int, ...]
    q: int

    def __post_init__(self) -> None:
        if not _is_prime_power(self.q):
            raise ValueError("q must be a prime power >= 2")
        object.__setattr__(self, "components",
                           tuple(c % (self.q - 1) for c in self.components))

    @property
    def is_trivial(self) -> bool:
        return not any(self.components)


Pair = tuple[tuple[int, ...], ResidueCharacter]


@dataclass(frozen=True)
class OrbitSum:
    """A full Weyl orbit of pairs, standing for the unit-coefficient sum
    of its monomials (lattice translation times residue character)."""
    orbit: tuple[Pair, ...]


def _pair_key(pair: Pair):
    lam, chi = pair
    return (lam, chi.components)


def _orbit_sum(pairs) -> OrbitSum:
    return OrbitSum(tuple(sorted(pairs, key=_pair_key)))


# ---------------------------------------------------------------------------
# the Weyl action on pairs
# ---------------------------------------------------------------------------

def weyl_act_pair(group: WeylGroup, w: WeylElement, pair: Pair) -> Pair:
    """Simultaneous action: w moves the coweight as a cocharacter and
    the exponent tuple as a character.  The two actions are dual, so
    this is precomposition of the character with the inverse element."""
    lam, chi = pair
    comps = group.act_character(w, chi.components)
    return group.act_cocharacter(w, lam), ResidueCharacter(comps, chi.q)


def enumerate_characters(datum: RootDatum, q: int) -> list[ResidueCharacter]:
    """All (q-1)^rank residue characters, in lexicographic exponent
    order."""
    if not _is_prime_power(q):
        raise ValueError(f"q must be a prime power >= 2, got {q}")
    rank = datum.ambient_rank
    return [ResidueCharacter(c, q)
            for c in itertools.product(range(q - 1), repeat=rank)]


def _full_orbit(group: WeylGroup, pair: Pair) -> set[Pair]:
    # closure under the simple reflections; orbits are finite, so this
    # terminates even when members leave any given coordinate box
    gens = [group.simple_reflection(i) for i in range(len(group.datum.simple))]
    return set(_closure.closure(
        [pair], lambda p: ((s, weyl_act_pair(group, s, p)) for s in gens)))


def orbits(group: WeylGroup, q: int, radius: int) -> list[OrbitSum]:
    """All orbits meeting the sup-norm box of the given radius.  Each
    orbit is completed even past the box: truncation selects which
    orbits appear, it never clips one."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    datum = group.datum
    chars = enumerate_characters(datum, q)
    out: list[OrbitSum] = []
    seen: set[Pair] = set()
    box = itertools.product(range(-radius, radius + 1), repeat=datum.ambient_rank)
    for pair in itertools.product(box, chars):
        if pair in seen:
            continue
        orb = _full_orbit(group, pair)
        seen |= orb
        out.append(_orbit_sum(orb))
    out.sort(key=lambda o: _pair_key(o.orbit[0]))
    return out


# ---------------------------------------------------------------------------
# block decomposition of an orbit sum by residue character
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RocReport:
    """Decomposition of one orbit sum into character blocks: each block
    must be a single orbit of that character's stabilizer, the blocks
    must rebuild the sum, and each block sum must be stabilizer-fixed."""
    ok: bool
    failures: tuple[str, ...]
    block_characters: tuple[ResidueCharacter, ...]
    block_sizes: tuple[int, ...]


def _simple_permutations(group: WeylGroup, points: Sequence, lookup) -> list:
    gens = map(group.simple_reflection, range(len(group.datum.simple)))
    return [[lookup(weyl_act_pair(group, s, p)) for p in points] for s in gens]


def roc_decomposition_check(group: WeylGroup, osum: OrbitSum) -> RocReport:
    members = list(dict.fromkeys(osum.orbit))
    if not members:
        raise ValueError("empty orbit")
    index = {p: j for j, p in enumerate(members)}
    sigma = _simple_permutations(group, members, index.get)
    # one orbit: no image is missing, and all are images of member 0
    perms = {} if any(None in row for row in sigma) else dict(zip(
        group.elements, group.permutation_action(len(members), sigma)))
    if len({pi[0] for pi in perms.values()}) != len(members):
        raise ValueError("input is not a single orbit")
    failures: list[str] = []

    blocks: dict[ResidueCharacter, set[tuple[int, ...]]] = {}
    for lam, chi in members:
        blocks.setdefault(chi, set()).add(lam)

    # the characters that appear must form one orbit of the group
    zero = (0,) * group.datum.ambient_rank
    char_orbit = {p[1] for p in _full_orbit(group, (zero, osum.orbit[0][1]))}
    if set(blocks) != char_orbit:
        failures.append("character blocks do not form a single group orbit")

    for chi in sorted(blocks, key=lambda c: c.components):
        lams = blocks[chi]
        stab = group.character_stabilizer(chi.components, chi.q - 1)
        seed = min(lams)
        # w fixes chi, so w moves (lam, chi) to (w(lam), chi).  For a true
        # action the single-orbit test implies this check and the next:
        # members of one block differ by an element of W_chi, which keeps
        # chi and so maps the block into itself.  Only a broken
        # permutation_action reaches their failures.
        reached = {members[perms[w][index[seed, chi]]][0] for w in stab}
        if reached != lams:
            failures.append(
                f"block {chi.components}: stabilizer orbit of {seed} has "
                f"{len(reached)} members, the block has {len(lams)}")
        block = {index[lam, chi] for lam in lams}
        for w in stab:
            if {perms[w][j] for j in block} != block:
                failures.append(
                    f"block {chi.components}: sum is not fixed by {w!r}")
                break

    rebuilt = sorted(((lam, chi) for chi in blocks for lam in blocks[chi]),
                     key=_pair_key)
    if tuple(rebuilt) != osum.orbit:
        failures.append("block sums do not add up to the orbit sum")

    chars = tuple(sorted(blocks, key=lambda c: c.components))
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
    average of fixed pairs; the three counts must agree exactly."""
    count = len(orbs)

    basis = sorted({p for o in orbs for p in o.orbit}, key=_pair_key)
    index = {p: i for i, p in enumerate(basis)}
    npairs = len(basis)

    sigma = _simple_permutations(group, basis, index.__getitem__)
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
