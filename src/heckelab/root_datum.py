"""Reduced root data with exact integer coordinates.

A root datum here is a finite list of root/coroot pairs inside a pair of
dual integer lattices (characters and cocharacters, paired by the
standard dot product), plus a choice of simple roots.  Two realizations
are built in:

* named Cartan types realized on the root lattice: characters get the
  simple roots as standard basis vectors, so the coordinates of any root
  are literally its simple-root coefficients, and cocharacters form the
  full dual lattice (fundamental coweights are the dual standard basis);
  an optional block of central coordinates, on which every root
  vanishes, can be appended;
* a general-linear realization on Z^n with roots e_i - e_j and coroots
  the same vectors in the dual lattice, which is the coordinate system
  the worked matrix examples use.

``datum_from_config`` is the one reader of a datum description (a
Cartan matrix or a general-linear size, as a JSON-style dict), and
``REGISTRY`` names the built-in data in that same form.

The Weyl group is enumerated once by the breadth-first ``_closure``,
which also builds root systems, parabolic subgroups and orbits.  Elements
are canonicalized by the permutation they induce on the roots and carry
a shortlex-minimal reduced word in the simple reflections; they act on
characters and cocharacters one simple reflection per letter.
"""
from __future__ import annotations

from fractions import Fraction as Q
from math import factorial, prod
from typing import Iterable, Sequence

from . import _closure, _linalg
from ._record import Record, _set

IVec = tuple[int, ...]

MAX_WEYL_ORDER = 10080
# ambient rank n of a Cartan description: each Weyl action on a vector
# costs O(length * n); heart-check of A6 x A1 (|W| = 10080) + central
# rank 121 takes 0.9 s in-process, and 2.1 s at n = 512, on 2 vCPUs
MAX_AMBIENT_RANK = 128


# ---------------------------------------------------------------------------
# Cartan matrices for the named types.  Convention: entry [i][j] is the
# pairing of simple root j against simple coroot i, so row i lists the
# coordinates of coroot i in the basis dual to the simple roots.
# ---------------------------------------------------------------------------

def cartan_matrix(kind: str, n: int) -> list[list[int]]:
    if n < 1:
        raise ValueError("rank must be >= 1")
    mat = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def link(i: int, j: int, cij: int = -1, cji: int = -1) -> None:
        mat[i][j] = cij
        mat[j][i] = cji

    if kind == "A":
        for i in range(n - 1):
            link(i, i + 1)
    elif kind == "B":
        if n < 2:
            raise ValueError("type B needs rank >= 2")
        for i in range(n - 2):
            link(i, i + 1)
        # last simple root is short: pairing of the long neighbour
        # against the short coroot is -2
        link(n - 2, n - 1, -1, -2)
    elif kind == "C":
        if n < 2:
            raise ValueError("type C needs rank >= 2")
        for i in range(n - 2):
            link(i, i + 1)
        link(n - 2, n - 1, -2, -1)
    elif kind == "G":
        if n != 2:
            raise ValueError("type G needs rank 2")
        link(0, 1, -1, -3)
    else:
        raise ValueError(f"unknown type {kind!r}")
    return mat


def validate_cartan(mat: Sequence[Sequence[int]]) -> None:
    n = len(mat)
    for row in mat:
        if len(row) != n:
            raise ValueError("Cartan matrix must be square")
    for i in range(n):
        if mat[i][i] != 2:
            raise ValueError("Cartan matrix diagonal must be 2")
        for j in range(n):
            if i != j:
                if mat[i][j] > 0:
                    raise ValueError("off-diagonal Cartan entries must be <= 0")
                if (mat[i][j] == 0) != (mat[j][i] == 0):
                    raise ValueError("Cartan zero pattern must be symmetric")


# ---------------------------------------------------------------------------
# Root datum
# ---------------------------------------------------------------------------

class RootDatum(Record):
    """Roots and coroots in dual integer lattices of a common rank.

    ``roots[k]`` and ``coroots[k]`` form a pair; ``simple`` lists the
    indices of the simple pairs.  The pairing of a character with a
    cocharacter is the dot product of coordinate tuples.  The memo of
    ``simple_coefficients`` takes no part in equality.
    """

    _compared = ("ambient_rank", "roots", "coroots", "simple", "label")
    __slots__ = (*_compared, "_coeff_cache")

    def __init__(self, ambient_rank: int, roots: tuple[IVec, ...],
                 coroots: tuple[IVec, ...], simple: tuple[int, ...],
                 label: str = "custom"):
        _set(self, "ambient_rank", ambient_rank)
        _set(self, "roots", roots)
        _set(self, "coroots", coroots)
        _set(self, "simple", simple)
        _set(self, "label", label)
        _set(self, "_coeff_cache", {})

    # -- basic queries ------------------------------------------------

    @property
    def semisimple_rank(self) -> int:
        return len(self.simple)

    def pairing(self, char: Sequence, cochar: Sequence) -> int | Q:
        """The dot product; an int when both sides are integral."""
        return sum(a * b for a, b in zip(char, cochar, strict=True))

    def simple_roots(self) -> list[IVec]:
        return [self.roots[k] for k in self.simple]

    def simple_coroots(self) -> list[IVec]:
        return [self.coroots[k] for k in self.simple]

    def simple_coefficients(self, vec: Sequence) -> tuple[Q, ...] | None:
        """Coefficients of ``vec`` over the simple roots, or None."""
        key = tuple(vec)
        if key not in self._coeff_cache:
            cols = list(zip(*self.simple_roots()))
            self._coeff_cache[key] = _linalg.solve(cols, key)
        return self._coeff_cache[key]

    def is_positive_root(self, vec: Sequence) -> bool:
        if tuple(vec) not in self.roots:
            return False
        coeffs = self.simple_coefficients(vec)
        return coeffs is not None and all(c >= 0 for c in coeffs)

    def positive_roots(self) -> list[int]:
        return [k for k, a in enumerate(self.roots) if self.is_positive_root(a)]

    @property
    def is_general_linear(self) -> bool:
        """Whether this is the GL_n realization, read off the roots (the
        label is free text): the coroots equal the roots, and the roots
        are exactly the e_i - e_j of Z^n, n >= 1."""
        n = self.ambient_rank
        diffs = [tuple(1 if k == i else (-1 if k == j else 0) for k in range(n))
                 for i in range(n) for j in range(n) if i != j]
        return (n >= 1 and self.coroots == self.roots
                and sorted(self.roots) == sorted(diffs))

    # -- dominance ------------------------------------------------------

    def is_dominant_coweight(self, lam: Sequence) -> bool:
        return all(self.pairing(a, lam) >= 0 for a in self.simple_roots())

    # -- derived geometry ----------------------------------------------

    def fundamental_coweights(self) -> list[tuple[Q, ...]]:
        """One rational coweight per simple root, pairing to delta_ij.

        Free coordinates (central directions) are set to zero, so for the
        built-in realizations the result has integer entries.
        """
        rows = self.simple_roots()
        out = []
        for j in range(len(rows)):
            rhs = [int(i == j) for i in range(len(rows))]
            sol = _linalg.solve(rows, rhs)
            if sol is None:
                raise ValueError("simple roots are linearly dependent")
            out.append(sol)
        return out

    def simple_pairings(self) -> list[list[int]]:
        """The Cartan matrix of the simple pairs, in integers: entry
        [i][j] pairs simple root j with simple coroot i."""
        # walk each simple root's nonzero coordinates only: on GL_n a
        # simple root has two of n
        supports = [_support(a) for a in self.simple_roots()]
        return [[sum(x * av[k] for k, x in sup) for sup in supports]
                for av in self.simple_coroots()]

    def dynkin_components(self) -> list[list[int]]:
        """Connected components of the Dynkin diagram, as lists of
        positions into ``simple``."""
        return _dynkin_components(self.simple_pairings())

    def highest_root_marks(self, component: list[int]) -> dict[int, Q]:
        """Simple-root coefficients of the highest root of a component."""
        best: tuple[Q, dict[int, Q]] | None = None
        for a in self.roots:
            coeffs = self.simple_coefficients(a)
            if coeffs is None or any(c < 0 for c in coeffs):
                continue
            support = {i for i, c in enumerate(coeffs) if c != 0}
            if not support or not support.issubset(set(component)):
                continue
            total = sum(coeffs)
            if best is None or total > best[0]:
                best = (total, {i: coeffs[i] for i in component})
        if best is None:
            raise ValueError("component has no roots")
        return best[1]

    def base_alcove_barycenter(self) -> tuple[Q, ...]:
        """Interior point of the fundamental alcove: average of the
        alcove vertices (origin and fundamental coweights scaled by the
        inverse highest-root marks), taken per Dynkin component."""
        omegas = self.fundamental_coweights()
        x = [Q(0)] * self.ambient_rank
        for comp in self.dynkin_components():
            marks = self.highest_root_marks(comp)
            acc = [Q(0)] * self.ambient_rank
            for i in comp:
                acc = [s + w / marks[i] for s, w in zip(acc, omegas[i], strict=True)]
            x = [s + a / (len(comp) + 1) for s, a in zip(x, acc, strict=True)]
        return tuple(x)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def _dynkin_components(cartan: Sequence[Sequence[int]]) -> list[list[int]]:
    """Connected components of the Dynkin diagram of a Cartan matrix."""
    m = len(cartan)
    comps: list[list[int]] = []
    for start in range(m):
        if not any(start in comp for comp in comps):
            comps.append(sorted(_closure.closure(
                [start], lambda i: ((j, j) for j in range(m) if cartan[i][j]))))
    return comps


def _generate_root_pairs(simple_pairs: list[tuple[IVec, IVec]]
                         ) -> tuple[tuple[IVec, ...], tuple[IVec, ...], tuple[int, ...]]:
    """Close the simple pairs under all simple reflections."""
    coroot: dict[IVec, IVec] = dict(simple_pairs)

    def step(a: IVec):
        av = coroot[a]
        for i, (sa, sav) in enumerate(simple_pairs):
            ca = sum(x * y for x, y in zip(a, sav))
            na = tuple(x - ca * y for x, y in zip(a, sa))
            cv = sum(x * y for x, y in zip(sa, av))
            nav = tuple(x - cv * y for x, y in zip(av, sav))
            if coroot.setdefault(na, nav) != nav:
                raise ValueError("inconsistent root/coroot closure")
            yield i, na

    found = _closure.closure(coroot, step, limit=4 * MAX_WEYL_ORDER)
    if len(found) > 4 * MAX_WEYL_ORDER:
        raise ValueError("root system too large")

    ordering = sorted(found, key=lambda a: (sum(a) < 0, [abs(c) for c in a], a))
    roots = tuple(ordering)
    coroots = tuple(coroot[a] for a in ordering)
    simple = tuple(roots.index(a) for a, _ in simple_pairs)
    return roots, coroots, simple


def datum_from_cartan(mat: Sequence[Sequence[int]], central_rank: int = 0,
                      label: str | None = None) -> RootDatum:
    validate_cartan(mat)
    if central_rank < 0:
        raise ValueError(f"central_rank must be >= 0, got {central_rank}")
    n = len(mat)
    ambient = n + central_rank
    if ambient > MAX_AMBIENT_RANK:
        raise ValueError(f"ambient rank is {ambient}; cap is {MAX_AMBIENT_RANK}")
    simple_pairs = []
    for i in range(n):
        root = tuple(1 if j == i else 0 for j in range(ambient))
        coroot = tuple(list(mat[i]) + [0] * central_rank)
        simple_pairs.append((root, coroot))
    if not simple_pairs:
        return RootDatum(ambient, (), (), (), label or "torus")
    # a component of no finite type has infinitely many roots
    if any(_irreducible_order(mat, c) is None for c in _dynkin_components(mat)):
        raise ValueError("root system too large")
    roots, coroots, simple = _generate_root_pairs(simple_pairs)
    return RootDatum(ambient, roots, coroots, simple, label or "cartan")


def datum_general_linear(n: int, max_weyl_order: int | None = None) -> RootDatum:
    """GL_n realization: characters and cocharacters both Z^n, roots and
    coroots the difference vectors e_i - e_j.  With ``max_weyl_order``,
    a size whose Weyl group S_n is larger is refused before any of the
    n(n - 1) roots is built."""
    if n < 2:
        raise ValueError("general-linear realization needs n >= 2")
    if max_weyl_order is not None and factorial(min(n, 1000)) > max_weyl_order:
        # n! outgrows CPython's 4300-digit int-to-str limit at n = 1559
        order = factorial(n) if n <= 1000 else f"{n}!"
        raise ValueError(f"Weyl group order is at least {order}; "
                         f"cap is {max_weyl_order}")
    pairs = []
    for i in range(n):
        for j in range(n):
            if i != j:
                v = tuple(1 if k == i else (-1 if k == j else 0) for k in range(n))
                pairs.append((v, v))
    pairs.sort(key=lambda p: p[0], reverse=True)
    roots = tuple(a for a, _ in pairs)
    coroots = tuple(av for _, av in pairs)
    simple = tuple(roots.index(tuple(1 if k == i else (-1 if k == i + 1 else 0)
                                     for k in range(n)))
                   for i in range(n - 1))
    return RootDatum(n, roots, coroots, simple, f"GL{n}")


def as_integer(value, what: str) -> int:
    # bool is an int subclass; floats and numeric strings are refused too
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def datum_from_config(cfg: dict, max_weyl_order: int | None = None) -> RootDatum:
    """Build a datum from its JSON description, in one of two shapes::

        {"cartan": [[2, -1], [-1, 2]], "central_rank": 0, "label": "A2"}
        {"general_linear": 3}

    ``central_rank`` defaults to 0 and ``label`` to "custom".  Every
    number must be an integer (not a float, string or boolean), and no
    other key is accepted.  Raises ValueError on anything else, and on a
    general-linear size above ``max_weyl_order`` (see
    ``datum_general_linear``).
    """
    if not isinstance(cfg, dict):
        raise ValueError("a datum description must be a JSON object")
    if "general_linear" in cfg:
        allowed = {"general_linear"}
    elif "cartan" in cfg:
        allowed = {"cartan", "central_rank", "label"}
    else:
        raise ValueError("a datum description needs a 'cartan' or "
                         "'general_linear' entry")
    extra = sorted(set(cfg) - allowed)
    if extra:
        raise ValueError(f"unexpected keys {extra}")
    if "general_linear" in cfg:
        return datum_general_linear(as_integer(cfg["general_linear"],
                                               "general_linear"), max_weyl_order)
    mat = cfg["cartan"]
    if not isinstance(mat, list) or not all(isinstance(row, list) for row in mat):
        raise ValueError("cartan must be a list of rows")
    mat = [[as_integer(x, "every Cartan entry") for x in row] for row in mat]
    central = as_integer(cfg.get("central_rank", 0), "central_rank")
    label = cfg.get("label", "custom")
    if not isinstance(label, str):
        raise ValueError(f"label must be a string, got {label!r}")
    return datum_from_cartan(mat, central, label)


# The registry names the command line accepts, as descriptions in the
# schema above.
REGISTRY: dict[str, dict] = {
    **{f"{kind.lower()}{rank}": {"cartan": cartan_matrix(kind, rank),
                                 "label": f"{kind}{rank}"}
       for kind, rank in (("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
                          ("C", 2), ("C", 3), ("G", 2))},
    "gl1": {"cartan": [], "central_rank": 1, "label": "GL1"},
    **{f"gl{n}": {"general_linear": n} for n in (2, 3, 4)},
}


# ---------------------------------------------------------------------------
# Weyl group
# ---------------------------------------------------------------------------

class WeylElement(Record):
    """Group element, canonical by the permutation it induces on the
    roots, on which W acts faithfully: ``w(roots[k]) = roots[perm[k]]``.
    Equal elements may carry different words."""

    __slots__ = ("perm", "word")
    _compared = ("perm",)

    def __init__(self, perm: tuple[int, ...], word: tuple[int, ...]):
        _set(self, "perm", perm)
        _set(self, "word", word)

    # spelled out: Hecke labels hash and compare elements in inner loops
    def __eq__(self, other):
        if other.__class__ is not WeylElement:
            return NotImplemented
        return self.perm == other.perm

    def __hash__(self) -> int:
        return hash((self.perm,))

    @property
    def length(self) -> int:
        return len(self.word)

    def __repr__(self) -> str:
        name = "*".join(f"s{i}" for i in self.word) or "e"
        return f"<{name}>"


def _support(vec: IVec) -> tuple[tuple[int, int], ...]:
    """The nonzero coordinates of vec, as (index, value) pairs."""
    return tuple((k, x) for k, x in enumerate(vec) if x)


def _reflect(v: Sequence, a: Sequence, av: Sequence) -> tuple:
    """v - <v, av> a: the reflection in a, with av its dual vector, each
    given by its support: a root has two nonzero coordinates on GL_n."""
    c = sum([v[k] * x for k, x in av])
    out = list(v)
    for k, y in a:
        out[k] -= c * y
    return tuple(out)


# Weyl group orders of E6, E7 and E8 by the arm lengths of their branch
# node (Humphreys, Reflection Groups and Coxeter Groups, 1990, ch. 2)
_E_ORDERS = {(1, 2, 2): 51840, (1, 2, 3): 2903040, (1, 2, 4): 696729600}


def _irreducible_order(cartan: Sequence[Sequence[int]], comp: list[int]) -> int | None:
    """Weyl group order of one connected Dynkin diagram, read off its
    type, or None when the diagram is of no finite type.

    Only the bond of each edge (the product of its two Cartan entries:
    1, 2 or 3 for a single, double or triple edge) matters, so B_n and
    C_n are not told apart; both have order 2^n n!."""
    n = len(comp)
    adj: dict[int, list[int]] = {i: [] for i in comp}
    bonds = []
    for i in comp:
        for j in comp:
            if i < j and cartan[i][j]:
                adj[i].append(j)
                adj[j].append(i)
                bonds.append((cartan[i][j] * cartan[j][i], i, j))
    # a connected diagram is a tree exactly when it has n - 1 edges
    if len(bonds) != n - 1 or any(b > 3 for b, _, _ in bonds):
        return None
    multiple = [(b, i, j) for b, i, j in bonds if b > 1]
    branches = [i for i in comp if len(adj[i]) > 2]
    if not branches:
        if not multiple:
            return factorial(n + 1)                     # A_n
        if len(multiple) > 1:
            return None
        b, i, j = multiple[0]
        if b == 3:
            return 12 if n == 2 else None               # G2
        if len(adj[i]) == 1 or len(adj[j]) == 1:
            return 2 ** n * factorial(n)                # B_n, C_n
        return 1152 if n == 4 else None                 # F4
    if multiple or len(branches) > 1 or len(adj[branches[0]]) > 3:
        return None
    arms = []
    for k in adj[branches[0]]:
        prev, length = branches[0], 1
        while len(adj[k]) == 2:
            prev, k = k, next(x for x in adj[k] if x != prev)
            length += 1
        arms.append(length)
    arms.sort()
    if arms[:2] == [1, 1]:
        return 2 ** (n - 1) * factorial(n)              # D_n
    return _E_ORDERS.get(tuple(arms))


def weyl_order_lower_bound(datum: RootDatum) -> int:
    """Product over the Dynkin components of each component's Weyl
    group order.

    A component of finite type contributes its exact order: (n+1)!,
    2^n n!, 2^(n-1) n!, 12, 1152, 51840, 2903040 and 696729600 for A_n,
    B_n/C_n, D_n, G2, F4, E6, E7 and E8.  A component of no finite type
    has an infinite Weyl group and contributes (rank + 1)!, a bound the
    enumeration cap of ``WeylGroup`` then backs up.  So the product is
    the exact order whenever the group is finite."""
    cartan = datum.simple_pairings()
    return prod(_irreducible_order(cartan, c) or factorial(len(c) + 1)
                for c in datum.dynkin_components())


class WeylGroup:
    """Finite Weyl group of a datum, fully enumerated.

    Construction raises ValueError if the order exceeds
    ``MAX_WEYL_ORDER``: at once when ``weyl_order_lower_bound`` already
    does, otherwise as soon as the enumeration passes the cap.  The
    library targets small-rank exact checks, not large-scale Coxeter
    combinatorics.

    A run builds one group, so the sets derived from it are memoised on
    the instance, each filled on first use and held as a tuple: the
    standard parabolic subgroups and the minimal coset representatives,
    keyed by the sorted simple subset, and the character stabilizers and
    the simple-reflection images of (coweight, exponents) pairs, keyed by
    the exponent tuple or pair and the modulus.
    """

    def __init__(self, datum: RootDatum, max_order: int = MAX_WEYL_ORDER):
        bound = weyl_order_lower_bound(datum)
        if bound > max_order:
            raise ValueError(f"Weyl group order is at least {bound}; "
                             f"cap is {max_order}")
        self.datum = datum
        self._simple_pairs = [(_support(datum.roots[k]),
                               _support(datum.coroots[k])) for k in datum.simple]
        # tuple.index raises ValueError on roots not closed under reflection
        simple_perms = [tuple(datum.roots.index(_reflect(b, a, av))
                              for b in datum.roots) for a, av in self._simple_pairs]

        self.identity = WeylElement(tuple(range(len(datum.roots))), ())
        # (w s)(roots[k]) = w(roots[s.perm[k]])
        tree = _closure.closure(
            [self.identity.perm],
            lambda p: enumerate(tuple(p[j] for j in s) for s in simple_perms),
            limit=max_order)
        if len(tree) > max_order:
            raise ValueError(f"Weyl group order is at least {len(tree)}; "
                             f"cap is {max_order}")
        # breadth-first order puts each parent before its children
        self._by_perm: dict[tuple[int, ...], WeylElement] = {}
        for perm, (parent, i) in tree.items():
            up = self._by_perm.get(parent)
            self._by_perm[perm] = self.identity if up is None else WeylElement(
                perm, up.word + (i,))
        self.elements: list[WeylElement] = list(self._by_perm.values())
        # elements[k + 1] = elements[parent] * s_i for (parent, i) = _tree[k]
        position = {perm: k for k, perm in enumerate(tree)}
        self._tree = [(position[p], i) for p, i in list(tree.values())[1:]]
        self._reflections = [self._by_perm[p] for p in simple_perms]
        self._parabolic: dict[tuple[int, ...], tuple[WeylElement, ...]] = {}
        self._coset_reps: dict[tuple[int, ...], tuple[WeylElement, ...]] = {}
        self._stabilizers: dict[tuple[IVec, int], tuple[WeylElement, ...]] = {}
        self._pair_images: dict[tuple[tuple, int], tuple] = {}

    def __len__(self) -> int:
        return len(self.elements)

    def simple_reflection(self, i: int) -> WeylElement:
        return self._reflections[i]

    def mul(self, a: WeylElement, b: WeylElement) -> WeylElement:
        return self._by_perm[tuple(a.perm[j] for j in b.perm)]

    def inv(self, w: WeylElement) -> WeylElement:
        return self._by_perm[tuple(sorted(range(len(w.perm)),
                                          key=w.perm.__getitem__))]

    def act_character(self, w: WeylElement, x: Sequence) -> tuple:
        """w(x): the word's simple reflections, right to left."""
        for i in reversed(w.word):
            x = _reflect(x, *self._simple_pairs[i])
        return tuple(x)

    def act_cocharacter(self, w: WeylElement, lam: Sequence) -> tuple:
        """w(lam): the same, with roots and coroots swapped."""
        for i in reversed(w.word):
            a, av = self._simple_pairs[i]
            lam = _reflect(lam, av, a)
        return tuple(lam)

    def permutation_action(self, size: int, simple: Sequence) -> list[tuple]:
        """For a W-stable set p_0..p_{size-1} with s_i(p_j) = p_simple[i][j],
        the list over ``elements`` of each w's permutation: w(p_j) = p_perm[j].
        As (u s_i)(p_j) = u(p_simple[i][j]), it costs |W| * size lookups."""
        perms = [tuple(range(size))]
        for parent, i in self._tree:
            perms.append(tuple(map(perms[parent].__getitem__, simple[i])))
        return perms

    def word_element(self, word: Iterable[int]) -> WeylElement:
        acc = self.identity
        for i in word:
            acc = self.mul(acc, self.simple_reflection(i))
        return acc

    def subgroup_elements(self, simple_subset: Iterable[int]
                          ) -> tuple[WeylElement, ...]:
        """All elements of the standard parabolic subgroup generated by
        the simple reflections at the given positions, by length and
        then word; memoised."""
        key = tuple(sorted(set(simple_subset)))
        if key not in self._parabolic:
            gens = [self.simple_reflection(i) for i in key]
            seen = _closure.closure(
                [self.identity], lambda w: ((g, self.mul(w, g)) for g in gens))
            self._parabolic[key] = tuple(sorted(seen, key=_length_word))
        return self._parabolic[key]

    def minimal_coset_representatives(self, theta: Iterable[int]
                                      ) -> tuple[WeylElement, ...]:
        """The minimal representatives ``v`` of the cosets ``W_theta v``
        (``coset_split_minimal`` of every element), by length and then
        word; memoised.  The minimal representative of a coset is
        unique, so the order of ``theta`` does not matter."""
        key = tuple(sorted(set(theta)))
        if key not in self._coset_reps:
            reps = {coset_split_minimal(self, w, key)[1] for w in self.elements}
            self._coset_reps[key] = tuple(sorted(reps, key=_length_word))
        return self._coset_reps[key]

    def character_stabilizer(self, components: Sequence[int], modulus: int
                             ) -> tuple[WeylElement, ...]:
        """Elements whose character action fixes the exponent tuple mod
        ``modulus``, in enumeration order; memoised.  Closure is proven
        by ``is_subgroup`` when the set is first built."""
        comps = tuple(c % modulus for c in components)
        key = (comps, modulus)
        if key not in self._stabilizers:
            images = ((w, self.act_character(w, comps)) for w in self.elements)
            stab = tuple(w for w, img in images
                         if tuple(c % modulus for c in img) == comps)
            # a stabilizer is a subgroup when act_character is an action,
            # as words of one root permutation act alike (the roots span
            # what the reflections move): only a broken one reaches this
            if not self.is_subgroup(stab):
                raise AssertionError("stabilizer is not closed")
            self._stabilizers[key] = stab
        return self._stabilizers[key]

    def simple_pair_images(self, pair: tuple[Sequence, Sequence], modulus: int
                           ) -> tuple[tuple[IVec, IVec], ...]:
        """The image of (coweight, exponents) under each simple reflection,
        the exponents reduced mod ``modulus``: ``act_cocharacter`` and
        ``act_character`` of each one-letter word; memoised."""
        key = (pair, modulus)
        images = self._pair_images.get(key)
        if images is None:
            lam, chi = pair
            images = self._pair_images[key] = tuple(
                (_reflect(lam, av, a),
                 tuple(c % modulus for c in _reflect(chi, a, av)))
                for a, av in self._simple_pairs)
        return images

    def is_subgroup(self, subset: Iterable[WeylElement]) -> bool:
        """Whether ``subset`` is a subgroup, proven on a greedy
        generating set by ``_closure.generators``."""
        return _closure.generators(subset, self.mul, self.identity) is not None

    def orbit_cocharacter(self, lam: Sequence) -> set[tuple]:
        return set(_closure.closure(
            [tuple(lam)],
            lambda v: ((i, _reflect(v, av, a))
                       for i, (a, av) in enumerate(self._simple_pairs))))

    def dominant_in_orbit(self, lam: Sequence) -> tuple:
        doms = [v for v in self.orbit_cocharacter(lam)
                if self.datum.is_dominant_coweight(v)]
        if len(doms) != 1:
            raise AssertionError("orbit must contain exactly one dominant point")
        return doms[0]


def _length_word(w: WeylElement) -> tuple[int, tuple[int, ...]]:
    return w.length, w.word


def coset_split_minimal(group: WeylGroup, w: WeylElement,
                        theta: Sequence[int]) -> tuple[WeylElement, WeylElement]:
    """Write ``w = u * v`` with ``u`` in the standard parabolic subgroup
    for ``theta`` (positions into the simple list) and ``v`` the minimal
    representative of its coset: ``s v`` is longer than ``v`` for every
    theta-simple ``s``.  Lengths add up."""
    u = group.identity
    v = w
    while True:
        for i in theta:
            s = group.simple_reflection(i)
            sv = group.mul(s, v)
            if sv.length < v.length:
                v = sv
                u = group.mul(u, s)
                break
        else:
            return u, v
