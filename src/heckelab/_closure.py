"""The one breadth-first closure (groups, Weyl groups, orbits, root
systems) and the one greedy generating set of a finite subgroup."""
from __future__ import annotations

from typing import Callable, Hashable, Iterable, TypeVar

P = TypeVar("P", bound=Hashable)


def closure(seeds: Iterable[P], step: Callable[[P], Iterable[tuple[object, P]]],
            limit: int | None = None) -> dict[P, tuple[P | None, object]]:
    """Map every point reachable from ``seeds`` to ``(parent, label)``,
    where ``(label, point)`` is the first pair ``step(parent)`` yielded
    that reached it; seeds map to ``(None, None)``.

    The dict is in breadth-first order of discovery, the order a
    level-by-level search makes: the seeds, then their neighbours in the
    order ``step`` yields them, and so on, so each parent precedes its
    children.  With ``limit``, stop as soon as a new point makes more
    than ``limit`` points: from at most ``limit`` seeds the result holds
    ``limit + 1`` points exactly when the closure is larger than
    ``limit``."""
    tree = dict.fromkeys(seeds, (None, None))
    queue = list(tree)
    # the loop reads the points appended to the queue while it runs
    for x in queue:
        for label, y in step(x):
            if y not in tree:
                tree[y] = (x, label)
                queue.append(y)
                if limit is not None and len(tree) > limit:
                    return tree
    return tree


def generators(members: Iterable[P], mul: Callable[[P, P], P],
               identity: P) -> list[P] | None:
    """Greedy generating set S of ``members`` in a finite group, or None
    when they are not a subgroup, with at most |members| * |S| products.

    Walk the members in order and add to S each one that the span (the
    closure of {identity} under right multiplication by S) does not yet
    hold.  A product outside the members disproves closure at once.
    Otherwise the members are the span, the monoid generated by S, and
    as each g has g^k = e for some k >= 1, g^-1 = g^(k-1) lies in it:
    the members form a subgroup."""
    members = list(members)
    inside = set(members)
    if identity not in inside:
        return None
    span, gens = {identity}, []
    for g in members:
        if g in span:
            continue
        gens.append(g)
        # old span elements still lack the product with g; new ones
        # need every generator
        pending = [(w, (g,)) for w in span]
        while pending:
            w, by = pending.pop()
            for s in by:
                nxt = mul(w, s)
                if nxt not in inside:
                    return None
                if nxt not in span:
                    span.add(nxt)
                    pending.append((nxt, gens))
    return gens
