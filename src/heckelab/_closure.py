"""The one breadth-first closure: groups, Weyl groups, orbits, root systems."""
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
