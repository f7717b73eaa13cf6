"""``heckelab spade-check``: check the block triangular factorizations
of a general-linear filtration group, analytically and by exhaustive
enumeration in exact Python ints."""
from __future__ import annotations

import itertools
from fractions import Fraction as Q

from .cli_common import (MAX_SPADE_WORK, CheckRecord, CLIError,
                         VerificationReport, load_datum)
from .padic_groups import from_filtration, iwahori_factorization_check


def _standard_partitions(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """All contiguous block partitions of 0..n-1 with at least two
    blocks (proper standard parabolics)."""
    out = []
    for cuts in itertools.chain.from_iterable(
            itertools.combinations(range(1, n), k) for k in range(1, n)):
        edges = (0,) + cuts + (n,)
        out.append(tuple(tuple(range(edges[i], edges[i + 1]))
                         for i in range(len(edges) - 1)))
    return out


def run(*, datum: str, x: tuple[Q, ...], r: Q,
        partition: tuple[tuple[int, ...], ...] | None,
        convention: str, require_exhaustive: bool) -> VerificationReport:
    # --x has one coordinate per row, so the work is bounded before the
    # datum, whose roots alone take O(n^3) to build, is loaded
    n = len(x)
    count = 1 if partition is not None else 2 ** (n - 1) - 1
    if n * n * (n + count) > MAX_SPADE_WORK:
        over = ("one partition" if partition is not None
                else f"all 2^{n - 1} - 1 partitions")
        raise CLIError(f"spade-check of rank {n} over {over} exceeds the "
                       f"work cap n^2 (n + partitions) <= {MAX_SPADE_WORK}")
    datum = load_datum(datum)
    if not datum.is_general_linear:
        raise CLIError("spade-check needs a general-linear datum "
                       "(integral matrix model required)")
    if len(x) != datum.ambient_rank:
        raise CLIError(f"--x needs {datum.ambient_rank} coordinates")
    if r <= 0:
        raise CLIError("--r must be positive")
    try:
        K = from_filtration(datum, x, r)
    except ValueError as exc:
        raise CLIError(str(exc)) from exc
    if partition is not None:
        order = [i for b in partition for i in b]
        if sorted(order) != list(range(n)):
            raise CLIError(f"partition must cover rows 0..{n - 1} once")
        if order != list(range(n)):
            raise CLIError("partition blocks must be runs of consecutive "
                           "rows in increasing order")
        partitions = [partition]
    else:
        partitions = _standard_partitions(n)
    # a one-block partition factors through trivial L and U: vacuous
    if not partitions or len(partitions[0]) < 2:
        raise CLIError("spade-check needs a partition with at least two "
                       "blocks")

    checks = []
    rows = []
    for blocks in partitions:
        rep = iwahori_factorization_check(K, blocks, convention=convention)
        label = "|".join(",".join(str(i) for i in b) for b in blocks)
        good = rep.fully_verified if require_exhaustive else rep.passed
        witness = {
            "analytic_match": rep.analytic_match,
            "exhaustive": [[p, v] for p, v in rep.exhaustive],
            "flags": list(rep.flags),
        }
        rows.append({"partition": [list(b) for b in blocks], **witness})
        checks.append(CheckRecord.of(f"factorization blocks={label}", good,
                                     witness))
    data = {
        "datum": datum.label,
        "x": list(x),
        "r": str(r),
        "bounds": K.to_lists(),
        "convention": convention,
        "partitions": rows,
    }
    return VerificationReport("spade-check", tuple(checks), data)
