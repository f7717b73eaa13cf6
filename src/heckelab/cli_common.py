"""The vocabulary that ``heckelab.cli`` and its runners share.

Each subcommand's runner lives in its own module (``cli_rootdatum``,
``cli_heart_check``, ...), which ``cli`` imports only when that
subcommand runs.  The runners and ``cli`` meet here: the input error
(``CLIError``, exit code 2), the check statuses, the enumeration caps,
the report records, the datum and catalog loaders and the exact input
parsers.  No runner imports ``heckelab.cli``: under ``python -m
heckelab.cli`` that file runs as ``__main__``, so importing it by name
would compile and run it a second time.
"""
from __future__ import annotations

import os
import re
from fractions import Fraction as Q
from typing import TYPE_CHECKING

from ._record import Record, _set

if TYPE_CHECKING:
    from .root_datum import RootDatum, WeylGroup

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"

# enumeration guards: requests above these sizes are refused up front
# with an explicit cap error instead of grinding or exhausting memory
MAX_TORUS_PAIRS = 50_000
# weight of an iwahori-center truncation: 1 + sum_i |<lambda, alpha_i>|
# summed over its orbit-closed labels lambda, the columns of its Satake
# matrix (iwahori_hecke.label_weight).  Runs under the cap take about
# 1 s each as a fresh process on a shared 2-vCPU x86-64 host (CPython
# 3.11): gl4 R=2 (625 labels, weight 3625) 0.8 s, b3 R=2 (725, 7259)
# 1.0 s, c3 R=2 (725, 7265) 0.9-1.2 s, g2 R=7 (673, 14113) 1.1 s, a1
# R=120 (241, 14761) 0.8-0.9 s.  a1 R=200 (401 labels, weight 40601) is
# refused
MAX_HECKE_WEIGHT = 15_000
# spade-check work, n^2 (n + partitions) for rank n.  It admits GL8 over
# all 127 partitions and GL21 with one, each about 0.6 s on a shared
# 2-vCPU host.  It bounds the rank only: a point count too long to print
# in decimal under CPython's 4300-digit limit on int-to-str conversion
# is flagged as a product of prime powers
MAX_SPADE_WORK = 10_000


class CLIError(Exception):
    """Configuration or input-file problem; maps to exit code 2."""


# ---------------------------------------------------------------------------
# exact input parsing
# ---------------------------------------------------------------------------

# ASCII digits only, as in parse_index_list: \d matches other digits too
_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(?:/[1-9][0-9]*)?$")


def parse_rational(text: str) -> Q:
    token = text.strip()
    if not _RATIONAL_RE.match(token):
        raise CLIError(f"not an exact rational (use p/q or an integer): {text!r}")
    return Q(token)


def parse_rational_vector(text: str) -> tuple[Q, ...]:
    parts = [p for p in text.split(",") if p.strip() != ""]
    if not parts:
        raise CLIError(f"empty coordinate list: {text!r}")
    return tuple(parse_rational(p) for p in parts)


def parse_index_list(text: str) -> tuple[int, ...]:
    out = []
    for p in text.split(","):
        p = p.strip()
        if p == "":
            continue
        if not (p.isascii() and p.isdigit()):
            raise CLIError(f"indices must be non-negative integers: {text!r}")
        out.append(int(p))
    return tuple(sorted(set(out)))


def parse_partition(text: str) -> tuple[tuple[int, ...], ...]:
    blocks = []
    for chunk in text.split("|"):
        block = parse_index_list(chunk)
        if not block:
            raise CLIError(f"empty block in partition: {text!r}")
        blocks.append(block)
    if not blocks:
        raise CLIError(f"empty partition: {text!r}")
    return tuple(blocks)


# ---------------------------------------------------------------------------
# datum registry and file loading
# ---------------------------------------------------------------------------

def _read_json(source: str, what: str):
    # imported here: the survey script reads only the parsers
    import json
    try:
        with open(source) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise CLIError(f"{source}: invalid JSON at line {exc.lineno} "
                       f"column {exc.colno}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise CLIError(f"{source}: cannot read {what} file: {exc}") from exc


def load_datum(source: str, max_weyl_order: int | None = None) -> RootDatum:
    """The datum named in the registry, or described by a JSON file; a
    general-linear size above ``max_weyl_order`` is refused before any
    root is built."""
    from .root_datum import REGISTRY, datum_from_config
    cfg = REGISTRY.get(source.lower())
    if cfg is None:
        if not os.path.exists(source):
            names = ", ".join(sorted(REGISTRY))
            raise CLIError(f"unknown datum {source!r}; registry names are "
                           f"{names}, or pass a JSON file path")
        cfg = _read_json(source, "datum")
    try:
        return datum_from_config(cfg, max_weyl_order)
    except ValueError as exc:
        raise CLIError(f"{source}: bad datum description: {exc}") from exc


def load_group(source: str) -> WeylGroup:
    """The Weyl group of the datum at ``source``, built once for the
    whole run; a group above the order cap is an input error."""
    from .root_datum import MAX_WEYL_ORDER, WeylGroup
    datum = load_datum(source, MAX_WEYL_ORDER)
    try:
        return WeylGroup(datum)
    except ValueError as exc:
        raise CLIError(f"{source}: {exc}") from exc


def load_models(source: str):
    from .catalog import build_catalog, catalog_from_json
    if source == "builtin":
        return build_catalog()
    data = _read_json(source, "catalog")
    try:
        return catalog_from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise CLIError(f"{source}: bad catalog entry: {exc}") from exc


# ---------------------------------------------------------------------------
# report structures
# ---------------------------------------------------------------------------

class CheckRecord(Record):
    __slots__ = _compared = ("name", "status", "witness")

    def __init__(self, name: str, status: str, witness: dict | None = None):
        if status not in (PASS, FAIL, SKIPPED):
            raise ValueError(f"bad status {status!r}")
        if status == FAIL and witness is None:
            raise ValueError("FAIL requires a witness")
        _set(self, "name", name)
        _set(self, "status", status)
        _set(self, "witness", witness)

    @classmethod
    def of(cls, name: str, ok: bool, witness: dict | None) -> CheckRecord:
        """The verdict of one check: PASS with no witness when ok holds,
        otherwise FAIL carrying the witness."""
        return cls(name, PASS) if ok else cls(name, FAIL, witness)


class VerificationReport(Record):
    __slots__ = _compared = ("suite", "checks", "data", "wall_time_s")

    def __init__(self, suite: str, checks: tuple[CheckRecord, ...],
                 data: dict | None = None, wall_time_s: float = 0.0):
        _set(self, "suite", suite)
        _set(self, "checks", checks)
        _set(self, "data", {} if data is None else data)
        _set(self, "wall_time_s", wall_time_s)

    @property
    def counts(self) -> tuple[int, int, int]:
        statuses = [c.status for c in self.checks]
        return tuple(statuses.count(s) for s in (PASS, FAIL, SKIPPED))

    @property
    def exit_code(self) -> int:
        return 1 if any(c.status == FAIL for c in self.checks) else 0
