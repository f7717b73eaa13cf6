"""Command-line verification frontend.

Each subcommand wraps one library suite, parses all numeric input
exactly (integers or "p/q" strings, never floats), and prints a report
in text or JSON form.  Reports share one shape: a suite name, a list
of named checks with status PASS / FAIL / SKIPPED (FAIL always carries
a witness payload; ``CheckRecord.of`` builds each verdict), optional
suite data, and a wall time.  The process exits 0 exactly when no
check failed, 2 on configuration errors.  Each runner takes its
subcommand's parsed flags as keyword arguments, under their argparse
names; argparse alone holds their defaults and required flags.  The
mathematics stays in the library: heart-check escalates a threshold
mismatch through ``padic_groups.compare_levi_volumes``, the comparison
that acceptance criterion 2 uses too.  No suite and not ``root_datum``
is imported with this module: the datum loaders and each subcommand
import what they use when they run, so a process loads what its
subcommand uses, and ``clifford`` loads no root datum.  Every exhaustive check
runs in exact Python ints: no subcommand loads numpy.

Input schemas (also documented in the README):
  datum        registry name (a1, a2, a3, b2, b3, c2, c3, g2, gl1,
               gl2, gl3, gl4) or a JSON file, in the one schema that
               root_datum.datum_from_config reads: either
               {"cartan": [[2,-1],[-1,2]], "central_rank": 0,
                "label": "A2"} (central_rank and label optional) or
               {"general_linear": 3}; every number an integer, no
               other key.  A datum whose Weyl group order is above
               the cap of 10080, or a Cartan description of ambient
               rank above 128, is an input error; a general_linear
               size is refused from n! before any root is built.  The
               label is free text: a datum is general-linear (and has
               an integral matrix model) when its roots are exactly
               the e_i - e_j and its coroots equal its roots.
  x            comma-separated rationals, e.g. "1/2,0,0"
  theta        comma-separated 0-based simple-root indices, e.g. "1"
  partition    0-based row blocks separated by "|", e.g. "0|1,2"
  catalog      "builtin" or a JSON file in the shipped catalog format
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import sys
import time
from fractions import Fraction as Q
from typing import TYPE_CHECKING, Any, Callable, Sequence

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


def _json_text(value: Any) -> str:
    """``json.dumps(value, indent=2, ensure_ascii=False, default=str)``,
    which runs CPython's pure-Python encoder when indenting.  Exact str,
    int, None, list, tuple and str-keyed dict are written here; every
    other value goes to ``json.dumps`` and its newlines are re-indented,
    which is exact because JSON escapes every newline inside a string."""
    quote = json.encoder.encode_basestring
    out: list[str] = []

    def emit(o: Any, pad: str) -> None:  # pad: newline and indent
        t = type(o)
        if t is str:
            out.append(quote(o))
        elif t is int:
            out.append(str(o))
        elif o is None:
            out.append("null")
        elif t is list or t is tuple:
            inner = pad + "  "
            if not o:
                out.append("[]")
            elif all(type(x) is int for x in o):
                out.append(f"[{inner}{f',{inner}'.join(map(str, o))}{pad}]")
            else:
                sep = "[" + inner
                for x in o:
                    out.append(sep)
                    emit(x, inner)
                    sep = "," + inner
                out.append(pad + "]")
        elif t is dict and all(type(k) is str for k in o):
            inner = pad + "  "
            sep = "{" + inner
            for k, x in o.items():
                out.append(f"{sep}{quote(k)}: ")
                emit(x, inner)
                sep = "," + inner
            out.append(pad + "}" if o else "{}")
        else:
            out.append(json.dumps(o, indent=2, ensure_ascii=False,
                                  default=str).replace("\n", pad))

    emit(value, "\n")
    return "".join(out)


def render_report(report: VerificationReport, fmt: str) -> str:
    if fmt == "json":
        ps, fs, ss = report.counts
        payload = {
            "suite": report.suite,
            "checks": [{"name": c.name, "status": c.status,
                        "witness": c.witness}
                       for c in report.checks],
            "data": report.data,
            "summary": {"passed": ps, "failed": fs, "skipped": ss},
            "wall_time_s": round(report.wall_time_s, 6),
        }
        # default=str writes each Fraction as "p/q"
        return _json_text(payload)
    lines = [f"suite: {report.suite}"]
    for c in report.checks:
        lines.append(f"{c.status:7s} {c.name}")
        if c.status != PASS and c.witness:
            packed = json.dumps(c.witness, ensure_ascii=False, default=str)
            lines.append(f"        witness: {packed}")
    for key in ("verdict", "obstruction", "dimension", "center_dimension"):
        if key in report.data:
            lines.append(f"{key}: {report.data[key]}")
    if "basis" in report.data:
        labels = ", ".join(t["label"] for t in report.data["basis"])
        lines.append(f"basis: {{{labels}}}")
    ps, fs, ss = report.counts
    lines.append(f"summary: {ps} passed, {fs} failed, {ss} skipped "
                 f"({report.wall_time_s:.2f}s)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# shared math plumbing
# ---------------------------------------------------------------------------

def _escalate_mismatch(group: WeylGroup, x, r, theta: Sequence[int],
                       witnesses) -> dict:
    """Upgrade a threshold mismatch to a volume obstruction: compare the
    theta-Levi block volumes of the integral models at x and at each
    mismatching Weyl image.  DISTINCT_VOLUME on any block proves the
    Levi intersections are not Levi-conjugate.

    Only the model at x can be refused.  On general-linear data a Weyl
    element permutes the coordinates, so the model at its image of x is
    the model at x conjugated by a permutation matrix: the same bounds,
    permuted, and none of them negative when none at x is."""
    from .padic_groups import compare_levi_volumes, from_filtration
    datum = group.datum
    if not datum.is_general_linear:
        return {"status": SKIPPED,
                "reason": "no integral matrix model for this datum"}
    try:
        base = from_filtration(datum, x, r)
    except ValueError as exc:
        return {"status": SKIPPED, "reason": str(exc)}
    per_image = []
    proven = False
    # ordered by str of w's integer cocharacter matrix (columns: w(e_j))
    n = datum.ambient_rank
    basis = [[int(i == j) for i in range(n)] for j in range(n)]
    for w in sorted(dict.fromkeys(wit.w2 for wit in witnesses), key=lambda w: str(
            tuple(zip(*(group.act_cocharacter(w, e) for e in basis))))):
        moved = from_filtration(datum, group.act_cocharacter(w, x), r)
        levi = compare_levi_volumes(base, moved, theta)
        proven = proven or levi.status == "DISTINCT_VOLUME"
        per_image.append({
            "weyl_word": list(w.word),
            "levi_intersection_at_x": levi.at_x.to_lists(),
            "levi_intersection_at_image": levi.at_image.to_lists(),
            "blocks": [{"block": list(b), "obstruction": v}
                       for b, v in levi.blocks],
        })
    out = {
        "status": "DISTINCT_VOLUME" if proven else "INCONCLUSIVE",
        "route": "levi-volume-comparison",
        "images": per_image,
    }
    if proven:
        out["verdict"] = f"G_{{x,{r}}} ∉ K^♥(S,G)"
    return out


# ---------------------------------------------------------------------------
# subcommand: rootdatum
# ---------------------------------------------------------------------------

def _run_rootdatum(*, datum: str) -> VerificationReport:
    group = load_group(datum)
    datum = group.datum
    checks = []

    bad_pairs = [k for k in range(len(datum.roots))
                 if datum.pairing(datum.roots[k], datum.coroots[k]) != 2]
    checks.append(CheckRecord.of("root-coroot-pairing-two", not bad_pairs,
                                 {"root_indices": bad_pairs}))

    # load_group has already built the WeylGroup, whose constructor
    # raises ValueError (tuple.index) on roots not closed under the
    # simple reflections, so this check cannot fail on a loaded datum;
    # it stays as the report's record of closure
    root_set = set(datum.roots)
    broken = []
    for i_pos, i in enumerate(datum.simple):
        s = group.simple_reflection(i_pos)
        for a in datum.roots:
            if group.act_character(s, a) not in root_set:
                broken.append({"simple": i_pos, "root": list(a)})
    checks.append(CheckRecord.of("reflection-closure", not broken,
                                 {"escaped": broken}))

    data = {
        "label": datum.label,
        "ambient_rank": datum.ambient_rank,
        "semisimple_rank": datum.semisimple_rank,
        "root_count": len(datum.roots),
        "roots": [list(a) for a in datum.roots],
        "coroots": [list(a) for a in datum.coroots],
        "simple_indices": list(datum.simple),
        "cartan_matrix": datum.simple_pairings(),
        "weyl_order": len(group),
        "fundamental_coweights": [[str(c) for c in w]
                                  for w in datum.fundamental_coweights()],
    }
    return VerificationReport("rootdatum", tuple(checks), data)


# ---------------------------------------------------------------------------
# subcommand: heart-check
# ---------------------------------------------------------------------------

def _run_heart_check(*, datum: str, x: tuple[Q, ...], r: Q,
                     theta: tuple[int, ...] | None) -> VerificationReport:
    from .apartment import classify_point, heart_condition1_check
    group = load_group(datum)
    datum = group.datum
    if len(x) != datum.ambient_rank:
        raise CLIError(f"--x needs {datum.ambient_rank} coordinates "
                       f"for datum {datum.label}")
    if r <= 0:
        raise CLIError("--r must be positive")
    m = datum.semisimple_rank
    if theta is not None and any(t >= m for t in theta):
        raise CLIError(f"theta indices must be < {m}")
    subsets = [theta] if theta is not None else [
        tuple(c) for size in range(m + 1)
        for c in itertools.combinations(range(m), size)]

    checks = []
    data: dict[str, Any] = {
        "datum": datum.label,
        "x": list(x),
        "r": str(r),
        "point_kind": classify_point(datum, x).kind,
    }
    for subset in subsets:
        verdict = heart_condition1_check(group, x, r, subset)
        name = f"condition-1 theta={list(subset)}"
        if verdict.proven:
            checks.append(CheckRecord(name, PASS))
            continue
        witness = {
            "status": verdict.status,
            "mismatches": [{
                "weyl_word": list(w.w2.word),
                "root": list(w.root),
                "threshold_at_x": w.threshold_at_x,
                "threshold_at_image": w.threshold_at_image,
            } for w in verdict.witnesses],
            "escalation": _escalate_mismatch(group, x, r, subset,
                                             verdict.witnesses),
        }
        checks.append(CheckRecord(name, FAIL, witness))
        esc = witness["escalation"]
        if esc["status"] == "DISTINCT_VOLUME":
            data["obstruction"] = "DISTINCT_VOLUME"
            data["verdict"] = esc["verdict"]
    if all(c.status == PASS for c in checks):
        data["verdict"] = "PROVEN_CONDITION_1"
    return VerificationReport("heart-check", tuple(checks), data)


# ---------------------------------------------------------------------------
# subcommand: counterexample
# ---------------------------------------------------------------------------

# hand evaluation of ceil(r - a(x)) at x = (1/2, 0, 0), r = 1, for the
# nine general-linear bound slots, and of the two Levi restrictions
_EXPECTED_GROUP = ((1, 1, 1), (2, 1, 1), (2, 1, 1))
_EXPECTED_CONJ = ((1, 2, 1), (1, 1, 1), (1, 2, 1))
_EXPECTED_LEVI = ((1, None, None), (None, 1, 1), (None, 1, 1))
_EXPECTED_CONJ_LEVI = ((1, None, None), (None, 1, 1), (None, 2, 1))


def _run_counterexample() -> VerificationReport:
    from .apartment import heart_condition1_check
    from .padic_groups import (block_of, brute_point_count,
                               compare_levi_volumes, conjugate_by_permutation,
                               from_filtration, iwahori_scheme, log_volume,
                               point_count)
    from .root_datum import WeylGroup, datum_general_linear
    datum = datum_general_linear(3)
    group = WeylGroup(datum)
    x = (Q(1, 2), Q(0), Q(0))
    r = Q(1)
    theta = (1,)

    base = from_filtration(datum, x, r)
    # route 1: permutation conjugation; route 2: reflected point
    swapped = conjugate_by_permutation(base, (1, 0, 2))
    s0 = group.simple_reflection(0)
    reflected = from_filtration(datum, group.act_cocharacter(s0, x), r)
    levi_volumes = compare_levi_volumes(base, swapped, theta)
    levi, conj_levi = levi_volumes.at_x, levi_volumes.at_image

    def matrix_check(name, K, expected):
        return CheckRecord.of(name, K.bounds == expected,
                              {"computed": K.to_lists()})

    checks = [
        matrix_check("filtration-group-matrix", base, _EXPECTED_GROUP),
        CheckRecord.of("conjugation-route-agreement",
                       swapped.bounds == reflected.bounds,
                       {"permutation_route": swapped.to_lists(),
                        "reflection_route": reflected.to_lists()}),
        matrix_check("conjugated-group-matrix", swapped, _EXPECTED_CONJ),
        matrix_check("levi-intersection-matrix", levi, _EXPECTED_LEVI),
        matrix_check("conjugated-levi-intersection-matrix", conj_levi,
                     _EXPECTED_CONJ_LEVI),
    ]

    # the 2x2 blocks: principal congruence group vs pro-unipotent radical
    principal = block_of(levi, (1, 2))
    pro_unipotent = block_of(conj_levi, (1, 2))
    iwahori = iwahori_scheme(2)
    vol_k = log_volume(principal, iwahori)
    vol_i = log_volume(pro_unipotent, iwahori)
    checks.append(CheckRecord.of("index-principal-congruence",
                                 str(vol_k) == "q*(q-1)^2",
                                 {"computed": str(vol_k)}))
    checks.append(CheckRecord.of("index-pro-unipotent",
                                 str(vol_i) == "q^2*(q-1)^2",
                                 {"computed": str(vol_i)}))

    count_rows = []
    for p in (2, 3):
        whole = brute_point_count(iwahori, p, 2)
        small = brute_point_count(principal, p, 2)
        tiny = brute_point_count(pro_unipotent, p, 2)
        ratio_k, rem_k = divmod(whole, small)
        ratio_i, rem_i = divmod(whole, tiny)
        ok = (rem_k == 0 and rem_i == 0
              and ratio_k == p * (p - 1) ** 2
              and ratio_i == p ** 2 * (p - 1) ** 2
              and whole == point_count(iwahori, p, 2))
        row = {"p": p, "iwahori_points": whole,
               "principal_index": ratio_k, "pro_unipotent_index": ratio_i}
        count_rows.append(row)
        checks.append(CheckRecord.of(f"point-count-cross-check-p{p}", ok, row))

    verdict = heart_condition1_check(group, x, r, theta)
    checks.append(CheckRecord.of("threshold-mismatch-reproduced",
                                 verdict.status == "MISMATCH",
                                 {"status": verdict.status}))

    obstruction = dict(levi_volumes.blocks)[(1, 2)]
    checks.append(CheckRecord.of("volume-obstruction",
                                 obstruction == "DISTINCT_VOLUME",
                                 {"obstruction": obstruction}))

    failed = any(c.status == FAIL for c in checks)
    data = {
        "datum": "GL3",
        "x": list(x),
        "r": str(r),
        "theta": list(theta),
        "reflection_word": list(s0.word),
        "permutation": [1, 0, 2],
        "matrices": {
            "filtration_group": base.to_lists(),
            "conjugated_group": swapped.to_lists(),
            "levi_intersection": levi.to_lists(),
            "conjugated_levi_intersection": conj_levi.to_lists(),
        },
        "indices": {
            "principal_congruence_in_iwahori": str(vol_k),
            "pro_unipotent_in_iwahori": str(vol_i),
        },
        "point_counts": count_rows,
        "obstruction": obstruction,
    }
    if not failed:
        data["verdict"] = f"G_{{x,{r}}} ∉ K^♥(S,G)"
    return VerificationReport("counterexample", tuple(checks), data)


# ---------------------------------------------------------------------------
# subcommand: spade-check
# ---------------------------------------------------------------------------

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


def _run_spade_check(*, datum: str, x: tuple[Q, ...], r: Q,
                     partition: tuple[tuple[int, ...], ...] | None,
                     convention: str, require_exhaustive: bool
                     ) -> VerificationReport:
    from .padic_groups import from_filtration, iwahori_factorization_check
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


# ---------------------------------------------------------------------------
# subcommand: clifford
# ---------------------------------------------------------------------------

# the verdict of each --check mode but "all", which reads "passed"
_CLIFFORD_VERDICTS = {"transfer": "equal", "center": "equal",
                      "commutativity": "coincide"}


def _clifford_checks(records, mode: str) -> list[CheckRecord]:
    checks = []
    for rec in records:
        name = f"entry {rec['name']}"
        if rec["transfer"]["status"] == SKIPPED:
            checks.append(CheckRecord(
                name, SKIPPED,
                {"hypothesis_failures": rec["transfer"]["failures"]}))
            continue
        key = _CLIFFORD_VERDICTS.get(mode)
        good = rec["passed"] if key is None else rec[mode][key] is True
        checks.append(CheckRecord.of(name, good, rec))
    return checks


def _run_clifford(*, catalog: str, check: str, quick: bool,
                  emit_catalog: str | None) -> VerificationReport:
    from .catalog import evaluate_catalog, write_catalog
    if emit_catalog is not None:
        try:
            n = write_catalog(emit_catalog)
        except OSError as exc:
            raise CLIError(f"{emit_catalog}: cannot write catalog "
                           f"file: {exc}") from exc
        return VerificationReport(
            "clifford",
            (CheckRecord("catalog-written", PASS),),
            {"path": emit_catalog, "entries": n})
    models = load_models(catalog)
    if quick:
        models = [m for m in models if m.group.order <= 32]
    records = evaluate_catalog(models)
    checks = _clifford_checks(records, check)
    data = {
        "catalog": catalog,
        "mode": check,
        "entries": records,
    }
    return VerificationReport("clifford", tuple(checks), data)


# ---------------------------------------------------------------------------
# subcommand: torus-center
# ---------------------------------------------------------------------------

def _run_torus_center(*, datum: str, q: int, radius: int,
                      check: str) -> VerificationReport:
    from .torus_center import (invariant_dimension, orbits, residue_modulus,
                               roc_decomposition_check)
    group = load_group(datum)
    datum = group.datum
    if radius < 0:
        raise CLIError("--radius must be >= 0")
    # first: the prime-power test of q trial-divides up to q, and the
    # estimate below is 1 for a rank-0 datum whatever q is
    if q - 1 > MAX_TORUS_PAIRS:
        raise CLIError(f"--q {q} has q - 1 = {q - 1} residue characters "
                       f"per coordinate; cap is {MAX_TORUS_PAIRS}")
    rank = datum.ambient_rank
    pairs = (max(q - 1, 1) ** rank) * ((2 * radius + 1) ** rank)
    if pairs > MAX_TORUS_PAIRS:
        raise CLIError(f"requested truncation enumerates about {pairs} "
                       f"lattice-character pairs; cap is {MAX_TORUS_PAIRS}")
    try:
        modulus = residue_modulus(q)
    except ValueError as exc:
        raise CLIError(str(exc)) from exc
    orbit_list = orbits(group, radius, modulus=modulus)

    checks = []
    orbit_rows = []
    for idx, osum in enumerate(orbit_list):
        lam0, chi0 = osum.orbit[0]
        row = {
            "representative": {"coweight": list(lam0),
                               "character": list(chi0)},
            "size": len(osum.orbit),
            "members": [{"coweight": list(lam), "character": list(chi)}
                        for lam, chi in osum.orbit],
            "stabilizer_order": len(group.character_stabilizer(chi0, modulus)),
        }
        if check in ("roc", "all"):
            rep = roc_decomposition_check(group, osum)
            row["blocks"] = {
                "characters": [list(c) for c in rep.block_characters],
                "sizes": list(rep.block_sizes),
            }
            checks.append(CheckRecord.of(
                f"orbit-{idx}-block-decomposition", rep.ok,
                {"failures": list(rep.failures),
                 "representative": row["representative"]}))
        orbit_rows.append(row)

    data = {
        "datum": datum.label,
        "q": q,
        "radius": radius,
        "orbit_count": len(orbit_list),
        "orbits": orbit_rows,
    }
    if check in ("dimension", "all"):
        try:
            dim = invariant_dimension(group, orbit_list)
            checks.append(CheckRecord("invariant-dimension-three-way", PASS))
            data["dimension"] = dim
        except AssertionError as exc:
            checks.append(CheckRecord("invariant-dimension-three-way", FAIL,
                                      {"error": str(exc)}))
    return VerificationReport("torus-center", tuple(checks), data)


# ---------------------------------------------------------------------------
# subcommand: iwahori-center
# ---------------------------------------------------------------------------

def _term_label(lam, w) -> str:
    if all(c == 0 for c in lam) and not w.word:
        return "T_e"
    theta_part = f"th({','.join(str(c) for c in lam)})"
    if not w.word:
        return theta_part
    return f"{theta_part}*T[{','.join(str(i) for i in w.word)}]"


def _run_iwahori_center(*, datum: str, radius: int) -> VerificationReport:
    from .iwahori_hecke import label_orbits, label_weight, satake_check
    group = load_group(datum)
    datum = group.datum
    if radius < 0:
        raise CLIError("--radius must be >= 0")
    # the box is a subset of its orbit closure and each label weighs at
    # least 1: refuse a large box before enumerating any orbit
    weight = (2 * radius + 1) ** datum.ambient_rank
    if weight <= MAX_HECKE_WEIGHT:
        closed = label_orbits(group, radius, MAX_HECKE_WEIGHT)
        weight = sum(label_weight(datum, lam)
                     for orb in closed.values() for lam in orb)
    if weight > MAX_HECKE_WEIGHT:
        raise CLIError(f"requested truncation weighs at least {weight} "
                       f"(1 + sum_i |<lambda, alpha_i>| over its orbit-closed "
                       f"lattice labels); cap is {MAX_HECKE_WEIGHT}")
    report = satake_check(group, closed)

    checks = [
        CheckRecord.of("orbit-sums-central-and-independent", report.ok,
                       {"failures": list(report.failures)}),
        CheckRecord.of("center-dimension-matches-orbit-count",
                       report.center_dimension == len(report.representatives),
                       {"kernel_dimension": report.center_dimension,
                        "orbit_count": len(report.representatives)}),
    ]

    basis = []
    for mu, z in zip(report.representatives, report.central_elements):
        terms = [{"coweight": list(lam), "word": list(w.word),
                  "coefficient": repr(z.coefficient(lam, w))}
                 for lam, w in z.support]
        basis.append({"label": f"z({','.join(str(c) for c in mu)})",
                      "dominant_coweight": list(mu),
                      "terms": terms,
                      "term_labels": [_term_label(lam, w)
                                      for lam, w in z.support]})
    if len(report.representatives) == 1 \
            and all(c == 0 for c in report.representatives[0]):
        basis[0]["label"] = "T_e"
    data = {
        "datum": datum.label,
        "radius": radius,
        "center_dimension": report.center_dimension,
        "orbits": [[list(lam) for lam in orbit] for orbit in report.orbits],
        "basis": basis,
    }
    return VerificationReport("iwahori-center", tuple(checks), data)


# ---------------------------------------------------------------------------
# subcommand: verify-all
# ---------------------------------------------------------------------------

def _run_verify_all(*, quick: bool) -> VerificationReport:
    checks: list[CheckRecord] = []

    def absorb(prefix: str, report: VerificationReport) -> None:
        for c in report.checks:
            checks.append(CheckRecord(f"{prefix}: {c.name}", c.status,
                                      c.witness))

    absorb("counterexample", _run_counterexample())

    wall = _run_heart_check(datum="gl3", x=(Q(1, 2), Q(0), Q(0)), r=Q(1),
                            theta=(1,))
    checks.append(CheckRecord.of(
        "heart-check: wall-point-mismatch-escalates",
        wall.data.get("obstruction") == "DISTINCT_VOLUME"
        and "verdict" in wall.data,
        {"data": wall.data}))

    interior = _run_heart_check(datum="gl3", x=(Q(2, 3), Q(1, 3), Q(0)),
                                r=Q(1), theta=None)
    checks.append(CheckRecord.of(
        "heart-check: alcove-interior-point-proven", interior.exit_code == 0,
        {"data": interior.data}))

    spade = {"r": Q(1), "convention": "upper", "require_exhaustive": False}
    absorb("spade-check", _run_spade_check(
        datum="gl2", x=(Q(1, 2), Q(0)), partition=None, **spade))
    absorb("spade-check", _run_spade_check(
        datum="gl3", x=(Q(1, 2), Q(0), Q(0)), partition=((0,), (1, 2)),
        **spade))

    absorb("clifford", _run_clifford(catalog="builtin", check="all",
                                     quick=quick, emit_catalog=None))

    absorb("torus-center", _run_torus_center(datum="gl2", q=3, radius=1,
                                             check="all"))

    absorb("iwahori-center", _run_iwahori_center(datum="a1", radius=2))
    absorb("iwahori-center", _run_iwahori_center(datum="gl2", radius=1))

    return VerificationReport("verify-all", tuple(checks), {"quick": quick})


# ---------------------------------------------------------------------------
# dispatch, argument parsing, entry point
# ---------------------------------------------------------------------------

_RUNNERS: dict[str, Callable[..., VerificationReport]] = {
    "rootdatum": _run_rootdatum,
    "heart-check": _run_heart_check,
    "counterexample": _run_counterexample,
    "spade-check": _run_spade_check,
    "clifford": _run_clifford,
    "torus-center": _run_torus_center,
    "iwahori-center": _run_iwahori_center,
    "verify-all": _run_verify_all,
}


def run(subcommand: str, **options: Any) -> VerificationReport:
    runner = _RUNNERS.get(subcommand)
    if runner is None:
        raise CLIError(f"unknown subcommand {subcommand!r}")
    start = time.perf_counter()
    report = runner(**options)
    elapsed = time.perf_counter() - start
    return VerificationReport(report.suite, report.checks, report.data,
                              elapsed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heckelab",
        description="Exact verification suites for filtration comparison, "
                    "finite Clifford theory, and truncated Hecke centers.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text",
                       help="output format (default: text)")

    p = sub.add_parser("rootdatum", help="describe a root datum and check "
                                         "its internal consistency")
    p.add_argument("--datum", required=True,
                   help="registry name or JSON file (see module docstring)")
    add_format(p)

    p = sub.add_parser("heart-check",
                       help="compare Levi-root thresholds at a point and "
                            "its Weyl images; escalate mismatches to "
                            "volume obstructions")
    p.add_argument("--datum", required=True)
    p.add_argument("--x", required=True, help="point, e.g. 1/2,0,0")
    p.add_argument("--r", required=True, help="positive rational depth")
    p.add_argument("--theta", default=None,
                   help="0-based simple-root indices (default: all subsets)")
    add_format(p)

    p = sub.add_parser("counterexample",
                       help="reproduce the rank-3 wall-point volume "
                            "obstruction end to end")
    add_format(p)

    p = sub.add_parser("spade-check",
                       help="check block triangular factorizations of a "
                            "filtration group, analytically and by "
                            "enumeration")
    p.add_argument("--datum", required=True, help="general-linear datum")
    p.add_argument("--x", required=True)
    p.add_argument("--r", required=True)
    p.add_argument("--partition", default=None,
                   help="0-based row blocks, e.g. 0|1,2 "
                        "(default: all proper standard partitions)")
    p.add_argument("--convention", choices=("upper", "lower"),
                   default="upper")
    p.add_argument("--require-exhaustive", action="store_true",
                   help="fail when brute-force verification was skipped")
    add_format(p)

    p = sub.add_parser("clifford",
                       help="evaluate the finite-group catalog: restriction "
                            "multiplicities, index chains, transfer, "
                            "center, commutativity")
    p.add_argument("--catalog", default="builtin",
                   help="'builtin' or a catalog JSON file")
    p.add_argument("--check", default="all",
                   choices=("all", "transfer", "center", "commutativity"))
    p.add_argument("--quick", action="store_true",
                   help="only entries with group order <= 32")
    p.add_argument("--emit-catalog", default=None, metavar="PATH",
                   help="write the builtin catalog JSON to PATH and exit")
    add_format(p)

    p = sub.add_parser("torus-center",
                       help="orbit decomposition of the invariant "
                            "lattice-character algebra at depth one")
    p.add_argument("--datum", required=True)
    p.add_argument("--q", required=True, type=int,
                   help="residue field size (prime power)")
    p.add_argument("--radius", required=True, type=int,
                   help="sup-norm truncation radius for coweights")
    p.add_argument("--check", default="all",
                   choices=("all", "roc", "dimension"))
    add_format(p)

    p = sub.add_parser("iwahori-center",
                       help="central basis of the truncated lattice-"
                            "presented Hecke algebra, with exact kernel "
                            "verification")
    p.add_argument("--datum", required=True)
    p.add_argument("--radius", required=True, type=int)
    add_format(p)

    p = sub.add_parser("verify-all",
                       help="run a fixed fast configuration of every suite")
    p.add_argument("--quick", action="store_true",
                   help="skip the largest catalog entries")
    add_format(p)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    options = vars(build_parser().parse_args(argv))
    subcommand, fmt = options.pop("subcommand"), options.pop("format")
    try:
        for name, parse in (("x", parse_rational_vector),
                            ("r", parse_rational), ("theta", parse_index_list),
                            ("partition", parse_partition)):
            if options.get(name) is not None:
                options[name] = parse(options[name])
        report = run(subcommand, **options)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_report(report, fmt))
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
