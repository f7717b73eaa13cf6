"""Command-line verification frontend: parse, dispatch, render.

Each subcommand wraps one library suite, parses all numeric input
exactly (integers or "p/q" strings, never floats), and prints a report
in text or JSON form.  Reports share one shape: a suite name, a list
of named checks with status PASS / FAIL / SKIPPED (FAIL always carries
a witness payload; ``CheckRecord.of`` builds each verdict), optional
suite data, and a wall time.  The process exits 0 exactly when no
check failed, 2 on configuration errors.

This module parses the command line, dispatches to the subcommand's
runner and renders its report; the mathematics stays in the library.
Each runner is the function ``run`` of its own module (``_RUNNERS``
names them), which takes its subcommand's parsed flags as keyword
arguments, under their argparse names; argparse alone holds their
defaults and required flags.  The runners and this module share the
records, parsers, loaders and caps of ``cli_common``.

A process compiles what it runs: ``import heckelab.cli`` loads
``cli_common`` and ``_record`` and no suite, not ``root_datum`` and no
runner.  ``run`` imports the one runner module of its subcommand, and
that module imports its suite, so ``clifford`` loads no root datum,
``spade-check`` no ``apartment`` and ``heart-check`` on a datum without
an integral matrix model no ``padic_groups``; ``verify-all`` imports
the runners it calls.  No runner imports this module, which under
``python -m heckelab.cli`` runs as ``__main__``.  ``main`` builds
only its subcommand's flags (``build_parser``).  Every exhaustive
check runs in exact Python ints: no subcommand loads numpy.

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
import importlib
import json
import sys
import time
from typing import Any, Sequence

from . import cli_common
from .cli_common import (PASS, CLIError, VerificationReport, parse_index_list,
                         parse_partition, parse_rational,
                         parse_rational_vector)

# perfbench/child.py builds its set-up inputs through cli.load_datum
load_datum = cli_common.load_datum


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------

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
# dispatch, argument parsing, entry point
# ---------------------------------------------------------------------------

# each subcommand's runner module, imported when the subcommand runs
_RUNNERS = {
    "rootdatum": "heckelab.cli_rootdatum",
    "heart-check": "heckelab.cli_heart_check",
    "counterexample": "heckelab.cli_counterexample",
    "spade-check": "heckelab.cli_spade_check",
    "clifford": "heckelab.cli_clifford",
    "torus-center": "heckelab.cli_torus_center",
    "iwahori-center": "heckelab.cli_iwahori_center",
    "verify-all": "heckelab.cli_verify_all",
}


def run(subcommand: str, **options: Any) -> VerificationReport:
    """The report of the subcommand's runner, the function ``run`` of its
    module; the wall time covers loading that module and its suite."""
    module = _RUNNERS.get(subcommand)
    if module is None:
        raise CLIError(f"unknown subcommand {subcommand!r}")
    start = time.perf_counter()
    report = importlib.import_module(module).run(**options)
    elapsed = time.perf_counter() - start
    return VerificationReport(report.suite, report.checks, report.data,
                              elapsed)


# each subcommand's help line and flags, as (flag names, add_argument
# keywords); every subcommand also takes --format, last
_SUBCOMMANDS: dict[str, tuple[str, tuple]] = {
    "rootdatum": (
        "describe a root datum and check its internal consistency", (
            (("--datum",), dict(required=True, help="registry name or JSON "
                                "file (see module docstring)")),)),
    "heart-check": (
        "compare Levi-root thresholds at a point and its Weyl images; "
        "escalate mismatches to volume obstructions", (
            (("--datum",), dict(required=True)),
            (("--x",), dict(required=True, help="point, e.g. 1/2,0,0")),
            (("--r",), dict(required=True, help="positive rational depth")),
            (("--theta",), dict(default=None, help="0-based simple-root "
                                "indices (default: all subsets)")))),
    "counterexample": (
        "reproduce the rank-3 wall-point volume obstruction end to end", ()),
    "spade-check": (
        "check block triangular factorizations of a filtration group, "
        "analytically and by enumeration", (
            (("--datum",), dict(required=True, help="general-linear datum")),
            (("--x",), dict(required=True)),
            (("--r",), dict(required=True)),
            (("--partition",), dict(default=None, help="0-based row blocks, "
                                    "e.g. 0|1,2 (default: all proper "
                                    "standard partitions)")),
            (("--convention",), dict(choices=("upper", "lower"),
                                     default="upper")),
            (("--require-exhaustive",), dict(action="store_true", help=(
                "fail when brute-force verification was skipped"))))),
    "clifford": (
        "evaluate the finite-group catalog: restriction multiplicities, "
        "index chains, transfer, center, commutativity", (
            (("--catalog",), dict(default="builtin", help="'builtin' or a "
                                  "catalog JSON file")),
            (("--check",), dict(default="all", choices=(
                "all", "transfer", "center", "commutativity"))),
            (("--quick",), dict(action="store_true", help="only entries with "
                                "group order <= 32")),
            (("--emit-catalog",), dict(default=None, metavar="PATH", help=(
                "write the builtin catalog JSON to PATH and exit"))))),
    "torus-center": (
        "orbit decomposition of the invariant lattice-character algebra at "
        "depth one", (
            (("--datum",), dict(required=True)),
            (("--q",), dict(required=True, type=int, help="residue field "
                            "size (prime power)")),
            (("--radius",), dict(required=True, type=int, help="sup-norm "
                                 "truncation radius for coweights")),
            (("--check",), dict(default="all",
                                choices=("all", "roc", "dimension"))))),
    "iwahori-center": (
        "central basis of the truncated lattice-presented Hecke algebra, "
        "with exact kernel verification", (
            (("--datum",), dict(required=True)),
            (("--radius",), dict(required=True, type=int)))),
    "verify-all": (
        "run a fixed fast configuration of every suite", (
            (("--quick",), dict(action="store_true", help="skip the largest "
                                "catalog entries")),)),
}
_FORMAT = (("--format",), dict(choices=("text", "json"), default="text",
                               help="output format (default: text)"))


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand.  With ``only`` given, the other
    subcommands are registered by name and help line but get no flags:
    argparse parses with the chosen subcommand's parser alone, and the
    top-level usage, help and errors read only the names, so ``main``
    adds just the flags it parses."""
    parser = argparse.ArgumentParser(
        prog="heckelab",
        description="Exact verification suites for filtration comparison, "
                    "finite Clifford theory, and truncated Hecke centers.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_line, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if only is None or name == only:
            for names, keywords in (*flags, _FORMAT):
                p.add_argument(*names, **keywords)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top level takes no flag with a value, so the first word that
    # is no flag is the subcommand
    chosen = next((a for a in argv if not a.startswith("-")), None)
    options = vars(build_parser(chosen).parse_args(argv))
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
