"""Every function the benchmark probes still exists where it says.

``perfbench/layers.py`` wraps each (module, qualified name) of its
SPANS and COUNTERS by looking the last name up in the owner's own
``vars``, as ``Tracer._patch`` does.  Some probed functions look dead
to a sweep of the package: ``_linalg.nullspace`` has no caller in
``src/``, and ``laurent.rat_rank`` runs only when the v-free certificate
of ``satake_check`` does not close.  Deleting or moving one would break
the traced benchmark run; this test fails first.
The probe file is loaded, not imported as a package, and nothing in it
is patched.  A traced ``clifford`` run, in a child process, must also
still call each Clifford probe once per catalog entry, and a traced
``iwahori-center`` run must prove its center with no general product,
no scalar multiplication and no elimination over Q(v), and a traced ``torus-center`` run must
build its group, its orbits, its kernel rank and its report once each.
"""
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
_spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layers)

PROBES = sorted({(mod, qual) for _, mod, qual in layers.SPANS}
                | {(mod, qual) for _, mod, quals in layers.COUNTERS
                   for qual in quals})


def _resolve(mod: str, qual: str):
    owner = importlib.import_module(f"heckelab.{mod}")
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = vars(owner).get(attr)
    return raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw


def test_every_probe_resolves():
    assert len(PROBES) > 30
    missing = [f"{mod}.{qual}" for mod, qual in PROBES
               if not (callable(f := _resolve(mod, qual))
                       and f.__module__ == f"heckelab.{mod}")]
    assert missing == []


# the Clifford probes and the calls a traced run of the builtin catalog
# makes to each: one per entry, and one catalog build
CLIFFORD_CALLS = {
    **{f"clifford_lab.{name}.calls": 19 for name in (
        "check_hypotheses", "maximal_stabilizer",
        "multiplicity_transfer_check", "center_dimension_check",
        "commutativity_check")},
    "catalog.evaluate_entry.calls": 19,
    "catalog.build_catalog.calls": 1,
}


def _traced(*argv: str) -> tuple[dict, str]:
    """The probe summary and the stdout of one traced ``heckelab`` call
    in a child process, which must exit 0."""
    root = LAYERS.parent.parent
    read_end, write_end = os.pipe()
    try:
        proc = subprocess.run(
            [sys.executable, str(root / "perfbench" / "child.py"), "trace",
             "heckelab", *argv],
            capture_output=True, text=True, cwd=root, pass_fds=(write_end,),
            env={**os.environ, "PYTHONPATH": str(root / "src"),
                 "PERFBENCH_TRACE_FD": str(write_end)})
    finally:
        os.close(write_end)
    with os.fdopen(read_end) as fh:
        summary = json.load(fh)
    assert proc.returncode == 0, proc.stderr
    return summary, proc.stdout


def test_traced_clifford_run_reaches_every_clifford_probe():
    # a refactor that routes around a probed function leaves the name
    # resolvable but its count at 0; the traced run shows it
    summary, _ = _traced("clifford", "--format", "json")
    assert {k: summary[k] for k in CLIFFORD_CALLS} == CLIFFORD_CALLS


# a traced iwahori-center run proves its center from the rewriting
# rules alone: no general product, no scalar multiplication (the orbit
# sums are checked by adding row entries) and no elimination over Q(v)
SATAKE_CALLS = {
    "iwahori_hecke.BernsteinAlgebra.bernstein_multiply.calls": 0,
    "laurent.rat_rank.calls": 0,
    "laurent.LaurentScalar.mul.calls": 0,
    "iwahori_hecke.satake_check.calls": 1,
}


def test_traced_satake_run_takes_the_single_route():
    summary, _ = _traced("iwahori-center", "--datum", "a3", "--radius", "1",
                         "--format", "json")
    assert {k: summary[k] for k in SATAKE_CALLS} == SATAKE_CALLS


# a traced torus-center run builds one group, enumerates its orbits
# once, ranks its kernel rows once and renders one report
TORUS_CALLS = {
    "root_datum.WeylGroup.calls": 1,
    "torus_center.orbits.calls": 1,
    "linalg.mat_rank.calls": 1,
    "cli.render_report.calls": 1,
}


def test_traced_torus_run_computes_each_result_once():
    summary, out = _traced("torus-center", "--datum", "gl2", "--q", "3",
                           "--radius", "1", "--format", "json")
    assert {k: summary[k] for k in TORUS_CALLS} == TORUS_CALLS
    # one block check per orbit of the report
    assert (summary["torus_center.roc_decomposition_check.calls"]
            == json.loads(out)["data"]["orbit_count"])
