"""Every function the benchmark probes still exists where it says.

``perfbench/layers.py`` wraps each (module, qualified name) of its
SPANS and COUNTERS by looking the last name up in the owner's own
``vars``, as ``Tracer._patch`` does.  Some probed functions look dead
to a sweep of the package: ``_linalg.nullspace`` has no caller in
``src/``, and ``laurent.rat_rank`` runs only when the v-free certificate
of ``satake_check`` does not close.  Deleting or moving one would break
the traced benchmark run; this test fails first.
The probe file is loaded, not imported as a package, and nothing in it
is patched.
"""
import importlib
import importlib.util
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
