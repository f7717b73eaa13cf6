"""Child processes of the benchmark.

    python3 perfbench/child.py setup catalog | DATUM...
        Import heckelab.cli in this fresh interpreter, then build the
        workload's inputs through the public builders; print the times
        as one JSON line.
    python3 perfbench/child.py trace heckelab ARGS... | trace SCRIPT ARGS...
        Run one CLI call or script with the per-layer probes installed,
        and write the probe summary as JSON to the file descriptor named
        by PERFBENCH_TRACE_FD when it ends.
"""
from __future__ import annotations

import json
import os
import runpy
import sys
import time


def setup(names: list[str]) -> None:
    start = time.perf_counter()
    import heckelab.cli as cli
    imported = time.perf_counter()
    if names == ["catalog"]:
        from heckelab.catalog import build_catalog
        build_catalog()
    else:
        from heckelab.root_datum import WeylGroup
        for name in names:
            WeylGroup(cli.load_datum(name))
    done = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "setup_s": done - start}))


def trace(argv: list[str]) -> int:
    import layers

    tracer = layers.Tracer()
    tracer.install()
    try:
        if argv[0] == "heckelab":
            from heckelab import cli
            code = cli.main(argv[1:])
        else:
            sys.argv = list(argv)
            runpy.run_path(argv[0], run_name="__main__")
            code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        sys.stdout.flush()
        with os.fdopen(int(os.environ["PERFBENCH_TRACE_FD"]), "w") as fh:
            json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        setup(rest)
    elif mode == "trace":
        sys.exit(trace(rest))
    else:
        sys.exit(f"unknown mode {mode!r}")
