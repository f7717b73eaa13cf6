"""Write pins.json: the verdict of every benchmark invocation as the
current source tree gives it.

    python3 perfbench/pin.py

Run it only when a verdict is meant to change, and review the diff.
"""
from __future__ import annotations

import json
import sys
import time

import run


def main() -> int:
    env = run.child_env(0)
    pins = {}
    for name, work in run.WORKLOADS.items():
        for argv in work.invocations:
            child = run.spawn(run.command(argv, traced=False), env,
                              time.perf_counter() + 600)
            if child.timed_out or b"Traceback (most recent call last)" in child.stderr:
                print(f"{' '.join(argv)}: no verdict", file=sys.stderr)
                return 1
            pins[" ".join(argv)] = run.verdict(argv, child.code, child.stdout)
            print(f"{name}: exit {child.code} {' '.join(argv)}")
    with open(run.PINS, "w") as fh:
        json.dump(pins, fh, indent=1, ensure_ascii=False)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
