"""End-to-end and per-layer benchmark of the heckelab CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each invocation of a workload
is a fresh child process (``python3 -m heckelab.cli ...`` or a script
under ``scripts/``), run one at a time from this one parent process:
a closed loop with one client.  The seed sets PYTHONHASHSEED for every
child and the order of the invocations within the workload.  Every
child gets this checkout's ``src/`` first on its import path, no
HCK_JOBS and no ``--jobs``.

Every invocation's verdict is compared with the one pinned in
``pins.json`` (exit code, ordered (check, status) list and headline
numbers, or a stdout digest for scripts).  A wrong verdict, a traceback
on stderr or a timeout counts as a failed invocation and its argv is
printed.

With ``--trace 0`` whole passes over the workload repeat while the next
one, timed like the last, still ends within ``--seconds`` (at least one
pass), so a run stays short on a slow machine.  The run reports wall_s
and cpu_s (median over passes), setup_s (median over fresh
interpreters) and peak_rss_mb.  With ``--trace 1``
each invocation runs once untraced and then once with the probes of
``layers.py`` installed, and the run reports every per-layer metric
summed over the workload's invocations, plus the tracing overhead.
Either way fail_ratio (failed / attempted) is printed with the metrics;
the last line of stdout is the result as one JSON object, whose
``attempted`` and ``failed`` fields carry it.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
PINS = HERE / "pins.json"
SURVEY = "scripts/heart_alcove_survey.py"
REQUIRED = (SRC / "heckelab" / "cli.py", ROOT / SURVEY)

RUN_BUDGET_S = 165.0    # every child is stopped by then; a run must end in 180 s
SETUP_REPEATS = 7
HEADLINE = ("center_dimension", "orbit_count", "dimension", "verdict",
            "obstruction", "point_kind", "weyl_order", "root_count")


def _cli(*args: str) -> tuple[str, ...]:
    return ("heckelab", *args, "--format", "json")


@dataclass(frozen=True)
class Workload:
    invocations: tuple[tuple[str, ...], ...]
    setup: tuple[str, ...]          # "catalog", or the datums to load
    setup_repeats: int = SETUP_REPEATS


WORKLOADS = {
    "catalog": Workload(
        (_cli("clifford"),),
        ("catalog",), setup_repeats=3),
    "hecke": Workload(
        (_cli("iwahori-center", "--datum", "a3", "--radius", "1"),
         _cli("iwahori-center", "--datum", "gl3", "--radius", "2"),
         _cli("iwahori-center", "--datum", "b3", "--radius", "1")),
        ("a3", "gl3", "b3")),
    "torus": Workload(
        (_cli("torus-center", "--datum", "gl3", "--q", "3", "--radius", "1"),
         _cli("torus-center", "--datum", "gl2", "--q", "7", "--radius", "2"),
         _cli("torus-center", "--datum", "g2", "--q", "3", "--radius", "2"),
         _cli("torus-center", "--datum", "gl4", "--q", "3", "--radius", "1",
              "--check", "roc")),
        ("gl3", "gl2", "g2", "gl4")),
    "filtration": Workload(
        (_cli("counterexample"),
         _cli("rootdatum", "--datum", "gl4"),
         _cli("heart-check", "--datum", "gl3", "--x", "1/2,0,0", "--r", "1",
              "--theta", "1"),
         _cli("heart-check", "--datum", "gl3", "--x", "2/3,1/3,0", "--r", "1"),
         _cli("heart-check", "--datum", "gl4", "--x", "3/4,1/2,1/4,0",
              "--r", "3/2"),
         _cli("heart-check", "--datum", "b3", "--x", "1/4,1/8,1/16",
              "--r", "3/2"),
         _cli("spade-check", "--datum", "gl2", "--x", "1/2,0", "--r", "1"),
         _cli("spade-check", "--datum", "gl3", "--x", "1/2,1/3,0",
              "--r", "1/2"),
         _cli("spade-check", "--datum", "gl3", "--x", "2/3,1/3,0",
              "--r", "1/2"),
         _cli("spade-check", "--datum", "gl3", "--x", "1/2,0,0", "--r", "1"),
         _cli("spade-check", "--datum", "gl4", "--x", "3/4,1/2,1/4,0",
              "--r", "1/2"),
         (SURVEY,)),
        ("gl2", "gl3", "gl4", "b3", "a1", "a2", "b2")),
}


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

@dataclass
class Child:
    code: int
    stdout: bytes
    stderr: bytes
    trace: bytes
    wall_s: float
    cpu_s: float
    rss_mb: float
    timed_out: bool


def child_env(seed: int) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("HCK_JOBS", None)
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def spawn(cmd: list[str], env: dict[str, str], deadline: float,
          trace_pipe: bool = False) -> Child:
    """Run one child to completion, or kill it at the deadline.  Its
    stdout, stderr and (optionally) a pipe for the probe summary are read
    as it runs; CPU time and peak RSS come from os.wait4."""
    read_end = write_end = None
    if trace_pipe:
        read_end, write_end = os.pipe()
        env = {**env, "PERFBENCH_TRACE_FD": str(write_end)}
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            pass_fds=() if write_end is None else (write_end,))
    if write_end is not None:
        os.close(write_end)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks: dict[int, list[bytes]] = {out_fd: [], err_fd: []}
    if read_end is not None:
        chunks[read_end] = []
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for fd in chunks:
            sel.register(fd, selectors.EVENT_READ)
        while sel.get_map():
            left = deadline - time.perf_counter()
            if left <= 0:
                timed_out = True
                proc.kill()
                break
            for key, _ in sel.select(left):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fd)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)   # reaped here, not by Popen
    proc.stdout.close()
    proc.stderr.close()
    if read_end is not None:
        os.close(read_end)
    return Child(proc.returncode, b"".join(chunks[out_fd]),
                 b"".join(chunks[err_fd]),
                 b"".join(chunks.get(read_end, [])), wall,
                 usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                 timed_out)


def command(argv: tuple[str, ...], traced: bool) -> list[str]:
    if traced:
        return [sys.executable, str(CHILD), "trace", *argv]
    if argv[0] == "heckelab":
        return [sys.executable, "-m", "heckelab.cli", *argv[1:]]
    return [sys.executable, *argv]


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def verdict(argv: tuple[str, ...], code: int, stdout: bytes) -> dict:
    """The parts of an invocation's output that are pinned."""
    if argv[0] != "heckelab":
        return {"exit": code,
                "stdout_sha256": hashlib.sha256(stdout).hexdigest()}
    report = json.loads(stdout)
    data = report["data"]
    return {"exit": code,
            "checks": [[c["name"], c["status"]] for c in report["checks"]],
            "headline": {k: data[k] for k in HEADLINE if k in data}}


def failure(argv: tuple[str, ...], child: Child, pins: dict) -> str | None:
    """Why the invocation failed, or None when its verdict is the pinned one."""
    if child.timed_out:
        return "timeout"
    if b"Traceback (most recent call last)" in child.stderr:
        return "traceback on stderr"
    try:
        got = verdict(argv, child.code, child.stdout)
    except (ValueError, KeyError, TypeError):
        return f"exit {child.code}, unreadable report"
    want = pins.get(" ".join(argv))
    if got != want:
        return f"verdict differs from the pinned one (exit {child.code})"
    return None


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def fail(self, what: str, why: str) -> None:
        self.failed += 1
        print(f"FAILED {what}: {why}", flush=True)

    def record(self, argv: tuple[str, ...], child: Child, pins: dict) -> None:
        self.attempted += 1
        why = failure(argv, child, pins)
        if why is not None:
            self.fail(" ".join(argv), why)


def run_one(argv, env, deadline, pins, tally, traced=False) -> Child:
    child = spawn(command(argv, traced), env, deadline, trace_pipe=traced)
    tally.record(argv, child, pins)
    return child


def measure_setup(work: Workload, env, deadline, tally) -> list[dict]:
    """Fresh interpreters that import heckelab.cli and build the inputs.
    A set-up child that fails counts as one more failed attempt, and its
    wall time stands in for both timings."""
    samples = []
    for _ in range(work.setup_repeats):
        child = spawn([sys.executable, str(CHILD), "setup", *work.setup],
                      env, deadline)
        try:
            if child.code != 0 or child.timed_out:
                raise ValueError(f"exit {child.code}")
            samples.append(json.loads(child.stdout))
        except ValueError as exc:
            tally.attempted += 1
            tally.fail(f"set-up {' '.join(work.setup)}", str(exc))
            samples.append({"import_s": child.wall_s, "setup_s": child.wall_s})
    return samples


def calibration_s() -> float:
    """Time of a fixed pure-Python loop, to show machine drift."""
    start = time.perf_counter()
    acc, x = Fraction(0), 1
    for k in range(1, 200_001):
        x = (x * 48271 + k) % 2147483647
        if k % 50 == 0:
            acc += Fraction(x % 97, k % 89 + 1)
    return time.perf_counter() - start


def machine() -> dict:
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "heckelab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": commit, "source_sha256": digest.hexdigest(),
            "python": platform.python_version(), "cpu": cpu,
            "nproc": os.cpu_count(), "calibration_s": round(calibration_s(), 6)}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(work: Workload, order, env, deadline, seconds, pins, tally):
    setups = measure_setup(work, env, deadline, tally)
    passes = []
    spent = 0.0
    while True:
        children = [run_one(argv, env, deadline, pins, tally) for argv in order]
        wall = sum(c.wall_s for c in children)
        passes.append((wall, sum(c.cpu_s for c in children),
                       max(c.rss_mb for c in children)))
        spent += wall
        if spent + wall > seconds or any(c.timed_out for c in children):
            break
    n = len(passes)
    print(f"  {n} pass(es) of {len(order)} invocation(s), "
          f"{len(setups)} set-up interpreter(s)")
    metrics = {
        "wall_s": metric(statistics.median(p[0] for p in passes), "s"),
        "cpu_s": metric(statistics.median(p[1] for p in passes), "s"),
        "setup_s": metric(statistics.median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mb": metric(max(p[2] for p in passes), "MB"),
    }
    notes = {"wall_s": f"median of {n} passes",
             "cpu_s": f"median of {n} passes, user+sys of the children",
             "setup_s": f"median of {len(setups)} fresh interpreters",
             "peak_rss_mb": f"largest of {n * len(order)} children"}
    for name, m in metrics.items():
        print(f"  {name:<12} {m['value']:12.4f} {m['unit']:<3} ({notes[name]})")
    return metrics


def per_layer(work: Workload, order, env, deadline, pins, tally):
    setups = measure_setup(work, env, deadline, tally)
    # each invocation runs untraced, then traced, so that machine drift
    # falls on both sides of the overhead alike
    plain, traced = [], []
    for argv in order:
        plain.append(run_one(argv, env, deadline, pins, tally))
        traced.append(run_one(argv, env, deadline, pins, tally, traced=True))
    totals: dict[str, float] = {}
    for child in traced:
        try:
            summary = json.loads(child.trace)
        except ValueError:
            continue        # counted as failed if the child died
        for key, value in summary.items():
            totals[key] = totals.get(key, 0) + value
    for ratio, (num, den) in layers.RATIOS.items():
        totals[ratio] = totals.get(num, 0) / totals[den] if totals.get(den) else 0.0
    plain_wall = sum(c.wall_s for c in plain)
    traced_wall = sum(c.wall_s for c in traced)
    totals["cli.import_s"] = statistics.median(s["import_s"] for s in setups)
    totals["trace.overhead_s"] = traced_wall - plain_wall
    print(f"  untraced wall {plain_wall:.4f} s, traced wall {traced_wall:.4f} s, "
          f"cli.import_s median of {len(setups)} fresh interpreters")
    metrics = {}
    for name, unit, _ in layers.metric_names():
        value = totals.get(name, 0)
        metrics[name] = metric(value, unit)
        print(f"  {name:<60} {value:>14.6g} {unit}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.perf_counter()

    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"error: not a heckelab checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    with open(PINS) as fh:
        pins = json.load(fh)

    work = WORKLOADS[args.workload]
    order = list(work.invocations)
    random.Random(args.seed).shuffle(order)
    env = child_env(args.seed)
    deadline = start + RUN_BUDGET_S
    print("machine:", json.dumps(machine()), flush=True)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    tally = Tally()
    if args.trace:
        metrics = per_layer(work, order, env, deadline, pins, tally)
    else:
        metrics = end_to_end(work, order, env, deadline, args.seconds, pins,
                             tally)
    ratio = tally.failed / tally.attempted
    print(f"  {'fail_ratio':<12} {ratio:12.4f} 1   "
          f"({tally.failed} failed of {tally.attempted} attempted)")
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
