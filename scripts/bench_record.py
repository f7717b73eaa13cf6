"""Record perfbench runs of one or two checkouts into a JSON file.

    python3 scripts/bench_record.py --out BENCH_<change>.json \
        --checkout parent=../parent --checkout change=. \
        --workloads torus,catalog --seeds 1-5 --trace 0 --seconds 15

For every workload and seed, ``perfbench/run.py`` of each checkout runs
once, as a fresh process from that checkout's root.  With two checkouts
the runs come in pairs whose order alternates from seed to seed
(a, b, then b, a), so slow drift of the machine falls on both sides.
Each run's ``machine:`` line and final JSON line are stored verbatim,
and ``summary`` holds, per workload, trace mode and checkout, the
median of every metric and the failed invocations summed over runs.
With two checkouts it also holds, per metric, the gap between their
medians (second minus first checkout) and the spread, the interquartile
range of the first (parent) checkout's runs: a gap no wider than the
spread is reported "unresolved".  It also pairs the runs of one seed
across the two checkouts and counts the pairs, and those in which the
second checkout reads lower and higher; a tie counts for neither.
Two verdicts follow the benchmark's rules, with each metric's better
direction and bound read from ``BENCHMARK.json`` at the root of this
checkout (lower is better for a metric it does not list):

- ``claim`` is "met" when at least ten pairs ran, the second checkout
  reads better in at least nine tenths of them, and its median is
  better by more than the spread; otherwise "not met";
- ``regressed``, for each end-to-end metric, is true when the second
  checkout's median is worse than the first's by more than the metric's
  bound, a fraction of the first checkout's median.

An existing output file is extended, so workloads can be recorded by
separate invocations.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 600
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# a claimed gain needs this many pairs, this share of them won
CLAIM_PAIRS = 10
CLAIM_SHARE = 0.9


def parse_run(stdout: str) -> dict:
    """The ``machine:`` line and the final JSON line of one perfbench
    run's stdout; ValueError when either is missing."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    machine = next((line for line in lines if line.startswith("machine: ")),
                   None)
    if machine is None:
        raise ValueError("perfbench output has no machine: line")
    try:
        result = json.loads(lines[-1])
    except ValueError as exc:
        raise ValueError("perfbench output does not end in a JSON line") from exc
    if not isinstance(result, dict) or "metrics" not in result:
        raise ValueError("perfbench result line has no metrics")
    return {"machine": json.loads(machine[len("machine: "):]),
            "result": result}


def parse_seeds(text: str) -> list[int]:
    """"1-5" or "1,3,4"."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_order(names: list[str], seeds: list[int]) -> list[tuple[int, str]]:
    """(seed, checkout) in run order: each seed's pair alternates which
    checkout goes first."""
    order = []
    for k, seed in enumerate(seeds):
        pair = names if k % 2 == 0 else names[::-1]
        order.extend((seed, name) for name in pair)
    return order


def load_rules(path: Path = BENCHMARK) -> dict[str, dict]:
    """Each metric's ``better`` direction, and for an end-to-end metric
    its ``bound``, as the benchmark file declares them."""
    spec = json.loads(path.read_text())
    rules = {m["name"]: {"better": m["better"]} for m in spec["per_layer"]}
    rules.update({m["name"]: {"better": m["better"], "bound": m["bound"]}
                  for m in spec["end_to_end"]})
    return rules


def compare(first: list[float], second: list[float]) -> dict:
    """The gap between two checkouts' medians of one metric, set against
    the spread of the first checkout's runs; fewer than two runs a side
    resolve nothing."""
    gap = statistics.median(second) - statistics.median(first)
    if min(len(first), len(second)) < 2:
        return {"gap": gap, "spread": None, "verdict": "unresolved"}
    q1, _, q3 = statistics.quantiles(first, n=4)
    spread = q3 - q1
    return {"gap": gap, "spread": spread,
            "verdict": "resolved" if abs(gap) > spread else "unresolved"}


def verdicts(first: list[float], comparison: dict, rule: dict) -> dict:
    """``claim`` and, given a bound, ``regressed`` for one metric, from
    the first checkout's runs, the comparison and seed pairs of the two
    checkouts and the metric's rule."""
    sign = 1 if rule["better"] == "lower" else -1
    won = comparison["lower" if sign == 1 else "higher"]
    spread, gain = comparison["spread"], -sign * comparison["gap"]
    met = (comparison["pairs"] >= CLAIM_PAIRS
           and won >= CLAIM_SHARE * comparison["pairs"]
           and spread is not None and gain > spread)
    out = {"claim": "met" if met else "not met"}
    if "bound" in rule:
        out["regressed"] = -gain > rule["bound"] * abs(statistics.median(first))
    return out


def seed_pairs(first: dict[int, list[float]],
               second: dict[int, list[float]]) -> dict:
    """The runs of each seed on the two checkouts, paired in run order:
    how many pairs, and in how many the second checkout reads lower and
    higher than the first."""
    diffs = [b - a for seed in first if seed in second
             for a, b in zip(first[seed], second[seed])]
    return {"pairs": len(diffs), "lower": sum(d < 0 for d in diffs),
            "higher": sum(d > 0 for d in diffs)}


def summarize(records: list[dict]) -> dict:
    groups: dict[str, dict[str, list[dict]]] = {}
    for rec in records:
        key = f"{rec['workload']} trace {rec['trace']}"
        groups.setdefault(key, {}).setdefault(rec["checkout"], []).append(rec)
    rules = load_rules()
    summary: dict = {}
    for key, by_checkout in sorted(groups.items()):
        summary[key] = {}
        values: dict[str, dict[str, list[float]]] = {}
        by_seed: dict[str, dict[str, dict[int, list[float]]]] = {}
        for name, recs in by_checkout.items():
            values[name] = {
                metric: [r["result"]["metrics"][metric]["value"]
                         for r in recs if metric in r["result"]["metrics"]]
                for metric in recs[0]["result"]["metrics"]}
            by_seed[name] = {}
            for r in recs:
                for metric, m in r["result"]["metrics"].items():
                    by_seed[name].setdefault(metric, {}).setdefault(
                        r["seed"], []).append(m["value"])
            summary[key][name] = {
                "runs": len(recs),
                "seeds": [r["seed"] for r in recs],
                "failed": sum(r["result"]["failed"] for r in recs),
                "attempted": sum(r["result"]["attempted"] for r in recs),
                "median": {metric: statistics.median(runs)
                           for metric, runs in values[name].items()},
            }
        if len(values) == 2:
            # checkouts in the order of their first run
            (a, first), (b, second) = values.items()
            comparison = summary[key]["comparison"] = {}
            for metric in first:
                if metric not in second:
                    continue
                result = comparison[metric] = {
                    **compare(first[metric], second[metric]),
                    **seed_pairs(by_seed[a][metric], by_seed[b][metric])}
                result.update(verdicts(first[metric], result, rules.get(
                    metric, {"better": "lower"})))
    return summary


def record_run(path: Path, workload: str, seed: int, trace: int,
               seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", str(trace),
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=path, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {path} exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    return parse_run(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--checkout", action="append", required=True,
                    metavar="NAME=PATH",
                    help="a checkout to run, once or twice")
    ap.add_argument("--workloads", required=True,
                    help="comma-separated perfbench workloads")
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    args = ap.parse_args(argv)

    checkouts: dict[str, Path] = {}
    for spec in args.checkout:
        name, sep, path = spec.partition("=")
        if not sep or not name or name in checkouts:
            ap.error(f"--checkout wants distinct NAME=PATH, got {spec!r}")
        checkouts[name] = Path(path).resolve()
    if len(checkouts) > 2:
        ap.error("at most two checkouts")

    doc = (json.loads(args.out.read_text()) if args.out.exists()
           else {"records": []})
    for workload in args.workloads.split(","):
        for seed, name in run_order(list(checkouts), parse_seeds(args.seeds)):
            run = record_run(checkouts[name], workload, seed, args.trace,
                             args.seconds)
            doc["records"].append({
                "checkout": name, "workload": workload, "seed": seed,
                "trace": args.trace, "seconds": args.seconds, **run})
            wall = run["result"]["metrics"].get("wall_s", {}).get("value")
            print(f"{workload} seed {seed} {name}: failed "
                  f"{run['result']['failed']}"
                  + (f", wall_s {wall:.3f}" if wall is not None else ""),
                  flush=True)
            doc["summary"] = summarize(doc["records"])
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
