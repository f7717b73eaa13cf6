"""The perfbench recorder's parsing and bookkeeping, on canned perfbench
stdout; no benchmark is spawned."""
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

MACHINE = {"commit": "abc123", "source_sha256": "00ff", "python": "3.11.7",
           "cpu": "some cpu", "nproc": 2, "calibration_s": 0.31}


def canned_stdout(wall, failed=0):
    result = {"correct": failed == 0, "attempted": 16, "failed": failed,
              "metrics": {"wall_s": {"value": wall, "unit": "s"},
                          "peak_rss_mb": {"value": 35.0, "unit": "MB"}}}
    return "\n".join([
        "machine: " + json.dumps(MACHINE),
        "workload torus, seed 1, trace 0",
        "  4 pass(es) of 4 invocation(s), 4 set-up interpreter(s)",
        f"  wall_s       {wall:12.4f} s   (median of 4 passes)",
        f"  fail_ratio         0.0000 1   ({failed} failed of 16 attempted)",
        json.dumps(result),
        ""])


def test_parse_run_keeps_machine_and_result_lines():
    run = bench_record.parse_run(canned_stdout(2.5))
    assert run["machine"] == MACHINE
    assert run["result"]["metrics"]["wall_s"] == {"value": 2.5, "unit": "s"}
    assert run["result"]["attempted"] == 16


@pytest.mark.parametrize("stdout", [
    "workload torus\n{\"metrics\": {}}\n",                   # no machine line
    "machine: " + json.dumps(MACHINE) + "\nTraceback\n",     # no JSON at end
    "machine: " + json.dumps(MACHINE) + "\n[1, 2]\n",        # not a result
])
def test_parse_run_refuses_truncated_output(stdout):
    with pytest.raises(ValueError):
        bench_record.parse_run(stdout)


def test_seeds_and_alternating_order():
    assert bench_record.parse_seeds("1-3") == [1, 2, 3]
    assert bench_record.parse_seeds("2,5-6") == [2, 5, 6]
    assert bench_record.run_order(["parent", "change"], [1, 2, 3]) == [
        (1, "parent"), (1, "change"), (2, "change"), (2, "parent"),
        (3, "parent"), (3, "change")]
    assert bench_record.run_order(["change"], [1, 2]) == [
        (1, "change"), (2, "change")]


def test_summary_takes_medians_per_checkout():
    records = []
    for name, walls in (("parent", [4.0, 5.0, 4.5]), ("change", [3.0, 2.0, 2.5])):
        for seed, wall in enumerate(walls, 1):
            records.append({"checkout": name, "workload": "torus", "seed": seed,
                            "trace": 0, **bench_record.parse_run(
                                canned_stdout(wall, failed=seed == 3))})
    summary = bench_record.summarize(records)["torus trace 0"]
    assert summary["parent"]["median"]["wall_s"] == 4.5
    assert summary["change"]["median"]["wall_s"] == 2.5
    assert summary["change"]["runs"] == 3 and summary["change"]["failed"] == 1
    assert summary["parent"]["seeds"] == [1, 2, 3]


def test_summary_compares_two_checkouts_against_their_spread():
    records = []
    for name, walls in (("parent", [4.0, 5.0, 4.5]), ("change", [3.0, 2.0, 2.5])):
        for seed, wall in enumerate(walls, 1):
            records.append({"checkout": name, "workload": "torus", "seed": seed,
                            "trace": 0, **bench_record.parse_run(
                                canned_stdout(wall))})
    comparison = bench_record.summarize(records)["torus trace 0"]["comparison"]
    # both sides spread over 1.0 s, the medians 2.0 s apart; three pairs
    # are too few for a claim, and a lower wall time regresses nothing
    assert comparison["wall_s"] == {"gap": -2.0, "spread": 1.0,
                                    "verdict": "resolved", "pairs": 3,
                                    "lower": 3, "higher": 0,
                                    "claim": "not met", "regressed": False}
    # equal medians and no spread: nothing is shown
    assert comparison["peak_rss_mb"]["verdict"] == "unresolved"
    walls = records[0]["result"]["metrics"]["wall_s"]
    walls["value"] = 1.0          # parent now spreads over 4.0 s
    assert bench_record.summarize(records)["torus trace 0"]["comparison"][
        "wall_s"]["verdict"] == "unresolved"
    assert "comparison" not in bench_record.summarize(records[:3])[
        "torus trace 0"]


def test_one_run_a_side_resolves_nothing():
    assert bench_record.compare([1.0], [5.0]) == {
        "gap": 4.0, "spread": None, "verdict": "unresolved"}


def test_comparison_counts_the_seed_pairs_each_side_wins():
    records = []
    # seed 4 runs on the parent only, seed 2 twice on each side
    runs = {"parent": [(1, 4.0), (2, 5.0), (2, 3.0), (3, 2.0), (4, 9.0)],
            "change": [(1, 3.0), (2, 6.0), (2, 3.0), (3, 1.0)]}
    for name, seeded in runs.items():
        for seed, wall in seeded:
            records.append({"checkout": name, "workload": "torus", "seed": seed,
                            "trace": 0, **bench_record.parse_run(
                                canned_stdout(wall))})
    comparison = bench_record.summarize(records)["torus trace 0"]["comparison"]
    # pairs (4, 3), (5, 6), (3, 3), (2, 1): the tie counts for neither side
    assert {k: comparison["wall_s"][k] for k in ("pairs", "lower", "higher")} \
        == {"pairs": 4, "lower": 2, "higher": 1}
    assert {k: comparison["peak_rss_mb"][k]
            for k in ("pairs", "lower", "higher")} == {
        "pairs": 4, "lower": 0, "higher": 0}


BENCHMARK = json.loads((SCRIPT.parent.parent / "BENCHMARK.json").read_text())


def _records(parent_walls, change_walls, rss=35.0):
    """One run per seed and side, seeds 1, 2, ... in order."""
    records = []
    for name, walls in (("parent", parent_walls), ("change", change_walls)):
        for seed, wall in enumerate(walls, 1):
            run = bench_record.parse_run(canned_stdout(wall))
            run["result"]["metrics"]["peak_rss_mb"]["value"] = (
                rss if name == "parent" else rss * wall / parent_walls[0])
            records.append({"checkout": name, "workload": "catalog",
                            "seed": seed, "trace": 0, **run})
    return bench_record.summarize(records)["catalog trace 0"]["comparison"]


def test_spread_is_the_parent_interquartile_range():
    # the parent spreads over 0.2 s and the change over 3.0 s: the gap of
    # 1.6 s is resolved against the parent's spread alone
    assert bench_record.compare([4.0, 4.1, 4.2], [1.0, 2.5, 4.0]) == {
        "gap": pytest.approx(-1.6), "spread": pytest.approx(0.2),
        "verdict": "resolved"}


def test_rules_are_read_from_the_benchmark_file():
    rules = bench_record.load_rules()
    for metric in BENCHMARK["end_to_end"]:
        assert rules[metric["name"]] == {"better": metric["better"],
                                         "bound": metric["bound"]}
    for metric in BENCHMARK["per_layer"]:
        assert rules[metric["name"]] == {"better": metric["better"]}


def test_claim_needs_nine_tenths_of_ten_pairs_and_a_gap_past_the_spread():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]
    faster = [w - 0.2 for w in parent]
    assert _records(parent, faster)["wall_s"]["claim"] == "met"
    # nine wins and a tie still meet it; eight wins do not
    nine = faster[:9] + [parent[9]]
    assert _records(parent, nine)["wall_s"]["claim"] == "met"
    eight = faster[:8] + parent[8:]
    assert _records(parent, eight)["wall_s"]["lower"] == 8
    assert _records(parent, eight)["wall_s"]["claim"] == "not met"
    # every pair won, but inside the parent's spread
    barely = [w - 0.001 for w in parent]
    assert _records(parent, barely)["wall_s"]["lower"] == 10
    assert _records(parent, barely)["wall_s"]["claim"] == "not met"
    # nine pairs are too few, however clear the gain
    assert _records(parent[:9], faster[:9])["wall_s"]["claim"] == "not met"


def test_regressed_reads_the_bound_of_each_end_to_end_metric():
    bound = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    parent = [1.0, 1.0, 1.0]
    within = [1.0 + 0.9 * bound["wall_s"]] * 3
    beyond = [1.0 + 1.1 * bound["wall_s"]] * 3
    assert _records(parent, within)["wall_s"]["regressed"] is False
    comparison = _records(parent, beyond)
    assert comparison["wall_s"]["regressed"] is True
    # peak_rss_mb scales with the wall here and has its own bound
    assert comparison["peak_rss_mb"]["regressed"] is (
        1.1 * bound["wall_s"] > bound["peak_rss_mb"])
    assert _records(parent, [0.5] * 3)["wall_s"]["regressed"] is False

