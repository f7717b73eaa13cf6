"""Command-line frontend: parsing, dispatch, reports, exit codes.

Numeric oracles: the wall-point matrices and index monomials are the
same hand-frozen values used in the matrix-group tests; orbit and
dimension counts repeat the independently derived Burnside values from
the torus tests; everything else checks report structure, error
handling, and the exit-code contract.
"""
import argparse
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckelab.catalog import build_catalog, evaluate_catalog
from heckelab.cli import (
    MAX_HECKE_WEIGHT,
    CheckRecord,
    CLIError,
    VerificationReport,
    _RUNNERS,
    _clifford_checks,
    _json_text,
    _standard_partitions,
    build_parser,
    load_datum,
    load_group,
    main,
    parse_index_list,
    parse_partition,
    parse_rational,
    parse_rational_vector,
    render_report,
    run,
)
from heckelab.iwahori_hecke import label_orbits, label_weight
from heckelab.root_datum import REGISTRY, WeylGroup, cartan_matrix

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
WALL_VERDICT = "G_{x,1} ∉ K^♥(S,G)"


def run_json(argv, capsys):
    code = main(argv + ["--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    return code, payload


def statuses(payload):
    return {c["name"]: c["status"] for c in payload["checks"]}


# ---------------------------------------------------------------------------
# exact input parsing
# ---------------------------------------------------------------------------

def test_parse_rational_exact():
    assert parse_rational("1/2") == Q(1, 2)
    assert parse_rational("-3/4") == Q(-3, 4)
    assert parse_rational("7") == Q(7)
    assert parse_rational(" 2/3 ") == Q(2, 3)


@pytest.mark.parametrize("bad", ["0.5", "1e3", "1/0", "", "x", "1/ 2", "--1"])
def test_parse_rational_rejects_inexact(bad):
    with pytest.raises(CLIError):
        parse_rational(bad)


def test_parse_vector_and_indices():
    assert parse_rational_vector("1/2,0,0") == (Q(1, 2), Q(0), Q(0))
    assert parse_index_list("2,0,2") == (0, 2)
    assert parse_partition("0|1,2") == ((0,), (1, 2))
    with pytest.raises(CLIError):
        parse_rational_vector("")
    with pytest.raises(CLIError):
        parse_index_list("1,-2")
    with pytest.raises(CLIError):
        parse_partition("0||1")


def test_standard_partitions_cover_rank_three():
    parts = _standard_partitions(3)
    assert ((0,), (1, 2)) in parts
    assert ((0, 1), (2,)) in parts
    assert ((0,), (1,), (2,)) in parts
    assert len(parts) == 3


# ---------------------------------------------------------------------------
# datum loading
# ---------------------------------------------------------------------------

def test_load_datum_registry():
    assert load_datum("a2").label == "A2"
    assert load_datum("gl3").ambient_rank == 3
    assert load_datum("gl1").semisimple_rank == 0


def test_load_datum_unknown_name():
    with pytest.raises(CLIError, match="unknown datum"):
        load_datum("zz9")


def test_load_datum_from_json_file(tmp_path):
    p = tmp_path / "datum.json"
    p.write_text('{"cartan": [[2,-1],[-1,2]], "label": "myA2"}')
    datum = load_datum(str(p))
    assert datum.label == "myA2" and datum.semisimple_rank == 2
    g = tmp_path / "gl.json"
    g.write_text('{"general_linear": 3}')
    assert load_datum(str(g)).ambient_rank == 3


def test_load_datum_reports_json_location(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{\n  oops\n}")
    with pytest.raises(CLIError, match="line 2"):
        load_datum(str(p))


def refuse_general_linear(n, tmp_path, capsys) -> str:
    # refused at once from the size, in one line, before any root is built
    path = tmp_path / f"gl{n}.json"
    path.write_text(f'{{"general_linear": {n}}}')
    start = time.perf_counter()
    assert main(["rootdatum", "--datum", str(path)]) == 2
    assert time.perf_counter() - start < 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    return captured.err


@pytest.mark.parametrize("n", [8, 40, 120, 300])
def test_oversized_datum_rejected_before_enumeration(n, tmp_path, capsys):
    err = refuse_general_linear(n, tmp_path, capsys)
    assert f"at least {math.factorial(n)}; cap is 10080" in err


def test_huge_general_linear_rejected_in_one_line(tmp_path, capsys):
    # 5000! has more digits than CPython will convert to a string
    err = refuse_general_linear(5000, tmp_path, capsys)
    assert "Weyl group order is at least 5000!; cap is 10080" in err


def test_gl7_datum_still_loads(tmp_path):
    # bound 7! = 5040 is under the cap, and so is the order
    path = tmp_path / "gl7.json"
    path.write_text('{"general_linear": 7}')
    group = load_group(str(path))
    assert group.datum.label == "GL7" and len(group) == 5040


def test_general_linear_recognised_by_roots_not_label():
    for name in REGISTRY:
        assert load_datum(name).is_general_linear == name.startswith("gl")


def test_load_datum_bad_description(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"cartan": [[2, 1], [1, 2]]}')
    with pytest.raises(CLIError, match="bad datum description"):
        load_datum(str(p))


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def test_check_record_fail_needs_witness():
    with pytest.raises(ValueError, match="witness"):
        CheckRecord("x", "FAIL")
    with pytest.raises(ValueError, match="status"):
        CheckRecord("x", "MAYBE")
    # the one verdict constructor drops the witness on PASS only
    assert CheckRecord.of("x", True, {"w": 1}) == CheckRecord("x", "PASS")
    assert CheckRecord.of("x", False, {"w": 1}) \
        == CheckRecord("x", "FAIL", {"w": 1})


def test_exit_code_contract():
    ok = VerificationReport("s", (CheckRecord("a", "PASS"),
                                  CheckRecord("b", "SKIPPED")))
    bad = VerificationReport("s", (CheckRecord("a", "PASS"),
                                   CheckRecord("b", "FAIL", {"w": 1})))
    assert ok.exit_code == 0 and bad.exit_code == 1


def test_render_text_shows_witness_for_failures():
    rep = VerificationReport("demo", (CheckRecord("broke", "FAIL",
                                                  {"value": Q(1, 2)}),))
    text = render_report(rep, "text")
    assert "FAIL" in text and "broke" in text and '"1/2"' in text


class _Int(int):
    pass


class _Str(str):
    pass


_encoder_leaf = st.one_of(
    st.text(), st.sampled_from(["", "é∉", "\n\t\"\\", "\x00\u2028", "\ud800"]),
    st.integers(), st.integers(-10 ** 40, 10 ** 40), st.booleans(), st.none(),
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    st.fractions(), st.builds(_Int, st.integers()),
    st.builds(_Str, st.text(max_size=3)))
_encoder_key = st.one_of(st.text(max_size=3), st.integers(), st.booleans(),
                         st.none(), st.floats(), st.builds(_Str, st.text(max_size=2)))
_encoder_value = st.recursive(_encoder_leaf, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(st.integers(), max_size=4),
    st.lists(inner, max_size=3).map(tuple),
    st.dictionaries(st.text(max_size=3), inner, max_size=4),
    st.dictionaries(_encoder_key, inner, max_size=3)), max_leaves=20)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_encoder_value)
def test_report_encoder_writes_the_bytes_of_json_dumps(value):
    assert _json_text(value) == json.dumps(
        value, indent=2, ensure_ascii=False, default=str)


def test_run_rejects_unknown_subcommand():
    with pytest.raises(CLIError, match="subcommand"):
        run("frobnicate")


def test_each_runner_takes_exactly_its_subcommand_flags():
    # a flag its runner does not read, or a runner parameter no flag
    # sets, would fail here; --format is main's own
    (subparsers,) = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    assert set(subparsers.choices) == set(_RUNNERS)
    for name, sub in subparsers.choices.items():
        dests = {a.dest for a in sub._actions
                 if not isinstance(a, argparse._HelpAction)} - {"format"}
        assert dests == set(inspect.signature(_RUNNERS[name]).parameters), name


# ---------------------------------------------------------------------------
# rootdatum
# ---------------------------------------------------------------------------

def test_rootdatum_report(capsys):
    code, payload = run_json(["rootdatum", "--datum", "a2"], capsys)
    assert code == 0
    assert all(s == "PASS" for s in statuses(payload).values())
    data = payload["data"]
    assert data["cartan_matrix"] == [[2, -1], [-1, 2]]
    assert data["weyl_order"] == 6
    assert data["root_count"] == 6


def test_rootdatum_general_linear(capsys):
    code, payload = run_json(["rootdatum", "--datum", "gl2"], capsys)
    assert code == 0
    data = payload["data"]
    assert data["ambient_rank"] == 2 and data["semisimple_rank"] == 1
    assert [1, -1] in data["roots"]


# ---------------------------------------------------------------------------
# heart-check
# ---------------------------------------------------------------------------

def test_heart_check_wall_point_escalates(capsys):
    code, payload = run_json(
        ["heart-check", "--datum", "gl3", "--x", "1/2,0,0", "--r", "1",
         "--theta", "1"], capsys)
    assert code == 1
    (check,) = payload["checks"]
    assert check["status"] == "FAIL"
    wit = check["witness"]
    assert wit["status"] == "MISMATCH"
    assert {m["threshold_at_x"] for m in wit["mismatches"]} == {1}
    assert {m["threshold_at_image"] for m in wit["mismatches"]} == {2}
    assert wit["escalation"]["status"] == "DISTINCT_VOLUME"
    assert payload["data"]["verdict"] == WALL_VERDICT
    assert payload["data"]["obstruction"] == "DISTINCT_VOLUME"


def test_heart_check_interior_point_all_subsets(capsys):
    code, payload = run_json(
        ["heart-check", "--datum", "gl3", "--x", "2/3,1/3,0", "--r", "1"],
        capsys)
    assert code == 0
    # four theta subsets for semisimple rank two
    assert len(payload["checks"]) == 4
    assert all(s == "PASS" for s in statuses(payload).values())
    assert payload["data"]["verdict"] == "PROVEN_CONDITION_1"
    assert payload["data"]["point_kind"] == "ALCOVE_INTERIOR"


def test_heart_check_without_matrix_model_skips_escalation(capsys):
    code, payload = run_json(
        ["heart-check", "--datum", "a2", "--x", "1/2,0", "--r", "1",
         "--theta", "1"], capsys)
    assert code == 1
    (check,) = payload["checks"]
    esc = check["witness"]["escalation"]
    assert esc["status"] == "SKIPPED"
    assert "matrix model" in esc["reason"]
    assert "verdict" not in payload["data"]


def test_cartan_datum_labelled_gl_has_no_matrix_model(tmp_path, capsys):
    # the label is free text: an A2 Cartan datum called GL3 gets no
    # integral model, where it used to end in a KeyError traceback
    path = tmp_path / "fake_gl3.json"
    path.write_text('{"cartan": [[2,-1],[-1,2]], "label": "GL3"}')
    code, payload = run_json(["heart-check", "--datum", str(path),
                              "--x", "1/3,1/3", "--r", "1/2"], capsys)
    assert code == 1 and capsys.readouterr().err == ""
    escalations = [c["witness"]["escalation"] for c in payload["checks"]
                   if c["status"] == "FAIL"]
    assert escalations and all(
        esc == {"status": "SKIPPED",
                "reason": "no integral matrix model for this datum"}
        for esc in escalations)
    assert main(["spade-check", "--datum", str(path), "--x", "1/2,0",
                 "--r", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert "general-linear datum" in captured.err


def test_heart_check_argument_validation():
    with pytest.raises(SystemExit):
        main(["heart-check", "--datum", "gl3"])  # missing --x/--r
    assert main(["heart-check", "--datum", "gl3", "--x", "1/2,0",
                 "--r", "1"]) == 2  # wrong length
    assert main(["heart-check", "--datum", "gl3", "--x", "1/2,0,0",
                 "--r", "0"]) == 2  # depth must be positive
    assert main(["heart-check", "--datum", "gl3", "--x", "1/2,0,0",
                 "--r", "1", "--theta", "5"]) == 2


# ---------------------------------------------------------------------------
# counterexample
# ---------------------------------------------------------------------------

def test_counterexample_full_reproduction(capsys):
    code, payload = run_json(["counterexample"], capsys)
    assert code == 0
    assert all(s == "PASS" for s in statuses(payload).values())
    mats = payload["data"]["matrices"]
    assert mats["filtration_group"] == [[1, 1, 1], [2, 1, 1], [2, 1, 1]]
    assert mats["conjugated_group"] == [[1, 2, 1], [1, 1, 1], [1, 2, 1]]
    assert mats["levi_intersection"] == [
        [1, None, None], [None, 1, 1], [None, 1, 1]]
    assert mats["conjugated_levi_intersection"] == [
        [1, None, None], [None, 1, 1], [None, 2, 1]]
    idx = payload["data"]["indices"]
    assert idx["principal_congruence_in_iwahori"] == "q*(q-1)^2"
    assert idx["pro_unipotent_in_iwahori"] == "q^2*(q-1)^2"
    assert payload["data"]["verdict"] == WALL_VERDICT
    counts = {row["p"]: row for row in payload["data"]["point_counts"]}
    assert counts[2]["principal_index"] == 2 * 1
    assert counts[3]["principal_index"] == 3 * 4
    assert counts[3]["pro_unipotent_index"] == 9 * 4


def test_counterexample_rejects_numeric_q():
    with pytest.raises(SystemExit):
        main(["counterexample", "--q", "3"])


def test_counterexample_has_no_q_option(capsys):
    # the index arithmetic is symbolic only, so there is nothing to choose
    with pytest.raises(SystemExit) as exc:
        main(["counterexample", "--q", "symbolic"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --q symbolic" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# spade-check
# ---------------------------------------------------------------------------

def test_spade_check_single_partition(capsys):
    code, payload = run_json(
        ["spade-check", "--datum", "gl2", "--x", "1/2,0", "--r", "1",
         "--require-exhaustive"], capsys)
    assert code == 0
    assert payload["data"]["bounds"] == [[1, 1], [2, 1]]
    (row,) = payload["data"]["partitions"]
    assert row["analytic_match"] is True
    assert row["exhaustive"] == [[2, True], [3, True]]


def test_spade_check_all_partitions_rank_three(capsys):
    code, payload = run_json(
        ["spade-check", "--datum", "gl3", "--x", "1/2,0,0", "--r", "1"],
        capsys)
    assert code == 0
    assert len(payload["checks"]) == 3


@pytest.mark.parametrize("argv", [
    ["--datum", "gl4", "--x", "0,0,0,0", "--r", "4"],
    *(["--datum", "gl2", "--x", "0,0", "--r", r] for r in ("20", "30", "40"))])
def test_spade_check_deep_filtrations_exit_0_cleanly(argv):
    # GL4 at depth 4 has 2^16 points at p = 2, each a 4 x 4 matrix mod
    # 2^5; GL2 at depth 20 to 40 has entries mod 2^21 to 3^41, past the
    # reach of int64 products, and is verified at both primes.  No prime
    # may be refuted, or pass unflagged
    proc = subprocess.run(
        [sys.executable, "-m", "heckelab.cli", "spade-check", *argv,
         "--format", "json"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0 and proc.stderr == ""
    rows = json.loads(proc.stdout)["data"]["partitions"]
    for row in rows:
        for p, verdict in row["exhaustive"]:
            assert verdict is True or any(
                f.startswith(f"UNVERIFIED_EXHAUSTIVELY(p={p},")
                for f in row["flags"])
    if argv[1] == "gl4":
        assert len(rows) == 7
        assert all(row["exhaustive"][0] == [2, True] for row in rows)
    else:
        assert rows[0]["exhaustive"] == [[2, True], [3, True]]


def test_spade_check_flags_a_count_too_long_to_print():
    # at x = (2999, 0), r = 3000 the point counts are 2^12000 and 3^12000;
    # the second has 5726 digits, past CPython's 4300-digit limit on
    # int-to-str conversion, and is flagged as a power instead
    proc = subprocess.run(
        [sys.executable, "-m", "heckelab.cli", "spade-check", "--datum",
         "gl2", "--x", "2999,0", "--r", "3000", "--format", "json"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0 and proc.stderr == ""
    row, = json.loads(proc.stdout)["data"]["partitions"]
    assert row["exhaustive"] == [[2, None], [3, None]]
    assert row["flags"] == [
        f"UNVERIFIED_EXHAUSTIVELY(p=2, expected={2 ** 12000})",
        "UNVERIFIED_EXHAUSTIVELY(p=3, expected=3^12000)"]


def test_spade_check_work_cap(tmp_path, capsys):
    # the cap is read off --x before the datum is built: GL200 over its
    # 2^199 - 1 default partitions is refused at once
    files = {}
    for n in (8, 9, 21, 22, 200):
        files[n] = tmp_path / f"gl{n}.json"
        files[n].write_text(f'{{"general_linear": {n}}}')

    def argv(n, one_partition):
        out = ["spade-check", "--datum", str(files[n]),
               "--x", ",".join(["0"] * n), "--r", "1"]
        if one_partition:
            out += ["--partition", "0|" + ",".join(map(str, range(1, n)))]
        return out

    start = time.perf_counter()
    assert main(argv(200, False)) == 2
    assert time.perf_counter() - start < 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert "all 2^199 - 1 partitions exceeds the work cap" in captured.err
    assert main(argv(22, True)) == 2 and main(argv(9, False)) == 2
    assert main(argv(21, True)) == 0 and main(argv(8, False)) == 0


def test_spade_check_validation():
    assert main(["spade-check", "--datum", "a2", "--x", "1/2,0",
                 "--r", "1"]) == 2  # needs a matrix model
    assert main(["spade-check", "--datum", "gl3", "--x", "1/2,0,0",
                 "--r", "1", "--partition", "0|1"]) == 2  # missing row


# ---------------------------------------------------------------------------
# clifford
# ---------------------------------------------------------------------------

QUICK_MODELS = [m for m in build_catalog() if m.group.order <= 32]
QUICK_RESULTS = evaluate_catalog(QUICK_MODELS)


def test_clifford_quick_table(capsys):
    code, payload = run_json(["clifford", "--quick"], capsys)
    assert code == 0
    st = statuses(payload)
    assert len(st) == len(QUICK_MODELS)
    assert st["entry skip_c4"] == "SKIPPED"
    assert st["entry skip_d8_center"] == "SKIPPED"
    assert all(s in ("PASS", "SKIPPED") for s in st.values())
    by_name = {e["name"]: e for e in payload["data"]["entries"]}
    assert by_name["d8_rho2"]["multiplicity"] == 1
    assert by_name["he3_z"]["multiplicity"] == 3


def assert_matches_golden(golden, argv, capsys, exit_code=0):
    # the raw stdout, apart from the wall_time_s member, is fixed byte
    # for byte, so the goldens see the encoder as well as the data
    code = main(argv + ["--format", "json"])
    assert code == exit_code
    out, members = re.subn(r',\n  "wall_time_s": [^\n]*(?=\n}\n\Z)', "",
                           capsys.readouterr().out)
    assert members == 1
    assert out == (GOLDEN / f"{golden}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("golden,extra", [("clifford", []),
                                          ("clifford_quick", ["--quick"])])
def test_clifford_matches_golden(golden, extra, capsys):
    assert_matches_golden(golden, ["clifford", *extra], capsys)


GOLDEN_RUNS = {
    **{f"rootdatum_{name}": ["rootdatum", "--datum", name]
       for name in REGISTRY},
    **{f"torus_center_{name}_q3_r1": ["torus-center", "--datum", name,
                                      "--q", "3", "--radius", "1"]
       for name in ("gl2", "gl3")},
    "torus_center_gl3_q4_r1": ["torus-center", "--datum", "gl3",
                               "--q", "4", "--radius", "1"],
    # the other torus-center calls of the torus benchmark
    "torus_center_gl2_q7_r2": ["torus-center", "--datum", "gl2",
                               "--q", "7", "--radius", "2"],
    "torus_center_g2_q3_r2": ["torus-center", "--datum", "g2",
                              "--q", "3", "--radius", "2"],
    "torus_center_gl4_q3_r1_roc": ["torus-center", "--datum", "gl4",
                                   "--q", "3", "--radius", "1",
                                   "--check", "roc"],
    **{f"iwahori_center_{name}_r{radius}": ["iwahori-center", "--datum", name,
                                            "--radius", str(radius)]
       for name, radius in (("a1", 2), ("gl2", 1), ("b3", 1), ("a3", 2))},
    "counterexample": ["counterexample"],
    "verify_all_quick": ["verify-all", "--quick"],
    # the heart-check and spade-check calls of the filtration benchmark,
    # named by datum, point and depth with "-" for "/"
    "heart_check_gl3_x1-2_0_0_r1_theta1":
        ["heart-check", "--datum", "gl3", "--x", "1/2,0,0", "--r", "1",
         "--theta", "1"],
    "heart_check_gl3_x2-3_1-3_0_r1":
        ["heart-check", "--datum", "gl3", "--x", "2/3,1/3,0", "--r", "1"],
    "heart_check_gl4_x3-4_1-2_1-4_0_r3-2":
        ["heart-check", "--datum", "gl4", "--x", "3/4,1/2,1/4,0",
         "--r", "3/2"],
    "heart_check_b3_x1-4_1-8_1-16_r3-2":
        ["heart-check", "--datum", "b3", "--x", "1/4,1/8,1/16",
         "--r", "3/2"],
    "spade_check_gl2_x1-2_0_r1":
        ["spade-check", "--datum", "gl2", "--x", "1/2,0", "--r", "1"],
    "spade_check_gl3_x1-2_1-3_0_r1-2":
        ["spade-check", "--datum", "gl3", "--x", "1/2,1/3,0", "--r", "1/2"],
    "spade_check_gl3_x2-3_1-3_0_r1-2":
        ["spade-check", "--datum", "gl3", "--x", "2/3,1/3,0", "--r", "1/2"],
    "spade_check_gl3_x1-2_0_0_r1":
        ["spade-check", "--datum", "gl3", "--x", "1/2,0,0", "--r", "1"],
    "spade_check_gl4_x3-4_1-2_1-4_0_r1-2":
        ["spade-check", "--datum", "gl4", "--x", "3/4,1/2,1/4,0",
         "--r", "1/2"],
    # the escalation branches outside the benchmark: a point too far out
    # for an integral model, and a mismatch that a translation witness
    # repairs on a datum with no matrix model
    "heart_check_gl3_x5_0_0_r1_theta1":
        ["heart-check", "--datum", "gl3", "--x", "5,0,0", "--r", "1",
         "--theta", "1"],
    "heart_check_a2_x1-3_1-3_r1-2":
        ["heart-check", "--datum", "a2", "--x", "1/3,1/3", "--r", "1/2"],
}

# heart-check exits 1 on these five: a condition-1 check fails (at the
# gl3 and gl4 points with a DISTINCT_VOLUME obstruction, at the b3 and
# a2 points with no integral matrix model to escalate to, at gl3
# x=(5,0,0) with a negative bound in the model at x)
GOLDEN_EXIT = {"heart_check_gl3_x1-2_0_0_r1_theta1": 1,
               "heart_check_gl4_x3-4_1-2_1-4_0_r3-2": 1,
               "heart_check_b3_x1-4_1-8_1-16_r3-2": 1,
               "heart_check_gl3_x5_0_0_r1_theta1": 1,
               "heart_check_a2_x1-3_1-3_r1-2": 1}


@pytest.mark.parametrize("golden", sorted(GOLDEN_RUNS))
def test_report_matches_golden(golden, capsys):
    assert_matches_golden(golden, GOLDEN_RUNS[golden], capsys,
                          GOLDEN_EXIT.get(golden, 0))


@pytest.mark.parametrize("script", ["center_dimension_table",
                                    "heart_alcove_survey"])
def test_script_stdout_matches_golden(script):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{script}.py")],
        capture_output=True, text=True, cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == (GOLDEN / f"{script}.txt").read_text()


def test_center_dimension_table_refuses_a_q_that_is_not_a_prime_power():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "center_dimension_table.py"),
         "--q", "3", "6"],
        capture_output=True, text=True, cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    # a usage error before any table, not a traceback after the first
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines()[-1] == (
        "center_dimension_table.py: error: q must be a prime power >= 2, "
        "got 6")


@pytest.mark.parametrize("script,args,message", [
    ("heart_alcove_survey", ["--depths", "abc"],
     "not an exact rational (use p/q or an integer): 'abc'"),
    ("heart_alcove_survey", ["--depths", "1/0"],
     "not an exact rational (use p/q or an integer): '1/0'"),
    ("heart_alcove_survey", ["--depths", "0.5"],
     "not an exact rational (use p/q or an integer): '0.5'"),
    ("heart_alcove_survey", ["--depths", "0"], "every depth must be positive"),
    ("heart_alcove_survey", ["--max-denominator", "0"],
     "--max-denominator must be >= 1"),
    ("center_dimension_table", ["--max-radius", "-1"],
     "--max-radius must be >= 0"),
    # no alcove-interior point of A1 has every coordinate denominator 1,
    # and none of B2 has them all at most 3
    ("heart_alcove_survey", ["--max-denominator", "1"],
     "--max-denominator 1 leaves a1 with no alcove-interior point"),
    ("heart_alcove_survey", ["--max-denominator", "3"],
     "--max-denominator 3 leaves b2 with no alcove-interior point"),
])
def test_scripts_refuse_malformed_arguments(script, args, message):
    # a usage error before any output, not a traceback or an empty table
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{script}.py"), *args],
        capture_output=True, text=True, cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines()[-1] == f"{script}.py: error: {message}"


def test_clifford_component_modes():
    for mode in ("transfer", "center", "commutativity"):
        checks = _clifford_checks(QUICK_RESULTS, mode)
        assert all(c.status in ("PASS", "SKIPPED") for c in checks)


def test_clifford_catalog_round_trip(tmp_path, capsys):
    path = tmp_path / "catalog.json"
    assert main(["clifford", "--emit-catalog", str(path)]) == 0
    capsys.readouterr()
    data = json.loads(path.read_text())
    names = [e["name"] for e in data["entries"]]
    assert names == [m.name for m in build_catalog()]
    assert len(names) >= 12
    # the emitted file passes its own --catalog validation and checks, and
    # gives the builtin report: its integral coefficients come back as
    # ints, the others as Fractions, and both share the product memo
    assert main(["clifford", "--format", "json"]) == 0
    builtin = json.loads(capsys.readouterr().out)
    assert main(["clifford", "--catalog", str(path), "--format", "json"]) == 0
    loaded = json.loads(capsys.readouterr().out)
    for report in (builtin, loaded):
        assert isinstance(report.pop("wall_time_s"), float)
    # the report names its catalog source; everything else must agree
    assert builtin["data"].pop("catalog") == "builtin"
    assert loaded["data"].pop("catalog") == str(path)
    assert loaded == builtin


def test_clifford_catalog_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    # an unreadable or unwritable path is one line, not a traceback
    for argv, needle in [
            (["--catalog", str(tmp_path / "none.json")],
             "cannot read catalog file"),
            (["--catalog", str(bad)], "invalid JSON at line 1"),
            (["--catalog", str(tmp_path)], "cannot read catalog file"),
            (["--emit-catalog", str(tmp_path)], "cannot write catalog file"),
            (["--emit-catalog", str(tmp_path / "missing" / "dir" / "x.json")],
             "cannot write catalog file")]:
        assert main(["clifford", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and needle in captured.err


def _set_coefficient(value):
    def mutate(entry):
        entry["rho"]["matrices"][0][0][0] = value
    return mutate


def _set_key(key, value):
    def mutate(entry):
        entry[key] = value
    return mutate


def _float_table_entry(entry):
    entry["group"]["table"][1][0] = float(entry["group"]["table"][1][0])


def _float_generator(entry):
    entry["rho"]["generators"][0] = float(entry["rho"]["generators"][0])


def _set_label(value):
    def mutate(entry):
        entry["group"]["label"] = value
    return mutate


def _set_rho_generators(value):
    def mutate(entry):
        entry["rho"]["generators"] = value
    return mutate


@pytest.mark.parametrize("mutate,needle", [
    (_set_coefficient([0.0, 1.0]), "coefficients must be strings"),
    (_set_coefficient([False, True]), "coefficients must be strings"),
    (_set_coefficient([0, 1]), "coefficients must be strings"),
    (_set_coefficient(["1/0", "0"]), "coefficients must be strings"),
    (_set_coefficient(["1e999", "0"]), "coefficients must be strings"),
    (_set_coefficient(["0.5", "0"]), "coefficients must be strings"),
    (_set_key("conductor", 4.5), "conductor must be an integer, got 4.5"),
    (_set_key("conductor", True), "conductor must be an integer, got True"),
    (_set_key("normal", [0, 1.0, 2, 3]), "normal must be an integer"),
    (_set_key("j_tilde", [0, 1, 2, 3, 4, 5, 6, 7.0]),
     "j_tilde must be an integer"),
    (_set_key("group", {"permutations": [[1.0, 2, 3, 0]]}),
     "permutations must be an integer"),
    (_float_table_entry, "table must be an integer"),
    (_float_generator, "generators must be an integer"),
    (_set_key("name", 5), "name must be a string, got 5"),
    (_set_label([1]), "group label must be a string, got [1]"),
    (_set_key("normal", [0, 99]), "normal must index the 8 group elements"),
    (_set_key("normal", [0, -1, 2, 3]), "normal must index the 8 group"),
    (_set_key("j_tilde", [0, 1, 2, 3, 4, 5, 6, 99]),
     "j_tilde must index the 8 group elements"),
    (_set_rho_generators([99]), "generators must index the 8 group"),
    (_set_key("group", {"permutations": [[5, 0]]}),
     "permutations must rearrange one set 0..k-1"),
    (_set_key("group", 5), "bad catalog entry: group must be a JSON object"),
    (_set_key("group", []), "bad catalog entry: group must be a JSON object"),
    (_set_key("group", "D8"),
     "bad catalog entry: group must be a JSON object"),
    (_set_key("group", {"table": []}), "element 0 is not an identity"),
    (_set_key("conductor", 9), "conductor must lie in 1..8, the group order"),
    (_set_key("conductor", 0), "conductor must lie in 1..8"),
    (_set_key("conductor", -4), "conductor must lie in 1..8"),
], ids=["float_coeff", "bool_coeff", "int_coeff", "zero_denominator_coeff",
        "exponent_coeff", "decimal_coeff", "float_conductor",
        "bool_conductor", "float_normal", "float_j_tilde",
        "float_permutation", "float_table", "float_generator", "int_name",
        "list_label", "normal_out_of_range", "normal_negative",
        "j_tilde_out_of_range", "generator_out_of_range",
        "permutation_not_onto", "int_group", "list_group", "string_group", "empty_table",
        "conductor_above_order", "zero_conductor", "negative_conductor"])
def test_clifford_catalog_json_numbers_exit_2(mutate, needle, tmp_path,
                                              capsys):
    from heckelab.catalog import catalog_to_json
    payload = catalog_to_json(QUICK_MODELS[:1])
    mutate(payload["entries"][0])
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(payload))
    assert main(["clifford", "--catalog", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad catalog entry" in captured.err and needle in captured.err


ENTRIES_REFUSAL = "`entries` must be a non-empty JSON list of objects"


@pytest.mark.parametrize("payload", [
    {"entries": []}, {"entries": {}}, [], {}, {"entries": [5]},
    {"entries": [{"name": "x"}, []]}, {"entries": "d8"}],
    ids=["empty_list", "empty_object", "top_level_list", "no_entries",
         "int_entry", "list_entry", "string_entries"])
def test_clifford_catalog_without_entries_exit_2(payload, tmp_path, capsys):
    # an empty catalog used to print "0 passed, 0 failed, 0 skipped" and
    # exit 0
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(payload))
    assert main(["clifford", "--catalog", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and ENTRIES_REFUSAL in captured.err


def _drop(*path):
    def mutate(entry):
        *parents, last = path
        for key in parents:
            entry = entry[key]
        del entry[last]
    return mutate


def _set_path(value, *path):
    def mutate(entry):
        *parents, last = path
        for key in parents:
            entry = entry[key]
        entry[last] = value
    return mutate


@pytest.mark.parametrize("mutate,needle", [
    (_drop("name"), "entry 1: missing key 'name'"),
    (_drop("group"), "entry 1: missing key 'group'"),
    (_drop("conductor"), "entry 1: missing key 'conductor'"),
    (_drop("normal"), "entry 1: missing key 'normal'"),
    (_drop("j_tilde"), "entry 1: missing key 'j_tilde'"),
    (_drop("rho_tilde"), "entry 1: missing key 'rho_tilde'"),
    (_drop("rho"), "entry 1: missing key 'rho'"),
    (_drop("rho", "matrices"), "entry 1 rho: missing key 'matrices'"),
    (_drop("rho_tilde", "generators"),
     "entry 1 rho_tilde: missing key 'generators'"),
    (_set_path(5, "rho_tilde"),
     "entry 1: 'rho_tilde' must be a JSON object, got 5"),
    (_set_path([], "rho"), "entry 1: 'rho' must be a JSON object, got []"),
    (_set_path(5, "rho", "matrices"),
     "entry 1 rho: 'matrices' must be a JSON list, got 5"),
    (_set_path([5], "rho", "matrices"),
     "entry 1 rho: 'matrices' must be a JSON list of matrices"),
    (_set_path([[5]], "rho", "matrices"),
     "entry 1 rho: 'matrices' must be a JSON list of matrices"),
    (_set_path(5, "group", "table"),
     "entry 1 group: 'table' must be a JSON list, got 5"),
    (_set_path({"permutations": 5}, "group"),
     "entry 1 group: 'permutations' must be a JSON list, got 5"),
], ids=["no_name", "no_group", "no_conductor", "no_normal", "no_j_tilde",
        "no_rho_tilde", "no_rho", "no_rho_matrices",
        "no_rho_tilde_generators", "int_rho_tilde", "list_rho",
        "int_matrices", "int_matrix", "int_row", "int_table",
        "int_permutations"])
def test_clifford_catalog_names_the_entry_and_key(mutate, needle, tmp_path,
                                                  capsys):
    # the second entry is broken; the message names it and the key,
    # where it used to print the raw KeyError or TypeError text
    from heckelab.catalog import catalog_to_json
    payload = catalog_to_json(QUICK_MODELS[:2])
    mutate(payload["entries"][1])
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(payload))
    assert main(["clifford", "--catalog", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and needle in captured.err


def test_clifford_group_order_cap(tmp_path, capsys, monkeypatch):
    # a catalog whose group exceeds the cap is refused up front
    from heckelab.catalog import catalog_to_json
    import heckelab.finite_groups as finite_groups
    big = build_catalog()[:1]
    payload = catalog_to_json(big)
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(payload))
    monkeypatch.setattr(finite_groups, "MAX_GROUP_ORDER", 4)
    assert main(["clifford", "--catalog", str(path)]) == 2
    assert "group order is at least 8; cap is 4" in capsys.readouterr().err


def test_clifford_group_order_cap_stops_the_closure(tmp_path, capsys):
    # S7 (order 5040) from two permutation generators: the closure stops
    # at cap + 1 elements, before any table or representation is built
    from heckelab.catalog import catalog_to_json
    payload = catalog_to_json(QUICK_MODELS[:1])
    payload["entries"][0]["group"] = {
        "permutations": [[1, 2, 3, 4, 5, 6, 0], [1, 0, 2, 3, 4, 5, 6]]}
    path = tmp_path / "s7.json"
    path.write_text(json.dumps(payload))
    start = time.perf_counter()
    assert main(["clifford", "--catalog", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert "group order is at least 4097; cap is 4096" in captured.err


# one field of a catalog entry, by path from the entry, that the fuzz
# test replaces; ("rho", "matrices", 0, 0, 0, 0) is one coefficient
FUZZ_PATHS = [("name",), ("group",), ("group", "label"), ("group", "table"),
              ("normal",), ("j_tilde",), ("conductor",),
              ("rho", "generators"), ("rho", "matrices", 0, 0, 0, 0)]

_json_leaf = st.one_of(st.none(), st.booleans(), st.integers(-3, 64),
                       st.floats(allow_nan=False, allow_infinity=False),
                       st.text(max_size=4))
_json_value = st.one_of(
    _json_leaf, st.lists(_json_leaf, max_size=4),
    st.dictionaries(st.text(max_size=4), _json_leaf, max_size=3))


@settings(max_examples=60, deadline=None)
@given(path=st.sampled_from(FUZZ_PATHS), value=_json_value)
def test_clifford_catalog_fuzz_never_crashes(path, value, tmp_path_factory):
    # any one field replaced by a small JSON value: a verdict or one
    # error line, never a traceback
    from heckelab.catalog import catalog_to_json
    payload = catalog_to_json(QUICK_MODELS[:1])
    *parents, last = path
    owner = payload["entries"][0]
    for key in parents:
        owner = owner[key]
    owner[last] = value
    catalog = tmp_path_factory.mktemp("fuzz") / "catalog.json"
    catalog.write_text(json.dumps(payload))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["clifford", "--catalog", str(catalog)])
    assert code in (0, 1, 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


# ---------------------------------------------------------------------------
# torus-center
# ---------------------------------------------------------------------------

def test_torus_center_report(capsys):
    code, payload = run_json(
        ["torus-center", "--datum", "gl2", "--q", "3", "--radius", "1"],
        capsys)
    assert code == 0
    assert payload["data"]["orbit_count"] == 21
    assert payload["data"]["dimension"] == 21
    sizes = sorted(o["size"] for o in payload["data"]["orbits"])
    assert sum(sizes) == 36  # 4 characters x 9 coweights in the box
    assert all(o["stabilizer_order"] in (1, 2)
               for o in payload["data"]["orbits"])


def test_torus_center_roc_only_skips_dimension(capsys):
    code, payload = run_json(
        ["torus-center", "--datum", "gl2", "--q", "3", "--radius", "1",
         "--check", "roc"], capsys)
    assert code == 0
    assert "dimension" not in payload["data"]


def test_torus_center_caps_and_validation(capsys):
    assert main(["torus-center", "--datum", "gl3", "--q", "7",
                 "--radius", "5"]) == 2
    # both routes run up to the enumeration cap
    code, payload = run_json(["torus-center", "--datum", "gl2", "--q", "8",
                              "--radius", "2"], capsys)
    assert code == 0
    assert payload["data"]["dimension"] == payload["data"]["orbit_count"]
    assert main(["torus-center", "--datum", "gl2", "--q", "8",
                 "--radius", "2", "--check", "roc"]) == 0
    assert main(["torus-center", "--datum", "gl2", "--q", "6",
                 "--radius", "1"]) == 2  # not a prime power
    assert main(["torus-center", "--datum", "gl2", "--q", "3",
                 "--radius", "-1"]) == 2


# ---------------------------------------------------------------------------
# malformed input
# ---------------------------------------------------------------------------

# datum files by placeholder name; B6 is refused from its type, whose
# Weyl group order 46080 is over the cap, before enumeration
DATUM_FILES = {
    "datum": '{"cartan": [[2]], "central_rank": -1}',
    "gl_float": '{"general_linear": 2.7}',
    "gl_string": '{"general_linear": "3"}',
    "central_float": '{"cartan": [[2]], "central_rank": 1.5}',
    "central_bool": '{"cartan": [[2]], "central_rank": true}',
    "cartan_float": '{"cartan": [[2.0]]}',
    "not_object": '[2]',
    "extra_key": '{"general_linear": 3, "label": "GL3"}',
    "b6": json.dumps({"cartan": cartan_matrix("B", 6)}),
    "gl100": '{"general_linear": 100}',
    "torus0": '{"cartan": [], "central_rank": 0}',
    "wide": '{"cartan": [[2]], "central_rank": 128}',
}


@pytest.mark.parametrize("argv,needle", [
    (["torus-center", "--datum", "gl2", "--q", "1", "--radius", "1"],
     "prime power"),
    (["torus-center", "--datum", "gl2", "--q", "0", "--radius", "1"],
     "prime power"),
    (["spade-check", "--datum", "gl3", "--x", "5,0,0", "--r", "1"],
     "negative bound"),
    (["rootdatum", "--datum", "{datum}"], "central_rank"),
    (["clifford", "--catalog", "{catalog}"], "bad catalog entry: conductor"),
    (["rootdatum", "--datum", "{gl_float}"],
     "general_linear must be an integer, got 2.7"),
    (["spade-check", "--datum", "{gl_string}", "--x", "0,0,0", "--r", "1"],
     "general_linear must be an integer, got '3'"),
    (["rootdatum", "--datum", "{central_float}"],
     "central_rank must be an integer, got 1.5"),
    (["rootdatum", "--datum", "{central_bool}"],
     "central_rank must be an integer, got True"),
    (["rootdatum", "--datum", "{cartan_float}"],
     "every Cartan entry must be an integer, got 2.0"),
    (["rootdatum", "--datum", "{not_object}"], "must be a JSON object"),
    (["rootdatum", "--datum", "{extra_key}"], "unexpected keys ['label']"),
    (["rootdatum", "--datum", "{b6}"],
     "Weyl group order is at least 46080; cap is 10080"),
    (["rootdatum", "--datum", "{directory}"], "cannot read datum file"),
    (["spade-check", "--datum", "{gl100}", "--x", ",".join(["0"] * 100),
      "--r", "1", "--partition", "0|" + ",".join(map(str, range(1, 100)))],
     "spade-check of rank 100 over one partition exceeds the work cap"),
    # a rank-0 datum estimates one pair whatever q is: q is refused before
    # its prime-power test trial-divides up to a billion
    (["torus-center", "--datum", "{torus0}", "--q", "1000000007",
      "--radius", "0"],
     "--q 1000000007 has q - 1 = 1000000006 residue characters per "
     "coordinate; cap is 50000"),
    (["rootdatum", "--datum", "{wide}"], "ambient rank is 129; cap is 128"),
    # a bound past padic_groups.MAX_BOUND would reach the sentinel that
    # stands for a frozen entry, and its counts would treat that entry as
    # free
    (["spade-check", "--datum", "gl2", "--x", "99999999,0", "--r",
      "100000000"], "bound (0,0) must be <= 499999"),
    # superscript digits pass str.isdigit but not int()
    (["heart-check", "--datum", "a2", "--x", "1/3,1/3", "--r", "1/2",
      "--theta", "²"], "indices must be non-negative integers"),
    (["spade-check", "--datum", "gl2", "--x", "1/2,0", "--r", "1",
      "--partition", "0|¹"], "indices must be non-negative integers"),
    # an Arabic-Indic digit passes \d, and Fraction() reads it
    (["heart-check", "--datum", "a2", "--x", "\u0663/4,0", "--r", "1/2"],
     "not an exact rational"),
    # blocks out of row order must be refused before they reach
    # padic_groups._block_owner, which raises ValueError on them
    (["spade-check", "--datum", "gl3", "--x", "1/2,0,0", "--r", "1",
      "--partition", "1,2|0"], "partition blocks must be runs of consecutive "
     "rows in increasing order"),
    (["spade-check", "--datum", "gl3", "--x", "1/2,0,0", "--r", "1",
      "--partition", "0,2|1"], "partition blocks must be runs of consecutive "
     "rows in increasing order"),
    (["spade-check", "--datum", "gl3", "--x", "1/2,0,0", "--r", "1",
      "--partition", "0|1"], "partition must cover rows 0..2 once"),
    # rank 1 has no proper partition, and one block factors trivially
    (["spade-check", "--datum", "gl1", "--x", "0", "--r", "1"],
     "spade-check needs a partition with at least two blocks"),
    (["spade-check", "--datum", "gl2", "--x", "1/2,0", "--r", "1",
      "--partition", "0,1"],
     "spade-check needs a partition with at least two blocks"),
])
def test_malformed_input_exits_2_with_one_line(argv, needle, tmp_path, capsys):
    from heckelab.catalog import catalog_to_json
    paths = {}
    for name, text in DATUM_FILES.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(text)
    payload = catalog_to_json(QUICK_MODELS[:1])
    payload["entries"][0]["conductor"] = 0
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps(payload))
    argv = [a.format(catalog=catalog, directory=tmp_path, **paths)
            for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and needle in captured.err


# ---------------------------------------------------------------------------
# iwahori-center
# ---------------------------------------------------------------------------

def test_iwahori_center_trivial_truncation(capsys):
    code, payload = run_json(
        ["iwahori-center", "--datum", "a1", "--radius", "0"], capsys)
    assert code == 0
    assert payload["data"]["center_dimension"] == 1
    (elt,) = payload["data"]["basis"]
    assert elt["label"] == "T_e"
    assert elt["terms"] == [{"coweight": [0], "word": [],
                             "coefficient": "1"}]


def test_iwahori_center_rank_two(capsys):
    code, payload = run_json(
        ["iwahori-center", "--datum", "gl2", "--radius", "1"], capsys)
    assert code == 0
    data = payload["data"]
    assert data["center_dimension"] == 6
    labels = {e["label"] for e in data["basis"]}
    assert "z(1,0)" in labels and "z(1,1)" in labels
    swap = next(e for e in data["basis"] if e["label"] == "z(1,0)")
    coweights = {tuple(t["coweight"]) for t in swap["terms"]}
    assert coweights == {(1, 0), (0, 1)}
    assert all(t["coefficient"] == "1" for t in swap["terms"])


def closure_weight(name, radius):
    """Total label_weight of the orbit-closed labels of a truncation,
    counted as the CLI counts it (stopping once past the cap)."""
    group = load_group(name)
    closed = label_orbits(group, radius, MAX_HECKE_WEIGHT)
    return sum(label_weight(group.datum, lam)
               for orb in closed.values() for lam in orb)


def test_iwahori_center_caps_and_validation(capsys):
    # the cap weighs orbit-closed labels, not the box: gl4 R=2 closes to
    # 625 labels of weight 3625 and is admitted; b3 R=3 has a 343-label
    # box whose closure (2023 labels) weighs more than the cap
    assert closure_weight("gl4", 2) == 3625
    assert closure_weight("b3", 3) > MAX_HECKE_WEIGHT
    assert main(["iwahori-center", "--datum", "b3", "--radius", "3"]) == 2
    assert ("orbit-closed lattice labels); cap is 15000"
            in capsys.readouterr().err)
    # a1's commutators lengthen with the radius: R=120 (241 labels)
    # weighs 14761 and is admitted (R=200 is refused, see below)
    assert closure_weight("a1", 120) == 14761 <= MAX_HECKE_WEIGHT
    # gl1 has no roots, so each label weighs 1 and its labels are the
    # box: admitted up to the cap, refused one step past it before any
    # orbit is enumerated
    assert closure_weight("gl1", 7499) == 14999
    code, payload = run_json(
        ["iwahori-center", "--datum", "gl1", "--radius", "374"], capsys)
    assert code == 0 and payload["data"]["center_dimension"] == 749
    assert main(["iwahori-center", "--datum", "gl1", "--radius", "7500"]) == 2
    assert "weighs at least 15001 " in capsys.readouterr().err
    assert main(["iwahori-center", "--datum", "a1", "--radius", "-1"]) == 2


# F4 at R=1: an 81-label box whose orbit closure holds 5089 labels
F4_CARTAN = [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]


def test_iwahori_center_refuses_a_small_box_with_a_large_closure(
        tmp_path, capsys):
    path = tmp_path / "f4.json"
    path.write_text(json.dumps({"cartan": F4_CARTAN}))
    start = time.perf_counter()
    assert main(["iwahori-center", "--datum", str(path), "--radius", "1"]) == 2
    assert time.perf_counter() - start < 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "orbit-closed lattice labels); cap is 15000" in captured.err


def test_iwahori_center_refuses_a1_at_a_large_radius_at_once(capsys):
    # 401 labels, far fewer than b3 R=2 admits, but a1 R=200 weighs 40601
    start = time.perf_counter()
    assert main(["iwahori-center", "--datum", "a1", "--radius", "200"]) == 2
    assert time.perf_counter() - start < 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "weighs at least" in captured.err
    assert "cap is 15000" in captured.err


# ---------------------------------------------------------------------------
# verify-all and process-level behaviour
# ---------------------------------------------------------------------------

def test_verify_all_quick(capsys):
    code, payload = run_json(["verify-all", "--quick"], capsys)
    assert code == 0
    st = statuses(payload)
    assert all(s in ("PASS", "SKIPPED") for s in st.values())
    prefixes = {name.split(":")[0] for name in st}
    assert prefixes == {"counterexample", "heart-check", "spade-check",
                        "clifford", "torus-center", "iwahori-center"}


# one small call of every subcommand but verify-all, which runs several;
# a subcommand missing here fails the test below with a KeyError
SMALL_RUNS = {
    "rootdatum": ["rootdatum", "--datum", "a2"],
    "heart-check": ["heart-check", "--datum", "gl3", "--x", "2/3,1/3,0",
                    "--r", "1"],
    "counterexample": ["counterexample"],
    "spade-check": ["spade-check", "--datum", "gl2", "--x", "1/2,0",
                    "--r", "1"],
    "clifford": ["clifford", "--quick"],
    "torus-center": ["torus-center", "--datum", "gl2", "--q", "3",
                     "--radius", "1"],
    "iwahori-center": ["iwahori-center", "--datum", "a1", "--radius", "1"],
}


@pytest.mark.parametrize("subcommand", sorted(set(_RUNNERS) - {"verify-all"}))
def test_each_run_builds_at_most_one_weyl_group(subcommand, monkeypatch,
                                                capsys):
    built = []
    init = WeylGroup.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(WeylGroup, "__init__", counting_init)
    assert main(SMALL_RUNS[subcommand]) == 0
    capsys.readouterr()
    expected = 0 if subcommand in ("spade-check", "clifford") else 1
    assert len(built) == expected


# run one CLI call (none without argv) in a fresh interpreter, then
# print every module it holds
LOADED_MODULES = """
import contextlib, io, json, sys
from heckelab import cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(sys.argv[1:])
print(json.dumps(sorted(sys.modules)))
"""


def loaded_modules(argv):
    proc = subprocess.run([sys.executable, "-c", LOADED_MODULES, *argv],
                          capture_output=True, text=True, check=True)
    return set(json.loads(proc.stdout))


# the gl4 heart-check escalates its mismatches through
# padic_groups.compare_levi_volumes; spade-check and counterexample run
# the exhaustive enumeration in exact Python ints
NO_NUMPY_RUNS = {
    **{name: SMALL_RUNS[name] for name in (
        "rootdatum", "torus-center", "iwahori-center", "clifford",
        "spade-check", "counterexample")},
    "heart-check": ["heart-check", "--datum", "gl4", "--x",
                    "3/4,1/2,1/4,0", "--r", "3/2"],
}


def test_importing_the_cli_loads_no_suite_and_no_root_datum():
    loaded = loaded_modules([])
    assert {m for m in loaded if m.startswith("heckelab")} == {
        "heckelab", "heckelab.cli", "heckelab._record"}
    assert "numpy" not in loaded


def test_clifford_loads_neither_root_datum_nor_laurent():
    loaded = loaded_modules(["clifford"])
    assert "heckelab.catalog" in loaded
    assert not loaded & {"heckelab.root_datum", "heckelab.laurent"}


@pytest.mark.parametrize("subcommand", sorted(NO_NUMPY_RUNS))
def test_subcommand_without_enumeration_loads_no_numpy(subcommand):
    loaded = loaded_modules(NO_NUMPY_RUNS[subcommand])
    assert "numpy" not in loaded
    if subcommand in ("iwahori-center", "torus-center"):
        assert not loaded & {"heckelab.catalog", "heckelab.clifford_lab",
                             "heckelab.padic_groups"}


# the modules a bare interpreter holds before any heckelab import
BARE_MODULES = "import json, sys; print(json.dumps(sorted(sys.modules)))"


@pytest.mark.parametrize("subcommand", sorted(SMALL_RUNS))
def test_subcommand_loads_neither_dataclasses_nor_inspect(subcommand):
    bare = set(json.loads(subprocess.run(
        [sys.executable, "-c", BARE_MODULES], capture_output=True,
        text=True, check=True).stdout))
    added = loaded_modules(SMALL_RUNS[subcommand]) - bare
    assert not added & {"dataclasses", "inspect"}


def test_json_output_idempotent(capsys):
    _, first = run_json(["counterexample"], capsys)
    _, second = run_json(["counterexample"], capsys)
    first.pop("wall_time_s")
    second.pop("wall_time_s")
    assert first == second


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit):
        main(["counterexample", "--frobnicate"])


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "heckelab.cli", "rootdatum", "--datum", "a1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "suite: rootdatum" in proc.stdout
