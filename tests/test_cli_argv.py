"""Command-line robustness over generated argv.

Arguments are drawn from the documented input grammar (see the cli
module docstring) together with malformed variants: inexact or
malformed rationals, out-of-range indices, bad partitions, missing or
unknown flags, data files that are invalid JSON, oversized or
malformed, and catalog files that are missing or broken.  Sizes stay
small.  Every case must end with exit code 0, 1 or 2, without an
exception escaping ``main`` and without a traceback on stderr, within
a per-case time budget.
"""
import contextlib
import io
import json
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckelab.catalog import build_catalog, catalog_to_json
from heckelab.cli import main
from heckelab.root_datum import cartan_matrix

BUDGET_S = 20


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    contents = {
        "gl8": '{"general_linear": 8}',
        "gl40": '{"general_linear": 40}',
        "gl_bad": '{"general_linear": "x"}',
        "a2_file": '{"cartan": [[2, -1], [-1, 2]], "label": "A2"}',
        "cartan_bad": '{"cartan": [[2, 1], [-1, 2]]}',
        "central_bad": '{"cartan": [[2]], "central_rank": -1}',
        "not_json": "{",
        "catalog_bad": '{"entries": [{"name": "x"}]}',
        "a5_c59": json.dumps({"cartan": cartan_matrix("A", 5),
                              "central_rank": 59}),
        "a6_c122": json.dumps({"cartan": cartan_matrix("A", 6),
                               "central_rank": 122}),
    }
    one_entry = catalog_to_json([m for m in build_catalog()
                                 if m.name == "c4_in_q8"])
    contents["catalog_one"] = json.dumps(one_entry)
    out = {}
    for name, text in contents.items():
        path = root / f"{name}.json"
        path.write_text(text)
        out[name] = str(path)
    out["missing"] = str(root / "missing.json")
    return out


# placeholders in braces name entries of the files fixture
RANKS = {"a1": 1, "a2": 2, "b2": 2, "g2": 2, "gl1": 1, "gl2": 2, "gl3": 3,
         "A1": 1, "{a2_file}": 2}
DATA = st.sampled_from(sorted(RANKS))
COORDS = st.sampled_from(["0", "1", "1/2", "-1/3", "1/3", "2/3", "1/4"])
DEPTHS = st.sampled_from(["1/2", "1", "3/2", "2"])
BAD = st.sampled_from(["", "x", "0.5", "1/0", "1e3", "--1", "-1", "0", "5",
                       "99", "0|0", "1,2|0", "0,2|1", "{gl8}", "{gl40}", "{gl_bad}",
                       "{cartan_bad}", "{central_bad}", "{not_json}",
                       "{missing}", "{catalog_bad}"])


def _optional(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def _concat(*parts):
    return st.tuples(*parts).map(lambda ps: [a for p in ps for a in p])


def _point(datum):
    n = RANKS[datum]
    return st.lists(COORDS, min_size=n, max_size=n).map(
        lambda xs: [f"--x={','.join(xs)}"])


def _heart_check(datum):
    return _concat(st.just(["heart-check", "--datum", datum]), _point(datum),
                   DEPTHS.map(lambda r: ["--r", r]),
                   _optional("--theta", st.sampled_from(["0", "1", "0,1"])))


def _spade_check(datum):
    blocks = {"gl2": ["0|1"], "gl3": ["0|1,2", "0,1|2", "0|1|2"]}[datum]
    return _concat(st.just(["spade-check", "--datum", datum]), _point(datum),
                   DEPTHS.map(lambda r: ["--r", r]),
                   _optional("--partition", st.sampled_from(blocks)),
                   _optional("--convention",
                             st.sampled_from(["upper", "lower"])),
                   st.sampled_from([[], ["--require-exhaustive"]]))


# well-formed calls of every subcommand, at small sizes
VALID = _concat(st.one_of(
    DATA.map(lambda d: ["rootdatum", "--datum", d]),
    DATA.flatmap(_heart_check),
    st.sampled_from(["gl2", "gl3"]).flatmap(_spade_check),
    _concat(st.just(["torus-center", "--datum"]),
            st.sampled_from(["a1", "a2", "gl1", "gl2"]).map(lambda d: [d]),
            st.sampled_from(["2", "3", "4", "5"]).map(lambda q: ["--q", q]),
            st.sampled_from(["0", "1"]).map(lambda r: ["--radius", r]),
            _optional("--check", st.sampled_from(["all", "roc",
                                                  "dimension"]))),
    _concat(st.just(["iwahori-center", "--datum"]), DATA.map(lambda d: [d]),
            st.sampled_from(["0", "1"]).map(lambda r: ["--radius", r])),
    _concat(st.just(["clifford", "--catalog", "{catalog_one}"]),
            _optional("--check", st.sampled_from(["all", "transfer", "center",
                                                  "commutativity"]))),
    st.just(["clifford", "--quick"]),
    st.just(["counterexample"]),
), _optional("--format", st.sampled_from(["text", "json"])))


@st.composite
def malformed(draw):
    """A well-formed call with one token replaced, dropped or added."""
    argv = draw(VALID)
    kind = draw(st.sampled_from(["replace", "drop", "append"]))
    if kind == "append":
        return argv + draw(st.sampled_from([["--frobnicate"], ["extra"],
                                            ["--format", "xml"]]))
    i = draw(st.integers(0, len(argv) - 1))
    if kind == "drop":
        return argv[:i] + argv[i + 1:]
    flag, eq, _ = argv[i].partition("=")
    bad = draw(BAD)
    return argv[:i] + [f"{flag}={bad}" if eq else bad] + argv[i + 1:]


ARGV = st.one_of(VALID, malformed(), st.sampled_from([[], ["nosuch"]]))


class _OverBudget(Exception):
    pass


def _alarm(signum, frame):
    raise _OverBudget(f"case ran longer than {BUDGET_S} s")


def run_argv(argv):
    """(exit code, stderr) of one in-process CLI call under the budget."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(BUDGET_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, err.getvalue()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(argv=ARGV)
def test_generated_argv_exits_cleanly(argv, files):
    argv = [a.format(**files) for a in argv]
    code, err = run_argv(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, (argv, err)
    if code == 2:
        # a configuration error names itself on stderr; argparse also
        # prints its usage line first
        assert err.startswith(("error:", "usage:")), (argv, err)
    else:
        assert err == "", (argv, err)


# a semisimple part of rank 5 or 6 beside many central directions, on
# which W acts trivially: building W must not cost |W| n^3 in the
# ambient rank n (64 and 128 here)
@pytest.mark.parametrize("argv", [
    ["rootdatum", "--datum", "{a5_c59}"],
    ["iwahori-center", "--datum", "{a5_c59}", "--radius", "0"],
    ["heart-check", "--datum", "{a5_c59}", "--x", ",".join(["0"] * 64),
     "--r", "1/2", "--theta", "0"],
    ["rootdatum", "--datum", "{a6_c122}"],
], ids=["rootdatum-a5", "iwahori-center-a5", "heart-check-a5", "rootdatum-a6"])
def test_large_central_rank_runs_within_budget(argv, files):
    assert run_argv([a.format(**files) for a in argv]) == (0, "")
