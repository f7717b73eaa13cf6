"""Pinned mutants of the Satake proof path; the named tests must kill each.

    python3 scripts/mutation_check.py

A mutant is (name, file, exact old text, new text, test files), the
file and test files relative to the repository root.  The script copies
``src/`` and ``tests/`` into a temporary directory and first runs the
named test files on the unmutated copy, which must pass.  Then, one
mutant at a time, it replaces the old text (which must occur exactly
once) in the copy, runs pytest on the mutant's test files there, and
restores the file.  A mutant is killed when pytest fails or times out.
One line per mutant says killed or survived; the exit status is 1 when
any mutant survived and 2 when the copy cannot be mutated or its
baseline fails.  Only the standard library and the test suite's own
pytest are used.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TEST_TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


SATAKE = "src/heckelab/iwahori_hecke.py"
HECKE_TESTS = ("tests/test_iwahori_hecke.py",)

MUTANTS = (
    Mutant("coefficient-check-accepts-any",
           SATAKE,
           "        elif any(c != one for c in z.c.values()):\n",
           "        elif False:\n",
           HECKE_TESTS),
    Mutant("support-check-accepts-any",
           SATAKE,
           "        if z.support != [(lam, e) for lam in orbit_map[rep]]:\n",
           "        if False:\n",
           HECKE_TESTS),
    Mutant("row-pass-skips-an-orbit",
           SATAKE,
           "for rep, total in sums.items() if",
           "for rep, total in list(sums.items())[1:] if",
           HECKE_TESTS),
    Mutant("lattice-rule-unchecked",
           SATAKE,
           "        if alg._commute_word((), lam) != alg.theta(lam).c:\n",
           "        if False:\n",
           HECKE_TESTS),
    Mutant("geometric-sum-one-term-short",
           SATAKE,
           "            for t in range(n):\n",
           "            for t in range(n - 1):\n",
           HECKE_TESTS),
    Mutant("v-free-rank-unchecked",
           SATAKE,
           "    if not failures and len(basis) - mat_rank(free) == len(reps):\n",
           "    if not failures:\n",
           HECKE_TESTS),
)


def occurrences(mutant: Mutant) -> int:
    """How often the mutant's old text occurs in its file."""
    return (ROOT / mutant.path).read_text().count(mutant.old)


def tests_pass(copy: Path, tests: tuple[str, ...]) -> bool:
    """Whether pytest passes on ``tests`` inside ``copy``; a timeout
    counts as a failure."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", *tests],
            cwd=copy, env=env, capture_output=True, timeout=TEST_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def main() -> int:
    bad = [m.name for m in MUTANTS if occurrences(m) != 1]
    if bad:
        print(f"old text not found exactly once: {', '.join(bad)}",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        baseline = sorted({t for m in MUTANTS for t in m.tests})
        if not tests_pass(copy, tuple(baseline)):
            print("baseline tests fail on the unmutated copy", file=sys.stderr)
            return 2
        survived = 0
        for m in MUTANTS:
            target = copy / m.path
            original = target.read_text()
            target.write_text(original.replace(m.old, m.new))
            try:
                killed = not tests_pass(copy, m.tests)
            finally:
                target.write_text(original)
            survived += not killed
            print(f"{'killed  ' if killed else 'SURVIVED'} {m.name}")
    print(f"{len(MUTANTS) - survived} killed, {survived} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
