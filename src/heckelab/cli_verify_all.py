"""``heckelab verify-all``: a fixed fast configuration of every suite,
run through the other subcommands' runners."""
from __future__ import annotations

from fractions import Fraction as Q

from . import (cli_clifford, cli_counterexample, cli_heart_check,
               cli_iwahori_center, cli_spade_check, cli_torus_center)
from .cli_common import CheckRecord, VerificationReport


def run(*, quick: bool) -> VerificationReport:
    checks: list[CheckRecord] = []

    def absorb(prefix: str, report: VerificationReport) -> None:
        for c in report.checks:
            checks.append(CheckRecord(f"{prefix}: {c.name}", c.status,
                                      c.witness))

    absorb("counterexample", cli_counterexample.run())

    wall = cli_heart_check.run(datum="gl3", x=(Q(1, 2), Q(0), Q(0)), r=Q(1),
                               theta=(1,))
    checks.append(CheckRecord.of(
        "heart-check: wall-point-mismatch-escalates",
        wall.data.get("obstruction") == "DISTINCT_VOLUME"
        and "verdict" in wall.data,
        {"data": wall.data}))

    interior = cli_heart_check.run(datum="gl3", x=(Q(2, 3), Q(1, 3), Q(0)),
                                   r=Q(1), theta=None)
    checks.append(CheckRecord.of(
        "heart-check: alcove-interior-point-proven", interior.exit_code == 0,
        {"data": interior.data}))

    spade = {"r": Q(1), "convention": "upper", "require_exhaustive": False}
    absorb("spade-check", cli_spade_check.run(
        datum="gl2", x=(Q(1, 2), Q(0)), partition=None, **spade))
    absorb("spade-check", cli_spade_check.run(
        datum="gl3", x=(Q(1, 2), Q(0), Q(0)), partition=((0,), (1, 2)),
        **spade))

    absorb("clifford", cli_clifford.run(catalog="builtin", check="all",
                                        quick=quick, emit_catalog=None))

    absorb("torus-center", cli_torus_center.run(datum="gl2", q=3, radius=1,
                                                check="all"))

    absorb("iwahori-center", cli_iwahori_center.run(datum="a1", radius=2))
    absorb("iwahori-center", cli_iwahori_center.run(datum="gl2", radius=1))

    return VerificationReport("verify-all", tuple(checks), {"quick": quick})
