"""``heckelab torus-center``: the orbit decomposition of the invariant
lattice-character algebra at depth one."""
from __future__ import annotations

from .cli_common import (FAIL, MAX_TORUS_PAIRS, PASS, CheckRecord, CLIError,
                         VerificationReport, load_group)
from .torus_center import (invariant_dimension, orbits, residue_modulus,
                           roc_decomposition_check)


def run(*, datum: str, q: int, radius: int, check: str) -> VerificationReport:
    group = load_group(datum)
    datum = group.datum
    if radius < 0:
        raise CLIError("--radius must be >= 0")
    # first: the prime-power test of q trial-divides up to q, and the
    # estimate below is 1 for a rank-0 datum whatever q is
    if q - 1 > MAX_TORUS_PAIRS:
        raise CLIError(f"--q {q} has q - 1 = {q - 1} residue characters "
                       f"per coordinate; cap is {MAX_TORUS_PAIRS}")
    rank = datum.ambient_rank
    pairs = (max(q - 1, 1) ** rank) * ((2 * radius + 1) ** rank)
    if pairs > MAX_TORUS_PAIRS:
        raise CLIError(f"requested truncation enumerates about {pairs} "
                       f"lattice-character pairs; cap is {MAX_TORUS_PAIRS}")
    try:
        modulus = residue_modulus(q)
    except ValueError as exc:
        raise CLIError(str(exc)) from exc
    orbit_list = orbits(group, radius, modulus=modulus)

    checks = []
    orbit_rows = []
    for idx, osum in enumerate(orbit_list):
        lam0, chi0 = osum.orbit[0]
        row = {
            "representative": {"coweight": list(lam0),
                               "character": list(chi0)},
            "size": len(osum.orbit),
            "members": [{"coweight": list(lam), "character": list(chi)}
                        for lam, chi in osum.orbit],
            "stabilizer_order": len(group.character_stabilizer(chi0, modulus)),
        }
        if check in ("roc", "all"):
            rep = roc_decomposition_check(group, osum)
            row["blocks"] = {
                "characters": [list(c) for c in rep.block_characters],
                "sizes": list(rep.block_sizes),
            }
            checks.append(CheckRecord.of(
                f"orbit-{idx}-block-decomposition", rep.ok,
                {"failures": list(rep.failures),
                 "representative": row["representative"]}))
        orbit_rows.append(row)

    data = {
        "datum": datum.label,
        "q": q,
        "radius": radius,
        "orbit_count": len(orbit_list),
        "orbits": orbit_rows,
    }
    if check in ("dimension", "all"):
        try:
            dim = invariant_dimension(group, orbit_list)
            checks.append(CheckRecord("invariant-dimension-three-way", PASS))
            data["dimension"] = dim
        except AssertionError as exc:
            checks.append(CheckRecord("invariant-dimension-three-way", FAIL,
                                      {"error": str(exc)}))
    return VerificationReport("torus-center", tuple(checks), data)
