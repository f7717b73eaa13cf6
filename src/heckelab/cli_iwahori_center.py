"""``heckelab iwahori-center``: the central basis of the truncated
lattice-presented Hecke algebra, with exact kernel verification."""
from __future__ import annotations

from .cli_common import (MAX_HECKE_WEIGHT, CheckRecord, CLIError,
                         VerificationReport, load_group)
from .iwahori_hecke import label_orbits, label_weight, satake_check


def _term_label(lam, word) -> str:
    if all(c == 0 for c in lam) and not word:
        return "T_e"
    theta_part = f"th({','.join(str(c) for c in lam)})"
    if not word:
        return theta_part
    return f"{theta_part}*T[{','.join(str(i) for i in word)}]"


def run(*, datum: str, radius: int) -> VerificationReport:
    group = load_group(datum)
    datum = group.datum
    if radius < 0:
        raise CLIError("--radius must be >= 0")
    # the box is a subset of its orbit closure and each label weighs at
    # least 1: refuse a large box before enumerating any orbit
    weight = (2 * radius + 1) ** datum.ambient_rank
    if weight <= MAX_HECKE_WEIGHT:
        closed = label_orbits(group, radius, MAX_HECKE_WEIGHT)
        weight = sum(label_weight(datum, lam)
                     for orb in closed.values() for lam in orb)
    if weight > MAX_HECKE_WEIGHT:
        raise CLIError(f"requested truncation weighs at least {weight} "
                       f"(1 + sum_i |<lambda, alpha_i>| over its orbit-closed "
                       f"lattice labels); cap is {MAX_HECKE_WEIGHT}")
    report = satake_check(group, closed)

    checks = [
        CheckRecord.of("orbit-sums-central-and-independent", report.ok,
                       {"failures": list(report.failures)}),
        CheckRecord.of("center-dimension-matches-orbit-count",
                       report.center_dimension == len(report.representatives),
                       {"kernel_dimension": report.center_dimension,
                        "orbit_count": len(report.representatives)}),
    ]

    basis = []
    for mu, z in zip(report.representatives, report.central_elements):
        terms = [{"coweight": list(lam), "word": list(group.words[w]),
                  "coefficient": repr(z.coefficient(lam, w))}
                 for lam, w in z.support]
        basis.append({"label": f"z({','.join(str(c) for c in mu)})",
                      "dominant_coweight": list(mu),
                      "terms": terms,
                      "term_labels": [_term_label(lam, group.words[w])
                                      for lam, w in z.support]})
    if len(report.representatives) == 1 \
            and all(c == 0 for c in report.representatives[0]):
        basis[0]["label"] = "T_e"
    data = {
        "datum": datum.label,
        "radius": radius,
        "center_dimension": report.center_dimension,
        "orbits": [[list(lam) for lam in orbit] for orbit in report.orbits],
        "basis": basis,
    }
    return VerificationReport("iwahori-center", tuple(checks), data)
