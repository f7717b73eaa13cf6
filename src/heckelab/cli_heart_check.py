"""``heckelab heart-check``: compare the Levi-root thresholds at a point
with those at its Weyl images, and escalate a mismatch to a volume
obstruction through ``padic_groups.compare_levi_volumes``, the
comparison that acceptance criterion 2 uses too."""
from __future__ import annotations

import itertools
from fractions import Fraction as Q
from typing import Any, Sequence

from .apartment import classify_point, heart_condition1_check
from .cli_common import (FAIL, PASS, SKIPPED, CheckRecord, CLIError,
                         VerificationReport, load_group)
from .root_datum import WeylGroup


def _escalate_mismatch(group: WeylGroup, x, r, theta: Sequence[int],
                       witnesses) -> dict:
    """Upgrade a threshold mismatch to a volume obstruction: compare the
    theta-Levi block volumes of the integral models at x and at each
    mismatching Weyl image.  DISTINCT_VOLUME on any block proves the
    Levi intersections are not Levi-conjugate.

    Only the model at x can be refused.  On general-linear data a Weyl
    element permutes the coordinates, so the model at its image of x is
    the model at x conjugated by a permutation matrix: the same bounds,
    permuted, and none of them negative when none at x is."""
    datum = group.datum
    if not datum.is_general_linear:
        return {"status": SKIPPED,
                "reason": "no integral matrix model for this datum"}
    from .padic_groups import compare_levi_volumes, from_filtration
    try:
        base = from_filtration(datum, x, r)
    except ValueError as exc:
        return {"status": SKIPPED, "reason": str(exc)}
    per_image = []
    proven = False
    # ordered by str of w's integer cocharacter matrix (columns: w(e_j))
    n = datum.ambient_rank
    basis = [[int(i == j) for i in range(n)] for j in range(n)]
    for w in sorted(dict.fromkeys(wit.w2 for wit in witnesses), key=lambda w: str(
            tuple(zip(*(group.act_cocharacter(w, e) for e in basis))))):
        moved = from_filtration(datum, group.act_cocharacter(w, x), r)
        levi = compare_levi_volumes(base, moved, theta)
        proven = proven or levi.status == "DISTINCT_VOLUME"
        per_image.append({
            "weyl_word": list(w.word),
            "levi_intersection_at_x": levi.at_x.to_lists(),
            "levi_intersection_at_image": levi.at_image.to_lists(),
            "blocks": [{"block": list(b), "obstruction": v}
                       for b, v in levi.blocks],
        })
    out = {
        "status": "DISTINCT_VOLUME" if proven else "INCONCLUSIVE",
        "route": "levi-volume-comparison",
        "images": per_image,
    }
    if proven:
        out["verdict"] = f"G_{{x,{r}}} ∉ K^♥(S,G)"
    return out


def run(*, datum: str, x: tuple[Q, ...], r: Q,
        theta: tuple[int, ...] | None) -> VerificationReport:
    group = load_group(datum)
    datum = group.datum
    if len(x) != datum.ambient_rank:
        raise CLIError(f"--x needs {datum.ambient_rank} coordinates "
                       f"for datum {datum.label}")
    if r <= 0:
        raise CLIError("--r must be positive")
    m = datum.semisimple_rank
    if theta is not None and any(t >= m for t in theta):
        raise CLIError(f"theta indices must be < {m}")
    subsets = [theta] if theta is not None else [
        tuple(c) for size in range(m + 1)
        for c in itertools.combinations(range(m), size)]

    checks = []
    data: dict[str, Any] = {
        "datum": datum.label,
        "x": list(x),
        "r": str(r),
        "point_kind": classify_point(datum, x).kind,
    }
    for subset in subsets:
        verdict = heart_condition1_check(group, x, r, subset)
        name = f"condition-1 theta={list(subset)}"
        if verdict.proven:
            checks.append(CheckRecord(name, PASS))
            continue
        witness = {
            "status": verdict.status,
            "mismatches": [{
                "weyl_word": list(w.w2.word),
                "root": list(w.root),
                "threshold_at_x": w.threshold_at_x,
                "threshold_at_image": w.threshold_at_image,
            } for w in verdict.witnesses],
            "escalation": _escalate_mismatch(group, x, r, subset,
                                             verdict.witnesses),
        }
        checks.append(CheckRecord(name, FAIL, witness))
        esc = witness["escalation"]
        if esc["status"] == "DISTINCT_VOLUME":
            data["obstruction"] = "DISTINCT_VOLUME"
            data["verdict"] = esc["verdict"]
    if all(c.status == PASS for c in checks):
        data["verdict"] = "PROVEN_CONDITION_1"
    return VerificationReport("heart-check", tuple(checks), data)
