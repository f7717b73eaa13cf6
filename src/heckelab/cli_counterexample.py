"""``heckelab counterexample``: reproduce the rank-3 wall-point volume
obstruction end to end, against hand-evaluated matrices."""
from __future__ import annotations

from fractions import Fraction as Q

from .apartment import heart_condition1_check
from .cli_common import FAIL, CheckRecord, VerificationReport
from .padic_groups import (block_of, brute_point_count, compare_levi_volumes,
                           conjugate_by_permutation, from_filtration,
                           iwahori_scheme, log_volume, point_count)
from .root_datum import WeylGroup, datum_general_linear

# hand evaluation of ceil(r - a(x)) at x = (1/2, 0, 0), r = 1, for the
# nine general-linear bound slots, and of the two Levi restrictions
_EXPECTED_GROUP = ((1, 1, 1), (2, 1, 1), (2, 1, 1))
_EXPECTED_CONJ = ((1, 2, 1), (1, 1, 1), (1, 2, 1))
_EXPECTED_LEVI = ((1, None, None), (None, 1, 1), (None, 1, 1))
_EXPECTED_CONJ_LEVI = ((1, None, None), (None, 1, 1), (None, 2, 1))


def run() -> VerificationReport:
    datum = datum_general_linear(3)
    group = WeylGroup(datum)
    x = (Q(1, 2), Q(0), Q(0))
    r = Q(1)
    theta = (1,)

    base = from_filtration(datum, x, r)
    # route 1: permutation conjugation; route 2: reflected point
    swapped = conjugate_by_permutation(base, (1, 0, 2))
    s0 = group.simple_reflection(0)
    reflected = from_filtration(datum, group.act_cocharacter(s0, x), r)
    levi_volumes = compare_levi_volumes(base, swapped, theta)
    levi, conj_levi = levi_volumes.at_x, levi_volumes.at_image

    def matrix_check(name, K, expected):
        return CheckRecord.of(name, K.bounds == expected,
                              {"computed": K.to_lists()})

    checks = [
        matrix_check("filtration-group-matrix", base, _EXPECTED_GROUP),
        CheckRecord.of("conjugation-route-agreement",
                       swapped.bounds == reflected.bounds,
                       {"permutation_route": swapped.to_lists(),
                        "reflection_route": reflected.to_lists()}),
        matrix_check("conjugated-group-matrix", swapped, _EXPECTED_CONJ),
        matrix_check("levi-intersection-matrix", levi, _EXPECTED_LEVI),
        matrix_check("conjugated-levi-intersection-matrix", conj_levi,
                     _EXPECTED_CONJ_LEVI),
    ]

    # the 2x2 blocks: principal congruence group vs pro-unipotent radical
    principal = block_of(levi, (1, 2))
    pro_unipotent = block_of(conj_levi, (1, 2))
    iwahori = iwahori_scheme(2)
    vol_k = log_volume(principal, iwahori)
    vol_i = log_volume(pro_unipotent, iwahori)
    checks.append(CheckRecord.of("index-principal-congruence",
                                 str(vol_k) == "q*(q-1)^2",
                                 {"computed": str(vol_k)}))
    checks.append(CheckRecord.of("index-pro-unipotent",
                                 str(vol_i) == "q^2*(q-1)^2",
                                 {"computed": str(vol_i)}))

    count_rows = []
    for p in (2, 3):
        whole = brute_point_count(iwahori, p, 2)
        small = brute_point_count(principal, p, 2)
        tiny = brute_point_count(pro_unipotent, p, 2)
        ratio_k, rem_k = divmod(whole, small)
        ratio_i, rem_i = divmod(whole, tiny)
        ok = (rem_k == 0 and rem_i == 0
              and ratio_k == p * (p - 1) ** 2
              and ratio_i == p ** 2 * (p - 1) ** 2
              and whole == point_count(iwahori, p, 2))
        row = {"p": p, "iwahori_points": whole,
               "principal_index": ratio_k, "pro_unipotent_index": ratio_i}
        count_rows.append(row)
        checks.append(CheckRecord.of(f"point-count-cross-check-p{p}", ok, row))

    verdict = heart_condition1_check(group, x, r, theta)
    checks.append(CheckRecord.of("threshold-mismatch-reproduced",
                                 verdict.status == "MISMATCH",
                                 {"status": verdict.status}))

    obstruction = dict(levi_volumes.blocks)[(1, 2)]
    checks.append(CheckRecord.of("volume-obstruction",
                                 obstruction == "DISTINCT_VOLUME",
                                 {"obstruction": obstruction}))

    failed = any(c.status == FAIL for c in checks)
    data = {
        "datum": "GL3",
        "x": list(x),
        "r": str(r),
        "theta": list(theta),
        "reflection_word": list(group.words[s0]),
        "permutation": [1, 0, 2],
        "matrices": {
            "filtration_group": base.to_lists(),
            "conjugated_group": swapped.to_lists(),
            "levi_intersection": levi.to_lists(),
            "conjugated_levi_intersection": conj_levi.to_lists(),
        },
        "indices": {
            "principal_congruence_in_iwahori": str(vol_k),
            "pro_unipotent_in_iwahori": str(vol_i),
        },
        "point_counts": count_rows,
        "obstruction": obstruction,
    }
    if not failed:
        data["verdict"] = f"G_{{x,{r}}} ∉ K^♥(S,G)"
    return VerificationReport("counterexample", tuple(checks), data)
