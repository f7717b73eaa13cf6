"""``heckelab rootdatum``: describe a root datum and check its internal
consistency."""
from __future__ import annotations

from .cli_common import CheckRecord, VerificationReport, load_group


def run(*, datum: str) -> VerificationReport:
    group = load_group(datum)
    datum = group.datum
    checks = []

    bad_pairs = [k for k in range(len(datum.roots))
                 if datum.pairing(datum.roots[k], datum.coroots[k]) != 2]
    checks.append(CheckRecord.of("root-coroot-pairing-two", not bad_pairs,
                                 {"root_indices": bad_pairs}))

    # load_group has already built the WeylGroup, whose constructor
    # raises ValueError (tuple.index) on roots not closed under the
    # simple reflections, so this check cannot fail on a loaded datum;
    # it stays as the report's record of closure
    root_set = set(datum.roots)
    broken = []
    for i_pos, i in enumerate(datum.simple):
        s = group.simple_reflection(i_pos)
        for a in datum.roots:
            if group.act_character(s, a) not in root_set:
                broken.append({"simple": i_pos, "root": list(a)})
    checks.append(CheckRecord.of("reflection-closure", not broken,
                                 {"escaped": broken}))

    data = {
        "label": datum.label,
        "ambient_rank": datum.ambient_rank,
        "semisimple_rank": datum.semisimple_rank,
        "root_count": len(datum.roots),
        "roots": [list(a) for a in datum.roots],
        "coroots": [list(a) for a in datum.coroots],
        "simple_indices": list(datum.simple),
        "cartan_matrix": datum.simple_pairings(),
        "weyl_order": len(group),
        "fundamental_coweights": [[str(c) for c in w]
                                  for w in datum.fundamental_coweights()],
    }
    return VerificationReport("rootdatum", tuple(checks), data)
