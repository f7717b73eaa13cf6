"""Survey the filtration-matching condition over alcove-interior points.

For each built-in small-rank datum, every interior point with bounded
coordinate denominators, every Levi subset, and a ladder of depths,
check whether all double-coset representatives preserve the threshold
profile on the Levi roots, and whether the coset-shift quantity
(w^-1 a - a)(x) stays inside [0, 1).  Failures are tallied by depth;
the condition is clean at integer depths and breaks at half-integers.
"""
import argparse
import itertools
from collections import Counter

from heckelab.apartment import (
    alcove_interior_points,
    heart_condition1_check,
    key_inequality_report,
)
from heckelab.cli import CLIError, parse_rational
from heckelab.root_datum import REGISTRY, WeylGroup, datum_from_config

NAMES = ("a1", "a2", "gl2", "gl3", "b2")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-denominator", type=int, default=6)
    ap.add_argument("--depths", default="1/2,1,3/2,2",
                    help="comma-separated rational depths")
    ap.add_argument("--witnesses", type=int, default=2,
                    help="failing witnesses to print per datum")
    args = ap.parse_args()
    if args.max_denominator < 1:
        ap.error("--max-denominator must be >= 1")
    try:
        depths = [parse_rational(s) for s in args.depths.split(",")]
    except CLIError as exc:
        ap.error(str(exc))
    if any(r <= 0 for r in depths):
        ap.error("every depth must be positive")

    surveyed = []
    for key in NAMES:
        datum = datum_from_config(REGISTRY[key])
        points = alcove_interior_points(datum, args.max_denominator)
        if not points:
            ap.error(f"--max-denominator {args.max_denominator} leaves "
                     f"{key} with no alcove-interior point")
        surveyed.append((datum, points))

    grand_heart = Counter()
    grand_key = 0
    key_checks = 0
    non_negative = 0
    for datum, points in surveyed:
        name = datum.label
        group = WeylGroup(datum)
        m = datum.semisimple_rank
        subsets = [tuple(c) for k in range(m + 1)
                   for c in itertools.combinations(range(m), k)]
        shown = 0
        heart_by_depth = Counter()
        checks = 0
        for x in points:
            for theta in subsets:
                for r in depths:
                    checks += 1
                    verdict = heart_condition1_check(group, x, r, theta)
                    if not verdict.proven:
                        heart_by_depth[str(r)] += 1
                        if shown < args.witnesses:
                            shown += 1
                            w = verdict.witnesses[0]
                            print(f"  {name} x={tuple(map(str, x))} r={r} "
                                  f"theta={theta}: thresholds "
                                  f"{w.threshold_at_x} vs "
                                  f"{w.threshold_at_image} on root {w.root}")
                for rec in key_inequality_report(group, x, theta):
                    key_checks += 1
                    if not rec.inequality_holds:
                        grand_key += 1
                        non_negative += rec.delta >= 0
        grand_heart.update(heart_by_depth)
        print(f"{name}: {len(points)} interior points, {checks} checks, "
              f"failures by depth {dict(heart_by_depth) or 'none'}")
    print(f"total threshold mismatches by depth: {dict(grand_heart)}")
    sign = ("every failure is a negative shift" if not non_negative
            else f"{non_negative} failures are not negative shifts")
    print(f"coset-shift inequality: {key_checks - grand_key}/{key_checks} "
          f"hold ({sign})")


if __name__ == "__main__":
    main()
