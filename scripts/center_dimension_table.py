"""Tabulate truncated-center dimensions from two independent models.

For each datum and truncation radius, print the dimension of the
center of the lattice-presentation algebra (exact commutant kernel)
next to the number of dominant orbits, and for the residue-torus
model the three-way invariant dimension at small q.  The two columns
of the first table agree; the torus dimension at the trivial-character
block recovers the same dominant-orbit count.
"""
import argparse

from heckelab.iwahori_hecke import label_orbits, satake_check
from heckelab.root_datum import REGISTRY, WeylGroup, datum_from_config
from heckelab.torus_center import invariant_dimension, orbits, residue_modulus

NAMES = ("a1", "a2", "gl2", "b2")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-radius", type=int, default=2)
    ap.add_argument("--q", type=int, nargs="+", default=[2, 3])
    args = ap.parse_args()
    if args.max_radius < 0:
        ap.error("--max-radius must be >= 0")
    try:
        moduli = [residue_modulus(q) for q in args.q]
    except ValueError as exc:
        ap.error(str(exc))
    groups = [WeylGroup(datum_from_config(REGISTRY[name])) for name in NAMES]

    print(f"{'datum':6} {'radius':6} {'center dim':10} {'dominant orbits'}")
    for group in groups:
        name = group.datum.label
        for radius in range(args.max_radius + 1):
            rep = satake_check(group, label_orbits(group, radius))
            status = "" if rep.ok else "  <- FAILED"
            print(f"{name:6} {radius:6d} {rep.center_dimension:10d} "
                  f"{len(rep.representatives):d}{status}")

    print(f"\n{'datum':6} {'q':3} {'radius':6} {'invariant dim':13} "
          f"{'orbits':6} {'trivial-character orbits'}")
    for group in groups:
        name = group.datum.label
        for q, modulus in zip(args.q, moduli):
            for radius in range(args.max_radius + 1):
                orbs = orbits(group, radius, modulus=modulus)
                trivial = sum(1 for o in orbs if not any(o.orbit[0][1]))
                dim = invariant_dimension(group, orbs)
                print(f"{name:6} {q:3d} {radius:6d} {dim:13d} "
                      f"{len(orbs):6d} {trivial:d}")


if __name__ == "__main__":
    main()
