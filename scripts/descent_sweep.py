"""Skeletal descent census over every cover shape and small group.

Each row is one (fiber profile, group) pair: the number of cocycles on
the cover, the orbit count under the cochain action, the stabilizer
order of the trivial cocycle, and the groupoid cardinality next to the
predicted (1/|G|)^|B|.  Everything is exact; a mismatch would print as
a starred row.

    python3 scripts/descent_sweep.py --max-points 5
"""

import argparse
from fractions import Fraction

from hornfill.corpus import all_small_groups, cover_of_shape, cover_shapes
from hornfill.descent import cech_descent_skeleton


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-points", type=int, default=5)
    ap.add_argument("--max-parts", type=int, default=3)
    args = ap.parse_args()

    # one instance per group, so each keeps its fibre censuses across shapes
    groups = all_small_groups()
    print("profile        group  |Z1|  orbits  |stab|  cardinality  predicted")
    for prof in cover_shapes(args.max_points, max_parts=args.max_parts):
        cover = cover_of_shape(prof)
        for gname, g in groups.items():
            rep = cech_descent_skeleton(g, cover)
            predicted = Fraction(1, g.order() ** len(cover.b))
            flag = "" if rep.cardinality == predicted and rep.components == 1 else " *"
            print(
                f"{str(prof):13}  {gname:5}  {rep.cocycle_count:4}"
                f"  {rep.components:6}  {rep.stabilizer_order:6}"
                f"  {str(rep.cardinality):11}  {predicted}{flag}"
            )


if __name__ == "__main__":
    main()
