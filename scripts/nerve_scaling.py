"""Nerve build cost over the category and 2-category corpus.

For every corpus category, then the Duskin nerve of every corpus
2-category, or only the one named by --category: build the nerve up to
the cap and print its level counts, its generator counts (the
non-degenerate simplices), the build time in seconds and the process's
peak resident set size (`ru_maxrss`, read as kilobytes, as Linux reports
it) after the build, in MB.  Then the size in bytes of the set's JSON, as
`cat nerve` and `cat duskin` write it with `io.sset_dumps`, and the time
that write took.  The peak only grows within a process, so name one
category to read its own peak.

    python3 scripts/nerve_scaling.py --dim-cap 5
    python3 scripts/nerve_scaling.py --dim-cap 7 --category bs3
    python3 scripts/nerve_scaling.py --dim-cap 5 --category two_group_c3
"""

import argparse
import functools
import resource
import time

from hornfill import io
from hornfill.cat import duskin_nerve, nerve
from hornfill.corpus import all_categories, all_two_categories


def main():
    builds = {name: functools.partial(nerve, c) for name, c in all_categories().items()}
    builds.update((name, functools.partial(duskin_nerve, c2))
                  for name, c2 in all_two_categories().items())
    ap = argparse.ArgumentParser()
    ap.add_argument("--dim-cap", type=int, default=4)
    ap.add_argument("--category", choices=sorted(builds))
    args = ap.parse_args()

    if args.category:
        builds = {args.category: builds[args.category]}
    width = max(len(name) for name in builds)
    for name, build in builds.items():
        start = time.perf_counter()
        x = build(dim_cap=args.dim_cap).sset
        seconds = time.perf_counter() - start
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        counts = [x.count(n) for n in range(args.dim_cap + 1)]
        gens = [len(x.generators(n)) for n in range(args.dim_cap + 1)]
        start = time.perf_counter()
        size = len(io.sset_dumps(x))
        write = time.perf_counter() - start
        print(f"{name:{width}}  levels {counts}  generators {gens}"
              f"  {seconds:.4f} s  {peak:.1f} MB  json {size} B  {write:.4f} s")


if __name__ == "__main__":
    main()
