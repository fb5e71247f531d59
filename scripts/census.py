#!/usr/bin/env python3
"""Class census: count models up to isomorphism over a size grid.

Prints one row per (order, gammas, axioms, filter) cell.  With
--cross-check each pruned-enumerator count is recomputed by the naive
oracle and the two sets are compared form by form; a mismatch is a bug
and aborts with a nonzero exit.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gag.oracles import naive_enumerate
from gag.search import (
    AXIOM_SETS,
    FILTER_NAMES,
    MAX_CANON_M,
    MAX_CANON_N,
    SearchSpec,
    enumerate_models,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-order", type=int, default=3)
    ap.add_argument("--max-gammas", type=int, default=2)
    ap.add_argument("--axiom", choices=(*AXIOM_SETS, "both"), default="both")
    ap.add_argument(
        "--filter",
        choices=(*FILTER_NAMES, "all"),
        default="any",
        help="'all' prints every filter column",
    )
    ap.add_argument(
        "--cross-check",
        action="store_true",
        help="recompute each cell with the naive oracle and compare sets",
    )
    args = ap.parse_args()
    # the search refuses larger spaces; refuse them before the smaller ones run
    if args.max_order > MAX_CANON_N:
        ap.error(f"--max-order is at most {MAX_CANON_N}, the search's size guard")
    if args.max_gammas > MAX_CANON_M:
        ap.error(f"--max-gammas is at most {MAX_CANON_M}, the search's size guard")

    axiom_names = tuple(AXIOM_SETS) if args.axiom == "both" else (args.axiom,)
    filters = FILTER_NAMES if args.filter == "all" else (args.filter,)
    print(f"{'n':>2} {'m':>2} {'axioms':6s} {'filter':17s} {'classes':>7s} {'secs':>6s}")
    for n in range(1, args.max_order + 1):
        for m in range(1, args.max_gammas + 1):
            for ax_name in axiom_names:
                for filt in filters:
                    t0 = time.time()
                    res = enumerate_models(
                        SearchSpec(n=n, m=m, axioms=AXIOM_SETS[ax_name], filter=filt)
                    )
                    elapsed = time.time() - t0
                    print(
                        f"{n:>2} {m:>2} {ax_name:6s} {filt:17s} {res.count:>7d} {elapsed:>6.1f}"
                    )
                    if args.cross_check:
                        oracle = naive_enumerate(n, m, AXIOM_SETS[ax_name], filt)
                        got = [g.table for g in res.models]
                        if got != list(oracle):
                            print(
                                f"MISMATCH against oracle at n={n} m={m} "
                                f"{ax_name} {filt}: {len(got)} vs {len(oracle)}",
                                file=sys.stderr,
                            )
                            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
