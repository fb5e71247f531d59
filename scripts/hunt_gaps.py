#!/usr/bin/env python3
"""Hunt converse-direction failures of the equivalence checks.

The equivalence checks accept models that satisfy both structural laws
but need not have a left identity, so the directions whose known
arguments lean on one can fail; any such model is a finding.  This
script sweeps every class of the requested sizes, runs the selected
checks, revalidates each counterexample from scratch, and summarizes.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gag.fileformat import serialize_model
from gag.search import AXIOM_SETS, SearchSpec, enumerate_models
from gag.theorems import FAIL, TheoremId, revalidate_counterexample, run_check

# converse-capable checks, hunted by default here and frozen in
# tests/data/gap_hunts.json by freeze_fixtures.py
HUNTED = ("JI", "II", "IFFFF", "SLA2", "RSEMIPRIME_EQ", "RINTL", "LRL", "BIIID")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-order", type=int, default=4)
    ap.add_argument("--max-gammas", type=int, default=1)
    ap.add_argument(
        "--theorem",
        action="append",
        type=TheoremId.from_name,
        help="check to hunt; repeatable (default: the converse-capable set)",
    )
    ap.add_argument("--workers", type=int, default=4)
    ap.add_argument("--show-models", action="store_true", help="print each witness model")
    args = ap.parse_args()
    hunted = args.theorem or [TheoremId.from_name(n) for n in HUNTED]

    total_fails = 0
    bad_revalidations = 0
    for n in range(1, args.max_order + 1):
        for m in range(1, args.max_gammas + 1):
            t0 = time.time()
            res = enumerate_models(
                SearchSpec(n=n, m=m, axioms=AXIOM_SETS["agss"], workers=args.workers)
            )
            hits = []
            for g in res.models:
                for tid in hunted:
                    rep = run_check(g, tid)
                    if rep.status == FAIL:
                        ok = revalidate_counterexample(g, rep.counterexample)
                        hits.append((g, rep, ok))
                        total_fails += 1
                        if not ok:
                            bad_revalidations += 1
            print(
                f"n={n} m={m}: {res.count} classes, {len(hits)} fail reports"
                f" ({time.time() - t0:.1f}s)"
            )
            for g, rep, ok in hits:
                print(
                    f"  {rep.theorem.value}: {rep.counterexample.condition}"
                    f" table={g.table} revalidates={ok}"
                )
                if args.show_models:
                    sys.stdout.write(serialize_model(g))
    print(f"total fail reports: {total_fails}, failed revalidations: {bad_revalidations}")
    return 1 if bad_revalidations else 0


if __name__ == "__main__":
    sys.exit(main())
