#!/usr/bin/env python3
"""Hunt converse-direction failures of the equivalence checks.

The equivalence checks accept models that satisfy both structural laws
but need not have a left identity, so the directions whose known
arguments lean on one can fail; any such model is a finding.  This
script enumerates every agss class of the requested sizes, finds the
least class failing each selected check, revalidates each witness from
scratch, and summarizes.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gag.cli import _theorem_id
from gag.fileformat import serialize_model
from gag.search import (
    AXIOM_SETS,
    MAX_CANON_M,
    MAX_CANON_N,
    SearchSpec,
    enumerate_models,
    find_counterexamples,
)
from gag.theorems import TheoremId, revalidate_counterexample

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
        type=_theorem_id,
        help="check to hunt; repeatable (default: the converse-capable set)",
    )
    ap.add_argument("--show-models", action="store_true", help="print each witness model")
    args = ap.parse_args()
    # the search refuses larger spaces; refuse them before the smaller ones run
    if args.max_order > MAX_CANON_N:
        ap.error(f"--max-order is at most {MAX_CANON_N}, the search's size guard")
    if args.max_gammas > MAX_CANON_M:
        ap.error(f"--max-gammas is at most {MAX_CANON_M}, the search's size guard")
    hunted = args.theorem or [TheoremId.from_name(n) for n in HUNTED]

    witnesses = 0
    bad_revalidations = 0
    for n in range(1, args.max_order + 1):
        for m in range(1, args.max_gammas + 1):
            t0 = time.time()
            space = enumerate_models(SearchSpec(n=n, m=m, axioms=AXIOM_SETS["agss"]))
            hits = [h for h in find_counterexamples(space, hunted).values() if h.found]
            print(
                f"n={n} m={m}: {space.count} classes, {len(hits)} checks fail"
                f" ({time.time() - t0:.1f}s)"
            )
            for h in hits:
                ok = revalidate_counterexample(h.model, h.report.counterexample)
                witnesses += 1
                bad_revalidations += not ok
                print(
                    f"  {h.report.theorem.value}: {h.report.counterexample.condition}"
                    f" table={h.model.table} scanned={h.scanned} revalidates={ok}"
                )
                if args.show_models:
                    sys.stdout.write(serialize_model(h.model))
    print(f"least witnesses: {witnesses}, failed revalidations: {bad_revalidations}")
    return 1 if bad_revalidations else 0


if __name__ == "__main__":
    sys.exit(main())
