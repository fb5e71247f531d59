#!/usr/bin/env python3
"""Rebuild the benchmark's frozen inputs and goldens from the current code.

    python3 perfbench/regen.py

Writes, under perfbench/data/:
  corpus.gag    every class with n <= 4 at m = 1 and n <= 3 at m = 2, as
                `gag v1` text in ascending (m, n, canonical form) order;
  large.gag     x.y = y - x mod n for n = 9..12;
  goldens.json  for every operation, the sha256 of its stdout and its
                exit code; for searches also the class count.

Class counts that the naive oracle has frozen in tests/data/enum_counts.json
are cross-checked, both for the corpus and for the n = 3, m = 2 census
spaces.  The order-4 counts have no oracle fixture and are recorded as
regression-only.  Regenerate only on purpose: a changed golden means the
program's output changed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import passrun  # noqa: E402  (puts the checkout's src on sys.path)
import workloads  # noqa: E402

import gag.cli  # noqa: E402,F401
from gag.fileformat import serialize_model  # noqa: E402
from gag.model import GammaGroupoid  # noqa: E402
from gag.search import SearchSpec, enumerate_models  # noqa: E402

CORPUS_GRID = [(1, n) for n in (1, 2, 3, 4)] + [(2, n) for n in (1, 2, 3)]
ENUM_COUNTS = workloads.REPO / "tests" / "data" / "enum_counts.json"


def oracle_counts() -> dict[tuple, int]:
    rows = json.loads(ENUM_COUNTS.read_text())["counts"]
    return {(r["order"], r["gammas"], r["axioms"], r["filter"]): r["count"] for r in rows}


def check(label: str, got: int, oracle: dict, key: tuple) -> str:
    if key not in oracle:
        return "regression-only"
    if oracle[key] != got:
        raise SystemExit(f"{label}: {got} classes, the oracle fixture says {oracle[key]}")
    return "oracle"


def main() -> int:
    oracle = oracle_counts()
    workloads.DATA.mkdir(exist_ok=True)

    docs = []
    for m, n in CORPUS_GRID:
        models = enumerate_models(SearchSpec(n=n, m=m)).models
        check(f"corpus n={n} m={m}", len(models), oracle, (n, m, "ag", "any"))
        docs += [serialize_model(g) for g in models]
    workloads.CORPUS.write_text("".join(docs), encoding="utf-8")

    large = [
        serialize_model(GammaGroupoid(n, 1, tuple((y - x) % n for x in range(n) for y in range(n))))
        for n in workloads.LARGE_ORDERS
    ]
    workloads.LARGE.write_text("".join(large), encoding="utf-8")

    ops = [op for w in ("census", "verify-large", "verify-corpus") for op in workloads.operations(w)]
    records, _, _ = passrun.run_ops(ops, passrun.gag_caches())
    goldens, counts = {}, {}
    for op, rec in zip(ops, records):
        if rec.get("error") or rec.get("replay") is False:
            raise SystemExit(f"{op.id}: {rec.get('error') or 'counterexample does not replay'}")
        goldens[op.key] = {"sha256": rec["sha256"], "exit": rec["exit"]}
        if "count" in rec:
            args = dict(zip(op.argv[4::2], op.argv[5::2]))
            key = (int(args["--order"]), int(args.get("--gammas", 1)), args["--axiom"], args.get("--filter", "any"))
            counts[op.id] = {"count": rec["count"], "check": check(op.id, rec["count"], oracle, key)}
    doc = {
        "comment": "Regenerate with perfbench/regen.py; census-pool operations share the census keys.",
        "search_counts": counts,
        "ops": goldens,
    }
    workloads.GOLDENS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    exits: dict[int, int] = {}
    for g in goldens.values():
        exits[g["exit"]] = exits.get(g["exit"], 0) + 1
    print(f"corpus {len(docs)} models, {len(goldens)} goldens, exit codes {exits}, counts {counts}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
