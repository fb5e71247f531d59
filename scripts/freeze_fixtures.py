#!/usr/bin/env python3
"""Regenerate the frozen regression fixtures under tests/data/.

Every number written here is produced by the naive filter-all-tables
oracle (or by a direct suite run), never typed in by hand.  The test
suite then holds the fast paths to these values.  Rerun after any
change to the law deciders, the subset algebra, or the canonical form.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import re
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gag.theorems as theorems
from gag.cli import main as gag_main
from gag.fileformat import serialize_model
from gag.fixtures import PAPER_EXAMPLE_TOKEN, paper_example
from gag.model import GammaGroupoid, all_models
from gag.search import (
    AXIOM_SETS,
    FILTER_NAMES,
    SearchSpec,
    enumerate_models,
    find_counterexamples,
    naive_enumerate,
)
from gag.theorems import TheoremId, run_suite, suite_to_json_obj
from hunt_gaps import HUNTED

# (order, gammas) grid where the oracle is feasible
GRID = [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2)]

# orders of the intra-regular model x.y = y - x mod n whose verify output
# is frozen; 13..16 were first frozen from the powerset sweeps that
# listed ideal families before the closure route
LARGE_ORDERS = tuple(range(9, 17))


def _write(out: Path, doc: dict) -> None:
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out}")


def freeze_enum_counts(out: Path) -> None:
    rows = []
    for n, m in GRID:
        for ax_name, axioms in AXIOM_SETS.items():
            for filt in FILTER_NAMES:
                t0 = time.time()
                forms = naive_enumerate(n, m, axioms, filt)
                rows.append(
                    {
                        "order": n,
                        "gammas": m,
                        "axioms": ax_name,
                        "filter": filt,
                        "count": len(forms),
                    }
                )
                print(
                    f"  oracle n={n} m={m} {ax_name:4s} {filt:17s} -> {len(forms):4d}"
                    f"  ({time.time() - t0:.1f}s)"
                )
    _write(out, {
        "comment": "class counts up to isomorphism, produced by the naive "
        "filter-all-tables oracle (factored per-table prefilter for m>1)",
        "counts": rows,
    })


def freeze_m5_suite(out: Path) -> None:
    g = paper_example()
    _write(out, suite_to_json_obj(g, run_suite(g)))


def freeze_gap_hunts(out: Path) -> None:
    """Scan every enumerated model space we can afford and archive, per
    hunted check, the first failing model (or the fact that none exists
    in the scanned space)."""
    hunted = [TheoremId.from_name(name) for name in HUNTED]
    findings: dict[str, dict] = {t.value: {"found": False} for t in hunted}
    scanned = []
    for n, m in [*GRID, (4, 1)]:
        t0 = time.time()
        space = enumerate_models(
            SearchSpec(n=n, m=m, axioms=AXIOM_SETS["agss"], workers=4)
        )
        scanned.append({"order": n, "gammas": m, "classes": space.count})
        left = [t for t in hunted if not findings[t.value]["found"]]
        for tid, hunt in find_counterexamples(space, left).items():
            if hunt.found:
                findings[tid.value] = {
                    "found": True,
                    "order": n,
                    "gammas": m,
                    "table": list(hunt.model.table),
                    "condition": hunt.report.counterexample.condition,
                }
        print(f"  hunted n={n} m={m}: {space.count} classes ({time.time() - t0:.1f}s)")
    _write(out, {
        "comment": "first gap witness per converse-capable check over the "
        "scanned spaces; found=false means the scanned spaces hold none",
        "spaces": scanned,
        "findings": findings,
    })


@contextlib.contextmanager
def guards_open():
    """Run the suite with every guard forced open: `_guard` never skips
    and `axiom_profile` reports the left invertive and ag-star-star laws
    as holding, so every check reaches its fail paths on any table."""
    real_guard, real_profile = theorems._guard, theorems.axiom_profile
    theorems._guard = lambda ctx, need_intra: None
    theorems.axiom_profile = lambda g: dataclasses.replace(
        real_profile(g), left_invertive=True, ag_star_star=True
    )
    theorems._ctx.cache_clear()
    try:
        yield
    finally:
        theorems._guard, theorems.axiom_profile = real_guard, real_profile
        theorems._ctx.cache_clear()


def freeze_guard_open_suite(out: Path) -> None:
    """Archive the guard-open suite on the lexicographically first
    order <= 3, m = 1 tables that reach each fail condition."""
    t0 = time.time()
    reached: set[str] = set()
    models = []
    with guards_open():
        for n in (1, 2, 3):
            for g in all_models(n, 1):
                reports = run_suite(g)
                new = {r.counterexample.condition for r in reports if r.status == "fail"}
                if new - reached:
                    reached |= new
                    models.append(
                        {"order": n, "gammas": 1, "table": list(g.table),
                         "suite": suite_to_json_obj(g, reports)}
                    )
    unreached = sorted(set(theorems._CONDITIONS) - reached)
    print(f"  {len(reached)} conditions from {len(models)} models ({time.time() - t0:.1f}s)")
    _write(out, {
        "comment": "suite output with every guard forced open (_guard returns None, "
        "axiom_profile reports left-invertive and ag-star-star) on the "
        "lexicographically first order <= 3, m = 1 tables that together reach "
        f"{len(reached)} fail conditions; no order <= 3 table reaches: "
        + ", ".join(unreached),
        "models": models,
    })


def difference_model(n: int) -> GammaGroupoid:
    """x.y = y - x mod n on one operator."""
    return GammaGroupoid(n, 1, tuple((y - x) % n for x in range(n) for y in range(n)))


def _cli_digest(argv: list[str], stdin_text: str = "") -> tuple[int, str]:
    """Exit code and stdout sha256 of one in-process `gag` run, with any
    clock reading `elapsed=...s` (search's text-mode # line) masked."""
    stdout = io.StringIO()
    real_stdin, sys.stdin = sys.stdin, io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(stdout):
            code = gag_main(argv)
    finally:
        sys.stdin = real_stdin
    text = re.sub(r"elapsed=[0-9.]+s", "elapsed=-", stdout.getvalue())
    return code, hashlib.sha256(text.encode("utf-8")).hexdigest()


def freeze_large_suite(out: Path) -> None:
    """Archive the sha256 and exit code of `gag verify --json` on the
    difference model at each of LARGE_ORDERS."""
    rows = []
    for n in LARGE_ORDERS:
        t0 = time.time()
        code, digest = _cli_digest(["verify", "--json", "-"], serialize_model(difference_model(n)))
        rows.append({"order": n, "exit": code, "sha256": digest})
        print(f"  verify n={n}: exit {code} ({time.time() - t0:.1f}s)")
    _write(out, {
        "comment": "sha256 of the stdout of `gag verify --json -` and its exit code "
        "on x.y = y - x mod n (one operator, default labels)",
        "models": rows,
    })


# hunts frozen through the CLI: every check on the order-3 agss classes,
# the converse-capable ones on the two-operator order-3 agss classes
HUNT_SPACES = ((3, 1, tuple(t.value for t in TheoremId)), (3, 2, HUNTED))


def freeze_hunt_outputs(out: Path) -> None:
    """Archive the stdout sha256 and exit code of `gag search
    --find-counterexample`, text and --json, over HUNT_SPACES."""
    t0 = time.time()
    rows = []
    for n, m, ids in HUNT_SPACES:
        for tid in ids:
            for json_flag in ([], ["--json"]):
                argv = ["search", "--order", str(n), "--gammas", str(m), "--axiom", "agss",
                        "--find-counterexample", tid, *json_flag]
                code, digest = _cli_digest(argv)
                rows.append({"argv": argv, "exit": code, "sha256": digest})
    print(f"  {len(rows)} hunts ({time.time() - t0:.1f}s)")
    _write(out, {
        "comment": "sha256 of stdout and exit code of `gag <argv>`, with the "
        "elapsed=...s reading on the text-mode # line replaced by elapsed=-",
        "hunts": rows,
    })


# searches frozen through the CLI where no oracle reaches: the order-5
# agss census and the order-4 two-operator agss census
SEARCH_ARGVS = (
    ["search", "--order", "5", "--axiom", "agss", "--json"],
    ["search", "--order", "4", "--gammas", "2", "--axiom", "agss", "--json"],
)


def freeze_search_outputs(out: Path) -> None:
    """Archive the stdout sha256 and exit code of `gag search --json`
    over the spaces in SEARCH_ARGVS."""
    rows = []
    for argv in SEARCH_ARGVS:
        t0 = time.time()
        code, digest = _cli_digest(argv)
        rows.append({"argv": argv, "exit": code, "sha256": digest})
        print(f"  {' '.join(argv)}: exit {code} ({time.time() - t0:.1f}s)")
    _write(out, {
        "comment": "sha256 of stdout and exit code of `gag <argv>` on spaces "
        "beyond the naive oracle; regression-only",
        "searches": rows,
    })


# the golden verify corpus: every ag class at n <= 4 on one operator and
# at n <= 3 on two operators
VERIFY_SPACES = ((1, 1), (2, 1), (3, 1), (4, 1), (1, 2), (2, 2), (3, 2))


def freeze_verify_outputs(out: Path) -> None:
    """Archive the stdout sha256 and exit code of `gag verify --json -`
    on every ag class of VERIFY_SPACES, with the class's table."""
    t0 = time.time()
    rows = []
    for n, m in VERIFY_SPACES:
        for g in enumerate_models(SearchSpec(n=n, m=m, axioms=AXIOM_SETS["ag"])).models:
            code, digest = _cli_digest(["verify", "--json", "-"], serialize_model(g))
            rows.append({"order": n, "gammas": m, "table": list(g.table),
                         "exit": code, "sha256": digest})
    print(f"  {len(rows)} models ({time.time() - t0:.1f}s)")
    _write(out, {
        "comment": "sha256 of stdout and exit code of `gag verify --json -` on every "
        "ag class with n <= 4 on one operator and n <= 3 on two (each read from "
        "stdin, default labels)",
        "models": rows,
    })


def cli_commands(first: str) -> list[list[str]]:
    """The frozen subcommand lines; `first` is the model's first element."""
    generated = [
        ["ideals", "--kind", kind, "--generated-from", first] + json_flag
        for kind in ("left", "right", "two-sided")
        for json_flag in ([], ["--json"])
    ]
    return [
        ["check"], ["check", "--json"],
        ["intra"], ["intra", "--json"],
        ["ideals", "--kind", "all"], ["ideals", "--kind", "all", "--json"],
        ["ideals", "--kind", "two-sided"], ["ideals", "--kind", "two-sided", "--json"],
        *generated,
        ["canon", "--json"],
    ]


def cli_models() -> list[dict]:
    """(order, gammas, table) of every frozen model, @paper-example last."""
    spaces = [(2, 1, frozenset()), (3, 1, AXIOM_SETS["ag"]), (2, 2, AXIOM_SETS["ag"])]
    rows = []
    for n, m, axioms in spaces:
        for g in enumerate_models(SearchSpec(n=n, m=m, axioms=axioms)).models:
            rows.append({"order": n, "gammas": m, "table": list(g.table)})
    rows.append({"model": PAPER_EXAMPLE_TOKEN})
    return rows


def cli_digests(row: dict) -> list[dict]:
    """Run every frozen command on one fixture model."""
    if "model" in row:
        ref, text, first = row["model"], "", paper_example().element_labels[0]
    else:
        g = GammaGroupoid(row["order"], row["gammas"], tuple(row["table"]))
        ref, text, first = "-", serialize_model(g), g.element_labels[0]
    out = []
    for cmd in cli_commands(first):
        code, digest = _cli_digest(cmd + [ref], text)
        out.append({"argv": cmd, "exit": code, "sha256": digest})
    return out


def freeze_cli_outputs(out: Path) -> None:
    """Archive the stdout sha256 and exit code of the model-level
    subcommands on every class of three small spaces and the example."""
    t0 = time.time()
    rows = [dict(row, outputs=cli_digests(row)) for row in cli_models()]
    print(f"  {len(rows)} models ({time.time() - t0:.1f}s)")
    _write(out, {
        "comment": "sha256 of stdout and exit code of `gag <argv> <model>` on the "
        "order-2 classes with no axioms, the order-3 ag classes, the order-2 "
        "two-operator ag classes (each read from stdin, default labels) "
        "and @paper-example",
        "models": rows,
    })


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--data-dir",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "tests" / "data",
    )
    ap.add_argument(
        "--only",
        choices=("counts", "suite", "hunts", "guard-open", "large", "cli", "hunt-cli",
                 "search-cli", "verify-cli"),
        help="regenerate a single fixture",
    )
    args = ap.parse_args()
    args.data_dir.mkdir(parents=True, exist_ok=True)
    if args.only in (None, "counts"):
        freeze_enum_counts(args.data_dir / "enum_counts.json")
    if args.only in (None, "suite"):
        freeze_m5_suite(args.data_dir / "m5_suite.json")
    if args.only in (None, "hunts"):
        freeze_gap_hunts(args.data_dir / "gap_hunts.json")
    if args.only in (None, "guard-open"):
        freeze_guard_open_suite(args.data_dir / "guard_open_suite.json")
    if args.only in (None, "large"):
        freeze_large_suite(args.data_dir / "large_suite.json")
    if args.only in (None, "cli"):
        freeze_cli_outputs(args.data_dir / "cli_outputs.json")
    if args.only in (None, "hunt-cli"):
        freeze_hunt_outputs(args.data_dir / "hunt_outputs.json")
    if args.only in (None, "search-cli"):
        freeze_search_outputs(args.data_dir / "search_outputs.json")
    if args.only in (None, "verify-cli"):
        freeze_verify_outputs(args.data_dir / "verify_outputs.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
