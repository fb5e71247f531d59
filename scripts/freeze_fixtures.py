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
from gag.oracles import naive_enumerate
from gag.search import (
    AXIOM_SETS,
    FILTER_NAMES,
    SearchSpec,
    enumerate_models,
    find_counterexamples,
)
from gag.theorems import TheoremId, run_suite, suite_to_json_obj
from hunt_gaps import HUNTED

# (order, gammas) grid where the oracle is feasible
GRID = [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2)]

# orders of the intra-regular model x.y = y - x mod n whose verify output
# is frozen; 13..16 were first frozen from the powerset sweeps that
# listed ideal families before the closure route
LARGE_ORDERS = tuple(range(9, 17))


def enum_counts() -> dict:
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
    return {
        "comment": "class counts up to isomorphism, produced by the naive "
        "oracle (single-operator tables that pass the laws, recombined for every m)",
        "counts": rows,
    }


def m5_suite() -> dict:
    g = paper_example()
    return suite_to_json_obj(g, run_suite(g))


def gap_hunts() -> dict:
    """Scan every enumerated model space we can afford and archive, per
    hunted check, the first failing model (or the fact that none exists
    in the scanned space)."""
    hunted = [TheoremId.from_name(name) for name in HUNTED]
    findings: dict[str, dict] = {t.value: {"found": False} for t in hunted}
    scanned = []
    for n, m in [*GRID, (4, 1)]:
        t0 = time.time()
        space = enumerate_models(SearchSpec(n=n, m=m, axioms=AXIOM_SETS["agss"]))
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
    return {
        "comment": "first gap witness per converse-capable check over the "
        "scanned spaces; found=false means the scanned spaces hold none",
        "spaces": scanned,
        "findings": findings,
    }


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


def guard_open_suite() -> dict:
    """Archive the guard-open suite on the lexicographically first
    order <= 3, m = 1 tables that reach each fail condition."""
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
    print(f"  {len(reached)} conditions from {len(models)} models")
    return {
        "comment": "suite output with every guard forced open (_guard returns None, "
        "axiom_profile reports left-invertive and ag-star-star) on the "
        "lexicographically first order <= 3, m = 1 tables that together reach "
        f"{len(reached)} fail conditions; no order <= 3 table reaches: "
        + ", ".join(unreached),
        "models": models,
    }


def difference_model(n: int) -> GammaGroupoid:
    """x.y = y - x mod n on one operator."""
    return GammaGroupoid(n, 1, tuple((y - x) % n for x in range(n) for y in range(n)))


def cli_digest(argv: list[str], stdin_text: str = "") -> tuple[int, str]:
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


def _digest_rows(cases) -> list[dict]:
    """One row `{**fields, "exit", "sha256"}` per `(fields, argv, stdin)`
    case: the exit code and stdout digest of `gag <argv>` fed `stdin`."""
    rows = []
    for fields, argv, stdin_text in cases:
        code, digest = cli_digest(argv, stdin_text)
        rows.append({**fields, "exit": code, "sha256": digest})
    return rows


VERIFY_JSON = ["verify", "--json", "-"]


def large_suite() -> dict:
    """`gag verify --json` on the difference model at each of LARGE_ORDERS."""
    return {
        "comment": "sha256 of the stdout of `gag verify --json -` and its exit code "
        "on x.y = y - x mod n (one operator, default labels)",
        "models": _digest_rows(({"order": n}, VERIFY_JSON, serialize_model(difference_model(n)))
                               for n in LARGE_ORDERS),
    }


# models whose suite run computes more distinct subset products than one
# model keeps: the join semilattice x.y = x | y (orders a power of two)
# and the null model x.y = 0
FAMILY_MODELS = {
    "join": lambda n: GammaGroupoid(n, 1, tuple(x | y for x in range(n) for y in range(n))),
    "null": lambda n: GammaGroupoid(n, 1, (0,) * (n * n)),
}
FAMILY_ORDERS = (("join", 8), ("join", 16), *(("null", n) for n in range(8, 15)))


def family_suite() -> dict:
    """`gag verify --json` on each FAMILY_MODELS model at FAMILY_ORDERS."""
    return {
        "comment": "sha256 of the stdout of `gag verify --json -` and its exit code "
        "on the join semilattice x.y = x | y and the null model x.y = 0 (one "
        "operator, default labels)",
        "models": _digest_rows(({"model": name, "order": n}, VERIFY_JSON,
                                serialize_model(FAMILY_MODELS[name](n)))
                               for name, n in FAMILY_ORDERS),
    }


# hunts frozen through the CLI: every check on the order-3 agss classes,
# the converse-capable ones on the two-operator order-3 agss classes
HUNT_SPACES = ((3, 1, tuple(t.value for t in TheoremId)), (3, 2, HUNTED))


def hunt_outputs() -> dict:
    """`gag search --find-counterexample`, text and --json, over HUNT_SPACES."""
    argvs = [["search", "--order", str(n), "--gammas", str(m), "--axiom", "agss",
              "--find-counterexample", tid, *json_flag]
             for n, m, ids in HUNT_SPACES for tid in ids for json_flag in ([], ["--json"])]
    return {
        "comment": "sha256 of stdout and exit code of `gag <argv>`, with the "
        "elapsed=...s reading on the text-mode # line replaced by elapsed=-",
        "hunts": _digest_rows(({"argv": argv}, argv, "") for argv in argvs),
    }


# searches frozen through the CLI where no oracle reaches: the order-5
# agss census and the order-4 two-operator agss census
SEARCH_ARGVS = (
    ["search", "--order", "5", "--axiom", "agss", "--json"],
    ["search", "--order", "4", "--gammas", "2", "--axiom", "agss", "--json"],
)


def search_outputs() -> dict:
    """`gag search --json` over the spaces in SEARCH_ARGVS."""
    return {
        "comment": "sha256 of stdout and exit code of `gag <argv>` on spaces "
        "beyond the naive oracle; regression-only",
        "searches": _digest_rows(({"argv": argv}, argv, "") for argv in SEARCH_ARGVS),
    }


# the golden verify corpus: every ag class at n <= 4 on one operator and
# at n <= 3 on two operators
VERIFY_SPACES = ((1, 1), (2, 1), (3, 1), (4, 1), (1, 2), (2, 2), (3, 2))


def verify_outputs() -> dict:
    """`gag verify --json -` on every ag class of VERIFY_SPACES, with the
    class's table."""
    return {
        "comment": "sha256 of stdout and exit code of `gag verify --json -` on every "
        "ag class with n <= 4 on one operator and n <= 3 on two (each read from "
        "stdin, default labels)",
        "models": _digest_rows(
            ({"order": n, "gammas": m, "table": list(g.table)}, VERIFY_JSON, serialize_model(g))
            for n, m in VERIFY_SPACES
            for g in enumerate_models(SearchSpec(n=n, m=m, axioms=AXIOM_SETS["ag"])).models
        ),
    }


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


def cli_cases(row: dict) -> list[tuple]:
    """Every frozen command on one fixture model, as digest cases."""
    if "model" in row:
        ref, text, first = row["model"], "", paper_example().element_labels[0]
    else:
        g = GammaGroupoid(row["order"], row["gammas"], tuple(row["table"]))
        ref, text, first = "-", serialize_model(g), g.element_labels[0]
    return [({"argv": cmd}, cmd + [ref], text) for cmd in cli_commands(first)]


def cli_outputs() -> dict:
    """The model-level subcommands on every class of three small spaces
    and the example."""
    return {
        "comment": "sha256 of stdout and exit code of `gag <argv> <model>` on the "
        "order-2 classes with no axioms, the order-3 ag classes, the order-2 "
        "two-operator ag classes (each read from stdin, default labels) "
        "and @paper-example",
        "models": [dict(row, outputs=_digest_rows(cli_cases(row))) for row in cli_models()],
    }


# each --only name: the fixture file under the data directory and its builder
FIXTURES = {
    "counts": ("enum_counts.json", enum_counts),
    "suite": ("m5_suite.json", m5_suite),
    "hunts": ("gap_hunts.json", gap_hunts),
    "guard-open": ("guard_open_suite.json", guard_open_suite),
    "large": ("large_suite.json", large_suite),
    "families": ("family_suite.json", family_suite),
    "cli": ("cli_outputs.json", cli_outputs),
    "hunt-cli": ("hunt_outputs.json", hunt_outputs),
    "search-cli": ("search_outputs.json", search_outputs),
    "verify-cli": ("verify_outputs.json", verify_outputs),
}


def freeze(name: str, data_dir: Path) -> Path:
    """Build fixture `name` and write it under data_dir."""
    file, build = FIXTURES[name]
    t0 = time.time()
    out = data_dir / file
    out.write_text(json.dumps(build(), indent=2) + "\n")
    print(f"wrote {out} ({time.time() - t0:.1f}s)")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--data-dir",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "tests" / "data",
    )
    ap.add_argument("--only", choices=FIXTURES, help="regenerate a single fixture")
    args = ap.parse_args()
    args.data_dir.mkdir(parents=True, exist_ok=True)
    for name in [args.only] if args.only else FIXTURES:
        freeze(name, args.data_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
