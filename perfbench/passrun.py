"""One timed pass of a workload, in a fresh interpreter.

    python3 perfbench/passrun.py WORKLOAD SEED PASS_INDEX [--setup-only]
        [--trace SPANS_FILE] [--only OP_ID,...]

Puts the checkout's `src` first on `sys.path`, imports `gag.cli`, loads
the workload's frozen inputs and marks the end of set-up.  It then runs
each operation through `gag.cli.main` with stdin and stdout redirected,
as a user's shell would, and times each call.  Every `functools`
cache in `gag` is checked empty at the start and cleared before each
operation, because a CLI user starts every command with empty caches.

Digests, counterexample replay and span output happen after the timed
region.  The result is one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

sys.path.insert(0, str(workloads.SRC))


def gag_caches() -> list:
    """Every lru_cache-wrapped function defined in a loaded gag module."""
    found = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "gag" or name.startswith("gag.")):
            continue
        for value in vars(module).values():
            if (
                callable(getattr(value, "cache_clear", None))
                and callable(getattr(value, "cache_info", None))
                and str(getattr(value, "__module__", "")).startswith("gag")
            ):
                found[id(value)] = value
    return list(found.values())


def replay_counterexamples(doc: str, stdout: str) -> bool:
    """True iff every counterexample in a `verify --json` report
    reproduces through `revalidate_counterexample` on the input model."""
    from gag.fileformat import parse_model
    from gag.theorems import Counterexample, revalidate_counterexample

    g = parse_model(doc)
    reports = json.loads(stdout)["reports"]
    cxs = [r["counterexample"] for r in reports if "counterexample" in r]
    return bool(cxs) and all(
        revalidate_counterexample(g, Counterexample(cx["condition"], tuple(cx["data"].items())))
        for cx in cxs
    )


def run_ops(ops, caches, tracer=None, family_info=None) -> tuple[list[dict], float, int]:
    """Run ops back to back; returns per-op records, the pass wall time
    (first start to last end) and the ideal_family cache misses summed
    over operations, read through `family_info` when traced."""
    cli = sys.modules["gag.cli"]
    records, kept, misses = [], [], 0
    real_stdin = sys.stdin
    first = last = time.perf_counter()
    for i, op in enumerate(ops):
        for c in caches:
            c.cache_clear()
        if tracer is not None:
            tracer.op = op.id
        buf = io.StringIO()
        sys.stdin = io.StringIO(op.stdin or "")
        error = None
        start = time.perf_counter()
        if i == 0:
            first = start
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(list(op.argv))
        except SystemExit as e:
            rc = 0 if e.code is None else e.code if isinstance(e.code, int) else 1
        except Exception:
            rc, error = None, traceback.format_exc(limit=4)
        last = end = time.perf_counter()
        sys.stdin = real_stdin
        if tracer is not None:
            tracer.op = None
            misses += family_info().misses
        out = buf.getvalue()
        rec = {
            "op": op.id,
            "key": op.key,
            "s": end - start,
            "exit": rc,
            "sha256": hashlib.sha256(out.encode()).hexdigest(),
        }
        if error:
            rec["error"] = error
        records.append(rec)
        kept.append(out if rc == 2 or op.argv[0] == "search" else None)
    wall = last - first
    # outside the timed region: counts and counterexample replay
    for op, rec, out in zip(ops, records, kept):
        if out is None:
            continue
        if op.argv[0] == "search":
            try:
                rec["count"] = json.loads(out)["count"]
            except (ValueError, KeyError, TypeError):
                rec["count"] = None
        else:
            try:
                rec["replay"] = replay_counterexamples(op.stdin, out)
            except Exception:
                rec["replay"] = False
                rec["error"] = traceback.format_exc(limit=4)
    return records, wall, misses


def peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for child (pool workers)."""
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=workloads.WORKLOADS)
    ap.add_argument("seed", type=int)
    ap.add_argument("pass_index", type=int)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", type=Path, help="write spans here and report per-layer aggregates")
    ap.add_argument("--only", help="comma-separated op ids to run (self-test)")
    args = ap.parse_args()

    import gag
    import gag.cli  # noqa: F401

    ops = workloads.shuffled(workloads.operations(args.workload), args.seed, args.pass_index)
    if args.only:
        wanted = set(args.only.split(","))
        ops = [op for op in ops if op.id in wanted]
    caches = gag_caches()
    stale = [c.__name__ for c in caches if c.cache_info().currsize]
    if stale:
        raise SystemExit(f"caches not empty at the start of a pass: {stale}")
    ready = time.monotonic()
    result = {"ready_monotonic": ready, "gag_file": gag.__file__}
    if not args.setup_only:
        tracer = family_info = None
        if args.trace is not None:
            import layertrace

            family_info = sys.modules["gag.ideals"].ideal_family.cache_info
            tracer = layertrace.Tracer()
            result["bindings"] = tracer.install()
        records, wall, misses = run_ops(ops, caches, tracer, family_info)
        result.update(ops=records, wall_s=wall, peak_rss_mb=peak_rss_mb())
        if tracer is not None:
            by_label, by_op = layertrace.aggregate(tracer.spans)
            result.update(
                by_label=by_label,
                by_op=by_op,
                spans=len(tracer.spans),
                subsets_swept=tracer.subsets_swept,
                family_misses=misses,
            )
            layertrace.write_spans(args.trace, tracer.spans)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
