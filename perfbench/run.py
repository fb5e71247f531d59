#!/usr/bin/env python3
"""gag benchmark: closed-loop CLI workloads, checked against frozen goldens.

    python3 perfbench/run.py --workload census --seed 1 --seconds 25 --trace 0

Runs timed passes of one workload, each pass in a fresh interpreter
(perfbench/passrun.py), until the next pass would end after `--seconds`;
at least one pass always runs.  Every operation's stdout digest and exit
code is compared with perfbench/data/goldens.json, and every reported
counterexample is replayed; a mismatch counts the operation as failed.

--trace 0 reports the end-to-end metrics:
  setup_s      median time from spawning a pass to its first operation
               (interpreter start, `gag.cli` import, frozen inputs), over
               SETUP_PROBES set-up-only launches spread between the
               passes, plus every pass
  wall_s       median time of one pass
  p50_ms       median per-operation latency, where each operation's
               latency is its median over the run's passes
  p97_ms       97th percentile of the same (nearest rank); with the 474
               corpus models the highest with ten samples beyond it, on
               the four-operation workloads it is the slowest operation
  peak_rss_mb  median over passes of the pass's peak resident set
--trace 1 runs untraced passes and then one traced pass, and reports the
per-layer metrics (see README.md).  A metric whose functions saw no
call in the run is printed on the `# unobserved:` line and reads 0.

Earlier lines of stdout are `#` comments: the environment, the code
measured and per-pass figures.  The last line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from harness import (  # noqa: E402
    RUN_DEADLINE_S,
    HarnessError,
    env_record,
    judge,
    load_goldens,
    op_medians,
    percentile,
    run_pass,
)

SETUP_PROBES = 9
PROBES_PER_PASS = 3


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: float, start: float):
    """Rounds of set-up probes and one pass, while the next round is
    expected to end within `seconds`; at least one round."""
    probes: list[float] = []
    passes: list[dict] = []
    longest = 0.0
    while not passes or time.monotonic() - start + longest <= seconds:
        began = time.monotonic()
        for _ in range(min(PROBES_PER_PASS, SETUP_PROBES - len(probes))):
            probe = run_pass(workload, seed, -1 - len(probes), setup_only=True,
                             timeout=RUN_DEADLINE_S - (began - start))
            probes.append(probe["setup_s"])
        passes.append(run_pass(workload, seed, len(passes),
                               timeout=RUN_DEADLINE_S - (time.monotonic() - start)))
        longest = max(longest, time.monotonic() - began)
    lat = list(op_medians(passes).values())
    metrics = {
        "setup_s": metric(statistics.median(probes + [p["setup_s"] for p in passes]), "s"),
        "wall_s": metric(statistics.median(p["wall_s"] for p in passes), "s"),
        "p50_ms": metric(1000.0 * statistics.median(lat), "ms"),
        "p97_ms": metric(1000.0 * percentile(lat, 97), "ms"),
        "peak_rss_mb": metric(statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    return passes, metrics, {"latency_samples": len(lat), "setup_samples": len(probes) + len(passes)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.monotonic()

    if not (workloads.SRC / "gag" / "cli.py").is_file():
        print(f"perfbench: no gag sources at {workloads.SRC}", file=sys.stderr)
        return 2
    try:
        goldens = load_goldens()
        env = env_record()
        if args.trace:
            import layers

            passes, metrics, info = layers.traced_run(args.workload, args.seed, args.seconds, start)
        else:
            passes, metrics, info = end_to_end(args.workload, args.seed, args.seconds, start)
    except (HarnessError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    env["loadavg_end"] = os.getloadavg()

    records = [rec for p in passes for rec in p["ops"]]
    failures = judge(records, goldens)
    print("# env " + json.dumps(env))
    print(f"# gag {passes[0]['gag_file']}")
    print(f"# workload {args.workload} seed {args.seed}: {len(passes)} passes, pass walls "
          + " ".join(f"{p['wall_s']:.3f}" for p in passes) + " s; " + json.dumps(info))
    for line in failures[:20]:
        print(f"# FAILED {line}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
