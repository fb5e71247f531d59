"""Spawning passes and judging their results, shared by the untraced and
traced runs."""

from __future__ import annotations

import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

PASSRUN = workloads.HERE / "passrun.py"
OUT = workloads.HERE / "out"
RUN_DEADLINE_S = 170.0
POOL_WORKERS = workloads.SEARCH_WORKERS["census-pool"]


class HarnessError(RuntimeError):
    """The benchmark could not run the program at all; no result is printed."""


def pass_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("GAG_SWEEP_CAP", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_pass(workload: str, seed: int, index: int, *, timeout: float, setup_only=False,
             trace: Path | None = None, only: list[str] | None = None) -> dict:
    """Spawn one pass and return its result plus `setup_s` and `total_s`."""
    cmd = [sys.executable, str(PASSRUN), workload, str(seed), str(index)]
    if setup_only:
        cmd.append("--setup-only")
    if trace is not None:
        cmd += ["--trace", str(trace)]
    if only:
        cmd += ["--only", ",".join(only)]
    spawned = time.monotonic()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=pass_env(), cwd=workloads.REPO, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the pass and any pool workers
        proc.communicate()
        raise HarnessError(f"{workload} pass {index} did not end within {timeout:.0f}s") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # leftover pool workers, if any
        except OSError:  # the group is already gone
            pass
    total = time.monotonic() - spawned
    if proc.returncode != 0 or not out.strip():
        raise HarnessError(f"{workload} pass {index} exited {proc.returncode}:\n{err[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["ready_monotonic"] - spawned
    result["total_s"] = total
    return result


def load_goldens() -> dict:
    return json.loads(workloads.GOLDENS.read_text())["ops"]


def judge(records: list[dict], goldens: dict) -> list[str]:
    """One line per failed operation: wrong digest or exit code, an error,
    or a counterexample that does not replay."""
    failures = []
    for rec in records:
        gold = goldens.get(rec["key"])
        why = []
        if gold is None:
            why.append("no golden")
        else:
            if rec["exit"] != gold["exit"]:
                why.append(f"exit {rec['exit']} != {gold['exit']}")
            if rec["sha256"] != gold["sha256"]:
                why.append("stdout digest differs")
        if rec.get("replay") is False:
            why.append("counterexample does not replay")
        if rec.get("error"):
            why.append("raised " + rec["error"].strip().splitlines()[-1])
        if why:
            failures.append(f"{rec['op']}: {'; '.join(why)}")
    return failures


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(p / 100.0 * len(s)) - 1)]


def op_medians(passes: list[dict]) -> dict[str, float]:
    """Each operation's median latency in seconds over the passes."""
    samples: dict[str, list[float]] = {}
    for p in passes:
        for rec in p["ops"]:
            samples.setdefault(rec["op"], []).append(rec["s"])
    return {op: statistics.median(v) for op, v in samples.items()}


def env_record() -> dict:
    """The machine and interpreter the run measured, for the `# env` line."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "loadavg_start": os.getloadavg(),
    }
