"""The traced run (`--trace 1`) and the per-layer metrics it reports.

A traced run first times untraced passes, then runs one traced pass of
the same workload.  Counts are exact; self times come from the traced
pass and carry the tracing overhead, reported as `trace.overhead_s`.
On census-pool the untraced passes alternate census and census-pool, so
the pool speed-up is taken from untraced medians on the same machine
state.  The spans of the traced pass go to out/<workload>.spans.csv.gz
and the metrics, with unobserved ones marked, to out/<workload>.trace.json.
"""

from __future__ import annotations

import json
import statistics
import time

import workloads
from harness import OUT, POOL_WORKERS, RUN_DEADLINE_S, op_medians, run_pass

THEOREM_IDS = (
    "JI", "JI_COR", "KI", "KI_COR", "AW", "AW_COR", "JK", "LISR", "BIIID",
    "T_ONE_TWO", "T_INTERIOR", "T_QUASI", "T12", "PLO", "BINT", "QUO", "LI",
    "EQUALIENT", "II", "IDL", "IJ", "IFFFF", "SLA2", "RLT", "RSEMIPRIME_EQ",
    "RINTL", "LRL", "PRIME_IRR", "TOTAL_ORDER", "SEMILATTICE", "MINIMAL",
)
SPACE_IDS = tuple(workloads.SPACES)
LAWS = ("is_left_invertive", "is_ag_star_star", "is_medial", "is_paramedial")
FILEFORMAT = ("parse_model", "serialize_model", "model_to_json_obj")
TRACED_SLOWDOWN = 1.5  # assumed traced/untraced pass time when planning a run

# every per-layer metric, in BENCHMARK.json order
PER_LAYER = (
    [(f"search.enumerate.{s}_s", "s") for s in SPACE_IDS]
    + [("search.dfs.self_s", "s"), ("search.canonicalize.calls", "count")]
    + [(f"search.canonicalize.calls.{s}", "count") for s in SPACE_IDS]
    + [("search.canonicalize.self_s", "s"), ("search.classes_per_leaf", "ratio")]
    + [(f"search.pool.speedup.{s}", "ratio") for s in SPACE_IDS]
    + [("search.pool.efficiency", "ratio")]
    + [
        ("regularity.is_intra_regular.calls", "count"),
        ("regularity.is_intra_regular.self_s", "s"),
        ("regularity.intra_witness.calls", "count"),
        ("regularity.filter_pass_ratio", "ratio"),
        ("model.axiom_profile.calls", "count"),
        ("model.axiom_profile.calls_per_verify", "ratio"),
        ("model.axiom_profile.self_s", "s"),
    ]
    + [(f"model.{law}.self_s", "s") for law in LAWS]
    + [
        ("subsets.subset_product.calls", "count"),
        ("subsets.subset_product.self_s", "s"),
        ("subsets.all_nonempty_subsets.calls", "count"),
        ("subsets.all_nonempty_subsets.self_s", "s"),
        ("subsets.subsets_swept", "count"),
        ("ideals.ideal_family.calls", "count"),
        ("ideals.ideal_family.misses", "count"),
        ("ideals.ideal_family.self_s", "s"),
        ("ideals.family_hit_ratio", "ratio"),
    ]
    + [(f"theorems.run_check.{t}.self_s", "s") for t in THEOREM_IDS]
    + [("theorems.run_check.self_s", "s"), ("theorems.suite_to_json_obj.self_s", "s")]
    + [(f"fileformat.{f}.{k}", u) for f in FILEFORMAT for k, u in (("calls", "count"), ("self_s", "s"))]
    + [("cli.main.self_s", "s"), ("trace.overhead_s", "s")]
)


def _ratio(num, den):
    return num / den if num is not None and den else None


def layer_values(traced: dict, untraced_walls: list[float],
                 census: list[dict], pool: list[dict]) -> dict[str, float | None]:
    """Every PER_LAYER metric; None where nothing was observed."""
    by_label, by_op = traced["by_label"], traced["by_op"]

    def row(label, op=None):
        rows = by_label if op is None else by_op.get(op, {})
        return rows.get(label, [0, 0.0, 0.0])

    def calls(label, op=None):
        return row(label, op)[0] or None

    def self_s(label):
        r = row(label)
        return r[2] if r[0] else None

    v: dict[str, float | None] = {}
    for s in SPACE_IDS:
        r = row("search.enumerate_models", s)
        v[f"search.enumerate.{s}_s"] = r[1] if r[0] else None
        v[f"search.canonicalize.calls.{s}"] = calls("search.canonicalize", s)
    v["search.dfs.self_s"] = self_s("search.enumerate_models")
    v["search.canonicalize.calls"] = calls("search.canonicalize")
    v["search.canonicalize.self_s"] = self_s("search.canonicalize")
    counts = {rec["op"]: rec.get("count") for rec in traced["ops"]}
    v["search.classes_per_leaf"] = _ratio(counts.get("n4_ag"), calls("search.canonicalize", "n4_ag"))

    one, two = op_medians(census), op_medians(pool)
    for s in SPACE_IDS:
        v[f"search.pool.speedup.{s}"] = _ratio(one.get(s), two.get(s))
    if census and pool:
        gain = statistics.median(p["wall_s"] for p in census) / statistics.median(p["wall_s"] for p in pool)
        v["search.pool.efficiency"] = gain / POOL_WORKERS
    else:
        v["search.pool.efficiency"] = None

    v["regularity.is_intra_regular.calls"] = calls("regularity.is_intra_regular")
    v["regularity.is_intra_regular.self_s"] = self_s("regularity.is_intra_regular")
    v["regularity.intra_witness.calls"] = calls("regularity.intra_witness")
    v["regularity.filter_pass_ratio"] = _ratio(
        calls("search.canonicalize", "n3m2_ag_intra"), calls("regularity.is_intra_regular", "n3m2_ag_intra")
    )

    verifies = sum(1 for rec in traced["ops"] if rec["key"].startswith(("large/", "corpus/")))
    v["model.axiom_profile.calls"] = calls("model.axiom_profile")
    v["model.axiom_profile.calls_per_verify"] = _ratio(calls("model.axiom_profile"), verifies)
    v["model.axiom_profile.self_s"] = self_s("model.axiom_profile")
    for law in LAWS:
        v[f"model.{law}.self_s"] = self_s(f"model.{law}")

    for f in ("subset_product", "all_nonempty_subsets"):
        v[f"subsets.{f}.calls"] = calls(f"subsets.{f}")
        v[f"subsets.{f}.self_s"] = self_s(f"subsets.{f}")
    v["subsets.subsets_swept"] = traced["subsets_swept"] or None

    family = calls("ideals.ideal_family")
    v["ideals.ideal_family.calls"] = family
    v["ideals.ideal_family.misses"] = traced["family_misses"] if family else None
    v["ideals.ideal_family.self_s"] = self_s("ideals.ideal_family")
    v["ideals.family_hit_ratio"] = _ratio(family - traced["family_misses"], family) if family else None

    checks = [self_s(f"theorems.run_check.{t}") for t in THEOREM_IDS]
    for t, s in zip(THEOREM_IDS, checks):
        v[f"theorems.run_check.{t}.self_s"] = s
    seen = [s for s in checks if s is not None]
    v["theorems.run_check.self_s"] = sum(seen) if seen else None
    v["theorems.suite_to_json_obj.self_s"] = self_s("theorems.suite_to_json_obj")
    for f in FILEFORMAT:
        v[f"fileformat.{f}.calls"] = calls(f"fileformat.{f}")
        v[f"fileformat.{f}.self_s"] = self_s(f"fileformat.{f}")
    v["cli.main.self_s"] = self_s("cli.main")
    v["trace.overhead_s"] = traced["wall_s"] - statistics.median(untraced_walls)
    return v


def traced_run(workload: str, seed: int, seconds: float, start: float):
    """Untraced rounds while time allows (at least one), then one traced
    pass.  A round is one pass, preceded on census-pool by a census pass."""
    pooled = workload == "census-pool"
    census: list[dict] = []
    own: list[dict] = []
    longest_round = 0.0
    while not own or (time.monotonic() - start + longest_round
                      + TRACED_SLOWDOWN * max(p["total_s"] for p in own)) <= seconds:
        began = time.monotonic()
        if pooled:
            census.append(run_pass("census", seed, len(own), timeout=RUN_DEADLINE_S - (began - start)))
        own.append(run_pass(workload, seed, len(own), timeout=RUN_DEADLINE_S - (time.monotonic() - start)))
        longest_round = max(longest_round, time.monotonic() - began)
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"{workload}.spans.csv.gz"
    traced = run_pass(workload, seed, len(own), timeout=RUN_DEADLINE_S - (time.monotonic() - start),
                      trace=spans_file)
    values = layer_values(traced, [p["wall_s"] for p in own], census, own if pooled else [])
    unobserved = [name for name, _ in PER_LAYER if values[name] is None]
    metrics = {name: {"value": values[name] or 0, "unit": unit} for name, unit in PER_LAYER}
    report = {
        "workload": workload,
        "seed": seed,
        "gag_file": traced["gag_file"],
        "untraced_passes": len(own) + len(census),
        "spans": traced["spans"],
        "spans_file": str(spans_file.relative_to(workloads.REPO)),
        "bindings": traced["bindings"],
        "metrics": {name: ("unobserved" if values[name] is None else values[name]) for name, _ in PER_LAYER},
        "by_label": traced["by_label"],
        "not_traced": "pool workers (their spans stay in the forked children); _dfs, "
        "_eval_instance and the _PREDICATES table are not reachable from outside",
    }
    (OUT / f"{workload}.trace.json").write_text(json.dumps(report, indent=1) + "\n")
    print("# unobserved: " + (" ".join(unobserved) if unobserved else "none"))
    info = {"spans": traced["spans"], "overhead_s": round(values["trace.overhead_s"], 4),
            "report": str((OUT / f"{workload}.trace.json").relative_to(workloads.REPO))}
    return census + own + [traced], metrics, info
