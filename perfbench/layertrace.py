"""Per-layer tracing from outside the program.

The tracer replaces each listed public function of `gag` by a wrapper
that records one span per call: label, start, end, parent span and the
operation it ran under.  The wrapper is installed at every module
binding of the function, found by identity, so a call through
`theorems.subset_product` is traced as well as one through
`subsets.subset_product`.  Spans stay in memory until the pass ends.

What this cannot see:
  - pool workers: they are forked from the traced process, so their
    spans stay in the children and are lost (census-pool reports only
    the parent's side of each search);
  - private functions and tables that the public ones call without a
    module-level lookup of a listed name, such as `search._dfs`,
    `search._eval_instance` and the `ideals._PREDICATES` table.  Their
    time lands in the self time of the nearest traced caller.
"""

from __future__ import annotations

import csv
import gzip
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Optional

# (module, attribute, label) of every traced function
TRACED = (
    ("gag.cli", "main", "cli.main"),
    ("gag.fileformat", "parse_model", "fileformat.parse_model"),
    ("gag.fileformat", "serialize_model", "fileformat.serialize_model"),
    ("gag.fileformat", "model_to_json_obj", "fileformat.model_to_json_obj"),
    ("gag.search", "enumerate_models", "search.enumerate_models"),
    ("gag.search", "canonicalize", "search.canonicalize"),
    ("gag.regularity", "is_intra_regular", "regularity.is_intra_regular"),
    ("gag.regularity", "intra_witness", "regularity.intra_witness"),
    ("gag.model", "axiom_profile", "model.axiom_profile"),
    ("gag.model", "is_left_invertive", "model.is_left_invertive"),
    ("gag.model", "is_ag_star_star", "model.is_ag_star_star"),
    ("gag.model", "is_medial", "model.is_medial"),
    ("gag.model", "is_paramedial", "model.is_paramedial"),
    ("gag.subsets", "subset_product", "subsets.subset_product"),
    ("gag.subsets", "all_nonempty_subsets", "subsets.all_nonempty_subsets"),
    ("gag.ideals", "ideal_family", "ideals.ideal_family"),
    ("gag.theorems", "run_check", "theorems.run_check"),
    ("gag.theorems", "suite_to_json_obj", "theorems.suite_to_json_obj"),
)

Span = tuple[str, float, float, int, str]


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    Calls are synchronous, so the children of a span are disjoint
    intervals inside it and their sum is the part of it they cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(end - start) - c for (_, start, end, _, _), c in zip(spans, covered)]


def aggregate(spans: list[Span]) -> tuple[dict, dict]:
    """[calls, total seconds, self seconds] by label, and by (op, label)."""
    by_label: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    by_op: dict[str, dict[str, list]] = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
    for (label, start, end, _, op), own in zip(spans, self_times(spans)):
        for row in (by_label[label], by_op[op][label]):
            row[0] += 1
            row[1] += end - start
            row[2] += own
    return by_label, by_op


class Tracer:
    """Span recorder; `install` wraps the TRACED functions in place.
    Calls are recorded only while `op` names the running operation."""

    def __init__(self) -> None:
        self.spans: list[Any] = []
        self.op: Optional[str] = None
        self.subsets_swept = 0
        self._stack: list[int] = []

    def wrap(self, fn: Callable, label: str) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        if label == "theorems.run_check":
            def name_of(args):
                return f"{label}.{args[1].value}"
        else:
            def name_of(args):
                return label
        counts_subsets = label == "subsets.all_nonempty_subsets"

        def wrapper(*args, **kwargs):
            op = self.op
            if op is None:  # outside any operation, e.g. the harness's own replay
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_of(args), start, end, parent, op)
            if counts_subsets:
                self.subsets_swept += len(result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", label)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> dict[str, int]:
        """Wrap every binding of every traced function in the loaded
        `gag` modules; returns the number of bindings per label."""
        originals = {id(getattr(sys.modules[mod], attr)): label for mod, attr, label in TRACED}
        wrappers: dict[int, Callable] = {}
        bindings: dict[str, int] = defaultdict(int)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "gag" or name.startswith("gag.")):
                continue
            for attr, value in list(vars(module).items()):
                label = originals.get(id(value))
                if label is None:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self.wrap(value, label)
                setattr(module, attr, wrappers[id(value)])
                bindings[label] += 1
        return dict(bindings)


def write_spans(path, spans: list[Span]) -> None:
    """Spans as gzipped CSV: index, label, start, end, parent, op."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
        w = csv.writer(fh)
        w.writerow(("span", "label", "start_s", "end_s", "parent", "op"))
        for i, (label, start, end, parent, op) in enumerate(spans):
            w.writerow((i, label, f"{start:.9f}", f"{end:.9f}", parent, op))
