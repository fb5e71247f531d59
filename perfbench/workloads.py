"""The four benchmark workloads and the frozen inputs they read.

Every workload is one closed-loop client: it runs its operations back to
back, one `gag` CLI invocation per operation.  Inputs are exhaustive, so
the workload seed only permutes the order in which operations run.

  census         `search --json --workers 1` over four model spaces
  census-pool    the same four spaces with `--workers 2`
  verify-large   `verify --json` on x.y = y - x mod n for n = 9..12
  verify-corpus  `verify --json` on every class with n <= 4 at m = 1
                 and n <= 3 at m = 2, read from the frozen corpus

The verify workloads read models from files under `data/` and never call
the search, so a faster or slower search cannot move their numbers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
DATA = HERE / "data"
CORPUS = DATA / "corpus.gag"
LARGE = DATA / "large.gag"
GOLDENS = DATA / "goldens.json"

MAGIC_LINE = "gag v1\n"

WORKLOADS = ("census", "census-pool", "verify-large", "verify-corpus")

# space id -> `gag search` arguments; the ids name the per-space metrics
SPACES = {
    "n4_ag": ["--order", "4", "--axiom", "ag"],
    "n4_agss": ["--order", "4", "--axiom", "agss"],
    "n3m2_ag": ["--order", "3", "--gammas", "2", "--axiom", "ag"],
    "n3m2_ag_intra": ["--order", "3", "--gammas", "2", "--axiom", "ag", "--filter", "intra-regular"],
}
SEARCH_WORKERS = {"census": 1, "census-pool": 2}

LARGE_ORDERS = (9, 10, 11, 12)


@dataclass(frozen=True)
class Op:
    """One CLI invocation.  `key` names its golden; census and
    census-pool share keys, which is the worker-count independence check."""

    id: str
    key: str
    argv: tuple[str, ...]
    stdin: Optional[str] = None


def split_docs(text: str) -> list[str]:
    """Split a stream of `gag v1` documents into one string per model."""
    if not text.startswith(MAGIC_LINE):
        raise ValueError("frozen model file must start with a 'gag v1' header")
    return [MAGIC_LINE + part for part in text.split(MAGIC_LINE)[1:]]


def operations(workload: str) -> list[Op]:
    """Operations of one pass in frozen order; reading the corpus here is
    part of a pass's set-up."""
    if workload in SEARCH_WORKERS:
        workers = str(SEARCH_WORKERS[workload])
        return [
            Op(space, f"search/{space}", ("search", "--json", "--workers", workers, *args))
            for space, args in SPACES.items()
        ]
    if workload == "verify-large":
        docs = split_docs(LARGE.read_text(encoding="utf-8"))
        return [
            Op(f"yx{n}", f"large/yx{n}", ("verify", "--json", "-"), doc)
            for n, doc in zip(LARGE_ORDERS, docs, strict=True)
        ]
    if workload == "verify-corpus":
        docs = split_docs(CORPUS.read_text(encoding="utf-8"))
        return [
            Op(f"c{i:04d}", f"corpus/{i:04d}", ("verify", "--json", "-"), doc)
            for i, doc in enumerate(docs)
        ]
    raise ValueError(f"unknown workload {workload!r}")


def shuffled(ops: list[Op], seed: int, pass_index: int) -> list[Op]:
    """The pass's operation order: a permutation drawn from the seed."""
    out = list(ops)
    random.Random(f"{seed}/{pass_index}").shuffle(out)
    return out
