"""Exhaustive model enumeration up to isomorphism, plus counterexample hunts.

The enumerator fills table cells from cell 0 in ascending flat order
(row-major by (element, operator, element)) and tries values in
ascending order, so it reaches the valid tables in lexicographic order.
Each ground instance of a required law is a tuple (i, s, p, j, q) that
holds iff t[t[i]*s + p] == t[t[j]*s + q] over the flat table t.

Instances are never rescanned.  Each waits on the cell max(i, j) that
fixes both of its inner cells.  Once that cell is assigned the instance
names its two outer cells a = t[i]*s + p and b = t[j]*s + q.  If a == b
it holds; if both are assigned it is checked at once; if only the
smaller is assigned, the larger is forced to its value; otherwise the
larger is put on the smaller's watch list and is forced when the
smaller is assigned.  A forced cell tries only its forced value, and
two forcings that disagree prune the branch at once.

Symmetry is broken by lex-leader constraints: the DFS keeps the
relabelings of elements and operators still tied with the partial
table, and cuts a branch as soon as one of them is smaller on cells
that are all assigned.  Ties are watched like instances: a tie that
matches t before position k waits on cell max(k, src[k]), and once that
cell is assigned it walks on while both sides are known.  A smaller
relabeled value cuts the branch, a larger one or a full match (an
automorphism) drops the tie, and a tie that blocks waits on its next
cell; ties waiting on other cells cost nothing.  The laws and the
filter are invariant under isomorphism, so the least table of every
class survives, and the leaves are exactly the canonical forms,
distinct and in ascending order.  The filter runs once per class and
nothing is deduplicated, so `--limit` keeps the least classes and
`--time-budget` is honoured at the next leaf.  Every search is this one
DFS in one process.

The DFS is one loop over a cell index, not a recursion.  Each cell keeps
the next value to try, the bound past its last value and a mark into a
single trail.  Every forcing, watch-list push and tie refiling made by
a value goes on the trail, and backtracking pops the trail to the
cell's mark, as in MiniSat (Eén & Sörensson, "An Extensible
SAT-solver", SAT 2003).  A leaf is yielded straight from the loop.

The ground truth this enumerator is held to is the naive oracle in
`gag.oracles`, which shares nothing with the DFS but `canonicalize` and
the filter.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional

from .fileformat import model_to_json_obj
from .model import GammaGroupoid
from .regularity import intra_witness
from .theorems import FAIL, TheoremId, TheoremReport, run_check, suite_to_json_obj

AXIOM_NAMES = ("left-invertive", "ag-star-star")
AXIOM_SETS = {"ag": frozenset({"left-invertive"}), "agss": frozenset(AXIOM_NAMES)}
FILTER_NAMES = ("any", "intra-regular", "non-intra-regular")

MAX_CANON_N = 6
MAX_CANON_M = 3


class SizeGuardError(ValueError):
    pass


def _check_canon_size(n: int, m: int) -> None:
    if n > MAX_CANON_N or m > MAX_CANON_M:
        raise SizeGuardError(
            f"canonicalization guarded at n<={MAX_CANON_N}, m<={MAX_CANON_M}; "
            f"got n={n}, m={m}"
        )


@dataclass(frozen=True)
class SearchSpec:
    """Parameters of one enumeration or hunt.

    `axioms` is any subset of AXIOM_NAMES; `filter` restricts to models
    that are (or are not) intra-regular.  `max_models` keeps at most
    that many distinct representatives; `time_budget` (seconds) stops
    the scan on the clock and makes the run non-reproducible.  A result
    is marked truncated only when a class beyond the limit exists or a
    leaf arrived after the budget was spent; a limit met by the last
    class of the space gives a complete, untruncated result.
    """

    n: int
    m: int
    axioms: frozenset = AXIOM_SETS["ag"]
    filter: str = "any"
    max_models: Optional[int] = None
    time_budget: Optional[float] = None

    def __post_init__(self):
        for name, flag in (("n", "order"), ("m", "gammas"), ("max_models", "limit")):
            value = getattr(self, name)
            if value is None and name == "max_models":
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} (--{flag}) must be an integer")
            if value < 1:
                raise ValueError(f"{name} (--{flag}) must be at least 1")
        axioms = frozenset(self.axioms)
        unknown = axioms - set(AXIOM_NAMES)
        if unknown:
            raise ValueError(f"unknown axioms: {sorted(unknown)}")
        object.__setattr__(self, "axioms", axioms)
        if self.filter not in FILTER_NAMES:
            raise ValueError(f"unknown filter {self.filter!r}")
        budget = self.time_budget
        if budget is not None and (isinstance(budget, bool) or not isinstance(budget, (int, float))):
            raise ValueError("time_budget (--time-budget) must be a number")
        if budget is not None and not budget > 0:
            raise ValueError("time_budget (--time-budget) must be positive")


@dataclass(frozen=True)
class SearchResult:
    models: tuple[GammaGroupoid, ...]
    count: int
    truncated: bool
    elapsed: float


@dataclass(frozen=True)
class HuntResult:
    model: Optional[GammaGroupoid]
    report: Optional[TheoremReport]
    scanned: int
    truncated: bool
    elapsed: float

    @property
    def found(self) -> bool:
        return self.model is not None


# --- canonical forms --------------------------------------------------------

@lru_cache(maxsize=None)
def _relabelings(n: int, m: int) -> tuple[tuple[list[int], list[int]], ...]:
    """One (inv, src) pair per relabeling: the relabeled table is
    [inv[t[x]] for x in src].  The identity comes first.  Built on first
    use, after the size guard."""
    pairs = []
    for p in itertools.permutations(range(n)):  # p[i] = old element at new slot i
        inv = [0] * n
        for new, old in enumerate(p):
            inv[old] = new
        for q in itertools.permutations(range(m)):
            src = [
                (p[i] * m + q[k]) * n + p[j]
                for i in range(n)
                for k in range(m)
                for j in range(n)
            ]
            pairs.append((inv, src))
    return tuple(pairs)


def canonicalize(g: GammaGroupoid) -> tuple[int, ...]:
    """Lexicographically least flat table over all simultaneous
    relabelings of elements and operators.  Two models are isomorphic
    iff their canonical forms are equal.
    """
    _check_canon_size(g.n, g.m)
    t = g.table
    return min(tuple(inv[t[x]] for x in src) for inv, src in _relabelings(g.n, g.m))


def canonical_model(g: GammaGroupoid) -> GammaGroupoid:
    return GammaGroupoid(g.n, g.m, canonicalize(g))


# --- ground law instances for pruning ---------------------------------------

def compile_instances(n: int, m: int, axioms: Iterable[str]) -> tuple[tuple, ...]:
    """Nontrivial ground instances of the required laws, each a tuple
    (i, s, p, j, q) that holds iff t[t[i]*s + p] == t[t[j]*s + q].

    Left invertive (x g y) d z = (z g y) d x has i = x g y, j = z g y,
    s = m*n, p = d*n + z and q = d*n + x.  The ag-star-star identity
    x a (y b z) = y a (x b z) has i = y b z, j = x b z, s = 1,
    p = (x*m + a)*n and q = (y*m + a)*n.  The first is trivial at x = z
    and the second at x = y, so those are skipped.

    The DFS files each instance under the cell max(i, j) (see
    _dfs_state).  When that cell is assigned, the outer cells
    a = t[i]*s + p and b = t[j]*s + q are known; the instance is then
    checked, forces the larger of a and b, or watches the smaller.
    """
    out: list[tuple] = []
    axioms = set(axioms)
    if "left-invertive" in axioms:
        for x in range(n):
            for z in range(x + 1, n):
                for y in range(n):
                    for gam in range(m):
                        for dlt in range(m):
                            i = (x * m + gam) * n + y
                            j = (z * m + gam) * n + y
                            out.append((i, m * n, dlt * n + z, j, dlt * n + x))
    if "ag-star-star" in axioms:
        for x in range(n):
            for y in range(x + 1, n):
                for z in range(n):
                    for al in range(m):
                        for be in range(m):
                            i = (y * m + be) * n + z
                            j = (x * m + be) * n + z
                            out.append((i, 1, (x * m + al) * n, j, (y * m + al) * n))
    return tuple(out)


def _dfs_state(n: int, m: int, axioms: Iterable[str]) -> tuple:
    """The DFS state (t, total, n, ready, watch, forced, ties).

    t is the table of `total` cells over n elements.  ready[c] lists the
    instances whose inner cells i and j are both known once cell c is
    assigned, i.e. c = max(i, j).  watch[c] lists cells above c that
    must take c's value once c is assigned, and forced[c] is the value c
    must take, or -1.  ties[c] lists the ties (inv, src, k) waiting on
    cell c: the relabeled table [inv[t[x]] for x in src] equals t before
    position k, and c = max(k, src[k]).  At first every relabeling but
    the identity is filed with k = 0 under src[0].  _dfs restores watch,
    forced and ties on backtrack.
    """
    total = n * n * m
    ready: list[list[tuple]] = [[] for _ in range(total)]
    for inst in compile_instances(n, m, axioms):
        ready[max(inst[0], inst[3])].append(inst)
    ties: list[list[tuple]] = [[] for _ in range(total)]
    for inv, src in _relabelings(n, m)[1:]:
        ties[src[0]].append((inv, src, 0))
    return ([-1] * total, total, n, ready, [[] for _ in range(total)], [-1] * total, ties)


def _dfs(state: tuple) -> Iterator[tuple[int, ...]]:
    """Every completion of the table that satisfies all instances and is
    the least table of its class, in ascending lexicographic order, over
    a state from _dfs_state.  Cells set in `forced` before the call stay
    set, and take only their forced value.

    One loop walks a cell index up and down.  Per cell it keeps the next
    value to try, the bound past its last value (n, or one past a forced
    value) and a mark: the trail's length when the cell was entered.
    Every change to the state goes on the one trail as a tagged entry: a
    cell a forced here is a, a cell a pushed on watch[b] is -1 - b, and a
    tie refiled under cell w is -1 - total - w.  After a value fails or
    yields a leaf, and on backing up to a cell, the trail is popped to
    that cell's mark, so after a full run the state is as it was built,
    the table aside.
    """
    t, total, n, ready, watch, forced, ties = state
    nxt = [0] * total
    end = [0] * total
    mark = [0] * total
    trail: list[int] = []
    push = trail.append
    pop = trail.pop
    last = total - 1
    cell = 0
    v = forced[0]
    nxt[0], end[0] = (0, n) if v < 0 else (v, v + 1)
    while True:
        v = nxt[cell]
        if v == end[cell]:  # every value tried: back up a cell
            if not cell:
                return
            cell -= 1
        else:
            nxt[cell] = v + 1
            t[cell] = v
            for a in watch[cell]:
                r = forced[a]
                if r < 0:
                    forced[a] = v
                    push(a)
                elif r != v:
                    break
            else:
                for i, s, p, j, q in ready[cell]:
                    a = t[i] * s + p
                    b = t[j] * s + q
                    if a < b:
                        a, b = b, a
                    elif a == b:
                        continue
                    if a <= cell:
                        if t[a] != t[b]:
                            break
                    elif b <= cell:
                        r = forced[a]
                        if r < 0:
                            forced[a] = t[b]
                            push(a)
                        elif r != t[b]:
                            break
                    else:
                        watch[b].append(a)
                        push(-1 - b)
                else:
                    for inv, src, k in ties[cell]:
                        while (u := inv[t[src[k]]]) == (r := t[k]) and (k := k + 1) < total:
                            w = src[k] if src[k] > k else k
                            if w > cell:
                                ties[w].append((inv, src, k))
                                push(-1 - total - w)
                                break
                        if u < r:
                            break
                    else:
                        if cell == last:
                            yield tuple(t)
                        else:
                            cell += 1
                            mark[cell] = len(trail)
                            v = forced[cell]
                            if v < 0:
                                nxt[cell] = 0
                                end[cell] = n
                            else:
                                nxt[cell] = v
                                end[cell] = v + 1
                            continue
        mk = mark[cell]  # undo the value tried here
        while len(trail) > mk:
            e = pop()
            if e >= 0:
                forced[e] = -1
            elif e >= -total:
                watch[-1 - e].pop()
            else:
                ties[-1 - total - e].pop()


def _passes_filter(g: GammaGroupoid, filt: str) -> bool:
    """Whether g passes the filter; stops at the first element with no
    intra-regularity witness."""
    if filt == "any":
        return True
    return all(intra_witness(g, a) is not None for a in range(g.n)) == (filt == "intra-regular")


def _scan(spec: SearchSpec) -> tuple[list[tuple[int, ...]], bool, float]:
    """Canonical forms in ascending order: the DFS's leaves that pass
    the filter (see the module docstring).  `max_models` is checked at
    each class and the time budget at every leaf after the first.
    truncated=True means the collected set is (or, on the clock, may
    be) incomplete: a class turned up past `max_models`, or another leaf
    arrived after the budget was spent.  Time-budget runs are the documented exception to
    reproducibility.  Orders and operator counts past the
    canonicalization guard are refused before any work starts.
    """
    _check_canon_size(spec.n, spec.m)
    t0 = time.monotonic()
    found: list[tuple[int, ...]] = []
    for done, c in enumerate(_dfs(_dfs_state(spec.n, spec.m, spec.axioms))):
        if done and spec.time_budget is not None and time.monotonic() - t0 > spec.time_budget:
            return found, True, time.monotonic() - t0
        if spec.filter != "any" and not _passes_filter(GammaGroupoid(spec.n, spec.m, c), spec.filter):
            continue
        if len(found) == spec.max_models:
            return found, True, time.monotonic() - t0
        found.append(c)
    return found, False, time.monotonic() - t0


def enumerate_models(spec: SearchSpec) -> SearchResult:
    """One representative per isomorphism class satisfying the required
    axioms and filter, emitted in ascending canonical form."""
    forms, truncated, elapsed = _scan(spec)
    models = tuple(GammaGroupoid(spec.n, spec.m, c) for c in forms)
    return SearchResult(models, len(models), truncated, elapsed)


def count_models(spec: SearchSpec) -> SearchResult:
    forms, truncated, elapsed = _scan(spec)
    return SearchResult((), len(forms), truncated, elapsed)


def find_counterexamples(
    space: SearchResult, theorems: Iterable[TheoremId]
) -> dict[TheoremId, HuntResult]:
    """Per check, the least model of `space` (an enumerate_models
    result, so ascending canonical form) on which it fails, with that
    report attached; no model when the space holds none.  Each model
    runs every check not yet found, and the walk stops once all are."""
    wanted = tuple(dict.fromkeys(theorems))
    hunts: dict[TheoremId, HuntResult] = {}
    for scanned, g in enumerate(space.models, 1):
        if len(hunts) == len(wanted):
            break
        for tid in wanted:
            if tid not in hunts:
                report = run_check(g, tid)
                if report.status == FAIL:
                    hunts[tid] = HuntResult(g, report, scanned, space.truncated, space.elapsed)
    missed = HuntResult(None, None, space.count, space.truncated, space.elapsed)
    return {tid: hunts.get(tid, missed) for tid in wanted}


def find_counterexample(spec: SearchSpec, theorem: TheoremId) -> HuntResult:
    """The least model of the spec's space failing `theorem`."""
    return find_counterexamples(enumerate_models(spec), (theorem,))[theorem]


# --- serialization ----------------------------------------------------------

def spec_to_json_obj(
    spec: SearchSpec, target: str, theorem: Optional[TheoremId] = None
) -> dict:
    """The run's parameters; `target` is "enumerate", "count" or
    "find-counterexample", the last with its `theorem`."""
    out = {
        "order": spec.n,
        "gammas": spec.m,
        "axioms": sorted(spec.axioms),
        "filter": spec.filter,
        "target": target,
    }
    if theorem is not None:
        out["theorem"] = theorem.value
    if spec.max_models is not None:
        out["limit"] = spec.max_models
    return out


def search_to_json_obj(spec: SearchSpec, target: str, result: SearchResult) -> dict:
    # elapsed is deliberately text-mode only: structured output must be
    # byte-identical across runs
    out = {
        "search": spec_to_json_obj(spec, target),
        "count": result.count,
        "truncated": result.truncated,
    }
    if target == "enumerate":
        out["models"] = [model_to_json_obj(g) for g in result.models]
    return out


def hunt_to_json_obj(spec: SearchSpec, theorem: TheoremId, result: HuntResult) -> dict:
    out = {
        "search": spec_to_json_obj(spec, "find-counterexample", theorem),
        "scanned": result.scanned,
        "truncated": result.truncated,
        "found": result.found,
    }
    if result.model is not None and result.report is not None:
        out["model"] = model_to_json_obj(result.model)
        out["report"] = suite_to_json_obj(result.model, [result.report])
    return out
