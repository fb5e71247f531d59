"""Naive ground truth for the enumerator: filter, canonicalize, deduplicate.

Any model restricted to one operator satisfies the single-operator laws
(the operator-diagonal ground instances), so the candidates are the
m-tuples of single-operator tables that pass the laws, and the full law
check runs on each recombination; at m = 1 the candidates are those
tables themselves.  Only the model-level law deciders, `canonicalize`
and the search filter are used: nothing is shared with the DFS's
propagation, watches or lex-leader ties.  The pruned enumerator must
reproduce this output exactly wherever the oracle is feasible, and
model counts are frozen from it, never typed in.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .model import GammaGroupoid, all_models, holds
from .search import AXIOM_NAMES, _passes_filter, canonicalize


def _passes_axioms(g: GammaGroupoid, axioms: frozenset) -> bool:
    return all(holds(g, law) for law in AXIOM_NAMES if law in axioms)


def _interleave(singles: Sequence[Sequence[int]], n: int, m: int) -> tuple[int, ...]:
    return tuple(singles[k][i * n + j] for i in range(n) for k in range(m) for j in range(n))


def naive_enumerate(
    n: int, m: int,
    axioms: frozenset = frozenset({"left-invertive"}),
    filt: str = "any",
) -> list[tuple[int, ...]]:
    """Sorted canonical forms of every model on n elements and m
    operators that satisfies `axioms` and passes `filt`."""
    singles = [g.table for g in all_models(n, 1) if _passes_axioms(g, axioms)]
    forms: set[tuple[int, ...]] = set()
    for combo in itertools.product(singles, repeat=m):
        g = GammaGroupoid(n, m, _interleave(combo, n, m))
        if _passes_axioms(g, axioms) and _passes_filter(g, filt):
            forms.add(canonicalize(g))
    return sorted(forms)
