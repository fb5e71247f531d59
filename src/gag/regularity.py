"""Intra-regularity: elements expressible as a = (x *_b (a *_d a)) *_c y.

An element a is intra-regular when such x, y and operators b, d, c
exist; a model is intra-regular when every element is.  The witness
search and the subset-product oracle below are two independent routes
to the same predicate and are kept separate on purpose: the oracle
checks membership of a in (S*(a*a))*S and never looks at witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .model import GammaGroupoid
from .subsets import Subset, subset_product


@dataclass(frozen=True)
class IntraWitness:
    """Certificate that a == (x *_beta (a *_delta a)) *_gamma y."""

    x: int
    y: int
    beta: int
    delta: int
    gamma: int


def intra_witness(g: GammaGroupoid, a: int) -> Optional[IntraWitness]:
    """Lexicographically least witness under (x, y, beta, delta, gamma),
    or None if a is not intra-regular."""
    if not (0 <= a < g.n):
        raise ValueError(f"element index out of range 0..{g.n - 1}")
    n, m, t = g.n, g.m, g.table
    for x in range(n):
        for y in range(n):
            for beta in range(m):
                for delta in range(m):
                    aa = t[(a * m + delta) * n + a]
                    inner = t[(x * m + beta) * n + aa]
                    for gamma in range(m):
                        if t[(inner * m + gamma) * n + y] == a:
                            return IntraWitness(x, y, beta, delta, gamma)
    return None


@dataclass(frozen=True)
class IntraRegularityReport:
    """Per-element witnesses; truthy iff every element has one."""

    holds: bool
    witnesses: tuple[Optional[IntraWitness], ...]
    offenders: tuple[int, ...]

    def __bool__(self) -> bool:
        return self.holds


def is_intra_regular(g: GammaGroupoid) -> IntraRegularityReport:
    """Witness every element or report the ones that have none."""
    witnesses = tuple(intra_witness(g, a) for a in range(g.n))
    offenders = tuple(a for a, w in enumerate(witnesses) if w is None)
    return IntraRegularityReport(not offenders, witnesses, offenders)


def intra_oracle(g: GammaGroupoid, a: int) -> bool:
    """Membership route: a in (S*({a}*{a}))*S, via subset products only."""
    if not (0 <= a < g.n):
        raise ValueError(f"element index out of range 0..{g.n - 1}")
    s = Subset.full(g.n)
    sa = Subset.singleton(g.n, a)
    aa = subset_product(g, sa, sa)
    return a in subset_product(g, subset_product(g, s, aa), s)


def format_witness(g: GammaGroupoid, a: int, w: IntraWitness) -> str:
    """Render a certificate like `b = (c.(b.b)).e`, showing operator
    names when the model has more than one operator."""
    e = g.element_labels
    if g.m == 1:
        return f"{e[a]} = ({e[w.x]}.({e[a]}.{e[a]})).{e[w.y]}"
    o = g.gamma_labels
    return (
        f"{e[a]} = ({e[w.x]} {o[w.beta]} ({e[a]} {o[w.delta]} {e[a]})) "
        f"{o[w.gamma]} {e[w.y]}"
    )
