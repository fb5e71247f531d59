"""Intra-regularity: elements expressible as a = (x *_b (a *_d a)) *_c y.

An element a is intra-regular when such x, y and operators b, d, c
exist; a model is intra-regular when every element is.  The witness
search is the only route here; the tests hold it to an independent
one, membership of a in (S*(a*a))*S by subset products alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .model import GammaGroupoid


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
