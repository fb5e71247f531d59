"""Ideal-like subset classes, each stated once as a closure map.

Every kind is the family {A : F(A) <= A} for one monotone map F built
from products, kept in `_CLOSURE_MAPS`; the family listing, the
generated ideals and `kind_predicate` all read that map.  A kind's
predicate takes a model and a non-empty subset bound to its carrier;
emptiness or a carrier mismatch raises instead of returning False, so
a False answer always means the defining inclusion failed.
"""

from __future__ import annotations

import enum
from functools import lru_cache, partial
from typing import Callable, Optional

from .model import GammaGroupoid
from .subsets import (
    EmptySubsetError,
    MaskMap,
    Subset,
    closed_subsets,
    subset_product,
    _check_model_subset,
    _closure,
    _mask_product,
)


class IdealKind(enum.Enum):
    SUBGROUPOID = "subgroupoid"
    LEFT = "left"
    RIGHT = "right"
    TWO_SIDED = "two-sided"
    BI = "bi"
    GENERALIZED_BI = "gbi"
    INTERIOR = "interior"
    QUASI = "quasi"
    ONE_TWO = "one-two"


def _validated(g: GammaGroupoid, a: Subset) -> None:
    _check_model_subset(g, a)
    if not a:
        raise EmptySubsetError("ideal predicates are defined for non-empty subsets")


# each kind as {A : F(A) <= A}, F(p, s, A) on masks as in `closed_subsets`,
# with p the product and s the carrier; generalized bi- and quasi-ideals
# need not be subgroupoids
_CLOSURE_MAPS: dict[IdealKind, MaskMap] = {
    IdealKind.SUBGROUPOID: lambda p, s, a: p(a, a),
    IdealKind.LEFT: lambda p, s, a: p(s, a),
    IdealKind.RIGHT: lambda p, s, a: p(a, s),
    IdealKind.TWO_SIDED: lambda p, s, a: p(s, a) | p(a, s),
    IdealKind.BI: lambda p, s, a: p(a, a) | p(p(a, s), a),
    IdealKind.GENERALIZED_BI: lambda p, s, a: p(p(a, s), a),
    IdealKind.INTERIOR: lambda p, s, a: p(a, a) | p(p(s, a), s),
    IdealKind.QUASI: lambda p, s, a: p(s, a) & p(a, s),
    IdealKind.ONE_TWO: lambda p, s, a: p(a, a) | p(p(a, s), p(a, a)),
}


def kind_predicate(kind: IdealKind) -> Callable[[GammaGroupoid, Subset], bool]:
    """Decides F(A) <= A, F the kind's closure map, for a non-empty
    subset A bound to the model's carrier."""
    f = _CLOSURE_MAPS[kind]

    def member(g: GammaGroupoid, a: Subset) -> bool:
        _validated(g, a)
        return not f(partial(_mask_product, g), (1 << g.n) - 1, a.mask) & ~a.mask

    return member


@lru_cache(maxsize=128)
def ideal_family(g: GammaGroupoid, kind: IdealKind) -> tuple[Subset, ...]:
    """All non-empty subsets of the given kind, canonical order, listed
    by closure rather than by testing every subset."""
    return closed_subsets(g, _CLOSURE_MAPS[kind])


def generated_ideal(g: GammaGroupoid, kind: IdealKind, seed: Subset) -> Subset:
    """Least subset of the given kind containing a non-empty seed: the
    fixpoint of A -> A | F(A) from the seed, F the kind's closure map."""
    _check_model_subset(g, seed)
    if not seed:
        raise EmptySubsetError("generator set must be non-empty")
    return Subset(g.n, _closure(g, _CLOSURE_MAPS[kind])(seed.mask))


def _ideal_pair_offender(g: GammaGroupoid, p: Subset, meet: Callable[[Subset, Subset], Subset]):
    fam = ideal_family(g, IdealKind.TWO_SIDED)
    for a in fam:
        for b in fam:
            if meet(a, b) <= p and not (a <= p or b <= p):
                return a, b
    return None


def prime_offender(g: GammaGroupoid, p: Subset) -> Optional[tuple[Subset, Subset]]:
    """First two-sided ideals A, B with A*B <= P but neither inside P."""
    return _ideal_pair_offender(g, p, lambda a, b: subset_product(g, a, b))


def irreducible_offender(g: GammaGroupoid, p: Subset) -> Optional[tuple[Subset, Subset]]:
    """First two-sided ideals A, B with A & B <= P but neither inside P."""
    return _ideal_pair_offender(g, p, Subset.__and__)


def semiprime_offender(g: GammaGroupoid, p: Subset) -> Optional[Subset]:
    """First two-sided ideal A with A*A <= P but A not inside P; P may
    be any subset."""
    for a in ideal_family(g, IdealKind.TWO_SIDED):
        if subset_product(g, a, a) <= p and not (a <= p):
            return a
    return None


def elementwise_offender(g: GammaGroupoid, p: Subset) -> Optional[int]:
    """First element a with {a}*{a} <= P but a not in P."""
    _check_model_subset(g, p)
    cells, mask = g.product_masks.cells, p.mask
    for x in range(g.n):
        # {x}*{x} is the diagonal cell of the product masks
        if not cells[x][x] & ~mask and not mask >> x & 1:
            return x
    return None


def is_elementwise_semiprime(g: GammaGroupoid, p: Subset) -> bool:
    """For all elements a: {a}*{a} <= P implies a in P.

    This is the element-level reading of semiprimality; the theorem
    suite reports it alongside the ideal-quantified one where the two
    could differ.  P itself is only required to be a non-empty subset.
    """
    _validated(g, p)
    return elementwise_offender(g, p) is None
