"""Ideal-like subset classes and the predicates that decide them.

All predicates take a model and a non-empty subset bound to its
carrier; emptiness or a carrier mismatch raises instead of returning
False, so a False answer always means the defining inclusion failed.

Conventions:

  subgroupoid       A*A <= A
  left ideal        S*A <= A
  right ideal       A*S <= A
  two-sided ideal   both
  bi-ideal          subgroupoid and (A*S)*A <= A
  generalized bi    (A*S)*A <= A alone (no subgroupoid requirement)
  interior ideal    subgroupoid and (S*A)*S <= A
  quasi-ideal       (S*A) & (A*S) <= A (no subgroupoid requirement)
  (1,2)-ideal       subgroupoid and (A*S)*(A*A) <= A
"""

from __future__ import annotations

import enum
from functools import lru_cache
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


def is_subgroupoid(g: GammaGroupoid, a: Subset) -> bool:
    _validated(g, a)
    return subset_product(g, a, a) <= a


def is_left_ideal(g: GammaGroupoid, a: Subset) -> bool:
    _validated(g, a)
    return subset_product(g, Subset.full(g.n), a) <= a


def is_right_ideal(g: GammaGroupoid, a: Subset) -> bool:
    _validated(g, a)
    return subset_product(g, a, Subset.full(g.n)) <= a


def is_two_sided_ideal(g: GammaGroupoid, a: Subset) -> bool:
    return is_left_ideal(g, a) and is_right_ideal(g, a)


def is_bi_ideal(g: GammaGroupoid, a: Subset) -> bool:
    return is_subgroupoid(g, a) and is_generalized_bi_ideal(g, a)


def is_generalized_bi_ideal(g: GammaGroupoid, a: Subset) -> bool:
    _validated(g, a)
    asa = subset_product(g, subset_product(g, a, Subset.full(g.n)), a)
    return asa <= a


def is_interior_ideal(g: GammaGroupoid, a: Subset) -> bool:
    s = Subset.full(g.n)
    return is_subgroupoid(g, a) and subset_product(g, subset_product(g, s, a), s) <= a


def is_quasi_ideal(g: GammaGroupoid, a: Subset) -> bool:
    _validated(g, a)
    s = Subset.full(g.n)
    return (subset_product(g, s, a) & subset_product(g, a, s)) <= a


def is_one_two_ideal(g: GammaGroupoid, a: Subset) -> bool:
    if not is_subgroupoid(g, a):
        return False
    lhs = subset_product(g, subset_product(g, a, Subset.full(g.n)), subset_product(g, a, a))
    return lhs <= a


_PREDICATES: dict[IdealKind, Callable[[GammaGroupoid, Subset], bool]] = {
    IdealKind.SUBGROUPOID: is_subgroupoid,
    IdealKind.LEFT: is_left_ideal,
    IdealKind.RIGHT: is_right_ideal,
    IdealKind.TWO_SIDED: is_two_sided_ideal,
    IdealKind.BI: is_bi_ideal,
    IdealKind.GENERALIZED_BI: is_generalized_bi_ideal,
    IdealKind.INTERIOR: is_interior_ideal,
    IdealKind.QUASI: is_quasi_ideal,
    IdealKind.ONE_TWO: is_one_two_ideal,
}


def kind_predicate(kind: IdealKind) -> Callable[[GammaGroupoid, Subset], bool]:
    return _PREDICATES[kind]


# each kind as {A : F(A) <= A}, F(p, s, A) on masks as in `closed_subsets`
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


@lru_cache(maxsize=128)
def ideal_family(g: GammaGroupoid, kind: IdealKind) -> tuple[Subset, ...]:
    """All non-empty subsets of the given kind, canonical order, listed
    by closure; the predicates above are the independent check."""
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
    for x in range(g.n):
        sx = Subset.singleton(g.n, x)
        if subset_product(g, sx, sx) <= p and x not in p:
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
