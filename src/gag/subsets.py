"""Subsets of a model's carrier and the product algebra on them.

A Subset is a value type: a bitmask over a carrier of known size.  Two
subsets are equal iff they have the same size bound and the same
members.  The complexwise product A*B collects every a *_k b with a in
A, b in B and k ranging over all operators.

Products are unions of precomputed masks.  Each model builds, on first
use, the mask of {x *_k y : k in Gamma} for every pair (x, y), of x*S
for every x and of S*y for every y (`GammaGroupoid.product_masks`).  So
A*S is the OR of the row masks of A's members, S*B the OR of the column
masks of B's members, and any other A*B one OR per pair of members.

Exhaustive sweeps over all non-empty subsets are guarded by a capacity
cap (default 12 elements, override with the GAG_SWEEP_CAP environment
variable) since they walk 2**n - 1 subsets.  Their canonical order is
computed once per carrier size; the cap is still checked on every sweep.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator

from .model import GammaGroupoid

DEFAULT_SWEEP_CAP = 12
SWEEP_CAP_ENV = "GAG_SWEEP_CAP"


class CarrierMismatchError(ValueError):
    """Subsets bound to different carrier sizes were combined."""


class EmptySubsetError(ValueError):
    """An operation that needs a non-empty subset got an empty one."""


class CapacityError(ValueError):
    """A sweep over all subsets would exceed the configured cap."""


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@dataclass(frozen=True, order=False)
class Subset:
    """Subset of {0..n-1} as a bitmask, bound to carrier size n."""

    n: int
    mask: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("carrier size must be non-negative")
        if self.mask < 0 or self.mask >> self.n:
            raise ValueError("mask has bits outside the carrier")

    @classmethod
    def from_members(cls, n: int, members: Iterable[int]) -> "Subset":
        mask = 0
        for x in members:
            if not (0 <= x < n):
                raise ValueError(f"element {x} out of range 0..{n - 1}")
            mask |= 1 << x
        return cls(n, mask)

    @classmethod
    def empty(cls, n: int) -> "Subset":
        return cls(n, 0)

    @classmethod
    def full(cls, n: int) -> "Subset":
        return cls(n, (1 << n) - 1)

    @classmethod
    def singleton(cls, n: int, x: int) -> "Subset":
        return cls.from_members(n, (x,))

    def members(self) -> tuple[int, ...]:
        return tuple(_bits(self.mask))

    def __iter__(self) -> Iterator[int]:
        return iter(self.members())

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __contains__(self, x: int) -> bool:
        return 0 <= x < self.n and bool(self.mask >> x & 1)

    def _check(self, other: "Subset") -> None:
        if self.n != other.n:
            raise CarrierMismatchError(f"carrier sizes differ: {self.n} vs {other.n}")

    def __or__(self, other: "Subset") -> "Subset":
        self._check(other)
        return Subset(self.n, self.mask | other.mask)

    def __and__(self, other: "Subset") -> "Subset":
        self._check(other)
        return Subset(self.n, self.mask & other.mask)

    def __le__(self, other: "Subset") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def __lt__(self, other: "Subset") -> bool:
        return self <= other and self.mask != other.mask

    def __ge__(self, other: "Subset") -> bool:
        return other <= self

    def __gt__(self, other: "Subset") -> bool:
        return other < self

    def issubset(self, other: "Subset") -> bool:
        return self <= other

    def format(self, labels: tuple[str, ...] | None = None) -> str:
        if labels is None:
            labels = tuple(str(i) for i in range(self.n))
        return "{" + ", ".join(labels[x] for x in self.members()) + "}"


def _check_model_subset(g: GammaGroupoid, a: Subset) -> None:
    if a.n != g.n:
        raise CarrierMismatchError(f"subset bound to carrier {a.n}, model has {g.n}")


def subset_product(g: GammaGroupoid, a: Subset, b: Subset) -> Subset:
    """{x *_k y : x in a, k in Gamma, y in b}.  Empty inputs give empty."""
    _check_model_subset(g, a)
    _check_model_subset(g, b)
    cells, rows, cols = g.product_masks
    full = (1 << g.n) - 1
    out = 0
    if b.mask == full:
        for x in _bits(a.mask):
            out |= rows[x]
    elif a.mask == full:
        for y in _bits(b.mask):
            out |= cols[y]
    else:
        bm = _bits(b.mask)
        for x in _bits(a.mask):
            row = cells[x]
            for y in bm:
                out |= row[y]
    return Subset(g.n, out)


def square(g: GammaGroupoid, a: Subset) -> Subset:
    """A*A."""
    return subset_product(g, a, a)


def _generated_ideal(g: GammaGroupoid, x: Subset, left: bool, right: bool) -> Subset:
    """Least A containing x with S*A (if left) and A*S (if right) inside
    A: the fixpoint of A -> A | S*A | A*S, reached within n steps since
    the chain strictly grows."""
    _check_model_subset(g, x)
    if not x:
        raise EmptySubsetError("generator set must be non-empty")
    s = Subset.full(g.n)
    cur = x
    while True:
        nxt = cur
        if left:
            nxt |= subset_product(g, s, cur)
        if right:
            nxt |= subset_product(g, cur, s)
        if nxt == cur:
            return cur
        cur = nxt


def generated_left_ideal(g: GammaGroupoid, x: Subset) -> Subset:
    """Least A containing x with S*A a subset of A."""
    return _generated_ideal(g, x, left=True, right=False)


def generated_right_ideal(g: GammaGroupoid, x: Subset) -> Subset:
    """Least A containing x with A*S a subset of A."""
    return _generated_ideal(g, x, left=False, right=True)


def generated_two_sided_ideal(g: GammaGroupoid, x: Subset) -> Subset:
    """Least A containing x closed under products with S on both sides."""
    return _generated_ideal(g, x, left=True, right=True)


def sweep_cap() -> int:
    raw = os.environ.get(SWEEP_CAP_ENV)
    if raw is None:
        return DEFAULT_SWEEP_CAP
    try:
        return int(raw)
    except ValueError:
        raise CapacityError(f"{SWEEP_CAP_ENV} must be an integer, got {raw!r}") from None


@lru_cache(maxsize=None)
def _sweep_order(n: int) -> tuple[Subset, ...]:
    subs = [Subset(n, mask) for mask in range(1, 1 << n)]
    subs.sort(key=Subset.members)
    return tuple(subs)


def all_nonempty_subsets(g: GammaGroupoid) -> list[Subset]:
    """All non-empty subsets in canonical ascending order (by sorted
    member tuple), as a fresh list.  Guarded by the sweep cap."""
    cap = sweep_cap()
    if g.n > cap:
        raise CapacityError(
            f"carrier size {g.n} exceeds the subset sweep cap {cap}; "
            f"use generated ideals (--generated-from) or raise {SWEEP_CAP_ENV}"
        )
    return list(_sweep_order(g.n))


def list_subsets_satisfying(
    g: GammaGroupoid, predicate: Callable[[GammaGroupoid, Subset], bool]
) -> list[Subset]:
    """All non-empty subsets satisfying a predicate, canonical order."""
    return [a for a in all_nonempty_subsets(g) if predicate(g, a)]
