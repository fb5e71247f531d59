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
The masks also carry a memo from (A, B) to A*B, which keeps the first
_MAX_PRODUCTS pairs asked for, so those products are computed once per
model.  The closures, the predicates and the theorem suite all read it;
a suite run asks for each product it needs 7 to 13 times on average.

Ideal-like families are closure systems {A : F(A) <= A}, F a monotone
map built from products.  `closed_subsets` lists one by Ganter's
NextClosure, so its cost follows the family's size, not 2**n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator

from .model import GammaGroupoid


class CarrierMismatchError(ValueError):
    """Subsets bound to different carrier sizes were combined."""


class EmptySubsetError(ValueError):
    """An operation that needs a non-empty subset got an empty one."""


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
        if not isinstance(other, Subset):
            raise TypeError(f"expected a Subset, got {type(other).__name__}")
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

    def format(self, labels: tuple[str, ...] | None = None) -> str:
        if labels is None:
            labels = tuple(str(i) for i in range(self.n))
        return "{" + ", ".join(labels[x] for x in self.members()) + "}"


def _check_model_subset(g: GammaGroupoid, a: Subset) -> None:
    if a.n != g.n:
        raise CarrierMismatchError(f"subset bound to carrier {a.n}, model has {g.n}")


# products one model keeps, about 0.2 MB; a suite run on an ag class
# with n <= 4 (m = 1) or n <= 3 (m = 2) asks for at most 79 distinct
# ones, while the pair sweeps over a large family (the null model from
# n = 9) would otherwise keep one per pair of members
_MAX_PRODUCTS = 1 << 10


def _mask_product(g: GammaGroupoid, a: int, b: int) -> int:
    """Mask of A*B for masks a and b over g's carrier, unchecked.  Read
    from the model's memo, or computed and kept there while it holds
    fewer than _MAX_PRODUCTS entries."""
    cells, rows, cols, memo = g.product_masks
    out = memo.get((a, b))
    if out is not None:
        return out
    full = (1 << g.n) - 1
    out = 0
    if b == full:
        for x in _bits(a):
            out |= rows[x]
    elif a == full:
        for y in _bits(b):
            out |= cols[y]
    else:
        bm = _bits(b)
        for x in _bits(a):
            row = cells[x]
            for y in bm:
                out |= row[y]
    if len(memo) < _MAX_PRODUCTS:
        memo[a, b] = out
    return out


def subset_product(g: GammaGroupoid, a: Subset, b: Subset) -> Subset:
    """{x *_k y : x in a, k in Gamma, y in b}.  Empty inputs give empty."""
    _check_model_subset(g, a)
    _check_model_subset(g, b)
    return Subset(g.n, _mask_product(g, a.mask, b.mask))


# F(p, s, A) on masks: p is the model's mask product, s the carrier's mask
MaskMap = Callable[[Callable[[int, int], int], int, int], int]


def _closure(g: GammaGroupoid, f: MaskMap) -> Callable[[int], int]:
    """cl(A), the least B >= A with F(B) <= B: iterate A -> A | F(A)."""
    p, s = partial(_mask_product, g), (1 << g.n) - 1

    def cl(a: int) -> int:
        while True:
            nxt = a | f(p, s, a)
            if nxt == a:
                return a
            a = nxt

    return cl


def closed_subsets(g: GammaGroupoid, f: MaskMap) -> tuple[Subset, ...]:
    """Every non-empty A with F(A) <= A (F monotone), by member tuple.
    NextClosure lists the closed sets in lectic order (element 0 most
    significant): after A comes B = cl(A below i, plus i) for the
    largest i not in A whose B adds nothing below i."""
    cl, n = _closure(g, f), g.n
    a, i = cl(0), n - 1
    found = [Subset(n, a)]
    while i >= 0:
        bit = 1 << i
        low = a & (bit - 1)
        if not a & bit and (b := cl(low | bit)) & (bit - 1) == low:
            a, i = b, n
            found.append(Subset(n, a))
        i -= 1
    return tuple(sorted(filter(None, found), key=Subset.members))


def all_nonempty_subsets(g: GammaGroupoid) -> list[Subset]:
    """All non-empty subsets in canonical ascending order (by sorted
    member tuple), as a fresh list: the plain powerset, 2**n - 1 long."""
    return sorted((Subset(g.n, mask) for mask in range(1, 1 << g.n)), key=Subset.members)
