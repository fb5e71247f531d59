"""Finite models of a carrier acted on by a family of binary operations.

A model is a carrier S = {0, ..., n-1} together with an operator set
Gamma = {0, ..., m-1} and a total operation table sending (x, k, y) to
the product x *_k y.  Every law here is decided exhaustively over the
finite table; the predicates here are the ground truth the rest of the
package is tested against.  The left invertive and ag-star-star laws
are plain sweeps.  The medial and paramedial laws compare both sides
as vectors over their last element variable, each vector a composition
of two table rows or columns, and rescan plainly only under the first
failing (x, y, l).  Either way a failed law reports the
lexicographically least failing instantiation as its witness.

Laws checked (universally quantified over elements x, y, z, ... and
operators a, b, c taken from Gamma):

  left invertive   (x a y) b z == (z a y) b x
  medial           (x a y) b (l c m) == (x a l) b (y c m)
  ag-star-star      x a (y b z) == y a (x b z)
  paramedial       (x a y) b (l c m) == (m a l) b (y c x)

A model satisfying the left invertive law is called left invertive
throughout; one additionally satisfying the ag-star-star law is the
"strong" variant most of the theorem suite is stated for.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import product as iproduct
from operator import or_
from typing import Iterable, NamedTuple, Optional, Sequence


def _default_element_labels(n: int) -> tuple[str, ...]:
    # a, b, ..., z then x26, x27, ...
    out = []
    for i in range(n):
        out.append(chr(ord("a") + i) if i < 26 else f"x{i}")
    return tuple(out)


def _default_gamma_labels(m: int) -> tuple[str, ...]:
    return tuple(f"g{k}" for k in range(m))


class ProductMasks(NamedTuple):
    """Bitmasks of the complexwise products of single elements.

    cells[x][y] has bit z set iff z == x *_k y for some operator k;
    rows[x] is the mask of x*S and cols[y] the mask of S*y.
    """

    cells: tuple[tuple[int, ...], ...]
    rows: tuple[int, ...]
    cols: tuple[int, ...]


@dataclass(frozen=True)
class GammaGroupoid:
    """Immutable finite model: carrier size, operator count, flat table.

    The table is stored flat with entry (x *_k y) at index (x*m + k)*n + y.
    Labels are presentation only; all computation is on indices.
    """

    n: int
    m: int
    table: tuple[int, ...]
    element_labels: tuple[str, ...] = ()
    gamma_labels: tuple[str, ...] = ()

    def __post_init__(self):
        # type(...) is int also refuses bool, which would otherwise pass as 0 or 1.
        n, m = self.n, self.m
        if type(n) is not int or type(m) is not int:
            raise ValueError(f"n and m must be integers, got {n!r} and {m!r}")
        if n < 1:
            raise ValueError("carrier must be non-empty")
        if m < 1:
            raise ValueError("operator set must be non-empty")
        # Stored as tuples so that models hash (the suite caches per model);
        # tuple() of a tuple is the tuple itself.
        table = tuple(self.table)
        object.__setattr__(self, "table", table)
        if len(table) != n * n * m:
            raise ValueError(
                f"table has {len(table)} entries, expected n*n*m = {n * n * m}"
            )
        for v in table:
            if type(v) is not int or not 0 <= v < n:
                raise ValueError(f"table entry {v!r} is not an integer in 0..{n - 1}")
        for field, size, default, what in (
            ("element_labels", n, _default_element_labels, "element"),
            ("gamma_labels", m, _default_gamma_labels, "operator"),
        ):
            labels = tuple(getattr(self, field))
            if not labels:
                labels = default(size)
            elif len(labels) != size:
                raise ValueError(f"need one label per {what}")
            elif len(set(labels)) != size:
                raise ValueError(f"duplicate {what} label in {labels!r}")
            object.__setattr__(self, field, labels)

    @classmethod
    def from_tables(
        cls,
        tables: Sequence[Sequence[Sequence[int]]],
        element_labels: Sequence[str] = (),
        gamma_labels: Sequence[str] = (),
    ) -> "GammaGroupoid":
        """Build from one n-by-n row-major table per operator."""
        m = len(tables)
        if m == 0:
            raise ValueError("operator set must be non-empty")
        n = len(tables[0])
        flat = []
        for k, t in enumerate(tables):
            if len(t) != n or any(len(row) != n for row in t):
                raise ValueError(f"table {k} is not {n}x{n}")
        for i in range(n):
            for k in range(m):
                flat.extend(tables[k][i])
        return cls(n, m, tuple(flat), tuple(element_labels), tuple(gamma_labels))

    def product(self, x: int, k: int, y: int) -> int:
        """x *_k y.  Raises ValueError on out-of-range indices."""
        if not (0 <= x < self.n and 0 <= y < self.n):
            raise ValueError(f"element index out of range 0..{self.n - 1}")
        if not (0 <= k < self.m):
            raise ValueError(f"operator index out of range 0..{self.m - 1}")
        return self.table[(x * self.m + k) * self.n + y]

    @cached_property
    def product_masks(self) -> ProductMasks:
        """Product masks of the table, built on first use and kept in the
        instance __dict__, so they never enter ==, hash or repr."""
        n, m, t = self.n, self.m, self.table
        cells = []
        for x in range(n):
            row = [0] * n
            for k in range(m):
                base = (x * m + k) * n
                for y in range(n):
                    row[y] |= 1 << t[base + y]
            cells.append(tuple(row))
        rows = tuple(reduce(or_, row) for row in cells)
        cols = tuple(reduce(or_, (row[y] for row in cells)) for y in range(n))
        return ProductMasks(tuple(cells), rows, cols)

    def tables(self) -> list[list[list[int]]]:
        """Nested view: tables()[k][x][y] == x *_k y."""
        n, m = self.n, self.m
        return [
            [[self.table[(x * m + k) * n + y] for y in range(n)] for x in range(n)]
            for k in range(m)
        ]


@dataclass(frozen=True)
class LawCheck:
    """Outcome of one law sweep.  Truthy iff the law holds.

    On failure, `witness` is the lexicographically least failing
    instantiation; its component order is documented per law below.
    """

    law: str
    holds: bool
    witness: Optional[tuple[int, ...]] = None

    def __bool__(self) -> bool:
        return self.holds


def is_left_invertive(g: GammaGroupoid) -> LawCheck:
    """(x a y) b z == (z a y) b x for all x, y, z, a, b.

    Witness order on failure: (x, y, z, a, b).
    """
    n, m, t = g.n, g.m, g.table
    for x in range(n):
        for y in range(n):
            for z in range(n):
                for a in range(m):
                    xy = t[(x * m + a) * n + y]
                    zy = t[(z * m + a) * n + y]
                    for b in range(m):
                        if t[(xy * m + b) * n + z] != t[(zy * m + b) * n + x]:
                            return LawCheck("left-invertive", False, (x, y, z, a, b))
    return LawCheck("left-invertive", True)


def _four_variable_sweep(g: GammaGroupoid, law: str, swap: bool) -> LawCheck:
    """The medial law, or with swap the paramedial one: they differ only
    in the outer pair (p, q) of the right-hand side,
    (x a y) b (l c w) == (p a l) b (y c q) with (p, q) = (x, w) or (w, x).
    The witness is the least failing (x, y, l, w, a, b, c).

    For each (x, y, l, a, b, c) both sides are compared as vectors over w,
    each a composition of two table rows (or, for the paramedial
    right-hand side, two table columns) built once per call.  w is the
    only coordinate after (x, y, l) in the witness order, so the first
    (x, y, l) with a mismatch is rescanned over (w, a, b, c) alone."""
    n, m_, t = g.n, g.m, g.table
    nm = n * m_
    # rows[u*m + k][w] = u *_k w; lhs[(u*m + b)*nm + v*m + c][w] = u *_b (v *_c w)
    rows = [t[i * n:i * n + n] for i in range(nm)]
    lhs = [tuple(map(r.__getitem__, s)) for r in rows for s in rows]
    if swap:
        # cols[k*n + v][u] = u *_k v; rhs[(b*n + v)*nm + a*n + l][w] = (w *_a l) *_b v
        cols = [t[i::nm] for i in range(nm)]
        rhs = [tuple(map(r.__getitem__, s)) for r in cols for s in cols]
        b_step = n * nm
    else:
        rhs, b_step = lhs, nm
    for x in range(n):
        for y in range(n):
            # The right-hand side index is right + b*b_step + offs[c].
            offs = [t[(y * m_ + c) * n + x] * nm for c in range(m_)] if swap else range(m_)
            for l in range(n):
                for a in range(m_):
                    xa = (x * m_ + a) * n
                    left = t[xa + y] * m_ * nm + l * m_
                    right = a * n + l if swap else t[xa + l] * m_ * nm + y * m_
                    for b in range(m_):
                        for c, off in enumerate(offs):
                            if lhs[left + c] != rhs[right + off]:
                                return _least_witness(g, law, swap, x, y, l)
                        left += nm
                        right += b_step
    return LawCheck(law, True)


def _least_witness(g: GammaGroupoid, law: str, swap: bool, x: int, y: int, l: int) -> LawCheck:
    """The least failing (w, a, b, c) under a fixed (x, y, l), by the plain loop."""
    n, m_, t = g.n, g.m, g.table
    for w in range(n):
        p, q = (w, x) if swap else (x, w)
        for a in range(m_):
            xy = t[(x * m_ + a) * n + y]
            pl = t[(p * m_ + a) * n + l]
            for b in range(m_):
                for c in range(m_):
                    lw = t[(l * m_ + c) * n + w]
                    yq = t[(y * m_ + c) * n + q]
                    if t[(xy * m_ + b) * n + lw] != t[(pl * m_ + b) * n + yq]:
                        return LawCheck(law, False, (x, y, l, w, a, b, c))
    raise AssertionError("no violation under the mismatching (x, y, l)")


def is_medial(g: GammaGroupoid) -> LawCheck:
    """(x a y) b (l c m) == (x a l) b (y c m).

    Witness order on failure: (x, y, l, m, a, b, c).
    """
    return _four_variable_sweep(g, "medial", swap=False)


def is_ag_star_star(g: GammaGroupoid) -> LawCheck:
    """x a (y b z) == y a (x b z).

    Witness order on failure: (x, y, z, a, b).
    """
    n, m, t = g.n, g.m, g.table
    for x in range(n):
        for y in range(n):
            for z in range(n):
                for a in range(m):
                    for b in range(m):
                        yz = t[(y * m + b) * n + z]
                        xz = t[(x * m + b) * n + z]
                        if t[(x * m + a) * n + yz] != t[(y * m + a) * n + xz]:
                            return LawCheck("ag-star-star", False, (x, y, z, a, b))
    return LawCheck("ag-star-star", True)


def is_paramedial(g: GammaGroupoid) -> LawCheck:
    """(x a y) b (l c m) == (m a l) b (y c x).

    Witness order on failure: (x, y, l, m, a, b, c).
    """
    return _four_variable_sweep(g, "paramedial", swap=True)


def left_identities(g: GammaGroupoid) -> list[int]:
    """All e with e *_k x == x for every operator k and element x, ascending.

    No uniqueness is assumed; callers get the full list.
    """
    n, m, t = g.n, g.m, g.table
    out = []
    for e in range(n):
        if all(t[(e * m + k) * n + x] == x for k in range(m) for x in range(n)):
            out.append(e)
    return out


@dataclass(frozen=True)
class AxiomProfile:
    """Which structural laws a model satisfies, plus its left identities."""

    left_invertive: bool
    medial: bool
    ag_star_star: bool
    paramedial: bool
    left_identities: tuple[int, ...]

    def to_json_obj(self) -> dict:
        return {
            "left-invertive": self.left_invertive,
            "medial": self.medial,
            "ag-star-star": self.ag_star_star,
            "paramedial": self.paramedial,
            "left-identities": list(self.left_identities),
        }


def axiom_profile(g: GammaGroupoid) -> AxiomProfile:
    """Sweep all four laws and collect left identities."""
    return AxiomProfile(
        left_invertive=bool(is_left_invertive(g)),
        medial=bool(is_medial(g)),
        ag_star_star=bool(is_ag_star_star(g)),
        paramedial=bool(is_paramedial(g)),
        left_identities=tuple(left_identities(g)),
    )


def all_models(n: int, m: int) -> Iterable[GammaGroupoid]:
    """Every labelled model on a given carrier/operator count, in
    lexicographic table order.  n**(n*n*m) models; small sizes only."""
    for flat in iproduct(range(n), repeat=n * n * m):
        yield GammaGroupoid(n, m, flat)
