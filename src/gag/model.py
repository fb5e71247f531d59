"""Finite models of a carrier acted on by a family of binary operations.

A model is a carrier S = {0, ..., n-1} together with an operator set
Gamma = {0, ..., m-1} and a total operation table sending (x, k, y) to
the product x *_k y.  Every law here is decided exhaustively over the
finite table; the predicates here are the ground truth the rest of the
package is tested against.

Each law has one kernel that states it as a symmetry of composed table
rows: for each block of fixed variables it builds both sides as nested
tuples with `map` and `zip(*...)` and compares them with one tuple
`==`.  `holds` stops at the first failing block.  A failed law reports
the lexicographically least failing instantiation as its witness: each
failing block is laid out so that its first mismatch is its own least
one, and the witness is the minimum of those over the failing blocks.

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
from itertools import chain
from itertools import product as iproduct
from operator import or_
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence


def _default_element_labels(n: int) -> tuple[str, ...]:
    # a, b, ..., z then x26, x27, ...
    out = []
    for i in range(n):
        out.append(chr(ord("a") + i) if i < 26 else f"x{i}")
    return tuple(out)


def _default_gamma_labels(m: int) -> tuple[str, ...]:
    return tuple(f"g{k}" for k in range(m))


def check_labels(labels: Sequence[str], what: str) -> tuple[str, ...]:
    """`labels` as a tuple if the text format can carry them, else
    ValueError: a sequence, not a str, of distinct non-empty strs with no
    whitespace (the separator) that do not start with '#' (a comment)."""
    if isinstance(labels, str):
        raise ValueError(f"{what} labels must be a sequence of names, not a string")
    labels = tuple(labels)
    if not labels:
        raise ValueError(f"empty {what} list")
    for nm in labels:
        if type(nm) is not str or nm.split() != [nm] or nm.startswith("#"):
            raise ValueError(
                f"{what} name {nm!r} is not a str, is empty, holds whitespace or starts with '#'"
            )
    if len(set(labels)) != len(labels):
        dup = next(nm for nm in labels if labels.count(nm) > 1)
        raise ValueError(f"duplicate {what} name {dup!r}")
    return labels


class ProductMasks(NamedTuple):
    """Bitmasks of the complexwise products of single elements.

    cells[x][y] has bit z set iff z == x *_k y for some operator k;
    rows[x] is the mask of x*S and cols[y] the mask of S*y.  memo maps a
    pair of subset masks (A, B) to the mask of A*B; `subsets` fills it.
    """

    cells: tuple[tuple[int, ...], ...]
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    memo: dict[tuple[int, int], int]


@dataclass(frozen=True)
class GammaGroupoid:
    """Immutable finite model: carrier size, operator count, flat table.

    The table is stored flat with entry (x *_k y) at index (x*m + k)*n + y.
    Labels are presentation only; all computation is on indices.  Given
    labels must pass `check_labels`, so that every model serializes.
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
            labels = getattr(self, field)
            if isinstance(labels, str) or len(labels):
                labels = check_labels(labels, what)
            else:
                labels = default(size)
            if len(labels) != size:
                raise ValueError(f"need one label per {what}")
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
        for k, t in enumerate(tables):
            if len(t) != n or any(len(row) != n for row in t):
                raise ValueError(f"table {k} is not {n}x{n}")
        flat = tuple(chain.from_iterable(t[i] for i in range(n) for t in tables))
        return cls(n, m, flat, element_labels, gamma_labels)

    def product(self, x: int, k: int, y: int) -> int:
        """x *_k y.  Raises ValueError on out-of-range indices."""
        if not (0 <= x < self.n and 0 <= y < self.n):
            raise ValueError(f"element index out of range 0..{self.n - 1}")
        if not (0 <= k < self.m):
            raise ValueError(f"operator index out of range 0..{self.m - 1}")
        return self.table[(x * self.m + k) * self.n + y]

    @cached_property
    def product_masks(self) -> ProductMasks:
        """Product masks of the table and an empty product memo, built on
        first use and kept in the instance __dict__, so they never enter
        ==, hash or repr."""
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
        return ProductMasks(tuple(cells), rows, cols, {})

    def tables(self) -> list[list[list[int]]]:
        """Nested view: tables()[k][x][y] == x *_k y."""
        n, m = self.n, self.m
        return [
            [[self.table[(x * m + k) * n + y] for y in range(n)] for x in range(n)]
            for k in range(m)
        ]


@dataclass(frozen=True)
class LawCheck:
    """Outcome of deciding one law on one table.  Truthy iff the law holds.

    On failure, `witness` is the lexicographically least failing
    instantiation; its component order is documented per law below.
    """

    law: str
    holds: bool
    witness: Optional[tuple[int, ...]] = None

    def __bool__(self) -> bool:
        return self.holds


# A law kernel yields one (p, q, fixed) per failing block: p != q are
# nested sequences of table entries, laid out so that their first
# differing index path is the block's least failing instantiation, and
# that path fills the None slots of `fixed`, in order, to give it.
_Block = tuple[Sequence, Sequence, tuple[Optional[int], ...]]


def _grouped(seq: Sequence[int], width: int) -> list[tuple[int, ...]]:
    """seq cut into consecutive tuples of `width`: _grouped(g.table, g.n)
    [u*m + k] is the row of u *_k w over w."""
    return list(zip(*[iter(seq)] * width))


def _composed(rows: list, m: int, b: int, c: int) -> Iterator[Iterator[int]]:
    """Per u, u *_b (l *_c w) over (l, w): each row of *_b mapped over
    the whole table of *_c."""
    table_c = tuple(chain.from_iterable(rows[c::m]))
    return (map(r.__getitem__, table_c) for r in rows[b::m])


def _left_invertive(g: GammaGroupoid) -> Iterator[_Block]:
    """Per (y, a, b): Q[x][z] = (x a y) b z, the rows of *_b picked by
    column y of *_a.  The law is Q == Q transposed."""
    n, m, t = g.n, g.m, g.table
    rows = _grouped(t, n)
    by_op = [rows[b::m] for b in range(m)]
    for y in range(n):
        for a in range(m):
            col = t[a * n + y::n * m]
            for b in range(m):
                q = list(map(by_op[b].__getitem__, col))
                qt = list(zip(*q))
                if q != qt:
                    yield q, qt, (None, y, None, a, b)


def _ag_star_star(g: GammaGroupoid) -> Iterator[_Block]:
    """H[x][a] = row (x, a) mapped over the flat table, x a (y b z) over
    (y, b, z).  The law is: block y of H[x][a] equals block x of H[y][a]
    for every x < y.  H grows one y at a time, so an early failure
    builds little of it."""
    n, m, t = g.n, g.m, g.table
    nm = n * m
    rows = _grouped(t, n)
    h = []
    for y in range(n):
        hy = [tuple(map(r.__getitem__, t)) for r in rows[y * m:y * m + m]]
        for x in range(y):
            for a in range(m):
                p, q = h[x][a][y * nm:y * nm + nm], hy[a][x * nm:x * nm + nm]
                if p != q:
                    # (b, z) regrouped as (z, b), the witness order
                    yield (list(zip(*_grouped(p, n))), list(zip(*_grouped(q, n))),
                           (x, y, None, a, None))
        h.append(hy)


def _medial(g: GammaGroupoid) -> Iterator[_Block]:
    """Per (b, c): blk[u][l][w] = u b (l c w).  Per (x, a):
    Z[y] = blk[x a y], so Z[y][l][w] = (x a y) b (l c w) and the law is
    Z == Z transposed over (y, l)."""
    n, m, t = g.n, g.m, g.table
    rows = _grouped(t, n)
    for b in range(m):
        for c in range(m):
            blk = [tuple(_grouped(v, n)) for v in _composed(rows, m, b, c)]
            for x in range(n):
                for a in range(m):
                    z = list(map(blk.__getitem__, rows[x * m + a]))
                    zt = list(zip(*z))
                    if z != zt:
                        yield z, zt, (x, None, None, None, a, b, c)


def _paramedial(g: GammaGroupoid) -> Iterator[_Block]:
    """Per (b, c): G[u][l*n + w] = u b (l c w).  Per x: P[u][y] =
    u b (y c x), the x-th column of G[u] read as n-by-n.  Per (x, a):
    the left side G[x a y] over y must equal P[w a l] over (l, w),
    transposed to put y first.  P is built one x at a time, which keeps
    the transpose at n^3 entries."""
    n, m, t = g.n, g.m, g.table
    nm = n * m
    rows = _grouped(t, n)
    # wal[a][l*n + w] = w a l
    wal = [tuple(chain.from_iterable(t[a * n + l::nm] for l in range(n))) for a in range(m)]
    for b in range(m):
        for c in range(m):
            lhs = list(map(tuple, _composed(rows, m, b, c)))
            for x in range(n):
                px = [v[x::n] for v in lhs]
                for a in range(m):
                    z = list(map(lhs.__getitem__, rows[x * m + a]))
                    rhs = list(zip(*map(px.__getitem__, wal[a])))
                    if z != rhs:
                        yield ([_grouped(v, n) for v in z], [_grouped(v, n) for v in rhs],
                               (x, None, None, None, a, b, c))


_KERNELS = {
    "left-invertive": _left_invertive,
    "medial": _medial,
    "ag-star-star": _ag_star_star,
    "paramedial": _paramedial,
}


def holds(g: GammaGroupoid, law: str) -> bool:
    """Whether `law` ("left-invertive", "medial", "ag-star-star" or
    "paramedial") holds on g; stops at the first failing block and
    builds no witness."""
    return next(_KERNELS[law](g), None) is None


def _witness(p: Sequence, q: Sequence, fixed: tuple[Optional[int], ...]) -> tuple[int, ...]:
    path = []
    while type(p) is not int:
        i = next(i for i, (u, v) in enumerate(zip(p, q)) if u != v)
        path.append(i)
        p, q = p[i], q[i]
    steps = iter(path)
    return tuple(next(steps) if v is None else v for v in fixed)


def _decide(g: GammaGroupoid, law: str) -> LawCheck:
    """The law with its least witness: the minimum over every failing
    block of that block's least failing instantiation."""
    least = min((_witness(*block) for block in _KERNELS[law](g)), default=None)
    return LawCheck(law, least is None, least)


def is_left_invertive(g: GammaGroupoid) -> LawCheck:
    """(x a y) b z == (z a y) b x for all x, y, z, a, b.

    Witness order on failure: (x, y, z, a, b).
    """
    return _decide(g, "left-invertive")


def is_medial(g: GammaGroupoid) -> LawCheck:
    """(x a y) b (l c m) == (x a l) b (y c m).

    Witness order on failure: (x, y, l, m, a, b, c).
    """
    return _decide(g, "medial")


def is_ag_star_star(g: GammaGroupoid) -> LawCheck:
    """x a (y b z) == y a (x b z).

    Witness order on failure: (x, y, z, a, b).
    """
    return _decide(g, "ag-star-star")


def is_paramedial(g: GammaGroupoid) -> LawCheck:
    """(x a y) b (l c m) == (m a l) b (y c x).

    Witness order on failure: (x, y, l, m, a, b, c).
    """
    return _decide(g, "paramedial")


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
    """Decide the four laws and collect left identities.  The left
    invertive and ag-star-star laws are decided first; the medial and
    paramedial laws are decided only where they do not follow from them.

    Left invertive implies medial:
      (x a y) b (l c m) = ((l c m) a y) b x = ((y c m) a l) b x
                        = (x a l) b (y c m),
    the left invertive law three times.

    Left invertive and ag-star-star imply paramedial:
      (x a y) b (l c m) = l b ((x a y) c m) = l b ((m a y) c x)
                        = (m a y) b (l c x) = (m a l) b (y c x),
    by ag-star-star, left invertive, ag-star-star and medial.
    """
    li = holds(g, "left-invertive")
    agss = holds(g, "ag-star-star")
    return AxiomProfile(
        left_invertive=li,
        medial=li or holds(g, "medial"),
        ag_star_star=agss,
        paramedial=(li and agss) or holds(g, "paramedial"),
        left_identities=tuple(left_identities(g)),
    )


def all_models(n: int, m: int) -> Iterable[GammaGroupoid]:
    """Every labelled model on a given carrier/operator count, in
    lexicographic table order.  n**(n*n*m) models; small sizes only."""
    for flat in iproduct(range(n), repeat=n * n * m):
        yield GammaGroupoid(n, m, flat)
