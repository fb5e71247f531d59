"""Executable structure theorems over a single finite model.

Each of the 31 checks is one entry of the table `_CHECKS`: a guard (does
the check need intra-regularity), and stages.  A stage is a domain of
witnesses, swept in a fixed order, and clauses tried on each witness in
turn; a clause returns None or the data its failure adds to the witness,
and the first failure is the check's counterexample.  A clause may carry
a premise, a statement that must hold over its whole domain before the
clause is tried; equivalences between such statements are split into
tagged directions that way, so a failing converse is reported as a
finding rather than an error.

Guards mirror the statements' hypotheses exactly: a model that is not
left invertive, or misses the ag-star-star law, or (where required) is
not intra-regular, yields skipped, never pass.

Every fail report carries a Counterexample whose `condition` names the
violated clause.  `revalidate_counterexample` finds that clause in the
same table and, on a fresh context (not the per-model cache), checks the
guard, rebuilds the witness from the recorded data, checks that it lies
in the clause's domain by the kinds' predicates (`ideals.kind_predicate`),
never the cached ideal families, checks the premise and runs the
clause again.  It returns True only if every recorded field, witness and
computed alike, comes back equal.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Any, Callable, Iterable, Optional, Sequence

from . import ideals
from .fileformat import serialize_model
from .ideals import IdealKind, ideal_family
from .model import GammaGroupoid, axiom_profile
from .regularity import IntraRegularityReport, is_intra_regular
from .subsets import Subset, closed_subsets, subset_product

PASS = "pass"
FAIL = "fail"
VACUOUS = "vacuous"
SKIPPED = "skipped"


class TheoremId(enum.Enum):
    JI = "JI"
    JI_COR = "JI_COR"
    KI = "KI"
    KI_COR = "KI_COR"
    AW = "AW"
    AW_COR = "AW_COR"
    JK = "JK"
    LISR = "LISR"
    BIIID = "BIIID"
    T_ONE_TWO = "T_ONE_TWO"
    T_INTERIOR = "T_INTERIOR"
    T_QUASI = "T_QUASI"
    T12 = "T12"
    PLO = "PLO"
    BINT = "BINT"
    QUO = "QUO"
    LI = "LI"
    EQUALIENT = "EQUALIENT"
    II = "II"
    IDL = "IDL"
    IJ = "IJ"
    IFFFF = "IFFFF"
    SLA2 = "SLA2"
    RLT = "RLT"
    RSEMIPRIME_EQ = "RSEMIPRIME_EQ"
    RINTL = "RINTL"
    LRL = "LRL"
    PRIME_IRR = "PRIME_IRR"
    TOTAL_ORDER = "TOTAL_ORDER"
    SEMILATTICE = "SEMILATTICE"
    MINIMAL = "MINIMAL"

    @classmethod
    def from_name(cls, name: str) -> "TheoremId":
        key = name.strip().upper().replace("-", "_")
        try:
            return cls[key]
        except KeyError:
            raise ValueError(f"unknown theorem id {name!r}") from None


@dataclass(frozen=True)
class Counterexample:
    """Violated clause id plus the witnesses that reproduce it.

    `data` is an ordered tuple of (name, value) pairs; subset values are
    stored by extension (sorted member tuple).
    """

    condition: str
    data: tuple[tuple[str, Any], ...]

    def get(self, name: str) -> Any:
        for k, v in self.data:
            if k == name:
                return v
        raise KeyError(name)

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "condition": self.condition,
            "data": {k: (list(v) if isinstance(v, tuple) else v) for k, v in self.data},
        }


@dataclass(frozen=True)
class TheoremReport:
    theorem: TheoremId
    status: str
    reason: Optional[str] = None
    counterexample: Optional[Counterexample] = None
    instances: int = 0
    details: tuple[tuple[str, Any], ...] = ()

    def to_json_obj(self) -> dict[str, Any]:
        out: dict[str, Any] = {"id": self.theorem.value, "status": self.status}
        if self.reason is not None:
            out["reason"] = self.reason
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample.to_json_obj()
        out["instances-checked"] = self.instances
        if self.details:
            out["details"] = {
                k: (list(v) if isinstance(v, tuple) else v) for k, v in self.details
            }
        return out


def _ext(a: Subset) -> tuple[int, ...]:
    return a.members()


def _sub(g: GammaGroupoid, ext: Iterable[int]) -> Subset:
    return Subset.from_members(g.n, ext)


class _Ctx:
    """Per-model caches shared by the checks of one suite run."""

    def __init__(self, g: GammaGroupoid):
        self.g = g
        self.s = Subset.full(g.n)
        self.profile = axiom_profile(g)
        self._memo: dict[Any, Any] = {}
        self._masks: dict[str, frozenset[int]] = {}

    def prod(self, a: Subset, b: Subset) -> Subset:
        """A*B, read from the model's product memo (`subsets._MAX_PRODUCTS`
        bounds it), which the family closures fill as well."""
        return subset_product(self.g, a, b)

    def once(self, fn: Callable[..., Any], *args: Any) -> Any:
        """fn(self, *args), computed at most once per context."""
        key = (fn, args)
        if key not in self._memo:
            self._memo[key] = fn(self, *args)
        return self._memo[key]

    def family(self, kind) -> tuple[Subset, ...]:
        """Members of an ideal kind (or its value), canonical order;
        "fixed" names the subsets with A*S = S*A = A."""
        if kind == "fixed":
            return self.once(_fixed_family)
        return ideal_family(self.g, IdealKind(kind))

    def masks(self, kind) -> frozenset[int]:
        """The members' masks of family(kind), built once per family
        however it is named; the kind is read by its value, because a
        dict lookup on an Enum member hashes it in Python."""
        key = kind if type(kind) is str else kind._value_
        masks = self._masks.get(key)
        if masks is None:
            masks = self._masks[key] = frozenset(x.mask for x in self.family(key))
        return masks

    def has(self, kind, a: Subset) -> bool:
        """a in family(kind), by mask."""
        return a.mask in self.masks(kind)

    @cached_property
    def intra(self) -> Optional[IntraRegularityReport]:
        """The model's intra-regularity report, or None when it is not
        left invertive; worked out on first read, so models that every
        check skips at the AG** guard never compute it."""
        return is_intra_regular(self.g) if self.profile.left_invertive else None

    def intra_holds(self) -> bool:
        return self.intra is not None and self.intra.holds


def _fixed_family(c: _Ctx) -> tuple[Subset, ...]:
    return tuple(a for a in c.family(_TWO) if c.prod(a, c.s) == a == c.prod(c.s, a))


def _candidates(c: _Ctx) -> tuple[Subset, ...]:
    """The families of the nine-way equivalence and {A : (S*A)*S <= A},
    in sweep order: whatever the laws, no per-subset clause fires outside
    them.  Subgroupoids are left out; alone they can be every subset."""
    found = set(closed_subsets(c.g, lambda p, s, a: p(p(s, a), s)))
    return tuple(sorted(found.union(*map(c.family, _EQUALIENT)), key=Subset.members))


@lru_cache(maxsize=8)
def _ctx(g: GammaGroupoid) -> _Ctx:
    return _Ctx(g)


def _guard(ctx: _Ctx, need_intra: bool) -> Optional[str]:
    if not ctx.profile.left_invertive:
        return "left invertive law fails"
    if not ctx.profile.ag_star_star:
        return "ag-star-star law fails"
    if need_intra and not ctx.intra_holds():
        return "model is not intra-regular"
    return None


# --- the table's building blocks -------------------------------------------

# A test maps (ctx, *witness) to None, or to the (name, value) pairs its
# failure adds to the witness's own fields (() when it adds none).
_Test = Callable[..., Optional[tuple[tuple[str, Any], ...]]]


@dataclass(frozen=True, eq=False)
class _Domain:
    """Witnesses, named field by field: `sweep` lists them in report
    order; `member` decides one by the kinds' predicates, never by the
    cached families."""

    names: tuple[str, ...]
    sweep: Callable[[_Ctx], Iterable[tuple]]
    member: Callable[..., bool]


# A statement holds when its test finds nothing over its domain.
_Statement = tuple[_Domain, _Test]


@dataclass(frozen=True)
class _Clause:
    condition: str
    test: _Test
    premise: Optional[_Statement] = None


@dataclass(frozen=True)
class _Check:
    need_intra: bool
    stages: tuple[tuple[_Domain, tuple[_Clause, ...]], ...]
    instances: Callable[[_Ctx, Optional[Counterexample]], int]
    details: Callable[[_Ctx, Optional[Counterexample]], tuple] = lambda c, cx: ()
    vacuous: Callable[[_Ctx], Optional[tuple[str, int]]] = lambda c: None


def _over(names: tuple[str, ...], members: Callable[[_Ctx], Iterable],
          pred: Callable[[GammaGroupoid, Any], bool]) -> _Domain:
    """Every tuple of len(names) members, in product order."""
    return _Domain(
        names,
        lambda c: itertools.product(members(c), repeat=len(names)),
        lambda c, *w: all(pred(c.g, x) for x in w),
    )


def _family(kind: IdealKind, *names: str) -> _Domain:
    return _over(names, lambda c: c.family(kind), ideals.kind_predicate(kind))


def _is_element(g: GammaGroupoid, x: Any) -> bool:
    return isinstance(x, int) and 0 <= x < g.n


def _elements(name: str) -> _Domain:
    return _over((name,), lambda c: range(c.g.n), _is_element)


_UNIT = _Domain((), lambda c: [()], lambda c: True)
_SUBSETS = _over(("A",), lambda c: c.once(_candidates),
                 lambda g, a: isinstance(a, Subset) and bool(a))


def _sweep(c: _Ctx, domain: _Domain, tests: tuple[_Test, ...]):
    """First (test index, witness, added data) over the domain, trying
    the tests in order at each witness; None when all pass."""
    for w in domain.sweep(c):
        for i, test in enumerate(tests):
            extra = test(c, *w)
            if extra is not None:
                return i, w, extra
    return None


def _holds(c: _Ctx, statement: _Statement) -> bool:
    domain, test = statement
    return c.once(_sweep, domain, (test,)) is None


def _data(domain: _Domain, w: tuple, extra: tuple) -> tuple[tuple[str, Any], ...]:
    fields = (_ext(v) if isinstance(v, Subset) else v for v in w)
    return tuple(zip(domain.names, fields)) + extra


def _differs(name: str, got: Subset, want: Subset):
    """((name, got),) when got != want."""
    return None if got == want else ((name, _ext(got)),)


def _iff(prefix: str, kind, rhs: Callable[[_Ctx, Subset], bool]) -> _Check:
    """A in family(kind) <=> rhs(A) over every non-empty subset, both
    directions tried at each subset before the next."""
    forward = _Clause(f"{prefix}:forward",
                      lambda c, a: () if c.has(kind, a) and not rhs(c, a) else None)
    converse = _Clause(f"{prefix}:converse",
                       lambda c, a: () if not c.has(kind, a) and rhs(c, a) else None)
    return _Check(True, ((_SUBSETS, (forward, converse)),), _n_subsets)


def _implications(*rules: tuple[_Statement, _Statement, str]):
    """One stage per (premise, conclusion, condition): once the premise
    holds, the conclusion's first failure is the counterexample."""
    return tuple(
        (domain, (_Clause(condition, test, premise),))
        for premise, (domain, test), condition in rules
    )


def _has(kind) -> Callable[[_Ctx, Subset], bool]:
    return lambda c, a: c.has(kind, a)


def _n_subsets(c: _Ctx, cx) -> int:
    return (1 << c.g.n) - 1


def _family_plus_n(kind: IdealKind):
    return lambda c, cx: len(c.family(kind)) + c.g.n


# --- the statements ----------------------------------------------------------

def _single(c: _Ctx, x: int) -> Subset:
    return Subset.singleton(c.g.n, x)


def _sga(c: _Ctx) -> bool:
    return all(c.prod(c.s, _single(c, a)) == c.s for a in range(c.g.n))


def _ags(c: _Ctx) -> bool:
    return all(c.prod(_single(c, a), c.s) == c.s for a in range(c.g.n))


_HYPOTHESES = {"s-times-a": _sga, "a-times-s": _ags}


def _hypothesis(c: _Ctx) -> str:
    return "s-times-a" if c.once(_sga) else "a-times-s"


def _not_intra(c: _Ctx, x: int):
    return () if x in c.intra.offenders else None


_INTRA: _Statement = (_elements("offender"), _not_intra)


def _bsb(c: _Ctx, b: Subset) -> Subset:
    return c.prod(c.prod(b, c.s), b)


def _sbs(c: _Ctx, b: Subset) -> Subset:
    return c.prod(c.prod(c.s, b), c.s)


def _one_two_rhs(c: _Ctx, a: Subset) -> bool:
    sq = c.prod(a, a)
    return c.prod(c.prod(a, c.s), sq) == a and sq == a


def _interior_rhs(c: _Ctx, a: Subset) -> bool:
    return _sbs(c, a) == a


def _quasi_rhs(c: _Ctx, a: Subset) -> bool:
    return (c.prod(c.s, a) & c.prod(a, c.s)) == a


def _lisr(c: _Ctx, a: Subset):
    left, right = c.has(IdealKind.LEFT, a), c.has(IdealKind.RIGHT, a)
    if left == right:
        return None
    return (("direction", "left-not-right" if left else "right-not-left"),)


def _biiid_forward(c: _Ctx, a: Subset):
    if not c.has(IdealKind.GENERALIZED_BI, a):
        return None
    if _bsb(c, a) != a:
        return (("clause", "product-identity"),)
    return None if c.prod(a, a) == a else (("clause", "idempotent"),)


def _biiid_converse(c: _Ctx, a: Subset):
    fixed = _bsb(c, a) == a and c.prod(a, a) == a
    return () if fixed and not c.has(IdealKind.BI, a) else None


# names and families of the nine-way equivalence, in its stated order
_EQUALIENT = ("left", "right", "two-sided", "fixed", "quasi", "one-two", "gbi", "bi", "interior")

_KIND_PAIRS = _Domain(
    ("kind-a", "kind-b"),
    lambda c: itertools.combinations(_EQUALIENT, 2),
    lambda c, a, b: a in _EQUALIENT and b in _EQUALIENT[_EQUALIENT.index(a) + 1:],
)


def _family_mismatch(c: _Ctx, ka: str, kb: str):
    in_a = c.masks(ka)
    differ = in_a ^ c.masks(kb)
    if not differ:
        return None
    a = min((Subset(c.g.n, x) for x in differ), key=Subset.members)
    return (("A", _ext(a)), ("in", ka if a.mask in in_a else kb))


def _semiprime_offense(c: _Ctx, r: Subset):
    """(("a", x),) when R is not semiprime elementwise."""
    x = ideals.elementwise_offender(c.g, r)
    return None if x is None else (("a", x),)


def _all_ideal_quantified(c: _Ctx, kind: IdealKind) -> bool:
    # definition-style semiprime, each member of the family as target P
    return all(ideals.semiprime_offender(c.g, r) is None for r in c.family(kind))


_RLT_PARTS = {"right": IdealKind.RIGHT, "left": IdealKind.LEFT, "two-sided": IdealKind.TWO_SIDED}
_is_right = ideals.kind_predicate(IdealKind.RIGHT)
_is_left = ideals.kind_predicate(IdealKind.LEFT)
_is_two_sided = ideals.kind_predicate(IdealKind.TWO_SIDED)

_RLT_DOMAIN = _Domain(
    ("part", "R"),
    lambda c: [(p, r) for p, kind in _RLT_PARTS.items() for r in c.family(kind)],
    lambda c, p, r: ideals.kind_predicate(_RLT_PARTS[p])(c.g, r),
)


def _rlt_instances(c: _Ctx, cx: Optional[Counterexample]) -> int:
    parts = list(_RLT_PARTS)
    if cx is not None:
        parts = parts[: parts.index(cx.get("part")) + 1]
    return sum(len(c.family(_RLT_PARTS[p])) for p in parts)


def _rlt_details(c: _Ctx, cx: Optional[Counterexample]) -> tuple:
    if cx is not None:
        return ()
    return tuple((f"{p}-ideal-quantified", _all_ideal_quantified(c, kind))
                 for p, kind in _RLT_PARTS.items())


def _semiprime_right(c: _Ctx) -> tuple[Subset, ...]:
    return tuple(r for r in c.family(IdealKind.RIGHT) if _semiprime_offense(c, r) is None)


# semiprime right ideal R and left ideal L
_SEMIPRIME_RL = _Domain(
    ("R", "L"),
    lambda c: itertools.product(c.once(_semiprime_right), c.family(IdealKind.LEFT)),
    lambda c, r, l: (_is_right(c.g, r) and ideals.is_elementwise_semiprime(c.g, r)
                     and _is_left(c.g, l)),
)


def _n_right_left(c: _Ctx) -> int:
    return len(c.family(IdealKind.RIGHT)) * len(c.family(IdealKind.LEFT))


def _rintl(c: _Ctx, r: Subset, l: Subset):
    inter, prod = r & l, c.prod(r, l)
    return None if inter == prod else (("intersection", _ext(inter)), ("product", _ext(prod)))


def _lrl_ii(c: _Ctx, r: Subset, l: Subset):
    """L&R <= L*R."""
    prod = c.prod(l, r)
    return None if (l & r) <= prod else (("intersection", _ext(l & r)), ("product", _ext(prod)))


def _lrl_iii(c: _Ctx, r: Subset, l: Subset):
    """L&R <= (L*R)*L."""
    lrl = c.prod(c.prod(l, r), l)
    return None if (l & r) <= lrl else (("intersection", _ext(l & r)), ("product", _ext(lrl)))


_LRL_II: _Statement = (_SEMIPRIME_RL, _lrl_ii)
_LRL_III: _Statement = (_SEMIPRIME_RL, _lrl_iii)


def _lrl_details(c: _Ctx, cx) -> tuple:
    return (("i-intra-regular", c.intra_holds()), ("ii-subset-product", _holds(c, _LRL_II)),
            ("iii-subset-product-l", _holds(c, _LRL_III)), ("semiprime-sense", "elementwise"))


def _prime_offense(c: _Ctx, p: Subset):
    """(("A", a), ("B", b)) when P is not prime."""
    hit = ideals.prime_offender(c.g, p)
    return None if hit is None else (("A", _ext(hit[0])), ("B", _ext(hit[1])))


def _prime_irr(c: _Ctx, p: Subset):
    prime = ideals.prime_offender(c.g, p) is None
    irr = ideals.irreducible_offender(c.g, p) is None
    if prime == irr:
        return None
    return (("direction", "prime-not-irreducible" if prime else "irreducible-not-prime"),)


def _is_minimal_ideal(g: GammaGroupoid, q: Subset) -> bool:
    # a smaller ideal would hold the ideal one of Q's members generates
    return _is_two_sided(g, q) and all(
        ideals.generated_ideal(g, IdealKind.TWO_SIDED, Subset.singleton(g.n, x)) == q for x in q
    )


def _minimal(c: _Ctx) -> list[Subset]:
    fam = c.family(IdealKind.TWO_SIDED)
    return [q for q in fam if not any(p < q for p in fam)]


def _minimal_domain(*names: str) -> _Domain:
    return _over(names, lambda c: c.once(_minimal), _is_minimal_ideal)


def _no_decomposition(c: _Ctx, q: Subset):
    # every minimal ideal is an intersection of two minimal ones
    minimal = c.once(_minimal)
    return None if any((i & j) == q for i in minimal for j in minimal) else ()


def _intersection_not_minimal(c: _Ctx, i: Subset, j: Subset):
    # an intersection of two minimal ideals that is a two-sided ideal
    # must be minimal
    k = i & j
    if k and c.has(IdealKind.TWO_SIDED, k) and k not in c.once(_minimal):
        return (("K", _ext(k)),)
    return None


# --- the table ---------------------------------------------------------------

def _identity(condition: str, kind: IdealKind, lhs: Callable[[_Ctx, Subset], Subset]) -> _Check:
    """lhs(B) = B for every B of one family."""
    clause = _Clause(condition, lambda c, b: _differs("lhs", lhs(c, b), b))
    return _Check(True, ((_family(kind, "B"), (clause,)),), lambda c, cx: len(c.family(kind)))


def _iff_intra(prefix: str, domain: _Domain, test: _Test, instances,
               details=lambda c, cx: ()) -> _Check:
    """intra-regular <=> `test` finds nothing over `domain`."""
    rhs = (domain, test)
    stages = _implications((_INTRA, rhs, f"{prefix}:forward"), (rhs, _INTRA, f"{prefix}:converse"))
    return _Check(False, stages, instances, details)


def _unsquared(c: _Ctx, a: Subset):
    return _differs("square", c.prod(a, a), a)


def _sla2(c: _Ctx, a: Subset):
    sa = c.prod(c.s, a)
    return _differs("got", c.prod(sa, sa), a)


_TWO = IdealKind.TWO_SIDED
_TWO_SIDED_PAIRS = _family(_TWO, "I", "J")
_CHAIN: _Statement = (_family(_TWO, "P", "Q"),
                     lambda c, p, q: None if p <= q or q <= p else ())
_ALL_PRIME: _Statement = (_family(_TWO, "P"), _prime_offense)


def _n_two_sided(c: _Ctx) -> int:
    return len(c.family(_TWO))


_CHECKS: dict[TheoremId, _Check] = {
    TheoremId.JI: _Check(
        False,
        ((_Domain(("hypothesis", "offender"),
                  lambda c: [(_hypothesis(c), x) for x in range(c.g.n)],
                  lambda c, h, x: c.once(_HYPOTHESES[h]) and _is_element(c.g, x)),
          (_Clause("ji:not-intra-regular", lambda c, h, x: _not_intra(c, x)),)),),
        lambda c, cx: 3 * c.g.n,
        details=lambda c, cx: () if cx else (("hypothesis", _hypothesis(c)),),
        vacuous=lambda c: None if c.once(_sga) or c.once(_ags) else (
            "neither S*{a}=S nor {a}*S=S holds for every a", 2 * c.g.n),
    ),
    TheoremId.JI_COR: _Check(
        False,
        ((_elements("a"), (_Clause(
            "ji-cor:s-times-a",
            lambda c, a: _differs("product", c.prod(c.s, _single(c, a)), c.s)),)),),
        lambda c, cx: 2 * c.g.n,
        vacuous=lambda c: None if c.once(_ags) else (
            "{a}*S=S does not hold for every a", c.g.n),
    ),
    TheoremId.KI: _identity("ki:product-identity", IdealKind.GENERALIZED_BI, _bsb),
    # same content as KI since B is a subset of S; kept as its own
    # report because the restated form (= B) is quoted independently
    TheoremId.KI_COR: _identity("ki-cor:product-identity", IdealKind.GENERALIZED_BI, _bsb),
    TheoremId.AW: _identity("aw:product-identity", IdealKind.INTERIOR, _sbs),
    TheoremId.AW_COR: _identity("aw-cor:product-identity", IdealKind.INTERIOR, _sbs),
    TheoremId.JK: _Check(
        True,
        ((_UNIT, (_Clause("jk:s-times-s",
                          lambda c: _differs("product", c.prod(c.s, c.s), c.s)),)),),
        lambda c, cx: 1,
    ),
    TheoremId.LISR: _Check(
        True, ((_SUBSETS, (_Clause("lisr:left-right-mismatch", _lisr),)),), _n_subsets,
    ),
    TheoremId.BIIID: _Check(
        True,
        ((_SUBSETS, (_Clause("biiid:forward", _biiid_forward),
                     _Clause("biiid:converse", _biiid_converse))),),
        _n_subsets,
    ),
    TheoremId.T_ONE_TWO: _iff("t-one-two", IdealKind.ONE_TWO, _one_two_rhs),
    TheoremId.T_INTERIOR: _iff("t-interior", IdealKind.INTERIOR, _interior_rhs),
    TheoremId.T_QUASI: _iff("t-quasi", IdealKind.QUASI, _quasi_rhs),
    TheoremId.T12: _iff("t12", IdealKind.ONE_TWO, _has(_TWO)),
    TheoremId.PLO: _iff("plo", IdealKind.ONE_TWO, _has(IdealKind.INTERIOR)),
    TheoremId.BINT: _iff("bint", IdealKind.BI, _has(IdealKind.INTERIOR)),
    TheoremId.QUO: _iff("quo", IdealKind.ONE_TWO, _has(IdealKind.QUASI)),
    TheoremId.LI: _iff("li", _TWO, _has("fixed")),
    TheoremId.EQUALIENT: _Check(
        True,
        ((_KIND_PAIRS, (_Clause("equalient:family-mismatch", _family_mismatch),)),),
        lambda c, cx: len(_EQUALIENT) * _n_subsets(c, cx),
    ),
    TheoremId.II: _iff_intra(
        "ii", _family(IdealKind.BI, "B"), _unsquared, _family_plus_n(IdealKind.BI)),
    TheoremId.IDL: _Check(
        True,
        ((_TWO_SIDED_PAIRS,
          (_Clause("idl:empty-intersection", lambda c, i, j: None if i & j else ()),
           _Clause("idl:not-ideal", lambda c, i, j: (
               (("K", _ext(i & j)),) if i & j and not c.has(_TWO, i & j) else None)))),),
        lambda c, cx: _n_two_sided(c) ** 2,
    ),
    TheoremId.IJ: _Check(
        True,
        ((_TWO_SIDED_PAIRS, (_Clause("ij:product-intersection", lambda c, i, j: (
            None if c.prod(i, j) == i & j
            else (("product", _ext(c.prod(i, j))), ("intersection", _ext(i & j))))),)),),
        lambda c, cx: _n_two_sided(c) ** 2,
    ),
    TheoremId.IFFFF: _iff_intra(
        "iffff", _family(IdealKind.LEFT, "A"), _unsquared, _family_plus_n(IdealKind.LEFT)),
    TheoremId.SLA2: _iff_intra(
        "sla2", _family(IdealKind.LEFT, "A"), _sla2, _family_plus_n(IdealKind.LEFT)),
    TheoremId.RLT: _Check(
        True,
        ((_RLT_DOMAIN, (_Clause("rlt:elementwise", lambda c, p, r: _semiprime_offense(c, r)),)),),
        _rlt_instances, _rlt_details,
    ),
    TheoremId.RSEMIPRIME_EQ: _iff_intra(
        "rsemiprime", _family(IdealKind.RIGHT, "R"), _semiprime_offense,
        _family_plus_n(IdealKind.RIGHT),
        lambda c, cx: () if cx else (
            ("semiprime-sense", "elementwise"),
            ("ideal-quantified-all-semiprime", _all_ideal_quantified(c, IdealKind.RIGHT)))),
    TheoremId.RINTL: _iff_intra(
        "rintl", _SEMIPRIME_RL, _rintl, lambda c, cx: _n_right_left(c) + c.g.n,
        lambda c, cx: () if cx else (("semiprime-sense", "elementwise"),)),
    TheoremId.LRL: _Check(
        False,
        _implications(
            (_INTRA, _LRL_II, "lrl:i-not-ii"),
            (_INTRA, _LRL_III, "lrl:i-not-iii"),
            (_LRL_II, _LRL_III, "lrl:ii-not-iii"),
            (_LRL_III, _LRL_II, "lrl:iii-not-ii"),
            # some statement holds while intra-regularity fails
            (_LRL_II, _INTRA, "lrl:not-intra"),
        ),
        lambda c, cx: 2 * _n_right_left(c) + c.g.n,
        _lrl_details,
    ),
    TheoremId.PRIME_IRR: _Check(
        True, ((_family(_TWO, "P"), (_Clause("prime-irr:mismatch", _prime_irr),)),),
        lambda c, cx: _n_two_sided(c),
    ),
    TheoremId.TOTAL_ORDER: _Check(
        True,
        _implications((_ALL_PRIME, _CHAIN, "total-order:incomparable"),
                      (_CHAIN, _ALL_PRIME, "total-order:not-prime")),
        lambda c, cx: 2 * _n_two_sided(c) ** 2,
    ),
    TheoremId.SEMILATTICE: _Check(
        True,
        ((_TWO_SIDED_PAIRS,
          (_Clause("semilattice:closure", lambda c, i, j: (
              None if c.has(_TWO, c.prod(i, j)) else (("product", _ext(c.prod(i, j))),))),
           _Clause("semilattice:commutative", lambda c, i, j: (
               None if c.prod(i, j) == c.prod(j, i)
               else (("product", _ext(c.prod(i, j))), ("reversed", _ext(c.prod(j, i)))))))),
         (_family(_TWO, "I"), (_Clause("semilattice:idempotent", _unsquared),))),
        lambda c, cx: 2 * _n_two_sided(c) ** 2 + _n_two_sided(c),
    ),
    TheoremId.MINIMAL: _Check(
        True,
        ((_minimal_domain("Q"), (_Clause("minimal:no-decomposition", _no_decomposition),)),
         (_minimal_domain("I", "J"),
          (_Clause("minimal:intersection-not-minimal", _intersection_not_minimal),))),
        lambda c, cx: len(c.once(_minimal)) ** 2 + len(c.once(_minimal)),
    ),
}

# condition -> (check, domain, clause), read off the table
_CONDITIONS: dict[str, tuple[_Check, _Domain, _Clause]] = {
    clause.condition: (check, domain, clause)
    for check in _CHECKS.values()
    for domain, clauses in check.stages
    for clause in clauses
}


def _first_failure(c: _Ctx, check: _Check) -> Optional[Counterexample]:
    for domain, clauses in check.stages:
        live = tuple(cl for cl in clauses if cl.premise is None or _holds(c, cl.premise))
        hit = c.once(_sweep, domain, tuple(cl.test for cl in live)) if live else None
        if hit is not None:
            i, w, extra = hit
            return Counterexample(live[i].condition, _data(domain, w, extra))
    return None


# the checks in TheoremId order, so a whole suite never hashes a TheoremId
_SUITE: tuple[tuple[TheoremId, _Check], ...] = tuple((t, _CHECKS[t]) for t in TheoremId)


def _run(c: _Ctx, theorem: TheoremId, check: _Check) -> TheoremReport:
    reason = _guard(c, check.need_intra)
    if reason:
        return TheoremReport(theorem, SKIPPED, reason=reason)
    vacuous = check.vacuous(c)
    if vacuous:
        return TheoremReport(theorem, VACUOUS, reason=vacuous[0], instances=vacuous[1])
    cx = _first_failure(c, check)
    return TheoremReport(
        theorem, FAIL if cx else PASS, counterexample=cx,
        instances=check.instances(c, cx), details=check.details(c, cx),
    )


def run_check(g: GammaGroupoid, theorem: TheoremId) -> TheoremReport:
    return _run(_ctx(g), theorem, _CHECKS[theorem])


def revalidate_counterexample(g: GammaGroupoid, cx: Counterexample) -> bool:
    """Re-run the violated clause from scratch; True iff it reproduces
    every recorded field.  Raises KeyError for an unknown condition."""
    check, domain, clause = _CONDITIONS[cx.condition]
    data = {k: (tuple(v) if isinstance(v, (list, tuple)) else v) for k, v in cx.data}
    c = _Ctx(g)
    if _guard(c, check.need_intra) or check.vacuous(c):
        return False
    try:
        w = tuple(_sub(g, data[k]) if isinstance(data[k], tuple) else data[k]
                  for k in domain.names)
        if not domain.member(c, *w):
            return False
    except (AttributeError, KeyError, TypeError, ValueError):
        return False
    if clause.premise is not None and not _holds(c, clause.premise):
        return False
    extra = clause.test(c, *w)
    return extra is not None and dict(_data(domain, w, extra)) == data


def run_suite(
    g: GammaGroupoid, selection: Optional[Iterable[TheoremId]] = None
) -> list[TheoremReport]:
    """Run the selected checks (all by default) in TheoremId order."""
    c, chosen = _ctx(g), None if selection is None else set(selection)
    return [_run(c, tid, check) for tid, check in _SUITE if chosen is None or tid in chosen]


def model_hash(g: GammaGroupoid) -> str:
    return hashlib.sha256(serialize_model(g).encode()).hexdigest()


def suite_to_json_obj(g: GammaGroupoid, reports: Sequence[TheoremReport]) -> dict:
    return {
        "model-hash": model_hash(g),
        "axiom-profile": _ctx(g).profile.to_json_obj(),
        "reports": [r.to_json_obj() for r in reports],
    }


def suite_exit_code(reports: Sequence[TheoremReport]) -> int:
    """0 = no failures; 2 = some check failed; 3 = every check skipped."""
    if reports and all(r.status == SKIPPED for r in reports):
        return 3
    if any(r.status == FAIL for r in reports):
        return 2
    return 0


def format_report_table(reports: Sequence[TheoremReport]) -> str:
    lines = []
    for r in reports:
        line = f"{r.theorem.value:14s} {r.status:8s} instances={r.instances}"
        if r.reason:
            line += f"  ({r.reason})"
        if r.counterexample:
            line += f"  [{r.counterexample.condition}]"
        lines.append(line)
    return "\n".join(lines) + "\n"
