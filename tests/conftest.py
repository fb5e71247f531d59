"""Shared fixtures and hypothesis strategies for the test suite."""

import importlib.util
import json
from functools import partial
from pathlib import Path

import pytest
from hypothesis import strategies as st

from gag import GammaGroupoid, IdealKind, Subset, subset_product
from gag.fixtures import paper_example

DATA_DIR = Path(__file__).parent / "data"
SCRIPTS_DIR = Path(__file__).resolve().parent.parent / "scripts"


def load_data(name: str):
    with open(DATA_DIR / name) as fh:
        return json.load(fh)


def intra_oracle(g: GammaGroupoid, a: int) -> bool:
    """Membership route: a in (S*({a}*{a}))*S, via subset products only.
    The reference that `intra_witness` is held to."""
    if not (0 <= a < g.n):
        raise ValueError(f"element index out of range 0..{g.n - 1}")
    s = Subset.full(g.n)
    sa = Subset.singleton(g.n, a)
    aa = subset_product(g, sa, sa)
    return a in subset_product(g, subset_product(g, s, aa), s)


def brute_product(g: GammaGroupoid, a: Subset, b: Subset) -> Subset:
    """A*B cell by cell from the table: every x *_k y, x in A, y in B."""
    return Subset.from_members(
        g.n, {g.product(x, k, y) for x in a for k in range(g.m) for y in b}
    )


# The definitions of the nine kinds as the paper states them, for a
# non-empty A with S the carrier: each kind is a conjunction of
# inclusions, read with products taken cell by cell.  The closure maps
# of `gag.ideals` state each kind once more, as one map F with
# F(A) <= A; every consumer of those maps is held to these.
_DEFINITIONS = {
    IdealKind.SUBGROUPOID: lambda p, s, a: p(a, a) <= a,
    IdealKind.LEFT: lambda p, s, a: p(s, a) <= a,
    IdealKind.RIGHT: lambda p, s, a: p(a, s) <= a,
    IdealKind.TWO_SIDED: lambda p, s, a: p(s, a) <= a and p(a, s) <= a,
    IdealKind.BI: lambda p, s, a: p(a, a) <= a and p(p(a, s), a) <= a,
    IdealKind.GENERALIZED_BI: lambda p, s, a: p(p(a, s), a) <= a,
    IdealKind.INTERIOR: lambda p, s, a: p(a, a) <= a and p(p(s, a), s) <= a,
    IdealKind.QUASI: lambda p, s, a: (p(s, a) & p(a, s)) <= a,
    IdealKind.ONE_TWO: lambda p, s, a: p(a, a) <= a and p(p(a, s), p(a, a)) <= a,
}


def defined(g: GammaGroupoid, kind: IdealKind, a: Subset) -> bool:
    """Whether the non-empty subset A is of the given kind, by definition."""
    return _DEFINITIONS[kind](partial(brute_product, g), Subset.full(g.n), a)


# Definition sweeps for the properties of two-sided ideals.  Each returns
# the least witness that P lacks the property, or None, in the order the
# `gag.ideals` offender searches promise: ideals by sorted member tuple,
# pairs (A, B) with A the outer loop.


def two_sided_ideals_by_filter(g: GammaGroupoid) -> list[Subset]:
    """The non-empty subsets, by sorted member tuple, that are two-sided
    ideals by definition: the powerset filter, not the closure listing."""
    powerset = sorted((Subset(g.n, mask) for mask in range(1, 1 << g.n)), key=Subset.members)
    return [a for a in powerset if defined(g, IdealKind.TWO_SIDED, a)]


def prime_oracle(g: GammaGroupoid, p: Subset, ideals: list[Subset]):
    """Least ideals A, B with A*B <= P, A not <= P and B not <= P."""
    for a in ideals:
        for b in ideals:
            if brute_product(g, a, b) <= p and not a <= p and not b <= p:
                return a, b
    return None


def irreducible_oracle(g: GammaGroupoid, p: Subset, ideals: list[Subset]):
    """Least ideals A, B with A & B <= P, A not <= P and B not <= P."""
    for a in ideals:
        for b in ideals:
            if (a & b) <= p and not a <= p and not b <= p:
                return a, b
    return None


def semiprime_oracle(g: GammaGroupoid, p: Subset, ideals: list[Subset]):
    """Least ideal A with A*A <= P and A not <= P."""
    for a in ideals:
        if brute_product(g, a, a) <= p and not a <= p:
            return a
    return None


def elementwise_oracle(g: GammaGroupoid, p: Subset):
    """Least element a with a *_k a in P for every k, and a not in P."""
    for a in range(g.n):
        if all(g.product(a, k, a) in p for k in range(g.m)) and a not in p:
            return a
    return None


@pytest.fixture(scope="session")
def m5() -> GammaGroupoid:
    # Order-5 single-operator model used as the worked fixture throughout.
    return paper_example()


@pytest.fixture(scope="session")
def freezer():
    """scripts/freeze_fixtures.py as a module: its builders, `guards_open`,
    `difference_model`, `cli_digest` and the hunted check ids `HUNTED`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(SCRIPTS_DIR))
        spec = importlib.util.spec_from_file_location(
            "freeze_fixtures", SCRIPTS_DIR / "freeze_fixtures.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


@st.composite
def models(draw, max_n: int = 4, max_m: int = 2, min_n: int = 1) -> GammaGroupoid:
    """Arbitrary labelled model with n <= max_n elements, m <= max_m operators."""
    n = draw(st.integers(min_n, max_n))
    m = draw(st.integers(1, max_m))
    flat = draw(
        st.lists(st.integers(0, n - 1), min_size=n * n * m, max_size=n * n * m)
    )
    return GammaGroupoid(n, m, tuple(flat))


@st.composite
def subsets_of(draw, n: int):
    from gag import Subset

    mask = draw(st.integers(1, (1 << n) - 1))
    return Subset(n, mask)
