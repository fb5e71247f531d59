"""Shared fixtures and hypothesis strategies for the test suite."""

import importlib.util
import json
from pathlib import Path

import pytest
from hypothesis import strategies as st

from gag import GammaGroupoid, Subset, subset_product
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
