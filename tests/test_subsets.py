"""Subset algebra: products, generated ideals, sweeps."""

import json
from itertools import product as iproduct

import pytest
from conftest import brute_product, defined, models
from hypothesis import given, settings
from hypothesis import strategies as st

from gag import (
    CarrierMismatchError,
    EmptySubsetError,
    GammaGroupoid,
    IdealKind,
    Subset,
    all_nonempty_subsets,
    generated_ideal,
    model_to_json_obj,
    serialize_model,
    subset_product,
)


def _members(n, *xs):
    return Subset.from_members(n, xs)


class TestSubsetContainer:
    def test_constructors(self):
        assert Subset.full(3).mask == 7
        assert Subset.singleton(3, 1).members() == (1,)
        assert _members(4, 3, 1).members() == (1, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            Subset(2, 4)
        with pytest.raises(ValueError):
            Subset(-1, 0)
        with pytest.raises(ValueError):
            Subset.from_members(2, [2])

    def test_set_protocol(self):
        s = _members(4, 0, 2)
        assert len(s) == 2
        assert list(s) == [0, 2]
        assert 2 in s and 1 not in s and 7 not in s
        assert bool(s) and not Subset(4, 0)

    def test_lattice_ops(self):
        a, b = _members(3, 0, 1), _members(3, 1, 2)
        assert (a | b) == Subset.full(3)
        assert (a & b) == _members(3, 1)
        assert _members(3, 1) <= a and _members(3, 1) < a
        assert a >= _members(3, 0) and a > _members(3, 0) and not (a <= b)

    def test_carrier_mismatch(self):
        with pytest.raises(CarrierMismatchError):
            _members(3, 0) | _members(4, 0)
        with pytest.raises(CarrierMismatchError):
            _members(3, 0) <= _members(2, 0)

    @pytest.mark.parametrize(
        "op",
        [
            lambda a: a <= 5,
            lambda a: a < 5,
            lambda a: a >= 5,
            lambda a: a > 5,
            lambda a: a & 5,
            lambda a: a | 5,
        ],
        ids=["le", "lt", "ge", "gt", "and", "or"],
    )
    def test_non_subset_operand(self, op):
        with pytest.raises(TypeError):
            op(_members(3, 0))

    def test_format(self, m5):
        assert _members(5, 0, 2).format(m5.element_labels) == "{a, c}"
        assert _members(3, 1).format() == "{1}"


def test_m5_products(m5):
    s = Subset.full(5)
    b, c = Subset.singleton(5, 1), Subset.singleton(5, 2)
    ab = _members(5, 0, 1)
    assert subset_product(m5, b, b) == b
    assert subset_product(m5, c, c) == b
    assert subset_product(m5, ab, ab) == ab
    assert subset_product(m5, s, s) == s
    assert subset_product(m5, Subset(5, 0), s) == Subset(5, 0)
    assert subset_product(m5, s, b) == s
    assert subset_product(m5, b, s) == s


def _operands(n):
    # Half the draws are the empty set or the whole carrier, so A = S,
    # B = S, both, and empty operands all come up often.
    full = (1 << n) - 1
    return st.one_of(st.sampled_from([0, full]), st.integers(0, full)).map(
        lambda mask: Subset(n, mask)
    )


@settings(max_examples=300, deadline=None)
@given(models(max_n=8, max_m=3), st.data())
def test_product_matches_brute_force(g, data):
    # once on a cold memo, then again read from the memo
    a = data.draw(_operands(g.n))
    b = data.draw(_operands(g.n))
    assert not g.product_masks.memo
    assert subset_product(g, a, b) == brute_product(g, a, b)
    assert (a.mask, b.mask) in g.product_masks.memo
    assert subset_product(g, a, b) == brute_product(g, a, b)


def test_same_order_models_keep_their_own_products():
    # Left and right projection on four elements, used alternately: a
    # product cache keyed by carrier size would hand one the other's masks.
    left = GammaGroupoid(4, 1, tuple(x for x in range(4) for y in range(4)))
    right = GammaGroupoid(4, 1, tuple(y for x in range(4) for y in range(4)))
    a, b, s = _members(4, 0, 1), _members(4, 2), Subset.full(4)
    for _ in range(2):
        for g in (left, right):
            for x, y in [(a, b), (a, s), (s, b), (s, s)]:
                assert subset_product(g, x, y) == brute_product(g, x, y)
    assert subset_product(left, a, b) == a
    assert subset_product(right, a, b) == b


def test_product_masks_stay_out_of_value_semantics():
    g = GammaGroupoid(3, 2, (0, 1, 2, 2, 1, 0) * 3)
    fresh = GammaGroupoid(3, 2, g.table)
    for a, b in iproduct(range(8), repeat=2):
        subset_product(g, Subset(3, a), Subset(3, b))
    assert len(g.product_masks.memo) == 64
    assert "product_masks" in vars(g) and "product_masks" not in vars(fresh)
    assert g == fresh and hash(g) == hash(fresh)
    assert repr(g) == repr(fresh)
    assert serialize_model(g) == serialize_model(fresh)
    assert json.dumps(model_to_json_obj(g)) == json.dumps(model_to_json_obj(fresh))


def test_product_rejects_foreign_subset(m5):
    with pytest.raises(CarrierMismatchError):
        subset_product(m5, Subset.full(4), Subset.full(5))


def test_m5_generated_ideals(m5):
    a, b = Subset.singleton(5, 0), Subset.singleton(5, 1)
    for kind in (IdealKind.LEFT, IdealKind.RIGHT, IdealKind.TWO_SIDED):
        assert generated_ideal(m5, kind, a) == a
    assert generated_ideal(m5, IdealKind.LEFT, b) == Subset.full(5)
    assert generated_ideal(m5, IdealKind.TWO_SIDED, b) == Subset.full(5)
    with pytest.raises(EmptySubsetError):
        generated_ideal(m5, IdealKind.LEFT, Subset(5, 0))
    with pytest.raises(CarrierMismatchError):
        generated_ideal(m5, IdealKind.LEFT, Subset.full(4))


def _minimal_closed_superset(g, seed, kind):
    # Oracle: smallest ideal of the given kind containing the seed, found
    # by intersecting all supersets that are of the kind by definition
    # (the kind is intersection closed when the intersection still
    # contains the seed).
    best = None
    for mask in range(1, 1 << g.n):
        cand = Subset(g.n, mask)
        if seed <= cand and defined(g, kind, cand):
            best = cand if best is None else (best & cand)
    return best


@settings(max_examples=100, deadline=None)
@given(models(max_n=4, max_m=2), st.data())
def test_generated_ideals_are_minimal(g, data):
    seed = Subset(g.n, data.draw(st.integers(1, (1 << g.n) - 1)))
    for kind in IdealKind:
        got = generated_ideal(g, kind, seed)
        assert seed <= got
        assert defined(g, kind, got)
        assert got == _minimal_closed_superset(g, seed, kind)


def test_all_nonempty_subsets_canonical_order(m5):
    subs = all_nonempty_subsets(m5)
    assert len(subs) == 31
    keys = [s.members() for s in subs]
    assert keys == sorted(keys)
    assert keys[0] == (0,)
    assert keys[1] == (0, 1)
    assert keys[-1] == (4,)


def test_all_nonempty_subsets_returns_a_fresh_list(m5):
    first = all_nonempty_subsets(m5)
    expected = list(first)
    first.reverse()
    first.append(Subset(5, 0))
    assert all_nonempty_subsets(m5) == expected

