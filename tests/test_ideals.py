"""Ideal-kind predicates, families, and the prime/semiprime layer."""

import pytest
from conftest import (
    defined,
    elementwise_oracle,
    irreducible_oracle,
    models,
    prime_oracle,
    semiprime_oracle,
    two_sided_ideals_by_filter,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from gag import (
    CarrierMismatchError,
    EmptySubsetError,
    GammaGroupoid,
    IdealKind,
    Subset,
    all_models,
    all_nonempty_subsets,
    ideal_family,
    ideals,
    kind_predicate,
    subset_product,
    theorems,
)
from gag.ideals import is_elementwise_semiprime
from gag.subsets import closed_subsets


def _fam_members(g, kind):
    return [s.members() for s in ideal_family(g, kind)]


def test_m5_subgroupoids(m5):
    assert _fam_members(m5, IdealKind.SUBGROUPOID) == [
        (0,),
        (0, 1),
        (0, 1, 2, 3, 4),
        (0, 1, 3),
        (1,),
        (1, 2, 3, 4),
        (1, 3),
    ]


def test_m5_proper_ideal_families_coincide(m5):
    # Every kind except plain subgroupoid yields exactly {a} and S.
    expected = [(0,), (0, 1, 2, 3, 4)]
    for kind in IdealKind:
        if kind is IdealKind.SUBGROUPOID:
            continue
        assert _fam_members(m5, kind) == expected, kind


def test_m5_idempotent_subsets_are_the_subgroupoids(m5):
    idem = [a for a in all_nonempty_subsets(m5) if subset_product(m5, a, a) == a]
    assert idem == list(ideal_family(m5, IdealKind.SUBGROUPOID))


def test_m5_named_counterexample_subsets(m5):
    ab = Subset.from_members(5, (0, 1))
    b = Subset.singleton(5, 1)
    # First subset in canonical order failing the quasi condition.
    failing = [a for a in all_nonempty_subsets(m5) if not defined(m5, IdealKind.QUASI, a)]
    assert failing[0] == ab
    assert not defined(m5, IdealKind.GENERALIZED_BI, b)
    assert defined(m5, IdealKind.SUBGROUPOID, ab) and not defined(m5, IdealKind.INTERIOR, ab)


def test_m5_prime_layer(m5):
    fam = two_sided_ideals_by_filter(m5)
    assert fam == list(ideal_family(m5, IdealKind.TWO_SIDED))
    for p in fam:
        assert prime_oracle(m5, p, fam) is None
        assert semiprime_oracle(m5, p, fam) is None
        assert irreducible_oracle(m5, p, fam) is None
        assert is_elementwise_semiprime(m5, p)


@pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2)])
def test_offenders_match_definition_sweeps_on_every_table(n, m):
    # Each `*_offender` search against its definition sweep over the
    # powerset-filtered two-sided ideals: the pair searches at every
    # two-sided ideal P, the other two at every non-empty P, since the
    # theorem suite also hands them right ideals.
    checked = 0
    for g in all_models(n, m):
        fam = two_sided_ideals_by_filter(g)
        for p in fam:
            assert ideals.prime_offender(g, p) == prime_oracle(g, p, fam)
            assert ideals.irreducible_offender(g, p) == irreducible_oracle(g, p, fam)
            checked += 1
        for mask in range(1, 1 << n):
            p = Subset(n, mask)
            assert ideals.semiprime_offender(g, p) == semiprime_oracle(g, p, fam)
            assert ideals.elementwise_offender(g, p) == elementwise_oracle(g, p)
    assert checked >= n ** (n * n * m)  # the carrier is an ideal of every table


def _kinds_by_definition(g, a):
    return {kind for kind in IdealKind if defined(g, kind, a)}


def _kinds_by_predicate(g, a):
    return {kind for kind in IdealKind if kind_predicate(kind)(g, a)}


@pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_kind_predicates_match_definitions_on_every_table(n, m):
    # Every kind on every non-empty subset of every table of this size.
    checked = 0
    for g in all_models(n, m):
        for mask in range(1, 1 << n):
            a = Subset(n, mask)
            assert _kinds_by_predicate(g, a) == _kinds_by_definition(g, a), (g.table, mask)
            checked += 1
    assert checked == n ** (n * n * m) * ((1 << n) - 1)


@settings(max_examples=150, deadline=None)
@given(models(max_n=5, max_m=3), st.data())
def test_kind_predicates_match_definitions(g, data):
    a = Subset(g.n, data.draw(st.integers(1, (1 << g.n) - 1)))
    assert _kinds_by_predicate(g, a) == _kinds_by_definition(g, a)


def test_kind_predicates_refuse_empty_and_foreign_subsets(m5):
    for kind in IdealKind:
        with pytest.raises(EmptySubsetError):
            kind_predicate(kind)(m5, Subset(5, 0))
        with pytest.raises(CarrierMismatchError):
            kind_predicate(kind)(m5, Subset.full(4))


@settings(max_examples=150, deadline=None)
@given(models(max_n=4, max_m=2), st.data())
def test_kind_implications(g, data):
    a = Subset(g.n, data.draw(st.integers(1, (1 << g.n) - 1)))
    kinds = _kinds_by_definition(g, a)
    two = IdealKind.TWO_SIDED in kinds
    assert two == ({IdealKind.LEFT, IdealKind.RIGHT} <= kinds)
    if two:
        assert {IdealKind.SUBGROUPOID, IdealKind.BI, IdealKind.INTERIOR,
                IdealKind.QUASI, IdealKind.ONE_TWO} <= kinds
    if IdealKind.BI in kinds:
        assert IdealKind.GENERALIZED_BI in kinds
    if IdealKind.LEFT in kinds or IdealKind.RIGHT in kinds:
        assert IdealKind.QUASI in kinds


@settings(max_examples=60, deadline=None)
@given(models(max_n=3, max_m=2))
def test_prime_implies_semiprime(g):
    fam = two_sided_ideals_by_filter(g)
    for p in fam:
        prime = prime_oracle(g, p, fam) is None
        semiprime = semiprime_oracle(g, p, fam) is None
        if prime:
            assert semiprime
        if irreducible_oracle(g, p, fam) is None and semiprime:
            # Strongly irreducible semiprime ideals are prime in any model.
            assert prime


def _sbs_inside(g, a):
    s = Subset.full(g.n)
    return subset_product(g, subset_product(g, s, a), s) <= a


@settings(max_examples=80, deadline=None)
@given(models(max_n=8, max_m=3))
def test_family_matches_predicate_sweep(g):
    # Closure listing against the powerset filter by the definitions,
    # including the (S*A)*S family the theorem suite sweeps.
    subs = all_nonempty_subsets(g)
    for kind in IdealKind:
        assert list(ideal_family(g, kind)) == [a for a in subs if defined(g, kind, a)]
    sbs = closed_subsets(g, lambda p, s, a: p(p(s, a), s))
    assert list(sbs) == [a for a in subs if _sbs_inside(g, a)]
    assert set(sbs) <= set(theorems._candidates(theorems._Ctx(g)))


def test_carrier_is_every_kind(m5):
    s = Subset.full(5)
    for kind in IdealKind:
        assert defined(m5, kind, s) and s in ideal_family(m5, kind), kind


def test_quasi_does_not_require_subgroupoid():
    # Right projection x*y = y: {0} absorbs from the left and right by
    # intersection, yet is not closed as a subgroupoid check would demand
    # on a model where squares leave the set.
    g = GammaGroupoid.from_tables([[[0, 1], [0, 1]]])
    a = Subset.singleton(2, 0)
    # S*A = {0}, A*S = {0, 1} so the intersection is {0} <= A.
    assert defined(g, IdealKind.QUASI, a) and a in ideal_family(g, IdealKind.QUASI)
    assert not defined(g, IdealKind.RIGHT, a) and a not in ideal_family(g, IdealKind.RIGHT)
