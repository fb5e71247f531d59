"""Law deciders, witnesses, and the model container."""

from itertools import product as iproduct

import pytest
from conftest import models
from hypothesis import given, settings

from gag import (
    GammaGroupoid,
    IdealKind,
    LawCheck,
    SearchSpec,
    TheoremId,
    all_models,
    axiom_profile,
    enumerate_models,
    ideal_family,
    is_ag_star_star,
    is_left_invertive,
    is_medial,
    is_paramedial,
    left_identities,
    parse_model,
    run_suite,
    serialize_model,
)
from gag import model
from gag.model import holds

# Left projection x*y = x breaks the left invertive law at n >= 2;
# a constant table satisfies every law here.
LEFT_PROJ = GammaGroupoid.from_tables([[[0, 0], [1, 1]]])
CONSTANT = GammaGroupoid.from_tables([[[0, 0], [0, 0]]])


def test_m5_axiom_profile(m5):
    p = axiom_profile(m5)
    assert p.left_invertive and p.medial and p.ag_star_star and p.paramedial
    assert p.left_identities == (1,)
    assert left_identities(m5) == [1]


def test_m5_profile_json_obj(m5):
    obj = axiom_profile(m5).to_json_obj()
    assert obj == {
        "left-invertive": True,
        "medial": True,
        "ag-star-star": True,
        "paramedial": True,
        "left-identities": [1],
    }


def test_left_projection_fails_left_invertive():
    chk = is_left_invertive(LEFT_PROJ)
    assert not chk
    # (x y) z = x but (z y) x = z, first violation at x=0, z=1
    assert chk.witness == (0, 0, 1, 0, 0)


def test_constant_table_satisfies_all_laws():
    p = axiom_profile(CONSTANT)
    assert p.left_invertive and p.medial and p.ag_star_star and p.paramedial
    assert p.left_identities == ()


def _brute_violations(g, n_elements, n_ops, law):
    # Every (elements..., operators...) tuple on which law's two sides
    # differ, in lexicographic order.
    return [
        w for w in iproduct(*[range(g.n)] * n_elements, *[range(g.m)] * n_ops)
        if not law(g.product, *w)
    ]


def _left_invertive(p, x, y, z, a, b):
    return p(p(x, a, y), b, z) == p(p(z, a, y), b, x)


def _medial(p, x, y, l, w, a, b, c):
    return p(p(x, a, y), b, p(l, c, w)) == p(p(x, a, l), b, p(y, c, w))


def _paramedial(p, x, y, l, w, a, b, c):
    return p(p(x, a, y), b, p(l, c, w)) == p(p(w, a, l), b, p(y, c, x))


def _ag_star_star(p, x, y, z, a, b):
    return p(x, a, p(y, b, z)) == p(y, a, p(x, b, z))


@pytest.mark.parametrize(
    "decide, n_elements, n_ops, law",
    [
        (is_left_invertive, 3, 2, _left_invertive),
        (is_medial, 4, 3, _medial),
        (is_paramedial, 4, 3, _paramedial),
        (is_ag_star_star, 3, 2, _ag_star_star),
    ],
    ids=["left-invertive", "medial", "paramedial", "ag-star-star"],
)
@settings(max_examples=150, deadline=None)
@given(g=models())
def test_witness_is_least_violation(decide, n_elements, n_ops, law, g):
    chk = decide(g)
    bad = _brute_violations(g, n_elements, n_ops, law)
    if chk:
        assert bad == []
    else:
        assert chk.witness == min(bad)


# --- reference routes: the plain loops ---------------------------------------

def _reference_four_variable_sweep(g, law, swap):
    # The medial law, or with swap the paramedial one, by the plain loop
    # over (x, y, l, w, a, b, c) in lexicographic order.
    n, m_, t = g.n, g.m, g.table
    for x in range(n):
        for y in range(n):
            for l in range(n):
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
    return LawCheck(law, True)


LAWS = (
    ("left-invertive", is_left_invertive),
    ("medial", is_medial),
    ("ag-star-star", is_ag_star_star),
    ("paramedial", is_paramedial),
)


def _reference_witnesses(g):
    """{law: least violation, or None where the law holds}, by the plain loops."""
    return {
        "left-invertive": min(_brute_violations(g, 3, 2, _left_invertive), default=None),
        "medial": _reference_four_variable_sweep(g, "medial", False).witness,
        "ag-star-star": min(_brute_violations(g, 3, 2, _ag_star_star), default=None),
        "paramedial": _reference_four_variable_sweep(g, "paramedial", True).witness,
    }


def _check_against_references(g):
    """Each decider, `holds` and `axiom_profile` agree with the reference
    routes on g; returns the reference witnesses."""
    refs = _reference_witnesses(g)
    profile = axiom_profile(g).to_json_obj()
    for law, decide in LAWS:
        chk = decide(g)
        assert (chk.law, chk.holds, chk.witness) == (law, refs[law] is None, refs[law]), g.table
        assert holds(g, law) == profile[law] == chk.holds, (law, g.table)
    return refs


def _difference_table(n, m, shift, low=0):
    """x *_k y = low + (y - x + shift*k) mod (n - low) on the elements >= low,
    and 0 whenever x or y is below low.  All four laws hold: on the top
    elements as on Z/(n - low), and below them both sides are 0."""
    top = n - low
    return [
        0 if min(x, y) < low else low + (y - x + shift * k) % top
        for x in range(n) for k in range(m) for y in range(n)
    ]


@pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (1, 3), (2, 3)])
def test_four_variable_laws_match_reference_on_every_table(n, m):
    # All four laws, despite the name.
    for g in all_models(n, m):
        _check_against_references(g)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
def test_four_variable_laws_match_reference_on_law_families(n, m):
    # All four laws, despite the name.  Random tables almost never
    # satisfy any of them, so these families reach the path where the
    # law holds and the paths where it fails only late: one changed last
    # cell makes l = w = n - 1 in the first medial and paramedial
    # violation, and with the lower elements sent to 0 its x is n - 3.
    for shift, low in ((0, 0), (1, 0), (1, max(n - 3, 0))):
        flat = _difference_table(n, m, shift, low)
        refs = _check_against_references(GammaGroupoid(n, m, tuple(flat)))
        assert set(refs.values()) == {None}
        if n - low < 2:
            continue
        flat[-1] = low + (flat[-1] - low + 1) % (n - low)
        refs = _check_against_references(GammaGroupoid(n, m, tuple(flat)))
        assert None not in refs.values()
        assert refs["medial"][0] == refs["paramedial"][0] == low


def _lemma_tables():
    """Every table at (n <= 3, m = 1) and (n <= 2, m <= 3), then every ag
    class at n <= 4 (m = 1) and n <= 3 (m = 2)."""
    for n, m in ((1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (1, 3), (2, 3)):
        yield from all_models(n, m)
    for n, m in ((1, 1), (2, 1), (3, 1), (4, 1), (1, 2), (2, 2), (3, 2)):
        yield from enumerate_models(SearchSpec(n=n, m=m)).models


def test_left_invertive_implies_medial():
    checked = 0
    for g in _lemma_tables():
        if holds(g, "left-invertive"):
            assert holds(g, "medial"), g.table
            checked += g.n >= 3
    assert checked >= 331  # the ag classes at n = 4 alone


def test_left_invertive_and_ag_star_star_imply_paramedial():
    checked = 0
    for g in _lemma_tables():
        if holds(g, "left-invertive") and holds(g, "ag-star-star"):
            assert holds(g, "paramedial"), g.table
            checked += g.n >= 3
    assert checked >= 101  # the agss classes at n = 4 alone


_LAWS = ("left-invertive", "medial", "ag-star-star", "paramedial")


def test_axiom_profile_matches_direct_decisions():
    # axiom_profile reads medial and paramedial off the lemmas above where
    # they apply; on every lemma table that agrees with deciding each law.
    for g in _lemma_tables():
        p = axiom_profile(g)
        got = (p.left_invertive, p.medial, p.ag_star_star, p.paramedial)
        assert got == tuple(holds(g, law) for law in _LAWS), g.table


@pytest.mark.parametrize(
    "g,medial_runs,paramedial_runs",
    [
        (GammaGroupoid(3, 1, (0, 0, 0, 0, 0, 0, 1, 0, 0)), 0, 1),
        (GammaGroupoid(3, 1, (0, 1, 2, 2, 0, 1, 1, 2, 0)), 0, 0),  # y - x mod 3
        (LEFT_PROJ, 1, 1),
    ],
    ids=["li-only", "li-agss", "not-li"],
)
def test_axiom_profile_skips_implied_laws(monkeypatch, g, medial_runs, paramedial_runs):
    # The left invertive and ag-star-star kernels always run; the medial
    # and paramedial ones only where the lemmas do not decide them.
    runs = dict.fromkeys(_LAWS, 0)

    def counted(law, kernel):
        def run(g):
            runs[law] += 1
            return kernel(g)
        return run

    kernels = {law: counted(law, k) for law, k in model._KERNELS.items()}
    monkeypatch.setattr(model, "_KERNELS", kernels)
    axiom_profile(g)
    assert runs == {"left-invertive": 1, "medial": medial_runs,
                    "ag-star-star": 1, "paramedial": paramedial_runs}


def test_from_tables_product_tables_round_trip(m5):
    nested = m5.tables()
    again = GammaGroupoid.from_tables(
        nested, element_labels=m5.element_labels, gamma_labels=m5.gamma_labels
    )
    assert again == m5
    for x in range(m5.n):
        for y in range(m5.n):
            assert m5.product(x, 0, y) == nested[0][x][y]


def test_flat_layout_matches_product():
    g = GammaGroupoid(2, 2, (0, 1, 1, 0, 1, 0, 0, 1))
    for x in range(2):
        for k in range(2):
            for y in range(2):
                assert g.product(x, k, y) == g.table[(x * 2 + k) * 2 + y]


def test_validation_errors():
    with pytest.raises(ValueError):
        GammaGroupoid(0, 1, ())
    with pytest.raises(ValueError):
        GammaGroupoid(2, 0, ())
    with pytest.raises(ValueError):
        GammaGroupoid(2, 1, (0, 0, 0))
    with pytest.raises(ValueError):
        GammaGroupoid(2, 1, (0, 0, 0, 2))
    with pytest.raises(ValueError):
        GammaGroupoid(2, 1, (0,) * 4, element_labels=("a",))
    # Duplicate labels would serialize to a document the parser refuses.
    with pytest.raises(ValueError):
        GammaGroupoid(2, 1, (0,) * 4, element_labels=("a", "a"))
    with pytest.raises(ValueError):
        GammaGroupoid(1, 2, (0, 0), gamma_labels=["g", "g"])
    with pytest.raises(ValueError):
        GammaGroupoid.from_tables([])
    with pytest.raises(ValueError):
        GammaGroupoid.from_tables([[[0, 0], [0]]])
    # A float, str or bool, which index a tuple badly or pass as 0 or 1.
    for n, m, table in (
        (2, 1, (0.0, 1, 1, 0)),
        (2, 1, (False, 1, 1, 0)),
        (2, 1, ("0", 1, 1, 0)),
        (2.0, 1, (0, 1, 1, 0)),
        (2, 1.0, (0, 1, 1, 0)),
        (True, 1, (0,)),
        (2, True, (0, 1, 1, 0)),
    ):
        with pytest.raises(ValueError):
            GammaGroupoid(n, m, table)


@pytest.mark.parametrize("field", ["element_labels", "gamma_labels"])
@pytest.mark.parametrize(
    "bad",
    [("#a", "b"), ("a b", "c"), ("", "b"), (1, 2), ("a", 1), "ab", ""],
    ids=["hash", "space", "empty", "ints", "mixed", "bare-string", "empty-string"],
)
def test_labels_the_text_format_cannot_carry_are_refused(field, bad):
    # Built, such a model would serialize to a document no reader takes
    # back ('#a' opens a comment, 'a b' reads as two names), or break the
    # JSON report (an int label); a bare string would be read as one
    # label per character.
    with pytest.raises(ValueError):
        GammaGroupoid(2, 2, (0,) * 8, **{field: bad})
    with pytest.raises(ValueError):
        GammaGroupoid.from_tables([[[0, 0], [0, 0]]] * 2, **{field: bad})


def test_product_index_errors(m5):
    with pytest.raises(ValueError):
        m5.product(5, 0, 0)
    with pytest.raises(ValueError):
        m5.product(0, 1, 0)
    with pytest.raises(ValueError):
        m5.product(0, 0, -1)


def test_all_models_order_and_count():
    seen = list(all_models(2, 1))
    assert len(seen) == 16
    assert seen[0].table == (0, 0, 0, 0)
    assert seen[-1].table == (1, 1, 1, 1)
    assert len(set(m.table for m in seen)) == 16


def test_default_labels():
    g = GammaGroupoid(3, 2, (0,) * 18)
    assert g.element_labels == ("a", "b", "c")
    assert g.gamma_labels == ("g0", "g1")


def test_list_table_and_labels_are_stored_as_tuples():
    # A list does not hash, and the suite caches per model; stored as
    # tuples, the model builds, verifies and round-trips.
    g = GammaGroupoid(2, 1, [0, 1, 1, 0], element_labels=["p", "q"], gamma_labels=["o"])
    assert (g.table, g.element_labels, g.gamma_labels) == ((0, 1, 1, 0), ("p", "q"), ("o",))
    assert ideal_family(g, IdealKind.LEFT)
    assert len(run_suite(g)) == len(TheoremId)
    assert parse_model(serialize_model(g)) == g
