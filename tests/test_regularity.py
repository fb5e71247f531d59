"""Element-wise intra-regularity witnesses and the subset-product oracle."""

from itertools import product as iproduct

from conftest import intra_oracle, models
from hypothesis import given, settings

from gag import (
    GammaGroupoid,
    IntraWitness,
    format_witness,
    intra_witness,
    is_intra_regular,
)

# Left invertive, not intra-regular: element 1 has no certificate.
GAP3 = GammaGroupoid(3, 1, (0, 0, 0, 0, 0, 2, 0, 1, 0))


def test_m5_witnesses_are_frozen(m5):
    expected = {
        0: (0, 0, 0, 0, 0),
        1: (1, 1, 0, 0, 0),
        2: (1, 2, 0, 0, 0),
        3: (1, 3, 0, 0, 0),
        4: (1, 4, 0, 0, 0),
    }
    for a, tup in expected.items():
        w = intra_witness(m5, a)
        assert (w.x, w.y, w.beta, w.delta, w.gamma) == tup


def test_m5_rendered_certificates(m5):
    rep = is_intra_regular(m5)
    assert rep.holds and not rep.offenders
    lines = [format_witness(m5, a, w) for a, w in enumerate(rep.witnesses)]
    assert lines == [
        "a = (a.(a.a)).a",
        "b = (b.(b.b)).b",
        "c = (b.(c.c)).c",
        "d = (b.(d.d)).d",
        "e = (b.(e.e)).e",
    ]


def test_m5_fixed_certificates_validate(m5):
    # Independently chosen certificates: a = (x.(a.a)).y instantiations
    # that must all evaluate back to a.
    def ev(x, a, y):
        return m5.product(m5.product(x, 0, m5.product(a, 0, a)), 0, y)

    a, b, c, d, e = range(5)
    assert ev(a, a, a) == a
    assert ev(c, b, e) == b
    assert ev(d, c, e) == c
    assert ev(c, d, c) == d
    assert ev(b, e, e) == e


def test_witness_defines_certificate(m5):
    w = intra_witness(m5, 2)
    lhs = m5.product(
        m5.product(w.x, w.beta, m5.product(2, w.delta, 2)), w.gamma, w.y
    )
    assert lhs == 2


def _brute_witnesses(g, a):
    out = []
    for x, y, beta, delta, gamma in iproduct(
        range(g.n), range(g.n), range(g.m), range(g.m), range(g.m)
    ):
        inner = g.product(x, beta, g.product(a, delta, a))
        if g.product(inner, gamma, y) == a:
            out.append((x, y, beta, delta, gamma))
    return out


@settings(max_examples=200)
@given(models())
def test_witness_is_lex_least(g):
    for a in range(g.n):
        brute = _brute_witnesses(g, a)
        w = intra_witness(g, a)
        if not brute:
            assert w is None
        else:
            assert (w.x, w.y, w.beta, w.delta, w.gamma) == min(brute)


@settings(max_examples=200)
@given(models())
def test_witness_iff_oracle(g):
    # The direct search and the subset-product membership route agree.
    for a in range(g.n):
        assert (intra_witness(g, a) is not None) == intra_oracle(g, a)


@settings(max_examples=150)
@given(models())
def test_report_is_consistent(g):
    rep = is_intra_regular(g)
    assert len(rep.witnesses) == g.n
    assert rep.holds == (rep.offenders == ())
    assert bool(rep) == rep.holds
    for a in rep.offenders:
        assert rep.witnesses[a] is None


def test_offenders_on_gap_model():
    rep = is_intra_regular(GAP3)
    assert not rep.holds
    assert rep.offenders == (1, 2)
    assert rep.witnesses[0] is not None


def test_format_witness_multi_operator():
    g = GammaGroupoid(2, 2, (0, 1, 1, 0, 1, 0, 0, 1))
    rep = is_intra_regular(g)
    assert rep.holds
    lines = [format_witness(g, a, w) for a, w in enumerate(rep.witnesses)]
    assert lines == [
        "a = (a g0 (a g0 a)) g0 a",
        "b = (a g0 (b g0 b)) g1 a",
    ]
