"""Theorem suite: statuses, guards, counterexample revalidation."""

import hashlib
import json
import random

import pytest
from conftest import load_data, two_sided_ideals_by_filter

from gag import (
    GammaGroupoid,
    IdealKind,
    Subset,
    TheoremId,
    all_models,
    all_nonempty_subsets,
    axiom_profile,
    revalidate_counterexample,
    run_check,
    run_suite,
    serialize_model,
    suite_exit_code,
    suite_to_json_obj,
)
from gag import theorems
from gag.theorems import Counterexample, model_hash

# Left invertive and strong, but not intra-regular; elements 1 and 2
# have no certificate.  Smallest model exhibiting converse failures.
GAP3 = GammaGroupoid(3, 1, (0, 0, 0, 0, 0, 2, 0, 1, 0))

# Fails the left invertive law outright (left projection).
NOT_LI = GammaGroupoid.from_tables([[[0, 0], [1, 1]]])

# Left invertive but not strong (fails x*(y*z) == y*(x*z)).
LI_ONLY = GammaGroupoid(3, 1, (0, 0, 0, 0, 0, 0, 1, 0, 0))

# Checks whose statement quantifies over intra-regularity itself, so
# they run on any left invertive strong model.
UNGUARDED = {
    TheoremId.JI,
    TheoremId.JI_COR,
    TheoremId.II,
    TheoremId.IFFFF,
    TheoremId.SLA2,
    TheoremId.RSEMIPRIME_EQ,
    TheoremId.RINTL,
    TheoremId.LRL,
}


def test_theorem_id_roster():
    assert len(list(TheoremId)) == 31
    assert TheoremId.from_name("ji") is TheoremId.JI
    assert TheoremId.from_name("RINTL") is TheoremId.RINTL
    assert TheoremId.from_name("rsemiprime-eq") is TheoremId.RSEMIPRIME_EQ
    assert TheoremId.from_name("total_order") is TheoremId.TOTAL_ORDER
    with pytest.raises(ValueError):
        TheoremId.from_name("no-such-check")


def test_m5_suite_matches_frozen_fixture(m5):
    frozen = load_data("m5_suite.json")
    got = suite_to_json_obj(m5, run_suite(m5))
    assert got == frozen


def test_m5_suite_statuses(m5):
    reports = run_suite(m5)
    by = {r.theorem: r for r in reports}
    assert [r.theorem for r in reports] == list(TheoremId)
    assert by[TheoremId.JI].status == "vacuous"
    assert by[TheoremId.JI_COR].status == "vacuous"
    for t, r in by.items():
        if t not in (TheoremId.JI, TheoremId.JI_COR):
            assert r.status == "pass", t
        assert r.counterexample is None
    assert suite_exit_code(reports) == 0


def test_suite_is_deterministic(m5):
    a = json.dumps(suite_to_json_obj(m5, run_suite(m5)), sort_keys=True)
    b = json.dumps(suite_to_json_obj(m5, run_suite(m5)), sort_keys=True)
    assert a == b


def test_order_one_model_all_pass():
    g = GammaGroupoid(1, 1, (0,))
    reports = run_suite(g)
    assert all(r.status in ("pass", "vacuous") for r in reports)
    assert suite_exit_code(reports) == 0


def test_non_left_invertive_model_skips_everything():
    reports = run_suite(NOT_LI)
    assert all(r.status == "skipped" for r in reports)
    assert all(r.reason == "left invertive law fails" for r in reports)
    assert suite_exit_code(reports) == 3


def test_weak_model_skips_everything():
    from gag import axiom_profile

    p = axiom_profile(LI_ONLY)
    assert p.left_invertive and not p.ag_star_star
    reports = run_suite(LI_ONLY)
    assert all(r.status == "skipped" for r in reports)
    assert all(r.reason == "ag-star-star law fails" for r in reports)


def test_intra_guard_skips_only_guarded_checks():
    reports = run_suite(GAP3)
    for r in reports:
        if r.theorem in UNGUARDED:
            assert r.status != "skipped", r.theorem
        else:
            assert r.status == "skipped", r.theorem
            assert r.reason == "model is not intra-regular"


def test_gap_model_converse_failures():
    by = {r.theorem: r for r in run_suite(GAP3)}
    rintl = by[TheoremId.RINTL]
    assert rintl.status == "fail"
    assert rintl.counterexample.condition == "rintl:converse"
    assert rintl.counterexample.get("offender") == 1

    lrl = by[TheoremId.LRL]
    assert lrl.status == "fail"
    assert lrl.counterexample.condition == "lrl:iii-not-ii"
    assert suite_exit_code(run_suite(GAP3)) == 2


def test_fail_counterexamples_revalidate():
    for r in run_suite(GAP3):
        if r.status == "fail":
            assert revalidate_counterexample(GAP3, r.counterexample)


def test_tampered_counterexample_does_not_revalidate():
    from gag import Counterexample

    by = {r.theorem: r for r in run_suite(GAP3)}
    cx = by[TheoremId.RINTL].counterexample
    # Element 0 does have a certificate, so it is no offender.
    forged = Counterexample(cx.condition, (("offender", 0),))
    assert not revalidate_counterexample(GAP3, forged)
    unknown = Counterexample("no-such:condition", ())
    with pytest.raises(KeyError):
        revalidate_counterexample(GAP3, unknown)


def test_counterexamples_revalidate_after_json_round_trip():
    from gag import Counterexample

    for r in run_suite(GAP3):
        if r.status != "fail":
            continue
        obj = json.loads(json.dumps(r.to_json_obj()))
        cx = obj["counterexample"]
        rebuilt = Counterexample(
            cx["condition"], tuple((k, v) for k, v in cx["data"].items())
        )
        assert revalidate_counterexample(GAP3, rebuilt)


def test_family_masks_built_once_per_family(m5):
    # The checks name a family by IdealKind or by its string value; both
    # spellings share one mask set, so the paper example holds one per
    # family of the nine-way equivalence, and asking again by either
    # spelling builds nothing new.
    run_suite(m5)
    ctx = theorems._ctx(m5)
    built = dict(ctx._masks)
    assert sorted(built) == sorted(theorems._EQUALIENT)
    for name, masks in built.items():
        assert masks == {a.mask for a in ctx.family(name)}
        spellings = [name] if name == "fixed" else [name, IdealKind(name)]
        for kind in spellings:
            assert ctx.masks(kind) is masks
    assert ctx._masks == built


def test_context_reads_products_from_the_model_memo():
    # _Ctx keeps no products of its own: a product it hands out is the
    # model memo's entry, so a doctored entry comes back as it is.
    g = GammaGroupoid(3, 1, (0, 0, 0, 0, 0, 2, 0, 1, 0))
    c = theorems._Ctx(g)
    a, s = Subset.singleton(3, 1), Subset.full(3)
    assert c.prod(a, s) == Subset(3, 0b101)
    memo = g.product_masks.memo
    assert memo == {(a.mask, s.mask): 0b101}
    memo[a.mask, s.mask] = 0b010
    assert c.prod(a, s) == Subset(3, 0b010)


def test_run_check_selection(m5):
    r = run_check(m5, TheoremId.LI)
    assert r.theorem is TheoremId.LI and r.status == "pass"
    picked = run_suite(m5, selection=[TheoremId.KI, TheoremId.AW])
    assert [p.theorem for p in picked] == [TheoremId.KI, TheoremId.AW]


def test_run_suite_agrees_with_run_check_on_corpus():
    # run_suite enters one context and runs the table; run_check looks the
    # context up per check.  A shuffled selection still comes back in
    # TheoremId order.
    rng = random.Random(23)
    for row in load_data("verify_outputs.json")["models"]:
        g = GammaGroupoid(row["order"], row["gammas"], tuple(row["table"]))
        theorems._ctx.cache_clear()
        reports = run_suite(g)
        theorems._ctx.cache_clear()
        assert reports == [run_check(g, t) for t in TheoremId], row["table"]
        picked = rng.sample(list(TheoremId), rng.randint(1, len(TheoremId)))
        assert run_suite(g, picked) == [r for r in reports if r.theorem in picked]


def test_suite_computes_intra_regularity_only_past_the_ag_star_star_guard(monkeypatch):
    # Every check stops at the AG** guard on a left invertive model that
    # is not AG**, so the suite never asks whether it is intra-regular;
    # an AG** model asks once for all its checks.
    calls = []
    real = theorems.is_intra_regular

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(theorems, "is_intra_regular", counted)
    corpus = [GammaGroupoid(row["order"], row["gammas"], tuple(row["table"]))
              for row in load_data("verify_outputs.json")["models"]]
    profiles = [(g, axiom_profile(g)) for g in corpus]
    li_only = next(g for g, p in profiles if p.left_invertive and not p.ag_star_star)
    agss = next(g for g, p in profiles if p.ag_star_star)
    for g, expected in ((li_only, 0), (agss, 1)):
        theorems._ctx.cache_clear()
        calls.clear()
        run_suite(g)
        assert len(calls) == expected, g.table
    theorems._ctx.cache_clear()


def test_report_json_obj_shape(m5):
    r = run_check(m5, TheoremId.JI)
    obj = r.to_json_obj()
    assert obj["id"] == "JI"
    assert obj["status"] == "vacuous"
    assert "instances-checked" in obj
    # No counterexample key unless there is one.
    assert "counterexample" not in obj
    failed = run_check(GAP3, TheoremId.RINTL).to_json_obj()
    assert failed["status"] == "fail"
    assert failed["counterexample"]["condition"] == "rintl:converse"


def test_suite_exit_code_rules(m5):
    assert suite_exit_code(run_suite(m5)) == 0
    assert suite_exit_code(run_suite(GAP3)) == 2
    assert suite_exit_code(run_suite(NOT_LI)) == 3
    # A mixed selection with skips but no fails still exits 0.
    mixed = run_suite(GAP3, selection=[TheoremId.KI, TheoremId.II])
    assert suite_exit_code(mixed) == 0


def test_model_hash_is_sha256_of_serialization(m5):
    digest = hashlib.sha256(serialize_model(m5).encode()).hexdigest()
    assert model_hash(m5) == digest
    frozen = load_data("m5_suite.json")
    assert frozen["model-hash"] == digest


def test_instances_counted(m5):
    # JI quantifies its hypothesis over all 5 elements twice over.
    r = run_check(m5, TheoremId.JI)
    assert r.instances == 10


@pytest.fixture
def guards_open(freezer):
    """Every guard forced open, by the freezer's own context manager."""
    with freezer.guards_open():
        yield


def test_guard_open_suite_matches_frozen_fixture(guards_open):
    # The only fixture that reaches most fail paths: every check runs
    # on tables outside its guard.
    for entry in load_data("guard_open_suite.json")["models"]:
        g = GammaGroupoid(entry["order"], entry["gammas"], tuple(entry["table"]))
        got = suite_to_json_obj(g, run_suite(g))
        assert json.dumps(got, indent=2) == json.dumps(entry["suite"], indent=2)
        for r in got["reports"]:
            cx = r.get("counterexample")
            if cx:
                replay = Counterexample(cx["condition"], tuple(cx["data"].items()))
                assert revalidate_counterexample(g, replay), cx


# Cyclic group of order 3: left invertive, ag-star-star and
# intra-regular; its only ideal is the whole carrier.
CYCLIC3 = GammaGroupoid(3, 1, (0, 1, 2, 1, 2, 0, 2, 0, 1))


def test_made_up_counterexamples_do_not_revalidate(m5):
    # TOTAL_ORDER and LRL pass on the paper example, whose only two-sided
    # ideals are (0,) and the full set; none of these witnesses is real.
    forged = [
        (m5, "total-order:not-prime", (("P", (0, 1)), ("A", (0, 2)), ("B", (0, 2)))),
        (m5, "total-order:incomparable", (("P", (0,)), ("Q", (1,)))),
        (m5, "lrl:iii-not-ii",
         (("R", (0, 1, 2)), ("L", (0, 2)), ("intersection", ()), ("product", ()))),
        (CYCLIC3, "lrl:ii-not-iii",
         (("R", (0, 1)), ("L", (1,)), ("intersection", ()), ("product", ()))),
    ]
    for g, condition, data in forged:
        assert not revalidate_counterexample(g, Counterexample(condition, data)), condition


COMPUTED_FIELDS = ("lhs", "product", "square", "got", "intersection", "reversed", "K")


def test_changed_computed_field_does_not_revalidate(guards_open):
    tampered = 0
    for entry in load_data("guard_open_suite.json")["models"]:
        g = GammaGroupoid(entry["order"], entry["gammas"], tuple(entry["table"]))
        for r in entry["suite"]["reports"]:
            cx = r.get("counterexample")
            for name in COMPUTED_FIELDS if cx else ():
                if name not in cx["data"]:
                    continue
                other = sorted(set(cx["data"][name]) ^ {0})
                data = dict(cx["data"], **{name: other})
                forged = Counterexample(cx["condition"], tuple(data.items()))
                assert not revalidate_counterexample(g, forged), (cx, name)
                tampered += 1
    assert tampered > 0


# Every condition a fail report can name, frozen so that the table
# cannot silently drop one.
CONDITIONS = {
    "ji:not-intra-regular", "ji-cor:s-times-a",
    "ki:product-identity", "ki-cor:product-identity",
    "aw:product-identity", "aw-cor:product-identity",
    "jk:s-times-s", "lisr:left-right-mismatch",
    "biiid:forward", "biiid:converse",
    "t-one-two:forward", "t-one-two:converse",
    "t-interior:forward", "t-interior:converse",
    "t-quasi:forward", "t-quasi:converse",
    "t12:forward", "t12:converse", "plo:forward", "plo:converse",
    "bint:forward", "bint:converse", "quo:forward", "quo:converse",
    "li:forward", "li:converse", "equalient:family-mismatch",
    "ii:forward", "ii:converse",
    "idl:empty-intersection", "idl:not-ideal", "ij:product-intersection",
    "iffff:forward", "iffff:converse", "sla2:forward", "sla2:converse",
    "rlt:elementwise", "rsemiprime:forward", "rsemiprime:converse",
    "rintl:forward", "rintl:converse",
    "lrl:i-not-ii", "lrl:i-not-iii", "lrl:ii-not-iii", "lrl:iii-not-ii", "lrl:not-intra",
    "prime-irr:mismatch", "total-order:incomparable", "total-order:not-prime",
    "semilattice:closure", "semilattice:commutative", "semilattice:idempotent",
    "minimal:no-decomposition", "minimal:intersection-not-minimal",
}


def test_revalidation_accepts_exactly_the_frozen_conditions():
    assert len(CONDITIONS) == 54
    assert set(theorems._CONDITIONS) == CONDITIONS
    for condition in CONDITIONS:
        # known condition, missing witness: rejected, not a KeyError
        assert not revalidate_counterexample(GAP3, Counterexample(condition, ()))


def _small_tables():
    """Every table with n <= 3 (one operator) and n <= 2 (two operators)."""
    for n, m in ((1, 1), (2, 1), (3, 1), (1, 2), (2, 2)):
        yield from all_models(n, m)


def test_subset_clauses_fire_only_on_candidates(guards_open):
    # The per-subset stages sweep only the candidate families; on any
    # other subset, subgroupoids included, no clause may fire.
    clauses = [
        clause
        for check in theorems._CHECKS.values()
        for domain, stage in check.stages if domain is theorems._SUBSETS
        for clause in stage
    ]
    assert len(clauses) == 19
    tables = outside = 0
    for g in _small_tables():
        tables += 1
        c = theorems._Ctx(g)
        candidates = set(theorems._candidates(c))
        for a in all_nonempty_subsets(g):
            if a not in candidates:
                hits = [cl.condition for cl in clauses if cl.test(c, a) is not None]
                assert not hits, (g.table, a.members(), hits)
                outside += 1
    assert outside > tables


def test_minimal_ideal_matches_powerset_definition():
    tables = minimal = 0
    for g in _small_tables():
        tables += 1
        ideals = two_sided_ideals_by_filter(g)
        for q in all_nonempty_subsets(g):
            want = q in ideals and not any(p < q for p in ideals)
            assert theorems._is_minimal_ideal(g, q) == want, (g.table, q.members())
            minimal += want
    # two minimal ideals I, J would meet in I*J, so each table has one
    assert minimal == tables
