"""Acceptance gate: seven end-to-end criteria, one test each.

Each test prints a single PASS line on success; a failing assertion is
the FAIL line.  Runtime bounds are asserted, not just wished for.
"""

import json
import random
import time
from itertools import product as iproduct

from conftest import intra_oracle, load_data

from gag import (
    GammaGroupoid,
    SearchSpec,
    TheoremId,
    all_models,
    enumerate_models,
    find_counterexample,
    intra_witness,
    is_intra_regular,
    is_left_invertive,
    is_medial,
    revalidate_counterexample,
    run_suite,
)
from gag.cli import main as cli_main
from gag.oracles import naive_enumerate

AG = frozenset({"left-invertive"})
AGSS = frozenset({"left-invertive", "ag-star-star"})


def test_criterion_1_paper_example_reproduction(m5, capsys):
    start = time.monotonic()
    # Law profile, with the left invertive law brute-forced over all
    # 5*5*5 = 125 ground instances rather than trusted from the decider.
    violations = 0
    for x, y, z in iproduct(range(5), repeat=3):
        lhs = m5.product(m5.product(x, 0, y), 0, z)
        rhs = m5.product(m5.product(z, 0, y), 0, x)
        violations += lhs != rhs
    assert violations == 0
    assert is_left_invertive(m5)
    from gag import is_ag_star_star

    assert is_ag_star_star(m5)

    rep = is_intra_regular(m5)
    assert rep.holds and len(rep.witnesses) == 5

    # Fixed reference certificates, re-validated by direct table evaluation:
    # a = (a.a2).a, b = (c.b2).e, c = (d.c2).e, d = (c.d2).c, e = (b.e2).e
    def ev(x, a, y):
        return m5.product(m5.product(x, 0, m5.product(a, 0, a)), 0, y)

    a, b, c, d, e = range(5)
    assert ev(a, a, a) == a
    assert ev(c, b, e) == b
    assert ev(d, c, e) == c
    assert ev(c, d, c) == d
    assert ev(b, e, e) == e

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    with capsys.disabled():
        print(f"\nACCEPTANCE 1 example-model reproduction: PASS ({elapsed:.2f}s)")


def test_criterion_2_witness_oracle_agreement(capsys):
    start = time.monotonic()
    rng = random.Random(20260819)
    checked = 0
    for _ in range(1000):
        n = rng.randint(1, 4)
        m = rng.randint(1, 2)
        flat = tuple(rng.randrange(n) for _ in range(n * n * m))
        g = GammaGroupoid(n, m, flat)
        for x in range(n):
            assert (intra_witness(g, x) is not None) == intra_oracle(g, x)
            checked += 1
    elapsed = time.monotonic() - start
    assert checked >= 1000
    assert elapsed < 10.0
    with capsys.disabled():
        print(f"ACCEPTANCE 2 witness/oracle agreement on 1000 models: PASS ({elapsed:.2f}s)")


def test_criterion_3_left_invertive_implies_medial(capsys):
    start = time.monotonic()
    scanned = passed = 0
    for n, m in ((3, 1), (2, 2)):
        for g in all_models(n, m):
            scanned += 1
            if is_left_invertive(g):
                passed += 1
                assert is_medial(g), g.table
    elapsed = time.monotonic() - start
    assert scanned == 3 ** 9 + 2 ** 8
    assert passed > 0
    assert elapsed < 30.0
    with capsys.disabled():
        print(f"ACCEPTANCE 3 law derivation on {scanned} tables: PASS ({elapsed:.2f}s)")


def test_criterion_4_enumerator_matches_oracle(capsys):
    start = time.monotonic()
    rows = load_data("enum_counts.json")["counts"]
    assert len(rows) == 36
    for row in rows:
        axioms = AGSS if row["axioms"] == "agss" else AG
        spec = SearchSpec(
            n=row["order"], m=row["gammas"], axioms=axioms, filter=row["filter"]
        )
        fast = [g.table for g in enumerate_models(spec).models]
        slow = naive_enumerate(row["order"], row["gammas"], axioms, row["filter"])
        assert set(fast) == set(slow), row
        assert len(fast) == len(slow) == row["count"], row
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    with capsys.disabled():
        print(f"ACCEPTANCE 4 enumerator vs naive oracle, 36 spaces: PASS ({elapsed:.2f}s)")


def test_criterion_5_suite_on_enumerated_space(capsys):
    start = time.monotonic()
    named = [
        TheoremId.KI,
        TheoremId.AW,
        TheoremId.LISR,
        TheoremId.BIIID,
        TheoremId.T12,
        TheoremId.PLO,
        TheoremId.BINT,
        TheoremId.QUO,
        TheoremId.RLT,
        TheoremId.IJ,
        TheoremId.IDL,
        TheoremId.IFFFF,
        TheoremId.EQUALIENT,
        TheoremId.SEMILATTICE,
    ]
    classes = failures = 0
    for n in (1, 2, 3):
        for m in (1, 2):
            spec = SearchSpec(n=n, m=m, axioms=AGSS, filter="intra-regular")
            for g in enumerate_models(spec).models:
                classes += 1
                for r in run_suite(g, selection=named):
                    assert r.status == "pass", (g.table, r.theorem, r.reason)
                    failures += r.status == "fail"
    elapsed = time.monotonic() - start
    assert classes == 39 and failures == 0
    assert elapsed < 300.0
    with capsys.disabled():
        print(
            f"ACCEPTANCE 5 proved directions on {classes} intra-regular classes: "
            f"PASS ({elapsed:.2f}s)"
        )


def test_criterion_6_hunt_reports_revalidate(capsys, freezer):
    start = time.monotonic()
    hunted = [TheoremId.from_name(name) for name in freezer.HUNTED]
    finds = 0
    for n, m in ((3, 1), (3, 2), (4, 1)):
        for tid in hunted:
            res = find_counterexample(SearchSpec(n=n, m=m, axioms=AGSS), tid)
            if not res.found:
                continue
            finds += 1
            assert res.report.status == "fail"
            assert res.report.counterexample is not None
            assert revalidate_counterexample(res.model, res.report.counterexample)
    elapsed = time.monotonic() - start
    # The scanned spaces are known to hold converse gaps.
    assert finds >= 6
    with capsys.disabled():
        print(
            f"ACCEPTANCE 6 counterexample soundness, {finds} finds revalidated: "
            f"PASS ({elapsed:.2f}s)"
        )


def test_criterion_7_byte_identical_output(capsys):
    start = time.monotonic()

    def capture(argv):
        code = cli_main(argv)
        return code, capsys.readouterr().out

    code1, verify1 = capture(["verify", "@paper-example", "--json"])
    code2, verify2 = capture(["verify", "@paper-example", "--json"])
    assert code1 == code2 == 0
    assert verify1 == verify2

    base = ["search", "--order", "3", "--gammas", "1", "--filter", "intra-regular", "--json"]
    runs = [
        capture(base + ["--workers", "1"]),
        capture(base + ["--workers", "1"]),
        capture(base + ["--workers", "2"]),
        capture(base + ["--workers", "3"]),
    ]
    assert all(code == 0 for code, _ in runs)
    outs = {out for _, out in runs}
    assert len(outs) == 1
    json.loads(runs[0][1])
    elapsed = time.monotonic() - start
    with capsys.disabled():
        print(f"ACCEPTANCE 7 deterministic structured output: PASS ({elapsed:.2f}s)")
