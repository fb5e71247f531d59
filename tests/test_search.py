"""Model enumeration up to isomorphism, canonical forms, hunts."""

import itertools
import json
import random
import subprocess
import sys

import pytest
from conftest import DATA_DIR, SCRIPTS_DIR, load_data, models
from hypothesis import given, settings
from hypothesis import strategies as st

from gag import (
    GammaGroupoid,
    SearchSpec,
    SizeGuardError,
    TheoremId,
    all_models,
    canonical_model,
    canonicalize,
    count_models,
    enumerate_models,
    find_counterexample,
    find_counterexamples,
)
from gag import cli, model_to_json_obj, oracles, search
from gag.oracles import naive_enumerate
from gag.search import AXIOM_SETS, compile_instances, spec_to_json_obj

AG = frozenset({"left-invertive"})
AGSS = frozenset({"left-invertive", "ag-star-star"})


# --- reference route: plain DFS and per-permutation canonical form ----------

def _reference_dfs(t, cell, total, n, pending):
    # Rescans every pending instance at every node and checks it once
    # both levels of cells are known.
    if cell == total:
        yield tuple(t)
        return
    for v in range(n):
        t[cell] = v
        nxt = []
        for inst in pending:
            i, s, p, j, q = inst
            a = t[i]
            b = t[j]
            if a >= 0 and b >= 0:
                a = t[a * s + p]
                b = t[b * s + q]
                if a >= 0 and b >= 0:
                    if a != b:
                        break
                    continue
            nxt.append(inst)
        else:
            yield from _reference_dfs(t, cell + 1, total, n, nxt)
    t[cell] = -1


def _reference_canonicalize(g):
    n, m, t = g.n, g.m, g.table
    best = None
    for p in itertools.permutations(range(n)):  # p[i] = old element at new slot i
        inv = [0] * n
        for new, old in enumerate(p):
            inv[old] = new
        for q in itertools.permutations(range(m)):
            cand = tuple(
                inv[t[(p[i] * m + q[k]) * n + p[j]]]
                for i in range(n)
                for k in range(m)
                for j in range(n)
            )
            if best is None or cand < best:
                best = cand
    return best


def _reference_forms(n, m, axioms):
    """The sorted canonical forms of every reference leaf."""
    total = n * n * m
    leaves = _reference_dfs([-1] * total, 0, total, n, compile_instances(n, m, axioms))
    return sorted({_reference_canonicalize(GammaGroupoid(n, m, flat)) for flat in leaves})


@pytest.mark.parametrize(
    "n,m,axioms",
    [(n, 1, ax) for n in (1, 2, 3, 4) for ax in (AG, AGSS)]
    + [(n, m, ax) for n, m in ((3, 2), (2, 2), (1, 3)) for ax in (AG, AGSS)],
    ids=lambda v: "agss" if v == AGSS else "ag" if v == AG else str(v),
)
def test_dfs_leaf_sequence_matches_reference(n, m, axioms):
    # The leaves are the canonical forms of the reference leaves, each
    # once, ascending.  Every watch, forcing and tie filing is undone on
    # the way back up, so afterwards the state is as freshly built, the
    # table aside.
    state = search._dfs_state(n, m, axioms)
    assert list(search._dfs(state)) == _reference_forms(n, m, axioms)
    assert state[1:] == search._dfs_state(n, m, axioms)[1:]


def _starting_with(forms, prefix):
    return [c for c in forms if c[: len(prefix)] == prefix]


def _pinned(state, prefix):
    forced = state[5]
    forced[:] = [*prefix, *[-1] * (len(forced) - len(prefix))]
    return state


def _dfs_leaves(n, m, axioms, prefixes):
    """The DFS's leaves with each prefix in turn pinned in `forced`,
    through one state.  Pinned cells take the forced-cell path from
    cell 0, so the DFS yields just the tables that start with the
    prefix.  Every watch, forcing and tie filing is undone on the way
    back up, so after each prefix the state is as freshly built with
    that prefix pinned, the table aside."""
    state = search._dfs_state(n, m, axioms)
    out = {}
    for prefix in prefixes:
        out[prefix] = list(search._dfs(_pinned(state, prefix)))
        assert state[1:] == _pinned(search._dfs_state(n, m, axioms), prefix)[1:], prefix
    return out


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("axioms", [AG, AGSS], ids=["ag", "agss"])
def test_dfs_matches_reference_on_every_prefix(m, axioms):
    # Prefixes in reverse order through one state: each prefix's leaves
    # must not depend on what ran before it.
    want = _reference_forms(3, m, axioms)
    prefixes = list(itertools.product(range(3), repeat=3))[::-1]
    for prefix, got in _dfs_leaves(3, m, axioms, prefixes).items():
        assert got == _starting_with(want, prefix), prefix


@pytest.mark.parametrize(
    "n,m,longest", [(2, 1, 4), (1, 3, 3), (3, 1, 5), (2, 2, 4)], ids=["n2", "n1m3", "n3", "n2m2"]
)
@pytest.mark.parametrize("axioms", [AG, AGSS], ids=["ag", "agss"])
def test_dfs_on_prefixes_of_every_length(n, m, longest, axioms):
    # Prefixes that end inside a row, fill it, run past it or fill the
    # whole table, longest first and shortest last through one state.
    want = _reference_forms(n, m, axioms)
    prefixes = [p for length in reversed(range(longest + 1))
                for p in itertools.product(range(n), repeat=length)]
    for prefix, got in _dfs_leaves(n, m, axioms, prefixes).items():
        assert got == _starting_with(want, prefix), prefix


@pytest.mark.parametrize("axioms", [AG, AGSS], ids=["ag", "agss"])
def test_dfs_on_a_prefix_that_fills_the_table(axioms):
    # Every cell is pinned: each instance is checked at its own cell and
    # the lex-leader ties alone decide whether the table is canonical.
    tables = list(itertools.product(range(2), repeat=4))
    for flat, got in _dfs_leaves(2, 1, axioms, tables).items():
        g = GammaGroupoid(2, 1, flat)
        holds = oracles._passes_axioms(g, axioms) and _reference_canonicalize(g) == flat
        assert got == ([flat] if holds else [])


@settings(max_examples=100, deadline=None)
@given(st.one_of(models(max_n=5, max_m=2), models(max_n=3, max_m=3)))
def test_canonicalize_matches_reference(g):
    assert canonicalize(g) == _reference_canonicalize(g)


def test_canonicalize_matches_reference_on_symmetric_tables():
    # Constant and projection tables are fixed by many relabelings, so
    # many of them tie for the least table.
    for n, m in [(1, 1), (1, 3), (3, 3), (5, 2), (6, 1)]:
        total = n * n * m
        for flat in [(0,) * total, tuple(x % n for x in range(total))]:
            g = GammaGroupoid(n, m, flat)
            assert canonicalize(g) == _reference_canonicalize(g)


def _relabel(g, perm, gperm):
    # perm[i] is the new name of old element i.
    n, m = g.n, g.m
    flat = [0] * (n * n * m)
    for x in range(n):
        for k in range(m):
            for y in range(n):
                flat[(perm[x] * m + gperm[k]) * n + perm[y]] = perm[
                    g.product(x, k, y)
                ]
    return GammaGroupoid(n, m, tuple(flat))


@settings(max_examples=150, deadline=None)
@given(models(max_n=4, max_m=2), st.randoms(use_true_random=False))
def test_canonical_form_is_isomorphism_invariant(g, rng):
    perm = list(range(g.n))
    gperm = list(range(g.m))
    rng.shuffle(perm)
    rng.shuffle(gperm)
    h = _relabel(g, perm, gperm)
    assert canonicalize(g) == canonicalize(h)


@settings(max_examples=100, deadline=None)
@given(models(max_n=4, max_m=2))
def test_canonicalize_is_idempotent(g):
    c = canonical_model(g)
    assert c.table == canonicalize(g)
    assert canonicalize(c) == c.table
    assert canonicalize(g) <= tuple(g.table)


def test_canonicalize_size_guard():
    # The guard fires before any relabeling table is built.
    search._relabelings.cache_clear()
    big = GammaGroupoid(7, 1, (0,) * 49)
    with pytest.raises(SizeGuardError):
        canonicalize(big)
    wide = GammaGroupoid(2, 4, (0,) * 16)
    with pytest.raises(SizeGuardError):
        canonicalize(wide)
    assert search._relabelings.cache_info().currsize == 0


def are_isomorphic(g1, g2):
    """Witness search for a bijection pair; independent of canonicalize."""
    if g1.n != g2.n or g1.m != g2.m:
        return False
    n, m = g1.n, g1.m
    for p in itertools.permutations(range(n)):
        for q in itertools.permutations(range(m)):
            if all(
                g2.table[(p[i] * m + q[k]) * n + p[j]] == p[g1.table[(i * m + k) * n + j]]
                for i in range(n)
                for k in range(m)
                for j in range(n)
            ):
                return True
    return False


@settings(max_examples=60, deadline=None)
@given(models(max_n=3, max_m=2), models(max_n=3, max_m=2))
def test_canonical_equality_iff_isomorphic(g1, g2):
    if (g1.n, g1.m) != (g2.n, g2.m):
        assert not are_isomorphic(g1, g2)
    else:
        assert are_isomorphic(g1, g2) == (canonicalize(g1) == canonicalize(g2))


def naive_enumerate_direct(n, m, axioms, filt):
    """Literal sweep of all n^(n*n*m) tables through the model-level law
    checks; the reference for the oracle's recombination route."""
    return sorted({
        canonicalize(g) for g in all_models(n, m)
        if oracles._passes_axioms(g, axioms) and search._passes_filter(g, filt)
    })


# Every space small enough for the direct sweep over all tables.
@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1)])
@pytest.mark.parametrize("axioms", [AG, AGSS])
def test_enumerator_matches_naive_oracle(n, m, axioms):
    for filt in ("any", "intra-regular", "non-intra-regular"):
        spec = SearchSpec(n=n, m=m, axioms=axioms, filter=filt)
        got = [g.table for g in enumerate_models(spec).models]
        want = naive_enumerate_direct(n, m, axioms, filt)
        assert got == want
        assert count_models(spec).count == len(want)


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (3, 1), (2, 2), (2, 3), (1, 3)])
def test_factored_oracle_matches_direct(n, m):
    for axioms in (AG, AGSS):
        for filt in ("any", "intra-regular", "non-intra-regular"):
            assert naive_enumerate(n, m, axioms, filt) == naive_enumerate_direct(n, m, axioms, filt)


def test_counts_match_frozen_fixture():
    for row in load_data("enum_counts.json")["counts"]:
        axioms = AGSS if row["axioms"] == "agss" else AG
        spec = SearchSpec(
            n=row["order"], m=row["gammas"], axioms=axioms, filter=row["filter"]
        )
        res = count_models(spec)
        assert res.count == row["count"], row
        assert not res.truncated


def test_enumeration_is_canonical_ascending_and_distinct():
    spec = SearchSpec(n=3, m=1, axioms=AGSS)
    got = enumerate_models(spec)
    tables = [g.table for g in got.models]
    assert len(tables) == 16
    assert tables == sorted(tables)
    assert len(set(tables)) == len(tables)
    for g in got.models:
        assert canonicalize(g) == g.table


def test_time_budget_truncates_to_a_subset():
    # The budget is spent before the second leaf, which sees it.
    full = {g.table for g in enumerate_models(SearchSpec(n=4, m=1)).models}
    assert len(full) == 331
    cut = enumerate_models(SearchSpec(n=4, m=1, time_budget=1e-9))
    assert cut.truncated
    assert cut.count == 1
    assert {g.table for g in cut.models} <= full


def _search_json(capsys, *flags):
    # `gag search --json`; the --workers value among the flags is
    # accepted and ignored, so it must not move any result
    assert cli.main(["search", "--json", *map(str, flags)]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("workers", [1, 2])
def test_time_budget_spent_after_the_last_leaf_is_not_a_truncation(capsys, workers):
    # One leaf: once it is in, nothing was cut short.
    res = _search_json(capsys, "--order", 1, "--count", "--time-budget", 1e-9, "--workers", workers)
    assert (res["count"], res["truncated"]) == (1, False)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize(
    "n, limit, truncated",
    [(1, 1, False), (3, 20, False), (3, 19, True)],
    ids=["n1-whole-space", "n3-whole-space", "n3-one-short"],
)
def test_limit_truncates_only_when_a_class_is_left_out(capsys, n, limit, truncated, workers):
    # The order-3 ag space has 20 classes: a limit it exactly fills
    # returns all of them untruncated; one less leaves a class out.
    res = _search_json(capsys, "--order", n, "--count", "--limit", limit, "--workers", workers)
    assert (res["count"], res["truncated"]) == (limit, truncated)


def _counting_leaves(monkeypatch):
    # Every leaf the DFS makes, counted as it is made: each item the
    # search's one _dfs call yields is a leaf.
    leaves = []
    real = search._dfs

    def counted(state):
        for flat in real(state):
            leaves.append(None)
            yield flat

    monkeypatch.setattr(search, "_dfs", counted)
    return leaves


def test_filter_any_builds_no_model(monkeypatch):
    # the leaves are the classes as they stand: no model, no filter call
    monkeypatch.setattr(search, "_passes_filter", None)
    assert count_models(SearchSpec(n=3, m=1)).count == 20


def test_limit_is_seen_at_the_next_leaf(monkeypatch):
    # The first leaf gives the one class allowed and the second shows
    # that one was left out; no further leaf is reached.
    leaves = _counting_leaves(monkeypatch)
    res = count_models(SearchSpec(n=5, m=1, axioms=AGSS, max_models=1))
    assert (res.count, res.truncated) == (1, True)
    assert 1 <= len(leaves) <= 2


def test_time_budget_is_seen_at_the_next_leaf(monkeypatch):
    # The clock passes the 1 s budget as soon as the first leaf is in.
    leaves = _counting_leaves(monkeypatch)
    monkeypatch.setattr(search.time, "monotonic", lambda: 2.0 if leaves else 0.0)
    res = enumerate_models(SearchSpec(n=3, m=1, axioms=AG, time_budget=1.0))
    assert (res.count, res.truncated) == (1, True)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize(
    "n, m, axiom, limit",
    [(4, 1, "ag", 50), (3, 2, "ag", 111), (5, 1, "agss", 3)],
    ids=["n4-ag", "n3m2-ag", "n5-agss"],
)
def test_limit_keeps_the_least_classes(capsys, n, m, axiom, limit, workers):
    # Classes are found in ascending canonical form, so a limit keeps
    # the least ones: a prefix of the full enumeration.
    full = enumerate_models(SearchSpec(n=n, m=m, axioms=AXIOM_SETS[axiom]))
    cut = _search_json(capsys, "--order", n, "--gammas", m, "--axiom", axiom,
                       "--limit", limit, "--workers", workers)
    assert cut["models"] == [model_to_json_obj(g) for g in full.models[:limit]]
    assert cut["truncated"] and not full.truncated


def test_max_models_prefix_of_full_run():
    full = enumerate_models(SearchSpec(n=3, m=1, axioms=AG))
    cut = enumerate_models(SearchSpec(n=3, m=1, axioms=AG, max_models=5))
    assert [g.table for g in cut.models] == [g.table for g in full.models][:5]
    assert not full.truncated


def test_hunt_finds_frozen_gap():
    res = find_counterexample(SearchSpec(n=3, m=1, axioms=AGSS), TheoremId.RINTL)
    assert res.found
    assert res.model.table == (0, 0, 0, 0, 0, 2, 0, 1, 0)
    assert res.report.status == "fail"
    assert res.report.counterexample.condition == "rintl:converse"


def test_hunt_exhausts_without_finding():
    for tid in (TheoremId.KI, TheoremId.AW):
        res = find_counterexample(SearchSpec(n=3, m=1, axioms=AGSS), tid)
        assert not res.found and res.model is None and res.report is None
        assert not res.truncated
    assert not find_counterexample(SearchSpec(n=1, m=1, axioms=AGSS), TheoremId.RINTL).found


def test_hunt_matches_frozen_hunt_fixture():
    frozen = load_data("gap_hunts.json")
    for tid in ("RINTL", "LRL"):
        row = frozen["findings"][tid]
        assert row["found"] is True
        res = find_counterexample(
            SearchSpec(n=row["order"], m=row["gammas"], axioms=AGSS), TheoremId.from_name(tid)
        )
        assert list(res.model.table) == row["table"]
        assert res.report.counterexample.condition == row["condition"]
    for tid in ("JI", "II", "IFFFF", "SLA2", "RSEMIPRIME_EQ"):
        assert frozen["findings"][tid]["found"] is False


def test_hunt_class_tallies_match_fixture():
    frozen = load_data("gap_hunts.json")
    for row in frozen["spaces"]:
        if row["order"] > 3:
            continue
        spec = SearchSpec(n=row["order"], m=row["gammas"], axioms=AGSS)
        assert count_models(spec).count == row["classes"], row


@pytest.mark.parametrize("n,m", [(3, 1), (3, 2)])
def test_one_walk_hunts_like_separate_hunts(n, m):
    # All 31 checks over one enumeration give what 31 single-check
    # hunts give, each of which enumerates the space again.
    space = enumerate_models(SearchSpec(n=n, m=m, axioms=AGSS))
    together = find_counterexamples(space, TheoremId)
    assert list(together) == list(TheoremId)
    for tid, got in together.items():
        alone = find_counterexample(SearchSpec(n=n, m=m, axioms=AGSS), tid)
        assert (got.model, got.report, got.scanned) == (alone.model, alone.report, alone.scanned)
    assert any(h.found for h in together.values())


def test_gap_hunt_fixture_refreezes_byte_identical(tmp_path, freezer):
    out = freezer.freeze("hunts", tmp_path)
    assert out.read_bytes() == (DATA_DIR / "gap_hunts.json").read_bytes()


def test_spec_validation():
    with pytest.raises(ValueError):
        SearchSpec(n=0, m=1)
    with pytest.raises(ValueError):
        SearchSpec(n=2, m=0)
    with pytest.raises(ValueError):
        SearchSpec(n=2, m=1, axioms=frozenset({"commutative"}))
    with pytest.raises(ValueError):
        SearchSpec(n=2, m=1, filter="bogus")
    with pytest.raises(ValueError):
        SearchSpec(n=2, m=1, max_models=0)
    with pytest.raises(ValueError):
        SearchSpec(n=2, m=1, time_budget=0.0)
    # counts must be integers; a NaN is not one, nor is a bool
    nan = float("nan")
    for bad in ({"n": 2.5}, {"m": nan}, {"max_models": 2.5}, {"max_models": nan},
                {"n": True}, {"m": True}, {"max_models": True}):
        with pytest.raises(ValueError, match="must be an integer"):
            SearchSpec(**{"n": 3, "m": 1, **bad})
    for bad in ("5", True):
        with pytest.raises(ValueError, match="must be a number"):
            SearchSpec(n=3, m=1, time_budget=bad)


def test_scan_refuses_oversized_carrier():
    with pytest.raises(SizeGuardError):
        enumerate_models(SearchSpec(n=7, m=1))


@pytest.mark.parametrize(
    "script, flags, flag",
    [
        ("census.py", "--max-order 7 --axiom agss --max-gammas 1", "--max-order"),
        ("census.py", "--max-order 1 --max-gammas 4", "--max-gammas"),
        ("hunt_gaps.py", "--max-order 7", "--max-order"),
        ("hunt_gaps.py", "--max-order 1 --max-gammas 4", "--max-gammas"),
    ],
)
def test_scripts_refuse_guarded_sizes_up_front(script, flags, flag):
    # Refused before any smaller space is enumerated: a usage error, not
    # a SizeGuardError traceback once orders 1-6 have run.
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS_DIR / script), *flags.split()],
        capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert flag in proc.stderr and "Traceback" not in proc.stderr


def test_filter_alias_normalized():
    # One spelling per filter: the old alias "not-intra-regular" is refused.
    with pytest.raises(ValueError, match="unknown filter 'not-intra-regular'"):
        SearchSpec(n=2, m=1, filter="not-intra-regular")
    obj = spec_to_json_obj(SearchSpec(n=2, m=1, filter="non-intra-regular"), "enumerate")
    assert obj["filter"] == "non-intra-regular"


def test_single_axiom_strong_law_search():
    # ag-star-star can be requested on its own; the enumerator must agree
    # with the naive oracle for that axiom set too.
    axioms = frozenset({"ag-star-star"})
    got = [g.table for g in enumerate_models(SearchSpec(n=2, m=1, axioms=axioms)).models]
    assert got == naive_enumerate_direct(2, 1, axioms, "any")
