"""Command line driver: exit codes, output formats, determinism."""

import gc
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import load_data
from hypothesis import given, settings
from hypothesis import strategies as st

from gag import GammaGroupoid, TheoremId, parse_model, parse_models, serialize_model
from gag.cli import _write_json, main
from gag.fixtures import PAPER_EXAMPLE_TOKEN

M5 = PAPER_EXAMPLE_TOKEN

# Left invertive and strong but not intra-regular.
GAP3_TEXT = serialize_model(GammaGroupoid(3, 1, (0, 0, 0, 0, 0, 2, 0, 1, 0)))
# Left projection: not left invertive.
NOT_LI_TEXT = serialize_model(GammaGroupoid.from_tables([[[0, 0], [1, 1]]]))


def run(capsys, *argv):
    # argparse exits via SystemExit on parse errors; fold that into the code.
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_text(capsys):
    code, out, _ = run(capsys, "check", M5)
    assert code == 0
    assert "elements: a b c d e" in out
    assert "left-invertive: true" in out
    assert "ag-star-star: true" in out
    assert "left-identities: b" in out


def test_check_json(capsys):
    code, out, _ = run(capsys, "check", M5, "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["profile"]["left-invertive"] is True
    assert obj["profile"]["left-identities"] == [1]
    assert obj["model"]["elements"] == ["a", "b", "c", "d", "e"]


def test_check_failing_model_exits_3(capsys, monkeypatch, tmp_path):
    path = tmp_path / "m.gag"
    path.write_text(NOT_LI_TEXT)
    code, out, _ = run(capsys, "check", str(path))
    assert code == 3
    assert "left-invertive: false" in out
    assert "[x=a y=a z=b gamma=g0 delta=g0]" in out
    assert "left-identities: none" in out


def test_check_reads_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(GAP3_TEXT))
    code, out, _ = run(capsys, "check", "-")
    assert code == 0
    assert "left-invertive: true" in out


def test_intra_text_and_exit(capsys, tmp_path):
    code, out, _ = run(capsys, "intra", M5)
    assert code == 0
    assert "intra-regular: true" in out
    assert "a = (a.(a.a)).a" in out
    assert "c = (b.(c.c)).c" in out

    path = tmp_path / "gap.gag"
    path.write_text(GAP3_TEXT)
    code, out, _ = run(capsys, "intra", str(path))
    assert code == 3
    assert "intra-regular: false" in out
    assert "b: no witness" in out


def test_intra_json(capsys):
    code, out, _ = run(capsys, "intra", M5, "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["intra-regular"] is True
    assert obj["witnesses"]["c"] == {
        "x": "b",
        "y": "c",
        "beta": "g0",
        "delta": "g0",
        "gamma": "g0",
        "rendered": "c = (b.(c.c)).c",
    }


def test_ideals_all_kinds(capsys):
    code, out, _ = run(capsys, "ideals", M5, "--kind", "all")
    assert code == 0
    assert "subgroupoid (7):" in out
    assert "two-sided (2):" in out
    assert (
        "coinciding: left = right = two-sided = bi = gbi = interior = quasi = one-two"
        in out
    )


def test_ideals_single_kind(capsys):
    code, out, _ = run(capsys, "ideals", M5, "--kind", "left")
    assert code == 0
    assert "left (2):" in out
    assert "{a}" in out and "{a, b, c, d, e}" in out


def test_ideals_generated(capsys):
    code, out, _ = run(
        capsys, "ideals", M5, "--kind", "left", "--generated-from", "b"
    )
    assert code == 0
    assert "{a, b, c, d, e}" in out
    code, out, _ = run(
        capsys, "ideals", M5, "--kind", "two-sided", "--generated-from", "a"
    )
    assert code == 0
    assert "{a}" in out


def test_ideals_generated_from_labels_with_commas(capsys, tmp_path):
    # A value that is a label names that one element; any other value is
    # a comma-separated list.
    path = tmp_path / "comma.gag"
    path.write_text("gag v1\nelements: a,b c\ngammas: g\ntable g:\na,b a,b\na,b c\n")
    seeds = {
        ("a,b",): ["a,b"],
        ("a,b", "c"): ["a,b", "c"],
    }
    for values, seed in seeds.items():
        flags = [f for v in values for f in ("--generated-from", v)]
        code, out, err = run(capsys, "ideals", str(path), "--kind", "left", *flags, "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["seed"] == seed
    code, out, _ = run(capsys, "ideals", M5, "--kind", "left", "--generated-from", "b,c", "--json")
    assert code == 0
    assert json.loads(out)["seed"] == ["b", "c"]


def test_ideals_dot(capsys):
    code, out, _ = run(capsys, "ideals", M5, "--kind", "two-sided", "--dot")
    assert code == 0
    assert out == (
        "digraph ideals {\n"
        "  rankdir=BT;\n"
        '  "{a}";\n'
        '  "{a, b, c, d, e}";\n'
        '  "{a}" -> "{a, b, c, d, e}";\n'
        "}\n"
    )


def test_ideals_dot_escapes_quotes_and_backslashes(capsys, tmp_path):
    path = tmp_path / "m.gag"
    path.write_text('gag v1\nelements: a" b\\\ngammas: g\ntable g:\na" a"\na" b\\\n')
    code, out, _ = run(capsys, "ideals", str(path), "--kind", "subgroupoid", "--dot")
    assert code == 0
    body = out.splitlines()[2:-1]
    assert body[0] == '  "{a\\"}";'
    for line in body:
        # every node ID is one well-formed DOT quoted string
        rest = re.sub(r'"(?:[^"\\]|\\.)*"', "ID", line)
        assert rest in ("  ID;", "  ID -> ID;"), line


def test_ideals_json(capsys):
    code, out, _ = run(capsys, "ideals", M5, "--kind", "quasi", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "quasi"
    assert obj["family"] == [["a"], ["a", "b", "c", "d", "e"]]


def test_verify_text(capsys):
    code, out, _ = run(capsys, "verify", M5)
    assert code == 0
    assert "31 checks: 29 pass, 2 vacuous" in out
    assert "JI" in out and "MINIMAL" in out


def test_verify_selection(capsys):
    code, out, _ = run(capsys, "verify", M5, "--theorem", "ki", "--theorem", "aw")
    assert code == 0
    assert "2 checks: 2 pass" in out


def test_verify_gap_model_exits_2(capsys, tmp_path):
    path = tmp_path / "gap.gag"
    path.write_text(GAP3_TEXT)
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 2
    assert "rintl:converse" in out


def test_verify_skipped_model_exits_3(capsys, tmp_path):
    path = tmp_path / "bad.gag"
    path.write_text(NOT_LI_TEXT)
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 3
    assert "skipped" in out


def test_verify_json_is_byte_deterministic(capsys):
    code, first, _ = run(capsys, "verify", M5, "--json")
    assert code == 0
    code, second, _ = run(capsys, "verify", M5, "--json")
    assert first == second
    obj = json.loads(first)
    assert len(obj["reports"]) == 31
    assert obj["axiom-profile"]["paramedial"] is True


def _written(obj) -> str:
    out: list[str] = []
    _write_json(obj, out)
    return "".join(out)


# quotes, backslashes and control characters, plus any code point,
# lone surrogates and non-ASCII text included
_JSON_TEXT = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f') | st.characters(exclude_categories=()))
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**400), 10**400) | _JSON_TEXT,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(_JSON_TEXT, inner),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_json_writer_matches_json_dumps(obj):
    # json.dumps(obj, indent=2) is the reference for every --json byte
    assert _written(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [1.5, [0, 2.0], {"a": float("nan")}, {1: "a"}, {None: 0}, {"a": {(1,): 0}}, {1, 2}])
def test_json_writer_rejects_floats_and_non_str_keys(obj):
    with pytest.raises(TypeError):
        _written(obj)


def test_json_calls_leave_no_cyclic_garbage(capsys):
    # the first call fills per-process caches; the second must leave
    # nothing for the collector
    for argv in (["verify", "--json", M5], ["check", "--json", M5], ["search", "--order", "3", "--json"]):
        run(capsys, *argv)
        gc.collect()
        gc.disable()
        try:
            assert run(capsys, *argv)[0] == 0
            assert gc.collect() == 0, argv
        finally:
            gc.enable()


def test_closed_stdout_exits_141_quietly(tmp_path):
    # the reader takes one line and closes the pipe; the search writes
    # about 95 kB, more than the pipe holds, so a later write fails
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    with open(tmp_path / "stderr", "w+b") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "gag.cli", "search", "--order", "5", "--axiom", "agss"],
            stdout=subprocess.PIPE, stderr=err, env=env,
        )
        try:
            assert proc.stdout.readline() == b"gag v1\n"
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=60)
        err.seek(0)
        assert (code, err.read()) == (141, b"")


def test_search_text_round_trips(capsys):
    code, out, _ = run(capsys, "search", "--order", "2")
    assert code == 0
    found = parse_models("".join(l + "\n" for l in out.splitlines() if not l.startswith("#")))
    assert len(found) == 3
    assert "# count=3 truncated=false" in out


def test_search_count(capsys):
    code, out, _ = run(capsys, "search", "--order", "3", "--axiom", "agss", "--count")
    assert code == 0
    assert "count=16" in out


def test_search_limit_truncates(capsys):
    code, out, _ = run(capsys, "search", "--order", "3", "--limit", "5", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 5
    assert obj["truncated"] is True
    assert obj["search"]["limit"] == 5


def test_search_json_stable_across_workers(capsys):
    args = ["search", "--order", "3", "--filter", "intra-regular", "--json"]
    code, one, _ = run(capsys, *args, "--workers", "1")
    assert code == 0
    code, two, _ = run(capsys, *args, "--workers", "2")
    assert one == two
    assert "workers" not in json.loads(one)["search"]


def test_search_runs_in_one_process():
    # --workers is accepted and ignored: no search loads multiprocessing
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys, gag.cli\n"
        "code = gag.cli.main(['search', '--order', '3', '--count', '--workers', '2'])\n"
        "sys.exit(code or 'multiprocessing' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().startswith("# count=20 truncated=false")


def test_search_hunt_found_exits_2(capsys):
    code, out, _ = run(
        capsys,
        "search",
        "--order",
        "3",
        "--axiom",
        "agss",
        "--find-counterexample",
        "rintl",
    )
    assert code == 2
    assert "found=true" in out
    assert "rintl:converse" in out


def test_search_hunt_clean_exits_0(capsys):
    code, out, _ = run(
        capsys,
        "search",
        "--order",
        "3",
        "--axiom",
        "agss",
        "--find-counterexample",
        "ki",
    )
    assert code == 0
    assert "found=false" in out


# The golden replays below run `gag` through the freezer's own
# `cli_digest`: main fed the given stdin, elapsed=...s masked, and
# (exit, stdout sha256) returned.


@pytest.mark.parametrize("row", load_data("large_suite.json")["models"], ids=lambda r: f"n{r['order']}")
def test_verify_large_matches_frozen_fixture(freezer, row):
    # x.y = y - x mod n at orders 9..16.
    text = serialize_model(freezer.difference_model(row["order"]))
    assert freezer.cli_digest(["verify", "--json", "-"], text) == (row["exit"], row["sha256"])


def test_verify_matches_frozen_corpus(freezer):
    # verify --json on every ag class with n <= 4 (m = 1) and n <= 3
    # (m = 2), byte for byte; the tables come from the fixture, not the
    # search.
    rows = load_data("verify_outputs.json")["models"]
    assert len(rows) == 474
    for row in rows:
        g = GammaGroupoid(row["order"], row["gammas"], tuple(row["table"]))
        got = freezer.cli_digest(["verify", "--json", "-"], serialize_model(g))
        assert got == (row["exit"], row["sha256"]), row["table"]


def test_ideals_above_order_12(capsys, tmp_path, freezer):
    # x.y = y - x mod 13: families are listed by closure, so no carrier
    # size is refused; the only two-sided ideal is the carrier.
    path = tmp_path / "n13.gag"
    path.write_text(serialize_model(freezer.difference_model(13)))
    code, out, err = run(capsys, "ideals", str(path), "--kind", "two-sided")
    assert code == 0, err
    assert out.splitlines()[0] == "two-sided (1):"


def _cli_fixture_id(row):
    if "model" in row:
        return row["model"]
    return f"n{row['order']}m{row['gammas']}-" + "".join(map(str, row["table"]))


@pytest.mark.parametrize("row", load_data("cli_outputs.json")["models"], ids=_cli_fixture_id)
def test_cli_matches_frozen_fixture(freezer, row):
    # check, intra, ideals and canon on small classes and the example,
    # byte for byte; tables are read from stdin with default labels.
    if "model" in row:
        ref, text = row["model"], ""
    else:
        g = GammaGroupoid(row["order"], row["gammas"], tuple(row["table"]))
        ref, text = "-", serialize_model(g)
    for want in row["outputs"]:
        got = freezer.cli_digest(want["argv"] + [ref], text)
        assert got == (want["exit"], want["sha256"]), want["argv"]


def _hunt_fixture_id(row):
    argv = row["argv"]
    return f"n{argv[2]}m{argv[4]}-{argv[8]}" + ("-json" if "--json" in argv else "")


@pytest.mark.parametrize("row", load_data("hunt_outputs.json")["hunts"], ids=_hunt_fixture_id)
def test_hunt_matches_frozen_fixture(freezer, row):
    # search --find-counterexample byte for byte, the clock reading masked
    assert freezer.cli_digest(row["argv"]) == (row["exit"], row["sha256"])


# each frozen search as frozen and with the ignored --workers 2 before --json
SEARCH_RUNS = [(row["argv"][:-1] + workers + row["argv"][-1:], row)
               for row in load_data("search_outputs.json")["searches"]
               for workers in ([], ["--workers", "2"])]


@pytest.mark.parametrize("argv,row", SEARCH_RUNS, ids=["-".join(argv[1:-1]) for argv, _ in SEARCH_RUNS])
def test_search_matches_frozen_fixture(freezer, argv, row):
    # search --json on spaces no oracle reaches, byte for byte
    assert freezer.cli_digest(argv) == (row["exit"], row["sha256"])


def test_canon(capsys, tmp_path):
    code, out, _ = run(capsys, "canon", M5)
    assert code == 0
    canon = parse_model(out)
    assert canon.table == (
        0, 0, 0, 0, 0,
        0, 1, 2, 3, 4,
        0, 2, 1, 4, 3,
        0, 4, 3, 1, 2,
        0, 3, 4, 2, 1,
    )


def test_canon_agrees_for_isomorphic_presentations(capsys, tmp_path):
    g = GammaGroupoid(3, 1, (0, 0, 0, 0, 0, 2, 0, 1, 0))
    # Relabel by x -> 2 - x and serialize both presentations.
    flat = [0] * 9
    for x in range(3):
        for y in range(3):
            flat[(2 - x) * 3 + (2 - y)] = 2 - g.product(x, 0, y)
    relab = GammaGroupoid(3, 1, tuple(flat))
    p1 = tmp_path / "one.gag"
    p2 = tmp_path / "two.gag"
    p1.write_text(serialize_model(g))
    p2.write_text(serialize_model(relab))
    code1, out1, _ = run(capsys, "canon", str(p1))
    code2, out2, _ = run(capsys, "canon", str(p2))
    assert code1 == code2 == 0
    assert out1 == out2


class TestRepeatedCalls:
    # main reuses one parser per process; no call may leave state behind

    def test_theorem_selection_does_not_stick(self, capsys):
        code, out, _ = run(capsys, "verify", "--json", "--theorem", "KI", M5)
        assert code == 0
        assert len(json.loads(out)["reports"]) == 1
        code, out, _ = run(capsys, "verify", "--json", M5)
        assert code == 0
        assert len(json.loads(out)["reports"]) == 31

    def test_count_flag_does_not_stick(self, capsys):
        code, out, _ = run(capsys, "search", "--order", "3", "--count")
        assert code == 0
        assert "count=20" in out
        code, out, _ = run(capsys, "search", "--order", "3", "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["search"]["target"] == "enumerate"
        assert len(obj["models"]) == obj["count"] == 20

    def test_kind_does_not_stick(self, capsys):
        code, out, _ = run(capsys, "ideals", M5, "--kind", "all")
        assert code == 0
        assert "subgroupoid (7):" in out
        code, out, _ = run(capsys, "ideals", M5)
        assert code == 0
        assert out == "two-sided (2):\n  {a}\n  {a, b, c, d, e}\n"

    def test_usage_error_leaves_no_trace(self, capsys):
        argv = ["ideals", M5, "--kind", "left", "--json"]
        before = run(capsys, *argv)
        assert before[0] == 0
        code, out, _ = run(capsys, "search", "--order", "two")
        assert (code, out) == (64, "")
        assert run(capsys, *argv) == before

    def test_main_never_rebuilds_the_parser(self, capsys, monkeypatch):
        def rebuilt():
            raise AssertionError("main rebuilt the parser")

        monkeypatch.setattr("gag.cli.build_parser", rebuilt)
        code, out, _ = run(capsys, "verify", M5)
        assert code == 0
        assert "31 checks: 29 pass, 2 vacuous" in out


# A distinctive phrase from each description; a wide terminal keeps it on one line.
HELP_DESCRIPTIONS = {
    "": "Finite-model toolkit for operator groupoids satisfying the left invertive law.",
    "check": "Sweep the four structural laws and list left identities.",
    "ideals": "List the non-empty subsets forming the requested ideal kind",
    "intra": "Per-element decomposition witnesses.",
    "verify": "Run the executable structure theorems against one model.",
    "search": "Enumerate models of a given order up to isomorphism",
    "canon": "Print the lexicographically least relabeling",
}


@pytest.mark.parametrize("sub,description", HELP_DESCRIPTIONS.items(), ids=[s or "gag" for s in HELP_DESCRIPTIONS])
def test_help(capsys, monkeypatch, sub, description):
    monkeypatch.setenv("COLUMNS", "1000")
    code, out, err = run(capsys, *sub.split(), "--help")
    assert code == 0
    assert err == ""
    assert out.startswith(f"usage: gag {sub}".rstrip())
    assert description in out


def test_verify_help_lists_every_theorem(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "1000")
    code, out, _ = run(capsys, "verify", "--help")
    assert code == 0
    listed = out.split("Known checks: ", 1)[1].split(". ", 1)[0].split(", ")
    assert listed == [t.value for t in TheoremId]
    assert len(listed) == 31


class TestUsageErrors:
    def test_unknown_theorem(self, capsys):
        for argv in (["verify", M5, "--theorem", "FOO"],
                     ["search", "--order", "2", "--find-counterexample", "FOO"]):
            code, out, err = run(capsys, *argv)
            assert code == 64
            assert "unknown theorem id 'FOO'" in err, argv
            assert out == ""

    def test_hunt_with_count(self, capsys):
        code, out, err = run(
            capsys, "search", "--order", "2", "--find-counterexample", "KI", "--count"
        )
        assert code == 64
        assert "--find-counterexample" in err and "--count" in err
        assert out == ""

    def test_dot_with_generated_from(self, capsys):
        code, out, err = run(
            capsys, "ideals", M5, "--kind", "left", "--generated-from", "b", "--dot"
        )
        assert code == 64
        assert "--dot" in err and "--generated-from" in err
        assert out == ""

    def test_dot_with_kind_all(self, capsys):
        code, _, err = run(capsys, "ideals", M5, "--kind", "all", "--dot")
        assert code == 64
        assert "--dot" in err

    def test_generated_from_needs_generated_kind(self, capsys):
        code, _, err = run(
            capsys, "ideals", M5, "--kind", "bi", "--generated-from", "a"
        )
        assert code == 64
        assert "--generated-from" in err

    def test_missing_subcommand(self, capsys):
        code, _, _ = run(capsys)
        assert code == 64

    def test_search_missing_order(self, capsys):
        code, _, _ = run(capsys, "search")
        assert code == 64

    def test_bad_flag_value(self, capsys):
        code, _, _ = run(capsys, "search", "--order", "two")
        assert code == 64

    @pytest.mark.parametrize(
        "flags,message",
        [
            ("--order 2 --limit 0", "max_models (--limit) must be at least 1"),
            ("--order 2 --workers 0", "workers (--workers) must be at least 1"),
            ("--order 0", "n (--order) must be at least 1"),
            ("--order 2 --gammas 0", "m (--gammas) must be at least 1"),
            ("--order 2 --time-budget -1", "time_budget (--time-budget) must be positive"),
            ("--order 2 --time-budget nan", "time_budget (--time-budget) must be positive"),
        ],
        ids=["limit", "workers", "order", "gammas", "time-budget", "time-budget-nan"],
    )
    def test_search_out_of_range_value(self, capsys, flags, message):
        code, out, err = run(capsys, "search", *flags.split())
        assert code == 64
        assert message in err
        assert "Traceback" not in err
        assert out == ""


class TestDataErrors:
    def test_malformed_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("garbage\n"))
        code, _, err = run(capsys, "check", "-")
        assert code == 65
        assert "line 1" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "/nonexistent/m.gag")
        assert code == 65

    def test_unknown_seed_element(self, capsys):
        code, _, err = run(
            capsys, "ideals", M5, "--kind", "left", "--generated-from", "z"
        )
        assert code == 65
        assert "z" in err

    def test_non_utf8_file(self, capsys, tmp_path):
        path = tmp_path / "latin1.gag"
        path.write_bytes(b"gag v1\nelements: \xe9\n")
        code, out, err = run(capsys, "check", str(path))
        assert code == 65
        assert "not UTF-8" in err and str(path) in err
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("handler", ["strict", "surrogateescape"])
    def test_non_utf8_stdin(self, handler):
        # strict raises while reading; surrogateescape, the C locale's
        # stdin handler, reads the bad byte as a lone surrogate
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONIOENCODING": f"utf-8:{handler}"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "gag.cli", "verify", "-"],
            input=b"gag v1\nelements: \xff\n",
            capture_output=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 65
        lines = proc.stderr.decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith("gag: error: <stdin>: not UTF-8")
        assert proc.stdout == b""

    def test_search_too_large(self, capsys):
        code, _, err = run(capsys, "search", "--order", "7")
        assert code == 65

    @pytest.mark.parametrize(
        "flags",
        ["--order 7 --filter intra-regular --count", "--order 2 --gammas 4"],
        ids=["order", "gammas"],
    )
    def test_search_size_guard_is_up_front(self, capsys, flags):
        t0 = time.monotonic()
        code, out, err = run(capsys, "search", *flags.split())
        assert time.monotonic() - t0 < 1.0
        assert code == 65
        assert "canonicalization guarded at n<=6, m<=3" in err
        assert out == ""
