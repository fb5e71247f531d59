"""Text and JSON round trips plus parser diagnostics."""

import json
import re

import pytest
from conftest import models
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from gag import (
    GammaGroupoid,
    ModelFormatError,
    model_from_json_obj,
    model_to_json_obj,
    parse_model,
    parse_models,
    serialize_model,
)
from gag.fixtures import paper_example_text


def test_m5_text_round_trip(m5):
    assert parse_model(serialize_model(m5)) == m5
    assert parse_model(paper_example_text()) == m5


def test_serialize_is_byte_stable(m5):
    text = serialize_model(m5)
    assert text == serialize_model(parse_model(text))
    assert text.endswith("\n")
    assert text.startswith("gag v1\n")
    assert "\t" not in text


@settings(max_examples=200)
@given(models())
def test_text_round_trip(g):
    assert parse_model(serialize_model(g)) == g


@settings(max_examples=200)
@given(models())
def test_json_round_trip(g):
    obj = model_to_json_obj(g)
    # Must survive an actual serialization, not just a dict copy.
    assert model_from_json_obj(json.loads(json.dumps(obj))) == g


def test_json_obj_shape(m5):
    obj = model_to_json_obj(m5)
    assert obj["format"] == "gag"
    assert obj["version"] == 1
    assert obj["elements"] == ["a", "b", "c", "d", "e"]
    assert obj["gammas"] == ["g0"]
    # tables[k][x][y] is the label of x *_k y
    assert obj["tables"][0][0] == ["a", "a", "a", "a", "a"]
    assert obj["tables"][0][1] == ["a", "b", "c", "d", "e"]


def test_parse_models_stream(m5):
    g2 = GammaGroupoid(2, 1, (0, 0, 0, 0))
    text = serialize_model(m5) + "\n" + serialize_model(g2) + "\n"
    assert parse_models(text) == [m5, g2]
    assert parse_models("") == []
    assert parse_models("\n\n") == []


def test_parse_models_reads_rows_by_count():
    # Rows named like the header are rows, not the start of a document.
    g = GammaGroupoid(2, 1, (0, 1, 1, 0), element_labels=("gag", "v1"))
    h = GammaGroupoid(2, 1, (1, 1, 0, 0), element_labels=("v1", "gag"), gamma_labels=("gag",))
    assert "\ngag v1\n" in serialize_model(g)
    assert parse_models(serialize_model(g) + serialize_model(h)) == [g, h]
    assert parse_model(serialize_model(g)) == g


def test_stream_errors_count_lines_through_the_stream(m5):
    with pytest.raises(ModelFormatError, match="^line 3: expected 'gag v1' header, got 'junk'"):
        parse_models("\n\njunk\n")
    # m5 takes lines 1-9, the blank line and comment lines 10-11; the
    # second document's header is line 12 and its second row line 17.
    second = "gag v1\nelements: a b\ngammas: g0\ntable g0:\na b\nb c\n"
    text = serialize_model(m5) + "\n# next\n" + second
    with pytest.raises(ModelFormatError, match="^line 17: unknown element name 'c'"):
        parse_models(text)
    # One document only: parse_model names the second header's line.
    with pytest.raises(ModelFormatError, match="^line 12: a second 'gag v1' header"):
        parse_model(text)


@st.composite
def labelled_models(draw):
    """A model under labels drawn to probe the format: the format's own
    words and short text, which may hold whitespace or start with '#';
    only the models that GammaGroupoid accepts are kept."""
    names = st.one_of(
        st.sampled_from(["gag", "v1", "table", "elements:", "gammas:", "g0:", "a"]),
        st.text(min_size=1, max_size=3),
    )
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    flat = draw(st.lists(st.integers(0, n - 1), min_size=n * n * m, max_size=n * n * m))
    elements = draw(st.lists(names, min_size=n, max_size=n, unique=True))
    gammas = draw(st.lists(names, min_size=m, max_size=m, unique=True))
    try:
        return GammaGroupoid(n, m, tuple(flat), elements, gammas)
    except ValueError:
        reject()


@settings(max_examples=200)
@given(labelled_models(), labelled_models())
def test_every_accepted_model_round_trips(g, h):
    assert parse_model(serialize_model(g)) == g
    assert model_from_json_obj(json.loads(json.dumps(model_to_json_obj(g)))) == g
    assert parse_models(serialize_model(g) + serialize_model(h)) == [g, h]


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("nope\n", "line 1: expected 'gag v1' header"),
        ("gag v1\ngammas: g0\n", "line 2: expected 'elements:'"),
        ("gag v1\nelements: a a\ngammas: g0\n", "line 2: duplicate element name 'a'"),
        (
            "gag v1\nelements: a b\ngammas: g0 g0\n",
            "line 3: duplicate operator name 'g0'",
        ),
        (
            "gag v1\nelements: a b\ngammas: g0\ntable g1:\na a\na a\n",
            "line 4: unknown operator name 'g1'",
        ),
        (
            "gag v1\nelements: a b\ngammas: g0\ntable g0:\na a\na\n",
            "row 1: expected 2 entries, got 1",
        ),
        (
            "gag v1\nelements: a b\ngammas: g0\ntable g0:\na c\na a\n",
            "line 5: unknown element name 'c'",
        ),
        ("gag v1\nelements: a b\ngammas: g0\n", "missing table for operator(s): g0"),
        # '#a' would start a comment in every row it opens.
        ("gag v1\nelements: #a b\ngammas: g0\n", "line 2: element name '#a'"),
        ("gag v1\nelements: a b\ngammas: #g\n", "line 3: operator name '#g'"),
        (
            "gag v1\nelements: a b\ngammas: g0\ntable g0:\na a\na a\ntable g0:\na a\na a\n",
            "duplicate table for operator 'g0'",
        ),
    ],
)
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(ModelFormatError) as exc:
        parse_model(text)
    assert fragment in str(exc.value)


def test_json_errors():
    with pytest.raises(ModelFormatError, match="JSON object"):
        model_from_json_obj([])
    with pytest.raises(ModelFormatError, match="format 'gag' version 1"):
        model_from_json_obj({"elements": ["a"], "gammas": ["g0"]})
    with pytest.raises(ModelFormatError, match="unknown element name 'b'"):
        model_from_json_obj(
            {
                "format": "gag",
                "version": 1,
                "elements": ["a"],
                "gammas": ["g0"],
                "tables": [[["b"]]],
            }
        )
    # Labels the text format cannot carry: serialized, '#a' opens a
    # comment and 'a b' reads back as two elements.
    for elements, gammas, bad in (
        (["#a", "b"], ["g0"], "#a"),
        (["a b", "c"], ["g0"], "a b"),
        (["", "b"], ["g0"], ""),
        (["a", "b"], ["g\t0"], "g\t0"),
    ):
        obj = {"format": "gag", "version": 1, "elements": elements, "gammas": gammas,
               "tables": [[[elements[1]] * 2] * 2]}
        with pytest.raises(ModelFormatError, match=re.escape(f"name {bad!r}")):
            model_from_json_obj(obj)


@pytest.mark.parametrize(
    "key, value",
    [
        ("tables", 5),
        ("tables", [5]),
        ("elements", None),
        ("elements", "ab"),
        ("tables", [["ab", "ba"]]),
        ("tables", [[["a", ["b"]], ["b", "a"]]]),
        ("elements", [1, 2]),
    ],
    ids=["tables-int", "table-int", "elements-null", "elements-string", "row-string",
         "entry-list", "elements-ints"],
)
def test_json_shape_errors_are_format_errors(key, value):
    # Each used to raise TypeError or read a string as a list of names.
    obj = {"format": "gag", "version": 1, "elements": ["a", "b"], "gammas": ["g0"],
           "tables": [[["a", "b"], ["b", "a"]]]}
    assert model_from_json_obj(obj) == GammaGroupoid(2, 1, (0, 1, 1, 0))
    with pytest.raises(ModelFormatError):
        model_from_json_obj({**obj, key: value})


@settings(max_examples=200)
@given(
    elements=st.lists(st.text(max_size=3), min_size=1, max_size=3),
    gammas=st.lists(st.text(max_size=3), min_size=1, max_size=2),
    data=st.data(),
)
def test_every_accepted_json_document_round_trips_as_text(elements, gammas, data):
    n, m = len(elements), len(gammas)
    tables = data.draw(st.lists(
        st.lists(st.lists(st.sampled_from(elements), min_size=n, max_size=n), min_size=n, max_size=n),
        min_size=m, max_size=m,
    ))
    obj = {"format": "gag", "version": 1, "elements": elements, "gammas": gammas, "tables": tables}
    try:
        g = model_from_json_obj(obj)
    except ModelFormatError:
        return
    assert parse_model(serialize_model(g)) == g
