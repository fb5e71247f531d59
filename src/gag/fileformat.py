"""Reading and writing model files.

Text format (one model per document):

    gag v1
    elements: a b c d e
    gammas: g0
    table g0:
    a a a a a
    a b c d e
    a e b c d
    a d e b c
    a c d e b

Line 1 is the magic header.  Line 2 names the carrier, line 3 the
operator set.  Each operator then gets a `table <name>:` block followed
by n rows of n whitespace-separated element names; row x column y holds
x *_k y.  Lines starting with `#` and blank lines are ignored.

A stream holds documents back to back.  A block's rows are taken by
count, so a document ends after its last block, at the next `gag v1`
line or at the end of the stream.  Line numbers count through the stream.

`serialize_model` emits the canonical form above (single spaces, blocks
in operator order, trailing newline) so equal models serialize to
byte-identical documents.

The JSON form carries the same data:

    {"format": "gag", "version": 1, "elements": [...], "gammas": [...],
     "tables": [[[...row...], ...], ...]}

with tables[k][x][y] an element name.
"""

from __future__ import annotations

from typing import Any

from .model import GammaGroupoid, check_labels

MAGIC = "gag v1"


class ModelFormatError(ValueError):
    """Malformed model document.  `line` is 1-based, 0 = whole document."""

    def __init__(self, message: str, line: int = 0):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


def _meaningful_lines(text: str) -> list[tuple[int, str]]:
    lines = enumerate(map(str.strip, text.splitlines()), start=1)
    return [(idx, line) for idx, line in lines if line and not line.startswith("#")]


def _labels(names: Any, what: str, lineno: int) -> tuple[str, ...]:
    try:
        return check_labels(names, what)
    except ValueError as e:
        raise ModelFormatError(str(e), lineno) from None


def _build(elements: tuple[str, ...], gammas: tuple[str, ...], tables: list) -> GammaGroupoid:
    """The model whose tables[k][x] is (line, row) with row[y] naming
    x *_k y; line is 0 outside a text document."""
    index = {nm: i for i, nm in enumerate(elements)}
    try:
        rows = [[[index[nm] for nm in row] for _, row in t] for t in tables]
    except (KeyError, TypeError):  # TypeError: an unhashable JSON entry
        k, lineno, nm = next(
            (k, lineno, nm) for k, t in enumerate(tables) for lineno, row in t for nm in row
            if nm not in elements
        )
        message = f"unknown element name {nm!r} in table {gammas[k]!r}"
        raise ModelFormatError(message, lineno) from None
    return GammaGroupoid.from_tables(rows, elements, gammas)


def _document(lines: list[tuple[int, str]], pos: int) -> tuple[GammaGroupoid, int]:
    """The model whose document starts at lines[pos], and the position
    after it: the end of the stream or the next header."""
    lineno, line = lines[pos]
    if line != MAGIC:
        raise ModelFormatError(f"expected {MAGIC!r} header, got {line!r}", lineno)
    heads = []
    for key, what in (("elements:", "element"), ("gammas:", "operator")):
        pos += 1
        if pos >= len(lines) or not lines[pos][1].startswith(key):
            raise ModelFormatError(f"expected {key!r} line", lines[min(pos, len(lines) - 1)][0])
        heads.append(_labels(lines[pos][1][len(key):].split(), what, lines[pos][0]))
    elements, gammas = heads
    pos += 1
    n = len(elements)
    tables: dict[int, list[tuple[int, list[str]]]] = {}
    while pos < len(lines) and lines[pos][1] != MAGIC:
        lineno, line = lines[pos]
        if not (line.startswith("table ") and line.endswith(":")):
            raise ModelFormatError(f"expected 'table <name>:' line, got {line!r}", lineno)
        gname = line[len("table "):-1].strip()
        if gname not in gammas:
            raise ModelFormatError(f"unknown operator name {gname!r}", lineno)
        k = gammas.index(gname)
        if k in tables:
            raise ModelFormatError(f"duplicate table for operator {gname!r}", lineno)
        rows = [(lineno, line.split()) for lineno, line in lines[pos + 1:pos + 1 + n]]
        if len(rows) < n:
            message = f"table {gname!r}: expected {n} rows, got {len(rows)}"
            raise ModelFormatError(message, lines[-1][0])
        for r, (lineno, names) in enumerate(rows):
            if len(names) != n:
                raise ModelFormatError(
                    f"table {gname!r} row {r}: expected {n} entries, got {len(names)}", lineno
                )
        tables[k] = rows
        pos += 1 + n

    missing = [name for k, name in enumerate(gammas) if k not in tables]
    if missing:
        raise ModelFormatError(f"missing table for operator(s): {', '.join(missing)}")
    return _build(elements, gammas, [tables[k] for k in range(len(gammas))]), pos


def parse_model(text: str) -> GammaGroupoid:
    """Parse one text document; raises ModelFormatError with line position."""
    lines = _meaningful_lines(text)
    if not lines:
        raise ModelFormatError("empty document")
    g, pos = _document(lines, 0)
    if pos < len(lines):
        raise ModelFormatError(f"a second {MAGIC!r} header: expected one document", lines[pos][0])
    return g


def parse_models(text: str) -> list[GammaGroupoid]:
    """Parse a stream of text documents, back to back."""
    lines, out, pos = _meaningful_lines(text), [], 0
    while pos < len(lines):
        g, pos = _document(lines, pos)
        out.append(g)
    return out


def serialize_model(g: GammaGroupoid) -> str:
    """Canonical text document for a model; byte-stable round trip."""
    out = [MAGIC]
    out.append("elements: " + " ".join(g.element_labels))
    out.append("gammas: " + " ".join(g.gamma_labels))
    for name, rows in zip(g.gamma_labels, g.tables()):
        out.append(f"table {name}:")
        out.extend(" ".join(g.element_labels[v] for v in row) for row in rows)
    return "\n".join(out) + "\n"


def model_to_json_obj(g: GammaGroupoid) -> dict[str, Any]:
    n, m, labels = g.n, g.m, g.element_labels
    rows = list(zip(*[iter(g.table)] * n))  # rows[x * m + k][y] == x *_k y
    return {
        "format": "gag",
        "version": 1,
        "elements": list(labels),
        "gammas": list(g.gamma_labels),
        "tables": [
            [list(map(labels.__getitem__, rows[x * m + k])) for x in range(n)]
            for k in range(m)
        ],
    }


def model_from_json_obj(obj: Any) -> GammaGroupoid:
    if not isinstance(obj, dict):
        raise ModelFormatError("model document must be a JSON object")
    if obj.get("format") != "gag" or obj.get("version") != 1:
        raise ModelFormatError("expected format 'gag' version 1")
    for key in ("elements", "gammas", "tables"):
        if key not in obj:
            raise ModelFormatError(f"missing {key!r}")
        if type(obj[key]) is not list:
            raise ModelFormatError(f"{key!r} must be a list")
    elements = _labels(obj["elements"], "element", 0)
    gammas = _labels(obj["gammas"], "operator", 0)
    n, tables = len(elements), obj["tables"]
    if len(tables) != len(gammas):
        raise ModelFormatError(f"expected {len(gammas)} tables, got {len(tables)}")
    for name, t in zip(gammas, tables):
        if type(t) is not list or len(t) != n or any(
            type(r) is not list or len(r) != n for r in t
        ):
            raise ModelFormatError(f"table {name!r} is not a list of {n} lists of {n} names")
    return _build(elements, gammas, [[(0, row) for row in t] for t in tables])
