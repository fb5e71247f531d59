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

`serialize_model` emits the canonical form above (single spaces, blocks
in operator order, trailing newline) so equal models serialize to
byte-identical documents.

The JSON form carries the same data:

    {"format": "gag", "version": 1, "elements": [...], "gammas": [...],
     "tables": [[[...row...], ...], ...]}

with tables[k][x][y] an element name.
"""

from __future__ import annotations

from typing import Any, Iterator

from .model import GammaGroupoid

MAGIC = "gag v1"


class ModelFormatError(ValueError):
    """Malformed model document.  `line` is 1-based, 0 = whole document."""

    def __init__(self, message: str, line: int = 0):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


def _meaningful_lines(text: str) -> Iterator[tuple[int, str]]:
    for idx, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield idx, line


def _check_names(names: list[str], what: str, lineno: int) -> None:
    """Refuse what the text format cannot carry: an empty list, a
    repeated name, and a name that is empty, holds whitespace (the
    separator) or starts with '#' (a comment)."""
    if not names:
        raise ModelFormatError(f"empty {what} list", lineno)
    seen = set()
    for nm in names:
        if nm.split() != [nm] or nm.startswith("#"):
            raise ModelFormatError(
                f"{what} name {nm!r} is empty, holds whitespace or starts with '#'", lineno
            )
        if nm in seen:
            raise ModelFormatError(f"duplicate {what} name {nm!r}", lineno)
        seen.add(nm)


def parse_model(text: str) -> GammaGroupoid:
    """Parse one text document; raises ModelFormatError with line position."""
    lines = list(_meaningful_lines(text))
    if not lines:
        raise ModelFormatError("empty document")
    pos = 0

    lineno, line = lines[pos]
    if line != MAGIC:
        raise ModelFormatError(f"expected {MAGIC!r} header, got {line!r}", lineno)
    pos += 1

    if pos >= len(lines) or not lines[pos][1].startswith("elements:"):
        raise ModelFormatError("expected 'elements:' line", lines[pos][0] if pos < len(lines) else lineno)
    lineno, line = lines[pos]
    elements = line[len("elements:"):].split()
    _check_names(elements, "element", lineno)
    pos += 1

    if pos >= len(lines) or not lines[pos][1].startswith("gammas:"):
        raise ModelFormatError("expected 'gammas:' line", lines[pos][0] if pos < len(lines) else lineno)
    lineno, line = lines[pos]
    gammas = line[len("gammas:"):].split()
    _check_names(gammas, "operator", lineno)
    pos += 1

    n, m = len(elements), len(gammas)
    eindex = {nm: i for i, nm in enumerate(elements)}
    tables: dict[int, list[list[int]]] = {}

    while pos < len(lines):
        lineno, line = lines[pos]
        if not (line.startswith("table ") and line.endswith(":")):
            raise ModelFormatError(f"expected 'table <name>:' line, got {line!r}", lineno)
        gname = line[len("table "):-1].strip()
        if gname not in gammas:
            raise ModelFormatError(f"unknown operator name {gname!r}", lineno)
        k = gammas.index(gname)
        if k in tables:
            raise ModelFormatError(f"duplicate table for operator {gname!r}", lineno)
        pos += 1
        rows = []
        for r in range(n):
            if pos >= len(lines):
                raise ModelFormatError(f"table {gname!r}: expected {n} rows, got {r}", lineno)
            lineno, line = lines[pos]
            names = line.split()
            if len(names) != n:
                raise ModelFormatError(
                    f"table {gname!r} row {r}: expected {n} entries, got {len(names)}", lineno
                )
            row = []
            for nm in names:
                if nm not in eindex:
                    raise ModelFormatError(f"unknown element name {nm!r}", lineno)
                row.append(eindex[nm])
            rows.append(row)
            pos += 1
        tables[k] = rows

    missing = [gammas[k] for k in range(m) if k not in tables]
    if missing:
        raise ModelFormatError(f"missing table for operator(s): {', '.join(missing)}")

    return GammaGroupoid.from_tables([tables[k] for k in range(m)], elements, gammas)


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
    labels = g.element_labels
    return {
        "format": "gag",
        "version": 1,
        "elements": list(labels),
        "gammas": list(g.gamma_labels),
        "tables": [[[labels[v] for v in row] for row in t] for t in g.tables()],
    }


def model_from_json_obj(obj: Any) -> GammaGroupoid:
    if not isinstance(obj, dict):
        raise ModelFormatError("model document must be a JSON object")
    if obj.get("format") != "gag" or obj.get("version") != 1:
        raise ModelFormatError("expected format 'gag' version 1")
    for key in ("elements", "gammas", "tables"):
        if key not in obj:
            raise ModelFormatError(f"missing {key!r}")
    elements = [str(x) for x in obj["elements"]]
    gammas = [str(x) for x in obj["gammas"]]
    _check_names(elements, "element", 0)
    _check_names(gammas, "operator", 0)
    n, m = len(elements), len(gammas)
    eindex = {nm: i for i, nm in enumerate(elements)}
    raw = obj["tables"]
    if len(raw) != m:
        raise ModelFormatError(f"expected {m} tables, got {len(raw)}")
    tables = []
    for k, t in enumerate(raw):
        if len(t) != n or any(len(row) != n for row in t):
            raise ModelFormatError(f"table {gammas[k]!r} is not {n}x{n}")
        tab = []
        for row in t:
            out_row = []
            for nm in row:
                if nm not in eindex:
                    raise ModelFormatError(f"unknown element name {nm!r} in table {gammas[k]!r}")
                out_row.append(eindex[nm])
            tab.append(out_row)
        tables.append(tab)
    return GammaGroupoid.from_tables(tables, tuple(elements), tuple(gammas))


def parse_models(text: str) -> list[GammaGroupoid]:
    """Parse a stream of text documents separated by `gag v1` headers."""
    chunks: list[list[str]] = []
    for raw in text.splitlines():
        if raw.strip() == MAGIC:
            chunks.append([raw])
        elif chunks:
            chunks[-1].append(raw)
        elif raw.strip() and not raw.strip().startswith("#"):
            raise ModelFormatError(f"expected {MAGIC!r} header, got {raw.strip()!r}", 1)
    return [parse_model("\n".join(c)) for c in chunks]
