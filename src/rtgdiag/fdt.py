"""Fault detection tables: rows of test marks over statement-id columns.

The generalized table has one row per path, marking every statement on the
path's ribs.  The extended table has one row per test term, marking only the
selected statements.  A table holds at most one response vector V, one
pass/fail bit per row in row order; bit 1 means the observed output differed
from the expected one.  The table checks at construction that V has one bit
per row, and ``attach_response`` binds V without touching the rows.  In
table JSON each row carries its bit as ``v``: 0 or 1 on every row, or null
on every row when no V is bound; ``table_from_json`` rejects anything else.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import partial
from itertools import repeat
from typing import Iterable, Sequence

from .errors import LengthMismatch, SchemaError
from .rtg import RTGraph, StatementId
from .testsynth import Path, TestSuite


@dataclass(frozen=True, slots=True)
class ResponseVector:
    bits: tuple[int, ...]

    def __str__(self) -> str:
        return "(" + "".join(str(b) for b in self.bits) + ")"

    def __len__(self) -> int:
        return len(self.bits)


@dataclass(frozen=True, slots=True)
class TableRow:
    label: str
    path: str
    marks: frozenset[StatementId]


@dataclass(frozen=True, slots=True)
class FaultDetectionTable:
    kind: str  # "generalized" | "extended"
    columns: tuple[StatementId, ...]
    rows: tuple[TableRow, ...]
    response: ResponseVector | None = None  # V, one bit per row

    def __post_init__(self) -> None:
        if self.response is not None and len(self.response) != len(self.rows):
            raise LengthMismatch(f"response has {len(self.response)} bits "
                                 f"for {len(self.rows)} rows")

    def row_labels(self) -> tuple[str, ...]:
        return tuple(r.label for r in self.rows)


def build_generalized_fdt(g: RTGraph, paths: Sequence[Path]) -> FaultDetectionTable:
    """One row per path; marks are all statement ids on the path's ribs."""
    rows = []
    for p in paths:
        marks: set[StatementId] = set()
        for rib in p.edges:
            marks.update(g.fragment_sids(rib.fragment))
        rows.append(TableRow(label=p.label, path=p.label, marks=frozenset(marks)))
    return FaultDetectionTable(kind="generalized", columns=g.statement_ids, rows=tuple(rows))


def build_extended_fdt(g: RTGraph, suite: TestSuite) -> FaultDetectionTable:
    """One row per term in suite order; marks are the selected statements."""
    rows = tuple(TableRow(label=t.label, path=t.path.label, marks=t.marks)
                 for t in suite.terms)
    return FaultDetectionTable(kind="extended", columns=g.statement_ids, rows=rows)


def attach_response(table: FaultDetectionTable, v: ResponseVector) -> FaultDetectionTable:
    """The table with *v* bound as its response; the rows are shared.

    Raises LengthMismatch unless *v* has one bit per row.
    """
    return replace(table, response=v)


# --- rendering ---------------------------------------------------------------

def table_to_json(t: FaultDetectionTable) -> dict:
    rank: dict[str, int] = {}
    for i, c in enumerate(t.columns):
        rank.setdefault(c.label, i)
    unknown = len(t.columns)
    return {
        "kind": t.kind,
        "columns": [
            {"label": c.label, "fragment": c.fragment, "opcode": c.opcode, "ordinal": c.ordinal}
            for c in t.columns
        ],
        "rows": [
            {"label": r.label, "path": r.path,
             "marks": sorted((m.label for m in r.marks), key=lambda l: rank.get(l, unknown)),
             "v": v}
            for r, v in zip(t.rows, t.response.bits if t.response is not None else repeat(None))
        ],
    }


def table_from_json(doc: dict) -> FaultDetectionTable:
    """Inverse of table_to_json; raises SchemaError naming a missing key, a
    value of the wrong type, a mark label that names no column, or a ``v``
    that is neither 0/1 on every row nor null on every row."""
    get = partial(SchemaError.field, "table JSON")
    columns = tuple(StatementId(get(c, "fragment", str), get(c, "opcode", int),
                                get(c, "ordinal", int), get(c, "label", str))
                    for c in get(doc, "columns", list))
    by_label = {c.label: c for c in columns}
    rows = []
    bits = []
    for r in get(doc, "rows", list):
        marks = get(r, "marks", list)
        label = get(r, "label", str)
        unknown = [m for m in marks if not isinstance(m, str) or m not in by_label]
        if unknown:
            raise SchemaError(f"table JSON: row {label!r} marks {unknown[0]!r}, "
                              "which names no column")
        rows.append(TableRow(label=label, path=get(r, "path", str),
                             marks=frozenset(by_label[m] for m in marks)))
        v = get(r, "v", int, type(None))
        if v not in (0, 1, None):
            raise SchemaError(f"table JSON: row {label!r} has v = {v}, expected 0 or 1")
        bits.append(v)
    if None in bits and set(bits) != {None}:
        raise SchemaError("table JSON: v is null on some rows only; give 0 or 1 on "
                          "every row, or null on every row")
    response = ResponseVector(tuple(bits)) if bits and None not in bits else None
    return FaultDetectionTable(kind=get(doc, "kind", str), columns=columns, rows=tuple(rows),
                               response=response)


def dumps_table(t: FaultDetectionTable) -> str:
    return json.dumps(table_to_json(t), indent=2, ensure_ascii=False) + "\n"


def loads_table(text: str) -> FaultDetectionTable:
    return table_from_json(json.loads(text))


def render_table(t: FaultDetectionTable, suspects: frozenset[StatementId] | None = None) -> str:
    """Fixed-width text table; cell content mirrors the reference layout.

    Each column's centred "1" and empty cells are built once; a row starts
    from the empty cells and takes the "1" of every column its marks name
    (all copies of a duplicated column, none for a mark naming no column).
    With *suspects* a trailing "Faults" row marks the suspect statements.
    """
    corner = "Ti\\Ij"
    has_v = t.response is not None
    label_w = max(len(corner), *(len(r.label) for r in t.rows), 6)
    col_ws = [max(len(c.label), 3) for c in t.columns]
    blank = ["".center(w) for w in col_ws]
    one = ["1".center(w) for w in col_ws]
    where: dict[StatementId, list[int]] = {}
    for i, c in enumerate(t.columns):
        where.setdefault(c, []).append(i)

    def line(label: str, marks: Iterable[StatementId], tail: list[str]) -> str:
        cells = blank.copy()
        for m in marks:
            for i in where.get(m, ()):
                cells[i] = one[i]
        return "  ".join([label.ljust(label_w), *cells, *tail])

    v_header = ["V"] if has_v else []
    lines = ["  ".join([corner.ljust(label_w)]
                       + [c.label.center(w) for c, w in zip(t.columns, col_ws)] + v_header)]
    tails = ([str(b)] for b in t.response.bits) if has_v else repeat([])
    for r, tail in zip(t.rows, tails):
        lines.append(line(r.label, r.marks, tail))
    if suspects is not None:
        lines.append(line("Faults", suspects, [""] if has_v else []))
    return "\n".join(lines) + "\n"
