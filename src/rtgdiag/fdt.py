"""Fault detection tables: rows of test marks over statement-id columns.

The generalized table has one row per path, marking every statement on the
path's ribs.  The extended table has one row per test term, marking only the
selected statements.  A response vector V (one pass/fail bit per row) can be
attached for diagnosis; bit 1 means the observed output differed from the
expected one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
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
    v: int | None = None


@dataclass(frozen=True, slots=True)
class FaultDetectionTable:
    kind: str  # "generalized" | "extended"
    columns: tuple[StatementId, ...]
    rows: tuple[TableRow, ...]

    @property
    def response(self) -> ResponseVector | None:
        if any(r.v is None for r in self.rows):
            return None
        return ResponseVector(tuple(r.v for r in self.rows))

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
    """Bind a response vector; returns a new table (immutable update)."""
    if len(v) != len(table.rows):
        raise LengthMismatch(f"response has {len(v)} bits for {len(table.rows)} rows")
    rows = tuple(TableRow(r.label, r.path, r.marks, bit) for r, bit in zip(table.rows, v.bits))
    return FaultDetectionTable(table.kind, table.columns, rows)


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
             "v": r.v}
            for r in t.rows
        ],
    }


def table_from_json(doc: dict) -> FaultDetectionTable:
    """Inverse of table_to_json; raises SchemaError naming a missing key, a
    value of the wrong type, or a mark label that names no column."""
    get = partial(SchemaError.field, "table JSON")
    columns = tuple(StatementId(get(c, "fragment", str), get(c, "opcode", int),
                                get(c, "ordinal", int), get(c, "label", str))
                    for c in get(doc, "columns", list))
    by_label = {c.label: c for c in columns}
    rows = []
    for r in get(doc, "rows", list):
        marks = get(r, "marks", list)
        unknown = [m for m in marks if not isinstance(m, str) or m not in by_label]
        if unknown:
            raise SchemaError(f"table JSON: row {get(r, 'label', str)!r} marks {unknown[0]!r}, "
                              "which names no column")
        rows.append(TableRow(label=get(r, "label", str), path=get(r, "path", str),
                             marks=frozenset(by_label[m] for m in marks),
                             v=get(r, "v", int, type(None))))
    return FaultDetectionTable(kind=get(doc, "kind", str), columns=columns, rows=tuple(rows))


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
    has_v = any(r.v is not None for r in t.rows)
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
    for r in t.rows:
        lines.append(line(r.label, r.marks,
                          [str(r.v) if r.v is not None else ""] if has_v else []))
    if suspects is not None:
        lines.append(line("Faults", suspects, [""] if has_v else []))
    return "\n".join(lines) + "\n"
