"""Fault detection tables: rows of test marks over statement-id columns.

The generalized table has one row per path, marking every statement on the
path's ribs.  The extended table has one row per test term, marking only the
selected statements.  A response vector V (one pass/fail bit per row) can be
attached for diagnosis; bit 1 means the observed output differed from the
expected one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Sequence

from .errors import LengthMismatch
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
    rows = tuple(replace(row, v=bit) for row, bit in zip(table.rows, v.bits))
    return replace(table, rows=rows)


# --- rendering ---------------------------------------------------------------

def table_to_json(t: FaultDetectionTable) -> dict:
    return {
        "kind": t.kind,
        "columns": [
            {"label": c.label, "fragment": c.fragment, "opcode": c.opcode, "ordinal": c.ordinal}
            for c in t.columns
        ],
        "rows": [
            {"label": r.label, "path": r.path,
             "marks": sorted((m.label for m in r.marks), key=lambda l: _col_rank(t, l)),
             "v": r.v}
            for r in t.rows
        ],
    }


def _col_rank(t: FaultDetectionTable, label: str) -> int:
    for i, c in enumerate(t.columns):
        if c.label == label:
            return i
    return len(t.columns)


def table_from_json(doc: dict) -> FaultDetectionTable:
    columns = tuple(StatementId(c["fragment"], c["opcode"], c["ordinal"], c["label"])
                    for c in doc["columns"])
    by_label = {c.label: c for c in columns}
    rows = tuple(
        TableRow(label=r["label"], path=r["path"],
                 marks=frozenset(by_label[m] for m in r["marks"]), v=r["v"])
        for r in doc["rows"]
    )
    return FaultDetectionTable(kind=doc["kind"], columns=columns, rows=rows)


def dumps_table(t: FaultDetectionTable) -> str:
    return json.dumps(table_to_json(t), indent=2, ensure_ascii=False) + "\n"


def loads_table(text: str) -> FaultDetectionTable:
    return table_from_json(json.loads(text))


def render_table(t: FaultDetectionTable, suspects: frozenset[StatementId] | None = None) -> str:
    """Fixed-width text table; cell content mirrors the reference layout.

    With *suspects* a trailing "Faults" row marks the suspect statements.
    """
    has_v = any(r.v is not None for r in t.rows)
    headers = ["Ti\\Ij"] + [c.label for c in t.columns] + (["V"] if has_v else [])
    label_w = max(len(headers[0]), *(len(r.label) for r in t.rows), 6)
    col_ws = [max(len(c.label), 3) for c in t.columns]

    def fmt_row(cells: list[str]) -> str:
        out = [cells[0].ljust(label_w)]
        for w, cell in zip(col_ws, cells[1:len(col_ws) + 1]):
            out.append(cell.center(w))
        out.extend(cells[len(col_ws) + 1:])
        return "  ".join(out)

    lines = [fmt_row(headers)]
    for r in t.rows:
        cells = [r.label] + ["1" if c in r.marks else "" for c in t.columns]
        if has_v:
            cells.append(str(r.v) if r.v is not None else "")
        lines.append(fmt_row(cells))
    if suspects is not None:
        cells = ["Faults"] + ["1" if c in suspects else "" for c in t.columns]
        if has_v:
            cells.append("")
        lines.append(fmt_row(cells))
    return "\n".join(lines) + "\n"
