"""Fault detection tables: rows of test marks over statement-id columns.

The generalized table has one row per path, marking every statement on the
path's ribs.  The extended table has one row per test term, marking only the
selected statements.  A table holds a tuple of ``testsynth.Block`` path
blocks; the extended table of a suite holds the suite's own blocks.  A row
given on its own (a generalized row, a loaded row) is ``Block.of`` its
path, marks and label, the path of a loaded row being ``Path(label, ())``.
A row is a ``TestTerm``: ``table.rows`` and ``table.labels()`` read the
blocks as ``TestSuite`` does.

A table holds at most one response vector V, one pass/fail bit per row in
row order; bit 1 means the observed output differed from the expected one.
The table checks at construction that V is a ``ResponseVector`` with one
bit per row, and ``attach_response`` binds V without touching the rows.  In
table JSON each row carries its bit as ``v``: 0 or 1 on every row, or null
on every row when no V is bound; ``table_from_json`` rejects anything else.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, product, repeat
from typing import Iterable, Iterator, Sequence

from .errors import LengthMismatch, SchemaError
from .rtg import RTGraph, StatementId, dumps_json
from .testsynth import Block, Path, TestSuite, TestTerm


@dataclass(frozen=True, slots=True)
class ResponseVector:
    """V: one bit per row, each 0 (pass) or 1 (fail)."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if not (set(map(type, self.bits)) <= {int} and set(self.bits) <= {0, 1}):
            i, b = next((i, b) for i, b in enumerate(self.bits)
                        if type(b) is not int or b not in (0, 1))
            raise SchemaError(f"response vector: bit {i} is {b!r}, expected 0 or 1")

    def __str__(self) -> str:
        return "(" + "".join(str(b) for b in self.bits) + ")"

    def __len__(self) -> int:
        return len(self.bits)


@dataclass(frozen=True, slots=True)
class FaultDetectionTable:
    """Rows over statement columns, held as path blocks.  *memo* holds what
    is derived from the blocks and columns: diagnosis keeps its ambiguity
    partition and one verdict per distinct (V, mode, cap) there, so it grows
    with the responses diagnosed.  ``attach_response`` passes it on."""

    kind: str  # "generalized" | "extended"
    columns: tuple[StatementId, ...]
    blocks: tuple[Block, ...]
    response: ResponseVector | None = None  # V, one bit per row
    memo: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.response is None:
            return
        if not isinstance(self.response, ResponseVector):
            raise SchemaError(f"a table's response must be a ResponseVector, "
                              f"got {type(self.response).__name__}")
        rows = sum(map(len, self.blocks))
        if len(self.response) != rows:
            raise LengthMismatch(f"response has {len(self.response)} bits for {rows} rows")

    @property
    def rows(self) -> tuple[TestTerm, ...]:
        """Every row, as the terms of a suite holding these blocks."""
        return TestSuite(self.blocks).terms

    def labels(self) -> tuple[str, ...]:
        """The label of every row, in order, without building rows."""
        return TestSuite(self.blocks).labels()

    def block_bits(self) -> Iterator[tuple[Block, Sequence[int | None]]]:
        """Each block with the bits of its rows (None for each row when no
        response is bound)."""
        start = 0
        for block in self.blocks:
            n = len(block)
            yield block, (self.response.bits[start:start + n] if self.response is not None
                          else (None,) * n)
            start += n


def build_generalized_fdt(g: RTGraph, paths: Sequence[Path]) -> FaultDetectionTable:
    """One row per path; marks are all statement ids on the path's ribs."""
    blocks = []
    for p in paths:
        marks = dict.fromkeys(chain.from_iterable(g.fragment_sids(r.fragment) for r in p.edges))
        blocks.append(Block.of(p, marks, p.label))
    return FaultDetectionTable(kind="generalized", columns=g.statement_ids,
                               blocks=tuple(blocks))


def build_extended_fdt(g: RTGraph, suite: TestSuite) -> FaultDetectionTable:
    """One row per term in suite order, held in the suite's own blocks;
    marks are the selected statements."""
    return FaultDetectionTable(kind="extended", columns=g.statement_ids, blocks=suite.blocks)


def attach_response(table: FaultDetectionTable, v: ResponseVector) -> FaultDetectionTable:
    """The table with *v* bound as its response; the blocks and the memo
    are shared.

    Raises SchemaError unless *v* is a ResponseVector, and LengthMismatch
    unless it has one bit per row.
    """
    return FaultDetectionTable(table.kind, table.columns, table.blocks, v, table.memo)


# --- rendering ---------------------------------------------------------------

def table_to_json(t: FaultDetectionTable) -> dict:
    """Each row's marks are its distinct mark labels in column order (the
    first column of a label counts; labels naming no column sort last, by
    label).  Bracket members are ranked once per block."""
    rank: dict[str, int] = {}
    for i, c in enumerate(t.columns):
        rank.setdefault(c.label, i)
    unknown = len(t.columns)
    rows = []
    for block, bits in t.block_bits():
        ranked = [[(rank.get(s.label, unknown), s.label) for s in b] for b in block.brackets]
        rows += [{"label": label, "path": block.path.label,
                  "marks": [m for _, m in sorted(set(selection))], "v": v}
                 for label, selection, v in zip(block.labels, product(*ranked), bits)]
    return {
        "kind": t.kind,
        "columns": [
            {"label": c.label, "fragment": c.fragment, "opcode": c.opcode, "ordinal": c.ordinal}
            for c in t.columns
        ],
        "rows": rows,
    }


def table_from_json(doc: dict) -> FaultDetectionTable:
    """Inverse of table_to_json; raises SchemaError naming a missing key, a
    value of the wrong type, a mark label that names no column, a ``v``
    that is neither 0/1 on every row nor null on every row, or a kind other
    than generalized or extended."""
    get = partial(SchemaError.field, "table JSON")
    columns = tuple(StatementId(get(c, "fragment", str), get(c, "opcode", int),
                                get(c, "ordinal", int), get(c, "label", str))
                    for c in get(doc, "columns", list))
    by_label = {c.label: c for c in columns}
    blocks = []
    bits = []
    for r in get(doc, "rows", list):
        marks = get(r, "marks", list)
        label = get(r, "label", str)
        unknown = [m for m in marks if not isinstance(m, str) or m not in by_label]
        if unknown:
            raise SchemaError(f"table JSON: row {label!r} marks {unknown[0]!r}, "
                              "which names no column")
        blocks.append(Block.of(Path(get(r, "path", str), ()), map(by_label.get, marks), label))
        v = get(r, "v", int, type(None))
        if v not in (0, 1, None):
            raise SchemaError(f"table JSON: row {label!r} has v = {v}, expected 0 or 1")
        bits.append(v)
    if None in bits and set(bits) != {None}:
        raise SchemaError("table JSON: v is null on some rows only; give 0 or 1 on "
                          "every row, or null on every row")
    response = ResponseVector(tuple(bits)) if bits and None not in bits else None
    kind = get(doc, "kind", str)
    if kind not in ("generalized", "extended"):
        raise SchemaError(f"table JSON: kind {kind!r}, expected 'generalized' or 'extended'")
    return FaultDetectionTable(kind=kind, columns=columns, blocks=tuple(blocks),
                               response=response)


def dumps_table(t: FaultDetectionTable) -> str:
    return dumps_json(table_to_json(t))


def loads_table(text: str) -> FaultDetectionTable:
    return table_from_json(json.loads(text))


def _ordered(spans: list[tuple[int, int]]) -> bool:
    """Whether the (low, high) spans are non-empty, disjoint and ascending,
    one after the other in the given order."""
    return all(lo <= hi for lo, hi in spans) and all(
        a[1] < b[0] for a, b in zip(spans, spans[1:]))


def render_table(t: FaultDetectionTable, suspects: frozenset[StatementId] | None = None) -> str:
    """Fixed-width text table; cell content mirrors the reference layout.

    Each column's centred "1" and empty cells are built once, and each
    bracket member is looked up once per block, as the columns it names
    (all copies of a duplicated column, none for a mark naming no column).
    When a block's brackets own disjoint column spans in bracket order, its
    rows are the product of per-bracket span strings; otherwise each row
    starts from the empty cells and takes the "1" of its marks' columns.
    With *suspects* a trailing "Faults" row marks the suspect statements.
    """
    corner = "Ti\\Ij"
    has_v = t.response is not None
    label_w = max(len(corner), 6, *map(len, t.labels()))
    col_ws = [max(len(c.label), 3) for c in t.columns]
    blank = ["".center(w) for w in col_ws]
    one = ["1".center(w) for w in col_ws]
    where: dict[StatementId, list[int]] = {}
    for i, c in enumerate(t.columns):
        where.setdefault(c, []).append(i)

    def cells(columns: Iterable[Iterable[int]], lo: int = 0, hi: int = len(blank)) -> str:
        """Columns lo..hi-1, "1" where *columns* name them, "  "-joined."""
        out = blank[lo:hi]
        for i in chain.from_iterable(columns):
            out[i - lo] = one[i]
        return "  ".join(out)

    # A row is its padded label, then "  " and its cells (when the table has
    # columns), then "  " and its bit (when V is bound).
    lines = ["  ".join([corner.ljust(label_w)]
                       + [c.label.center(w) for c, w in zip(t.columns, col_ws)]
                       + (["V"] if has_v else []))]
    for block, bits in t.block_bits():
        cols = [[where.get(s, ()) for s in b] for b in block.brackets]
        spans = [(min(chain.from_iterable(c), default=1), max(chain.from_iterable(c), default=0))
                 for c in cols]
        if not blank:
            bodies: Iterable[str] = repeat("")
        elif _ordered(spans):
            parts = [["  "]]
            end = 0
            for (lo, hi), c in zip(spans, cols):
                if lo > end:
                    parts.append([cells((), end, lo) + "  "])
                sep = "  " if hi + 1 < len(blank) else ""
                parts.append([cells([ids], lo, hi + 1) + sep for ids in c])
                end = hi + 1
            if end < len(blank):
                parts.append([cells((), end)])
            bodies = map("".join, product(*parts))
        else:
            bodies = ("  " + cells(choice) for choice in product(*cols))
        tails = map("  ".__add__, map(str, bits)) if has_v else repeat("")
        lines += map("".join, zip(map(str.ljust, block.labels, repeat(label_w)), bodies, tails))
    if suspects is not None:
        lines.append("Faults".ljust(label_w)
                     + ("  " + cells(where.get(m, ()) for m in suspects) if blank else "")
                     + ("  " if has_v else ""))
    return "\n".join(lines) + "\n"
