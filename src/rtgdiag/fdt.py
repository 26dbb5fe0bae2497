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

``table_text`` and ``table_json`` write a table as a stream of chunks: its
head, the rows of each block, and its close.  A chunk costs about its own
bytes in time and memory, so a writer holds at most one block's text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, cycle, product, repeat
from typing import Iterable, Iterator, Sequence

from .errors import LengthMismatch, SchemaError
from .rtg import RTGraph, StatementId
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


# --- reading and writing -------------------------------------------------------

def table_from_json(doc: dict) -> FaultDetectionTable:
    """Inverse of the document ``table_json`` writes; raises SchemaError
    naming a missing key, a value of the wrong type, no rows, a mark label
    that names no column, a ``v`` neither 0/1 on every row nor null on
    every row, or a kind other than generalized or extended."""
    get = partial(SchemaError.field, "table JSON")
    columns = tuple(StatementId(get(c, "fragment", str), get(c, "opcode", int),
                                get(c, "ordinal", int), get(c, "label", str))
                    for c in get(doc, "columns", list))
    by_label = {c.label: c for c in columns}
    blocks = []
    bits = []
    if not (rows := get(doc, "rows", list)):
        raise SchemaError("table JSON: no rows, so it cannot say whether V is bound")
    for r in rows:
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


def loads_table(text: str) -> FaultDetectionTable:
    return table_from_json(json.loads(text))


def _ordered(spans: Iterable[tuple]) -> bool:
    """Whether the (low, high) spans are non-empty, disjoint and ascending,
    one after the other in the given order."""
    spans = list(spans)
    return all(lo <= hi for lo, hi in spans) and all(
        a[1] < b[0] for a, b in zip(spans, spans[1:]))


def _crossed_rows(heads: Iterable[str], parts: list[list[str]], bits: Sequence,
                  tails: dict) -> str:
    """The rows of one ordered block: each head, then one string of each
    part, in ``product(*parts)`` order.  The first half's concatenations
    are crossed with the second half's, so a row is its head and two
    pieces.  When the rows share one bit its tail already ends the last
    part; otherwise each row takes ``tails[bit]`` as well."""
    half = len(parts) // 2
    right = [*map("".join, product(*parts[half:]))]
    lefts = (left for left in map("".join, product(*parts[:half])) for _ in right)
    pieces = [heads, lefts, cycle(right)]
    if len(set(bits)) > 1:
        pieces.append(map(tails.__getitem__, bits))
    return "".join(chain.from_iterable(zip(*pieces)))


def table_text(t: FaultDetectionTable,
               suspects: frozenset[StatementId] | None = None) -> Iterator[str]:
    """The fixed-width text table in chunks: the header line, the rows of
    each block, and with *suspects* a trailing "Faults" row marking the
    suspect statements.  A row is its label padded to the widest, then
    "  " and its cells (when the table has columns), then "  " and its bit
    (when V is bound); a cell is "1" centred in its column when the row
    marks the column's statement, else blank.

    A chunk costs about its own bytes.  Each column's "1" and blank cells
    are made once.  A block of several rows whose brackets own disjoint
    column spans, in bracket order, takes its rows from segments: one
    string per bracket member, the cells from the end of the bracket before
    it through its own span (through the last column for the last
    bracket), made once per bracket object and span for the whole table.
    When the block's rows share one bit, the bit and the newline end the
    last bracket's segments.  Any other block builds each row from the
    blank cells.
    """
    corner = "Ti\\Ij"
    has_v = t.response is not None
    label_w = max(chain((len(corner), 6),
                        map(len, chain.from_iterable(b.labels for b in t.blocks))))
    col_ws = [max(len(c.label), 3) for c in t.columns]
    n = len(col_ws)
    blank = ["".center(w) for w in col_ws]
    one = ["1".center(w) for w in col_ws]
    where: dict[StatementId, list[int]] = {}
    for i, c in enumerate(t.columns):
        where.setdefault(c, []).append(i)
    tails = {0: "  0\n", 1: "  1\n", None: "\n"}

    def cells(columns: Iterable[Iterable[int]], lo: int = 0, hi: int = n) -> str:
        """Columns lo..hi-1, "1" where *columns* name them, "  "-joined."""
        out = blank[lo:hi]
        for i in chain.from_iterable(columns):
            out[i - lo] = one[i]
        return "  ".join(out)

    spans: dict[int, tuple[list, int, int]] = {}  # id(bracket): member columns, low, high
    segments: dict[tuple, list[str]] = {}  # (id(bracket), start, end, tail): per member

    def span(bracket: tuple[StatementId, ...]) -> tuple[list, int, int]:
        if (kept := spans.get(id(bracket))) is None:
            cols = [where.get(s, ()) for s in bracket]
            flat = [*chain.from_iterable(cols)]
            kept = spans[id(bracket)] = cols, min(flat, default=n), max(flat, default=-1)
        return kept

    yield "  ".join([corner.ljust(label_w)]
                    + [c.label.center(w) for c, w in zip(t.columns, col_ws)]
                    + (["V"] if has_v else [])) + "\n"
    for block, bits in t.block_bits():
        heads = map(str.ljust, block.labels, repeat(label_w))
        kept = [span(b) for b in block.brackets] if len(block) > 1 and n else []
        if kept and _ordered((lo, hi) for _, lo, hi in kept):
            last = tails[bits[0]] if len(set(bits)) == 1 else ""
            parts = []
            start = 0
            for i, (b, (cols, lo, hi)) in enumerate(zip(block.brackets, kept)):
                end, tail = (n, last) if i == len(kept) - 1 else (hi + 1, "")
                key = (id(b), start, end, tail)
                if (seg := segments.get(key)) is None:
                    seg = segments[key] = ["  " + cells([c], start, end) + tail for c in cols]
                parts.append(seg)
                start = end
            yield _crossed_rows(heads, parts, bits, tails)
        else:
            cols = [[where.get(s, ()) for s in b] for b in block.brackets]
            yield "".join(map(str.__add__, heads, (
                ("  " + cells(choice) if n else "") + tails[bit]
                for choice, bit in zip(product(*cols), bits))))
    if suspects is not None:
        yield ("Faults".ljust(label_w)
               + ("  " + cells(where.get(m, ()) for m in suspects) if n else "")
               + ("  " if has_v else "") + "\n")


def table_json(t: FaultDetectionTable) -> Iterator[str]:
    """The table's JSON document in chunks, byte for byte the
    ``rtg.dumps_json`` of ``{"kind", "columns", "rows"}``: the head through
    the columns, the rows of each block, then the close.  A row is
    ``{"label", "path", "marks", "v"}``; its marks are its distinct mark
    labels in column order (the first column of a label counts; labels
    naming no column sort last, by label), and ``v`` is its bit, or null
    when no V is bound.

    A chunk costs about its own bytes: strings go through ``json``'s
    encoder one at a time, the layout is written here, and each bracket's
    members are ranked once per block.
    """
    string = json.JSONEncoder(ensure_ascii=False).encode
    rank: dict[str, int] = {}
    for i, c in enumerate(t.columns):
        rank.setdefault(c.label, i)
    unknown = len(t.columns)
    quoted = {c.label: string(c.label) for c in t.columns}
    columns = ",".join(f'\n    {{\n      "label": {quoted[c.label]},\n      "fragment": '
                       f'{string(c.fragment)},\n      "opcode": {c.opcode},\n      '
                       f'"ordinal": {c.ordinal}\n    }}' for c in t.columns)
    yield (f'{{\n  "kind": {string(t.kind)},\n  "columns": ['
           + (columns + "\n  ]" if columns else "]") + ',\n  "rows": [')
    tails = {0: "0\n    }", 1: "1\n    }", None: "null\n    }"}

    def marks(selection: Iterable[tuple[int, str]]) -> str:
        kept = sorted(set(selection))
        if not kept:
            return "]"
        return ",".join("\n        " + (quoted.get(m) or string(m)) for _, m in kept) + "\n      ]"

    written = False
    for block, bits in t.block_bits():
        path = string(block.path.label)
        ranked = [[(rank.get(s.label, unknown), s.label) for s in b] for b in block.brackets]
        chunk = "".join(
            f',\n    {{\n      "label": {string(label)},\n      "path": {path},\n'
            f'      "marks": [{marks(selection)},\n      "v": {tails[bit]}'
            for label, selection, bit in zip(block.labels, product(*ranked), bits))
        if chunk:
            yield chunk if written else chunk[1:]
            written = True
    yield "\n  ]\n}\n" if written else "]\n}\n"
