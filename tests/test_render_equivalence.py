"""``render_table`` against the per-cell reference layout it replaced.

The reference below builds every cell with ``c in r.selection`` and
``str.center``; the library builds each column's cells once.  Both must give
the same bytes on seeded tables, including duplicated columns, marks that
name no column, tables with and without V, and the ``Faults`` suspects row.
"""

from random import Random

import pytest

from rtgdiag import (Path, ResponseVector, StatementId, TestTerm, build_complete_test,
                     build_extended_fdt, build_generalized_fdt, enumerate_paths, render_table)
from rtgdiag.fdt import FaultDetectionTable

from randmodels import random_dag_model
from reference import row_blocks


def reference_render(t, suspects=None) -> str:
    has_v = t.response is not None
    headers = ["Ti\\Ij"] + [c.label for c in t.columns] + (["V"] if has_v else [])
    label_w = max(len(headers[0]), *(len(r.label) for r in t.rows), 6)
    col_ws = [max(len(c.label), 3) for c in t.columns]

    def fmt_row(cells):
        out = [cells[0].ljust(label_w)]
        for w, cell in zip(col_ws, cells[1:len(col_ws) + 1]):
            out.append(cell.center(w))
        out.extend(cells[len(col_ws) + 1:])
        return "  ".join(out)

    lines = [fmt_row(headers)]
    for i, r in enumerate(t.rows):
        cells = [r.label] + ["1" if c in r.selection else "" for c in t.columns]
        if has_v:
            cells.append(str(t.response.bits[i]))
        lines.append(fmt_row(cells))
    if suspects is not None:
        cells = ["Faults"] + ["1" if c in suspects else "" for c in t.columns]
        if has_v:
            cells.append("")
        lines.append(fmt_row(cells))
    return "\n".join(lines) + "\n"


STRAY = StatementId("Z9", 1, 1, "Z91")  # names no column of any table below


def seeded_tables(seed: int):
    """(table, suspects) pairs from one seeded random model: the extended
    and generalized tables, varied by the seed."""
    rng = Random(seed)
    g = random_dag_model(rng, max_internal=3, max_fragments=6, max_statements=4)
    paths = enumerate_paths(g)
    for t in (build_extended_fdt(g, build_complete_test(g, paths)),
              build_generalized_fdt(g, paths)):
        columns = list(t.columns)
        if rng.random() < 0.5:  # duplicated columns
            for c in rng.sample(columns, rng.randint(1, len(columns))):
                columns.insert(rng.randrange(len(columns) + 1), c)
        has_v = rng.random() < 0.5
        rows = []
        bits = []
        for r in t.rows:
            stray = (STRAY,) if rng.random() < 0.3 else ()
            rows.append(TestTerm(r.path, r.selection + stray, r.label))
            bits.append(rng.randint(0, 1))
        table = FaultDetectionTable(t.kind, tuple(columns), row_blocks(rows),
                                    ResponseVector(tuple(bits)) if has_v else None)
        suspects = frozenset(rng.sample(columns, rng.randint(0, len(columns))))
        for s in (None, suspects, suspects | {STRAY}):
            yield table, s


@pytest.mark.parametrize("seed", range(40))
def test_render_matches_the_per_cell_reference(seed):
    for table, suspects in seeded_tables(seed):
        assert render_table(table, suspects) == reference_render(table, suspects)


def test_duplicate_columns_are_all_marked():
    a = StatementId("I1", 1, 1, "I11")
    b = StatementId("I2", 1, 1, "I21")
    t = FaultDetectionTable("extended", (a, b, a),
                            row_blocks([TestTerm(Path("p", ()), (a,), "t1")]), ResponseVector((1,)))
    assert render_table(t) == reference_render(t)
    assert render_table(t).splitlines()[1].split() == ["t1", "1", "1", "1"]


@pytest.mark.parametrize("rows", [(), (TestTerm(Path("p", ()), (STRAY,), "t"),)])
def test_tables_without_columns_or_rows(rows):
    for columns in ((), (StatementId("I1", 1, 1, "I11"),)):
        t = FaultDetectionTable("extended", columns, row_blocks(rows))
        for suspects in (None, frozenset()):
            assert render_table(t, suspects) == reference_render(t, suspects)
