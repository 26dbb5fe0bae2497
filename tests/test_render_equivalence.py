"""The table writers against the whole-document references.

``table_text`` and ``table_json`` write a table a block at a time, and
``table_text`` an ordered block's rows from per-bracket segments shared
across blocks;
``tests/reference.py`` builds every text cell with ``c in r.selection`` and
the JSON document row by row.  The chunks joined must give the same bytes
on seeded tables: blocks whose rows' bits differ or agree, bracket objects
shared by blocks at different gap positions, blocks that are not ordered
(permuted or duplicated columns, brackets out of column order), marks that
name no column, tables with no columns or no rows, with and without V and
with and without the ``Faults`` suspects row, and tables loaded back from
their JSON.
"""

from math import prod
from random import Random

import pytest

from rtgdiag import (Block, Path, ResponseVector, SchemaError, StatementId, TestTerm,
                     build_complete_test, build_extended_fdt, build_generalized_fdt,
                     enumerate_paths, loads_table, table_json, table_text)
from rtgdiag.fdt import FaultDetectionTable
from rtgdiag.rtg import dumps_json

from randmodels import random_dag_model
from reference import render_table, row_blocks, table_to_json

STRAY = StatementId("Z9", 1, 1, "Z91")  # names no column of any table below


def bits_for(rng: Random, blocks) -> ResponseVector:
    """One bit per row: each block's rows share one bit or take random ones."""
    bits = []
    for b in blocks:
        bits += [rng.randint(0, 1)] * len(b) if rng.random() < 0.5 else [
            rng.randint(0, 1) for _ in range(len(b))]
    return ResponseVector(tuple(bits))


def shuffled_columns(rng: Random, columns) -> tuple[StatementId, ...]:
    """*columns* as given, permuted, or with some of them duplicated."""
    columns = list(columns)
    choice = rng.random()
    if choice < 0.25:
        rng.shuffle(columns)
    elif choice < 0.5 and columns:
        for c in rng.sample(columns, rng.randint(1, len(columns))):
            columns.insert(rng.randrange(len(columns) + 1), c)
    return tuple(columns)


def shared_bracket_blocks(rng: Random, columns) -> tuple[Block, ...]:
    """Blocks drawn from one pool of bracket objects, one per run of
    consecutive columns: a block takes some runs in column order (ordered,
    with gaps where it skips runs) or in any order, so one bracket object
    sits at different gap positions in different blocks."""
    runs = []
    i = 0
    while i < len(columns):
        n = rng.randint(1, 3)
        runs.append(columns[i:i + n])
        i += n
    pool = [tuple(rng.sample(run, rng.randint(1, len(run))))
            + ((STRAY,) if rng.random() < 0.1 else ()) for run in runs]
    blocks = []
    for p in range(rng.randint(0, 6)):
        brackets = rng.sample(pool, rng.randint(0, min(4, len(pool))))
        if rng.random() < 0.7:
            brackets.sort(key=pool.index)
        labels = tuple(f"r{p}.{j}" for j in range(prod(map(len, brackets))))
        blocks.append(Block(Path(f"p{p}", ()), tuple(brackets), labels))
    return tuple(blocks)


def seeded_tables(seed: int):
    """Tables from one seeded random model: its extended table (the
    complete test's blocks), its generalized table, a row-level copy with
    stray marks, and blocks over a pool of shared brackets; each with
    columns as built, permuted or duplicated, and with or without V."""
    rng = Random(seed)
    g = random_dag_model(rng, max_internal=3, max_fragments=6, max_statements=4)
    paths = enumerate_paths(g)
    extended = build_extended_fdt(g, build_complete_test(g, paths))
    stray = row_blocks(TestTerm(r.path, r.selection + ((STRAY,) if rng.random() < 0.3 else ()),
                                r.label) for r in extended.rows)
    for kind, blocks in (("extended", extended.blocks),
                         ("generalized", build_generalized_fdt(g, paths).blocks),
                         ("extended", stray),
                         ("extended", shared_bracket_blocks(rng, g.statement_ids))):
        columns = shuffled_columns(rng, g.statement_ids)
        yield FaultDetectionTable(kind, columns, blocks,
                                  bits_for(rng, blocks) if rng.random() < 0.7 else None)


def suspect_sets(rng: Random, columns):
    suspects = frozenset(rng.sample(columns, rng.randint(0, len(columns))))
    return None, suspects, suspects | {STRAY}


def text(t, suspects=None) -> str:
    return "".join(table_text(t, suspects))


def json_text(t) -> str:
    return "".join(table_json(t))


@pytest.mark.parametrize("seed", range(40))
def test_render_matches_the_per_cell_reference(seed):
    rng = Random(seed)
    for table in seeded_tables(seed):
        for suspects in suspect_sets(rng, table.columns):
            assert text(table, suspects) == render_table(table, suspects)


@pytest.mark.parametrize("seed", range(40))
def test_json_chunks_match_the_document_reference(seed):
    for table in seeded_tables(seed):
        assert json_text(table) == dumps_json(table_to_json(table))
        marks = {s for r in table.rows for s in r.selection}
        if not table.labels():  # a table file holds at least one row
            with pytest.raises(SchemaError, match="no rows"):
                loads_table(json_text(table))
        elif STRAY not in marks:  # a table file marks columns only
            loaded = loads_table(json_text(table))
            assert json_text(loaded) == dumps_json(table_to_json(loaded)) == json_text(table)
            assert text(loaded) == render_table(loaded)


def test_a_shared_bracket_at_two_gap_positions():
    a, b, c, d = (StatementId(f"I{i}", 1, 1, f"I{i}1") for i in range(1, 5))
    tail = (c, d)  # one bracket object, after a gap in one block and none in the other
    blocks = (Block(Path("p", ()), ((a,), tail), ("t1", "t2")),
              Block(Path("q", ()), ((b,), tail), ("t3", "t4")),
              Block(Path("r", ()), (tail, (a, b)), ("t5", "t6", "t7", "t8")))
    for v in (None, ResponseVector((1, 1, 0, 1, 0, 0, 1, 0))):
        t = FaultDetectionTable("extended", (a, b, c, d), blocks, v)
        assert text(t) == render_table(t)
        assert json_text(t) == dumps_json(table_to_json(t))
    assert text(t).splitlines()[1].split() == ["t1", "1", "1", "1"]
    assert text(t).splitlines()[4].split() == ["t4", "1", "1", "1"]


def test_duplicate_columns_are_all_marked():
    a = StatementId("I1", 1, 1, "I11")
    b = StatementId("I2", 1, 1, "I21")
    t = FaultDetectionTable("extended", (a, b, a),
                            row_blocks([TestTerm(Path("p", ()), (a,), "t1")]), ResponseVector((1,)))
    assert text(t) == render_table(t)
    assert text(t).splitlines()[1].split() == ["t1", "1", "1", "1"]


@pytest.mark.parametrize("rows", [(), (TestTerm(Path("p", ()), (STRAY,), "t"),)])
def test_tables_without_columns_or_rows(rows):
    for columns in ((), (StatementId("I1", 1, 1, "I11"),)):
        for v in (None, ResponseVector((0,) * len(rows))):
            t = FaultDetectionTable("extended", columns, row_blocks(rows), v)
            for suspects in (None, frozenset()):
                assert text(t, suspects) == render_table(t, suspects)
            assert json_text(t) == dumps_json(table_to_json(t))
