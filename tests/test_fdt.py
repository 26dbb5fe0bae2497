import dataclasses

import pytest

from rtgdiag import (Block, FaultDetectionTable, LengthMismatch, Path,
                     ResponseVector, SchemaError, TestSuite, TestTerm, attach_response,
                     build_extended_fdt, build_generalized_fdt, enumerate_paths, loads_table,
                     table_json, table_text)
from rtgdiag.testsynth import build_complete_test

from randmodels import single_rib_graph
from reference import row_key

GENERALIZED_MARKS = {
    "X14Y": {"I11", "I41", "I44", "I45", "I61"},
    "X15Y": {"I11", "I51", "I52", "I55", "I61"},
    "X2Y": {"I22", "I23", "I61"},
    "X3Y": {"I31", "I32", "I61"},
}

EXTENDED_MARKS = {
    "111₁": {"I11", "I41", "I61"},
    "141₁": {"I11", "I44", "I61"},
    "151₁": {"I11", "I45", "I61"},
    "111₂": {"I11", "I51", "I61"},
    "121₁": {"I11", "I52", "I61"},
    "151₂": {"I11", "I55", "I61"},
    "21₁": {"I22", "I61"},
    "31": {"I23", "I61"},
    "11": {"I31", "I61"},
    "21₂": {"I32", "I61"},
}


def test_generalized_rows_match_reference(g, paths):
    table = build_generalized_fdt(g, paths)
    assert table.kind == "generalized"
    got = {r.label: {m.label for m in r.selection} for r in table.rows}
    assert got == GENERALIZED_MARKS


def test_extended_rows_match_reference(extended):
    got = {r.label: {m.label for m in r.selection} for r in extended.rows}
    assert got == EXTENDED_MARKS
    assert extended.labels() == tuple(EXTENDED_MARKS)


def test_single_rib_generalized_row():
    g = single_rib_graph()
    table = build_generalized_fdt(g, enumerate_paths(g))
    assert len(table.rows) == 1
    assert {m.label for m in table.rows[0].selection} == {"I11"}


def test_term_marks_subset_of_path_marks(g, paths, suite, extended):
    generalized = build_generalized_fdt(g, paths)
    by_path = {r.label: frozenset(r.selection) for r in generalized.rows}
    for row in extended.rows:
        assert frozenset(row.selection) <= by_path[row.path.label]


def test_extended_marks_union_is_column_set(g, extended):
    union = frozenset().union(*(r.selection for r in extended.rows))
    assert union == frozenset(extended.columns)


def test_attach_response(extended):
    v = ResponseVector((0, 0, 0, 1, 1, 1, 0, 0, 0, 0))
    bound = attach_response(extended, v)
    assert bound.response == v
    assert extended.response is None  # original untouched


def test_attach_response_generalized(g, paths):
    table = build_generalized_fdt(g, paths)
    bound = attach_response(table, ResponseVector((0, 1, 0, 0)))
    assert bound.response.bits == (0, 1, 0, 0)
    assert bound.blocks is table.blocks
    assert bound.memo is table.memo


def test_attach_response_length_mismatch(extended):
    with pytest.raises(LengthMismatch):
        attach_response(extended, ResponseVector((0, 1)))


def test_json_round_trip(g, paths, extended):
    generalized = build_generalized_fdt(g, paths)
    for table in (generalized, attach_response(generalized, ResponseVector((0, 1, 0, 0))),
                  extended,
                  attach_response(extended, ResponseVector((0, 0, 0, 1, 1, 1, 0, 0, 0, 0)))):
        loaded = loads_table("".join(table_json(table)))
        # a loaded table holds one row per block on a label-only path, so
        # compare field by field and each row by what the file keeps of it
        assert ((loaded.kind, loaded.columns, tuple(map(row_key, loaded.rows)), loaded.response)
                == (table.kind, table.columns, tuple(map(row_key, table.rows)), table.response))
    assert loads_table("".join(table_json(extended))).response is None
    # a loaded table's paths are labels only: they pass no known monitors
    assert loads_table("".join(table_json(extended))).blocks[0].path.nodes == ()


def test_response_bits_are_checked(g, suite):
    # a bit of 2 would read as a failing row in diagnosis while the table's
    # own JSON could not be loaded back
    with pytest.raises(SchemaError, match="bit 3 is 2, expected 0 or 1"):
        attach_response(build_extended_fdt(g, suite),
                        ResponseVector((0, 0, 0, 2, 0, 0, 0, 0, 0, 0)))
    for bad in ((0, -1), (None,), (True, 0), (0, 1.0)):
        with pytest.raises(SchemaError):
            ResponseVector(bad)
    assert ResponseVector((0, 1, 1)).bits == (0, 1, 1)
    assert ResponseVector(()).bits == ()


@pytest.mark.parametrize("response", [(0, 0, 0, 1, 1, 1, 0, 0, 0, 0), [0] * 10, "0001110000"])
def test_table_rejects_a_response_that_is_not_a_response_vector(extended, response):
    # diagnosis would otherwise end in an AttributeError on .bits
    with pytest.raises(SchemaError, match="must be a ResponseVector"):
        attach_response(extended, response)
    with pytest.raises(SchemaError):
        FaultDetectionTable(extended.kind, extended.columns, extended.blocks, response)


@pytest.mark.parametrize("bits", [(), (0, 1), (0,) * 11])
def test_table_rejects_a_response_of_the_wrong_length(extended, bits):
    with pytest.raises(LengthMismatch, match=f"response has {len(bits)} bits for 10 rows"):
        FaultDetectionTable(extended.kind, extended.columns, extended.blocks, ResponseVector(bits))
    with pytest.raises(LengthMismatch):
        dataclasses.replace(extended, blocks=extended.blocks[:-1],
                            response=ResponseVector((0,) * 10))


def test_render_cell_content(extended):
    v = ResponseVector((0, 0, 0, 1, 1, 1, 0, 0, 0, 0))
    text = "".join(table_text(attach_response(extended, v)))
    lines = text.splitlines()
    assert lines[0].split() == ["Ti\\Ij", "I11", "I22", "I23", "I31", "I32", "I41",
                                "I44", "I45", "I51", "I52", "I55", "I61", "V"]
    # row 111₂ marks I11, I51, I61 and fails
    row = next(l for l in lines if l.startswith("111₂"))
    assert row.split() == ["111₂", "1", "1", "1", "1"]
    # column alignment: the 1 under I51 sits in the I51 column span
    header = lines[0]
    i51 = header.index("I51")
    i41 = header.index("I41")
    assert row[i51:i51 + 3].strip() == "1"
    assert row[i41:i41 + 3].strip() == ""


def test_complete_test_rows_follow_suite_order(g):
    suite = build_complete_test(g)
    table = build_extended_fdt(g, suite)
    assert table.labels() == suite.labels()


def test_extended_table_holds_the_suite_blocks(suite, extended):
    assert len(extended.blocks) == 4
    assert all(ours is theirs for ours, theirs in zip(extended.blocks, suite.blocks, strict=True))


def test_block_of_round_trips_a_term_and_a_row(suite):
    term = suite.terms[4]
    [back] = TestSuite((Block.of(term.path, term.selection, term.label),)).terms
    assert back == term
    row = TestTerm(Path("X15Y", ()), term.selection, "r")
    [back] = FaultDetectionTable("extended", (), (Block.of(row.path, row.selection,
                                                           row.label),)).rows
    assert back == row


def test_the_rows_of_an_extended_table_are_the_terms_of_its_suite(g, suite):
    assert build_extended_fdt(g, suite).rows == suite.terms


def test_a_loaded_row_is_a_term_on_a_label_only_path(g, paths, extended):
    for table in (build_generalized_fdt(g, paths), extended):
        loaded = loads_table("".join(table_json(table))).rows
        assert all(type(r) is TestTerm for r in loaded)
        assert [r.path for r in loaded] == [Path(r.path.label, ()) for r in table.rows]


def test_a_block_has_one_label_per_selection(g):
    a, b = g.statement_ids[:2]
    block = Block(Path("p", ()), ((a, b), (a,)), ("r1", "r2"))
    rows = FaultDetectionTable("extended", (), (block,)).rows
    assert [r.selection for r in rows] == [(a, a), (b, a)]
    assert [r.path for r in rows] == [Path("p", ()), Path("p", ())]
    with pytest.raises(LengthMismatch, match="1 labels for a product of 2 selections"):
        Block(Path("p", ()), ((a, b),), ("r1",))
