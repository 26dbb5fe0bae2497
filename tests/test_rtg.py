import dataclasses
from random import Random

import pytest

from rtgdiag import (Node, RTGraph, build_rtg, dumps_graph, loads_graph, make_rib,
                     parse_program, validate_graph)
from rtgdiag.fixtures import write_fixture_files
from rtgdiag.testsynth import enumerate_paths

from randmodels import if_chain_program, random_dag_model
from reference import MergeConflict, fig1_unmerged_variant, merge_equivalent_ribs

EXPECTED_COLUMNS = ["I11", "I22", "I23", "I31", "I32", "I41", "I44", "I45",
                    "I51", "I52", "I55", "I61"]


def test_opcode_alphabet_is_fixed():
    from rtgdiag import OP_ALPHABET
    assert {c: (op.name, op.arity) for c, op in OP_ALPHABET.items()} == {
        1: ("sum", 2), 2: ("mul", 2), 3: ("sub", 2), 4: ("div", 2), 5: ("sin", 1)}


def test_fixture_graph_is_valid(g):
    assert validate_graph(g) == []


def test_single_node_graph_reports_missing_output():
    lone = RTGraph(nodes=(Node("X", "input"),), ribs=())
    codes = {v.code for v in validate_graph(lone)}
    assert "no-output" in codes


def test_cycle_is_detected(g):
    ribs = [r if not (r.fragment == "I6" and r.src == "R4")
            else dataclasses.replace(r, dst="R1") for r in g.ribs]
    codes = {v.code for v in validate_graph(g.with_ribs(ribs))}
    assert "cycle" in codes


def test_dangling_internal_node_is_reported(g):
    bad = dataclasses.replace(g, nodes=g.nodes + (Node("R9", "internal"),))
    codes = {v.code for v in validate_graph(bad)}
    assert "dangling-node" in codes


def test_empty_rib_and_bad_arity_are_reported(g):
    ribs = list(g.ribs)
    ribs[0] = dataclasses.replace(ribs[0], statements=())
    bad_arity = make_rib("I9", "X", "R1", [(5, "q", ("x", 3.0))])
    bad = g.with_ribs(ribs + [bad_arity])
    codes = {v.code for v in validate_graph(bad)}
    assert "empty-rib" in codes
    assert "bad-arity" in codes


def test_inconsistent_shared_fragment_is_reported(g):
    ribs = list(g.ribs) + [make_rib("I6", "R1", "Y", [(3, "F", ("f", "w"))])]
    codes = {v.code for v in validate_graph(g.with_ribs(ribs))}
    assert "merge-inconsistent" in codes


def test_statement_id_labels_and_uniqueness(g):
    labels = [s.label for s in g.statement_ids]
    assert labels == EXPECTED_COLUMNS
    assert len(set(labels)) == len(labels)


def test_duplicate_opcode_in_fragment_gets_ordinal_subscript():
    rib = make_rib("I1", "X", "Y", [(1, "a", ("x", 1.0)), (1, "b", ("a", 2.0))])
    g = RTGraph(nodes=(Node("X", "input"), Node("Y", "output")), ribs=(rib,))
    assert [s.label for s in g.statement_ids] == ["I11₁", "I11₂"]


def test_merge_unifies_parallel_copies():
    merged = merge_equivalent_ribs(fig1_unmerged_variant())
    fragments = {r.fragment for r in merged.ribs}
    assert fragments == {"I1", "I2", "I3", "I4", "I5", "I6"}
    assert sum(1 for r in merged.ribs if r.fragment == "I6") == 4


def test_merge_without_duplicates_is_identity(g):
    assert merge_equivalent_ribs(g) == g


def test_merge_is_idempotent():
    once = merge_equivalent_ribs(fig1_unmerged_variant())
    assert merge_equivalent_ribs(once) == once


def test_merge_keeps_distinct_parallel_ribs():
    g = RTGraph(
        nodes=(Node("X", "input"), Node("Y", "output")),
        ribs=(make_rib("IA", "X", "Y", [(1, "f", ("x", 1.0))]),
              make_rib("IB", "X", "Y", [(1, "f", ("x", 2.0))])),
    )
    assert merge_equivalent_ribs(g) == g


def test_merge_conflict_raises():
    g = RTGraph(
        nodes=(Node("X", "input"), Node("Y", "output")),
        ribs=(make_rib("IA", "X", "Y", [(1, "f", ("x", 1.0))]),
              make_rib("IA", "X", "Y", [(3, "f", ("x", 1.0))])),
    )
    with pytest.raises(MergeConflict):
        merge_equivalent_ribs(g)


def test_merge_preserves_path_statement_multisets():
    variant = fig1_unmerged_variant()
    merged = merge_equivalent_ribs(variant)

    def shape(graph):
        out = []
        for p in enumerate_paths(graph):
            stmts = tuple((s.opcode, s.target, s.operands)
                          for r in p.edges for s in r.statements)
            out.append((p.nodes, stmts))
        return sorted(out)

    assert shape(variant) == shape(merged)


def test_json_round_trip(g):
    assert loads_graph(dumps_graph(g)) == g


def test_shipped_fixture_file_matches_builder(g):
    import os
    path = os.path.join(os.path.dirname(__file__), "..", "fixtures", "fig1.rtg.json")
    with open(path, encoding="utf-8") as fh:
        assert loads_graph(fh.read()) == g


def test_shipped_fixture_files_are_what_write_fixture_files_writes(tmp_path):
    # the CLI goldens read the shipped files, the library tests the fixture functions
    import os
    shipped = os.path.join(os.path.dirname(__file__), "..", "fixtures")
    for path in write_fixture_files(str(tmp_path)):
        name = os.path.basename(path)
        with open(path, "rb") as written, open(os.path.join(shipped, name), "rb") as fh:
            assert fh.read() == written.read(), name


def merged_variants(seed: int):
    """A random DAG with its ribs shuffled and some fragment ids shared by
    ribs whose statements differ, and a lowered program whose arm copies
    share one fragment."""
    rng = Random(seed)
    g = random_dag_model(rng, max_internal=4, max_fragments=8)
    ids = sorted({r.fragment for r in g.ribs})
    rename = {f: rng.choice(ids) if rng.random() < 0.4 else f for f in ids}
    ribs = [dataclasses.replace(r, fragment=rename[r.fragment]) for r in g.ribs]
    rng.shuffle(ribs)
    yield g.with_ribs(ribs)
    yield build_rtg(parse_program(if_chain_program((2, 3), seed)))[0]


@pytest.mark.parametrize("seed", range(30))
def test_the_fragment_index_matches_a_scan_of_the_ribs(seed):
    for g in merged_variants(seed):
        order, _ = g.try_topo_order()
        fragments = list(dict.fromkeys(r.fragment for r in g.ribs))
        assert sorted(g.fragments) == sorted(fragments)
        for f in fragments:
            ribs = [r for r in g.ribs if r.fragment == f]
            assert g.fragment_ribs(f) == tuple(sorted(ribs, key=lambda r: order.index(r.src)))
            assert g.statements_of(f) == ribs[0].statements
            assert [g.sid(f, s.ordinal).ordinal for s in ribs[0].statements] == \
                [s.ordinal for s in ribs[0].statements]
        assert g.statement_ids == tuple(s for f in g.fragments for s in g.fragment_sids(f))
        firsts = [min(order.index(r.src) for r in g.fragment_ribs(f)) for f in g.fragments]
        assert firsts == sorted(firsts)
