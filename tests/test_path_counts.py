"""Testability without listing paths, and the covers on bit masks.

``ambiguity_groups`` partitions statements by exact covering-path counts;
``ambiguity_groups_by_paths`` partitions them by the enumerated paths.  The
greedy covers pick by popcounts of bit masks; ``greedy_path_cover`` and
``greedy_diagnostic_test`` pick by frozenset differences.  Each pair must
agree on every seeded graph.
"""

import json
import time
from dataclasses import replace
from random import Random

import pytest

from rtgdiag import (CyclicGraph, Node, ResponseVector, RtgError, RTGraph, attach_response,
                     ambiguity_groups, build_complete_test, build_extended_fdt, build_rtg,
                     diagnose, dumps_graph, enumerate_paths, make_rib,
                     minimal_diagnostic_test, minimal_path_cover, parse_program)
from rtgdiag.cli import main

from randmodels import (if_chain_program, ladder_model, random_dag_model,
                        two_rib_fragment_graph)
from reference import ambiguity_groups_by_paths, greedy_diagnostic_test, greedy_path_cover

IF_CHAIN_SHAPES = ((2,), (3, 2), (2, 2, 2), (4, 3), (5, 5), (3, 4, 3), (2, 3, 4))


def members(groups):
    return [gr.members for gr in groups]


def assert_same_groups(g):
    groups = ambiguity_groups(g)
    assert members(groups) == members(ambiguity_groups_by_paths(g))
    for gr in groups:
        assert gr.signature == {s.fragment for s in gr.members}
    return groups


def lowered(shape, seed=0):
    return build_rtg(parse_program(if_chain_program(shape, seed=seed)))[0]


def shared_fragments(rng, g):
    """*g* with fragment ids drawn from a small pool, so that fragments sit
    on several ribs, some of them in series on one path."""
    pool = ("I1", "I2", "I3", "I4")
    return g.with_ribs(replace(r, fragment=rng.choice(pool)) for r in g.ribs)


def with_dead_ribs(g):
    """*g* plus a rib into a dead end and a rib out of a node that nothing
    reaches: both fragments lie on no input-output path."""
    nodes = g.nodes[:-1] + (Node("R8", "internal"), Node("R9", "internal"), g.nodes[-1])
    ribs = g.ribs + (make_rib("I20", "X", "R8", [(1, "acc", ("x", 1.0))]),
                     make_rib("I21", "R9", "Y", [(1, "acc", ("x", 1.0))]))
    return RTGraph(nodes=nodes, ribs=ribs)


# --- ambiguity groups from path counts ---------------------------------------------


def test_groups_match_enumeration_on_random_models():
    rng = Random(6101)
    multi = 0
    for _ in range(320):
        g = random_dag_model(rng, max_internal=5, max_fragments=12)
        groups = assert_same_groups(g)
        multi += any(len(gr.signature) > 1 for gr in groups)
    # many graphs hold a group spanning several fragments
    assert multi > 100


def test_groups_match_enumeration_with_shared_fragments():
    rng = Random(6102)
    serial = 0
    for _ in range(150):
        g = shared_fragments(rng, random_dag_model(rng, max_internal=4, max_fragments=10))
        assert_same_groups(g)
        serial += any(len(set(p.fragments)) < len(p.fragments) for p in enumerate_paths(g))
    assert serial > 30


@pytest.mark.parametrize("k", range(1, 8))
def test_groups_match_enumeration_on_ladders(k):
    groups = assert_same_groups(ladder_model(k))
    assert len(groups) == 2 * k


@pytest.mark.parametrize("shape", IF_CHAIN_SHAPES)
def test_groups_match_enumeration_on_lowered_if_chains(shape):
    assert_same_groups(lowered(shape, seed=sum(shape)))


def test_groups_match_enumeration_on_a_fragment_of_two_ribs():
    groups = assert_same_groups(two_rib_fragment_graph())
    assert [gr.signature for gr in groups] == [{"I1"}, {"I2"}]


def test_fragments_on_no_path_form_one_group():
    rng = Random(6103)
    for _ in range(40):
        groups = assert_same_groups(with_dead_ribs(random_dag_model(rng)))
        assert {"I20", "I21"} in [gr.signature for gr in groups]


def test_cyclic_graph_raises_a_typed_error():
    g = RTGraph(nodes=(Node("X", "input"), Node("R1", "internal"), Node("R2", "internal"),
                       Node("Y", "output")),
                ribs=(make_rib("I1", "X", "R1", [(1, "a", ("x", 1.0))]),
                      make_rib("I2", "R1", "R2", [(1, "a", ("a", 1.0))]),
                      make_rib("I3", "R2", "R1", [(1, "a", ("a", 1.0))]),
                      make_rib("I4", "R2", "Y", [(1, "a", ("a", 1.0))])))
    with pytest.raises(CyclicGraph) as exc:
        ambiguity_groups(g)
    assert isinstance(exc.value, RtgError)


def test_testability_at_graph_size(tmp_path, capsys, monkeypatch):
    """2^40 paths: the groups come from counts, so a cap of one path holds."""
    path = tmp_path / "ladder40.json"
    path.write_text(dumps_graph(ladder_model(40)), encoding="utf-8")
    monkeypatch.setenv("RTGDIAG_CAPS", "paths=1")
    start = time.perf_counter()
    code = main(["testability", "--graph", str(path), "--format", "json"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    groups = json.loads(out)["groups"]
    assert len(groups) == 80
    assert all(len({label[:-1] for label in gr}) == 1 for gr in groups)
    assert elapsed < 1.0


# --- the covers on bit masks -------------------------------------------------------


def cover_graphs():
    rng = Random(6104)
    graphs = [random_dag_model(rng, max_internal=5, max_fragments=12) for _ in range(60)]
    graphs += [lowered(shape) for shape in IF_CHAIN_SHAPES]
    graphs += [ladder_model(k) for k in range(1, 6)]
    graphs += [two_rib_fragment_graph()]
    return graphs


def test_greedy_path_cover_matches_frozenset_reference():
    for g in cover_graphs():
        paths = enumerate_paths(g)
        keep = set(greedy_path_cover(g, paths))
        chosen = minimal_path_cover(g, paths, exact_cap=0)
        assert [p.label for p in chosen] == [p.label for p in paths if p.label in keep]


def test_greedy_diagnostic_test_matches_frozenset_reference():
    for g in cover_graphs():
        suite = build_complete_test(g)
        keep = set(greedy_diagnostic_test(suite, g.statement_ids))
        chosen = minimal_diagnostic_test(suite, g.statement_ids, exact_cap=0)
        assert list(chosen.labels()) == [t.label for t in suite.terms if t.label in keep]


# --- table groups kept per table -----------------------------------------------------


def test_table_groups_are_built_once_per_rows_view():
    g = ladder_model(3)
    table = build_extended_fdt(g, build_complete_test(g))
    via = {f: frozenset(p.label for p in enumerate_paths(g) if f in p.fragments)
           for f in ("I5", "I6")}
    # 8 paths of 8 rows each; the even paths cross I5, the odd ones I6
    first = diagnose(attach_response(table, ResponseVector(((0,) * 8 + (1,) * 8) * 4)))
    kept = table.memo["ambiguity"]
    second = diagnose(attach_response(table, ResponseVector(((1,) * 8 + (0,) * 8) * 4)))
    assert table.memo["ambiguity"] is kept
    assert [gr.signature for gr in first.ambiguity] == [via["I6"]]
    assert [gr.signature for gr in second.ambiguity] == [via["I5"]]


def test_a_table_with_other_blocks_reads_no_stale_groups():
    g = ladder_model(3)
    table = build_extended_fdt(g, build_complete_test(g))
    diagnose(attach_response(table, ResponseVector((1,) * 64)))
    # the first path's rows only, sharing the memo: every statement they
    # mark has that one path as its signature, so F' is one group, where the
    # whole table's partition would split it by fragment
    first = replace(table, blocks=table.blocks[:1])
    assert first.memo is table.memo
    result = diagnose(attach_response(first, ResponseVector((1,) * 8)))
    assert str(result.reduced) == "I11 I12 ∨ I31 I32 ∨ I51 I52"
    assert [gr.signature for gr in result.ambiguity] == [frozenset({"X12Y₁"})]
