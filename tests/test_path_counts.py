"""Testability and the path cover without listing paths, and the
diagnostic cover on bit masks.

``ambiguity_groups`` partitions statements by exact covering-path counts;
``ambiguity_groups_by_paths`` partitions them by the enumerated paths.  The
path cover is a minimum flow labelled by counting: its size must equal the
brute-force minimum over the enumerated paths, and its labels, like every
counted label, those of ``enumerate_paths``.  The greedy diagnostic cover
picks by popcounts of bit masks, ``greedy_diagnostic_test`` by frozenset
differences.  Each pair must agree on every seeded graph.
"""

import json
import os
import time
from dataclasses import replace
from random import Random

import pytest

from rtgdiag import (CyclicGraph, Node, ResponseVector, RtgError, RTGraph, Uncoverable,
                     attach_response, ambiguity_groups, build_complete_test,
                     build_extended_fdt, build_rtg, diagnose, dumps_graph, enumerate_paths,
                     make_rib, minimal_diagnostic_test, minimal_path_cover, parse_program)
from rtgdiag import diagnosis, testsynth
from rtgdiag.cli import main
from rtgdiag.rtg import subscript
from rtgdiag.testsynth import _path_labels

from randmodels import (if_chain_program, ladder_model, random_dag_model,
                        two_rib_fragment_graph)
from reference import ambiguity_groups_by_paths, brute_min_cover_size, greedy_diagnostic_test

IF_CHAIN_SHAPES = ((2,), (3, 2), (2, 2, 2), (4, 3), (5, 5), (3, 4, 3), (2, 3, 4))
LISTING31 = os.path.join(os.path.dirname(__file__), "..", "fixtures", "listing31.swl")


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


def test_fingerprint_collisions_merge_no_classes(monkeypatch):
    # modulo 2 every weight is 1 and W is the parity of N: buckets hold
    # several classes, and only the exact union count may merge them
    monkeypatch.setattr(diagnosis, "_PRIME", 2)
    rng = Random(6107)
    for _ in range(60):
        assert_same_groups(random_dag_model(rng, max_internal=5, max_fragments=12))
    for shape in IF_CHAIN_SHAPES:
        assert_same_groups(lowered(shape))


def test_fragments_on_no_path_form_one_group():
    rng = Random(6103)
    for _ in range(40):
        groups = assert_same_groups(with_dead_ribs(random_dag_model(rng)))
        assert {"I20", "I21"} in [gr.signature for gr in groups]


def test_ribs_on_no_path_are_uncoverable():
    rng = Random(6108)
    for _ in range(20):
        with pytest.raises(Uncoverable) as exc:
            minimal_path_cover(with_dead_ribs(random_dag_model(rng)))
        # the least by str of R8, R9 and the keys of I20 and I21
        assert exc.value.element == ("I20", "X", "R8")


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
    with pytest.raises(CyclicGraph):
        minimal_path_cover(g)


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


def test_path_cover_at_graph_size(tmp_path, capsys, monkeypatch):
    """2^40 paths: the cover is a flow of two units, so a cap of one path holds."""
    path = tmp_path / "ladder40.json"
    path.write_text(dumps_graph(ladder_model(40)), encoding="utf-8")
    monkeypatch.setenv("RTGDIAG_CAPS", "paths=1")
    start = time.perf_counter()
    code = main(["cover", "--mode", "paths", "--graph", str(path), "--format", "json"])
    elapsed = time.perf_counter() - start
    spelled = "X" + "".join(str(i) for i in range(1, 40)) + "Y"
    assert code == 0
    # the odd ribs make the first path in enumeration order, the even ones the last
    assert json.loads(capsys.readouterr().out) == {
        "mode": "paths", "selected": [spelled + "₁", spelled + subscript(2 ** 40)],
        "exact": True}
    assert elapsed < 1.0


def test_cover_and_testability_list_no_path(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_paths called")

    monkeypatch.setattr(testsynth, "enumerate_paths", refuse)
    chain625 = tmp_path / "chain625.swl"
    chain625.write_text(if_chain_program((5, 5, 5, 5)), encoding="utf-8")
    for source in (("--program", LISTING31, "--unfolded"), ("--program", str(chain625))):
        for argv in (("cover", "--mode", "paths"), ("testability",)):
            assert main([*argv, *source]) == 0
    capsys.readouterr()


# --- the covers on bit masks -------------------------------------------------------


def cover_graphs():
    rng = Random(6104)
    graphs = [random_dag_model(rng, max_internal=5, max_fragments=12) for _ in range(60)]
    graphs += [lowered(shape) for shape in IF_CHAIN_SHAPES]
    graphs += [ladder_model(k) for k in range(1, 6)]
    graphs += [two_rib_fragment_graph()]
    return graphs


def flow_graphs():
    """cover_graphs and 300 more random models.  A third of them take shared
    and naturally tied fragment ids (I1 against I01) in shuffled rib order,
    so that equal fragment keys leave the order to depth-first position; a
    third also gain a parallel copy of some ribs, so that many paths spell
    the same nodes and their labels take subscripts."""
    rng = Random(6105)
    graphs = cover_graphs()
    for i in range(300):
        g = random_dag_model(rng, max_internal=5, max_fragments=12)
        if i % 3:
            ribs = list(g.ribs)
            if i % 3 == 2:
                ribs += rng.sample(ribs, rng.randint(1, min(3, len(ribs))))
            ribs = [replace(r, fragment=rng.choice(("I1", "I01", "I2", "I10", "I3")))
                    for r in ribs]
            rng.shuffle(ribs)
            g = g.with_ribs(ribs)
        graphs.append(g)
    return graphs


def colliding_names_graph():
    """Four ways to spell X111Y: X -> R1 -> R11 -> Y, X -> Q11 -> Q1 -> Y,
    X -> R111 -> Y twice over parallel ribs, and X -> S111 -> Y, whose
    fragments I1 I2 are those of the first path cut short, so it sorts
    before it; X -> R1 -> Q1 -> Y spells X11Y."""
    names = ("R1", "R11", "Q11", "Q1", "R111", "S111")
    edges = (("I1", "X", "R1"), ("I2", "R1", "R11"), ("I3", "R11", "Y"), ("I4", "X", "Q11"),
             ("I5", "Q11", "Q1"), ("I6", "Q1", "Y"), ("I7", "X", "R111"), ("I8", "R111", "Y"),
             ("I9", "R111", "Y"), ("I10", "R1", "Q1"), ("I1", "X", "S111"), ("I2", "S111", "Y"))
    return RTGraph(nodes=(Node("X", "input"), *(Node(n, "internal") for n in names),
                          Node("Y", "output")),
                   ribs=tuple(make_rib(f, a, b, [(1, "acc", ("x", 1.0))]) for f, a, b in edges))


def test_path_cover_is_a_minimum_cover_labelled_as_enumerated():
    universe_of = (lambda g: frozenset(n.name for n in g.nodes)
                   | frozenset(r.key for r in g.ribs))
    brute = 0
    for g in flow_graphs():
        paths = enumerate_paths(g)
        cover = minimal_path_cover(g)
        covered = frozenset().union(*(set(p.nodes) | {r.key for r in p.edges} for p in cover))
        assert covered == universe_of(g)
        # each picked path is the enumerated path with its ribs, label included
        assert cover == [p for p in paths if p in cover]
        if len(paths) <= 14:
            brute += 1
            assert len(cover) == brute_min_cover_size(
                universe_of(g), [set(p.nodes) | {r.key for r in p.edges} for p in paths])
    assert brute > 250


def test_counted_labels_match_enumeration():
    graphs = flow_graphs() + [ladder_model(k) for k in range(1, 9)] + [colliding_names_graph()]
    subscripted = 0
    for g in graphs:
        paths = enumerate_paths(g)
        labels = [p.label for p in paths]
        assert _path_labels(g, g.try_topo_order()[0], [p.edges for p in paths]) == labels
        subscripted += any(label[-1] in "₀₁₂₃₄₅₆₇₈₉" for label in labels)
    assert subscripted > 80
    labels = [p.label for p in enumerate_paths(colliding_names_graph())]
    assert labels == ["X111Y₁", "X111Y₂", "X11Y", "X111Y₃", "X111Y₄", "X111Y₅"]


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
