import dataclasses
from itertools import combinations
from random import Random

import pytest

from rtgdiag import (Node, PathExplosion, RTGraph, TermExplosion, Uncoverable, activation_formula,
                     build_complete_test, enumerate_paths, make_rib,
                     minimal_diagnostic_test, minimal_path_cover, validate_graph)
from rtgdiag.rtg import natural_key, subscript
from rtgdiag.testsynth import _exact_cover, _greedy_cover

from randmodels import chain_model, random_dag_model, single_rib_graph
from reference import brute_min_cover_size, first_min_cover, greedy_cover, term_suite

PAPER_LABELS = ["111₁", "141₁", "151₁", "111₂", "121₁",
                "151₂", "21₁", "31", "11", "21₂"]


def diamond_graph():
    return RTGraph(
        nodes=(Node("X", "input"), Node("Y", "output")),
        ribs=(make_rib("I1", "X", "Y", [(1, "a", ("x", 1.0))]),
              make_rib("I2", "X", "Y", [(1, "b", ("x", 2.0))])),
    )


def test_fixture_paths(paths):
    assert [p.label for p in paths] == ["X14Y", "X15Y", "X2Y", "X3Y"]
    assert [p.fragments for p in paths] == [
        ("I1", "I4", "I6"), ("I1", "I5", "I6"), ("I2", "I6"), ("I3", "I6")]


def test_single_rib_graph_has_one_path():
    assert [p.label for p in enumerate_paths(single_rib_graph())] == ["XY"]


def test_parallel_ribs_give_two_paths():
    labels = [p.label for p in enumerate_paths(diamond_graph())]
    assert len(labels) == 2
    assert len(set(labels)) == 2


def test_long_chain_is_one_path():
    # one rib more than the interpreter's default recursion limit allows frames
    g = chain_model(1200)
    (path,) = enumerate_paths(g)
    assert path.edges == g.ribs
    assert path.label == "X" + "".join(str(i) for i in range(1, 1200)) + "Y"
    assert minimal_path_cover(g) == [path]


def test_activation_formulas(g, paths):
    assert [activation_formula(g, p) for p in paths] == [
        "[(1)(1 ∨ 4 ∨ 5)(1)]", "[(1)(1 ∨ 2 ∨ 5)(1)]", "[(2 ∨ 3)(1)]", "[(1 ∨ 2)(1)]"]


def test_block_brackets_are_the_fragment_sids(g, paths):
    # the table writers key their per-bracket caches on these very tuples
    for block in build_complete_test(g, paths).blocks:
        assert len(block.brackets) == len(block.path.edges)
        for bracket, rib in zip(block.brackets, block.path.edges):
            assert bracket is g.fragment_sids(rib.fragment)


def test_expansion_count_is_bracket_product(g, paths):
    suite = build_complete_test(g, paths)
    for p in paths:
        expected = 1
        for r in p.edges:
            expected *= len(g.fragment_sids(r.fragment))
        terms = [t for t in suite.terms if t.path == p]
        assert len(terms) == expected
        assert len({t.selection for t in terms}) == expected


def test_term_cap_raises(g, paths):
    # the first path, X14Y, expands to three terms
    with pytest.raises(TermExplosion, match="expansion of X14Y has 3 terms"):
        build_complete_test(g, paths, term_cap=2)


def test_path_cap_raises(g):
    with pytest.raises(PathExplosion):
        enumerate_paths(g, path_cap=2)


def test_complete_test_labels_match_reference(suite):
    assert list(suite.labels()) == PAPER_LABELS


def test_complete_test_selections_cover_all_statements(g, suite):
    selected = {s for t in suite.terms for s in t.selection}
    assert selected == set(g.statement_ids)


def test_fixture_path_cover_is_all_four_paths(g, paths):
    # independent oracle: exhaustive search over all nonempty path subsets
    universe = frozenset(n.name for n in g.nodes) | frozenset(r.key for r in g.ribs)
    best = None
    for k in range(1, len(paths) + 1):
        for combo in combinations(paths, k):
            covered = set()
            for p in combo:
                covered |= set(p.nodes) | {r.key for r in p.edges}
            if covered == universe:
                best = k
                break
        if best:
            break
    assert best == 4

    chosen = minimal_path_cover(g)
    assert [p.label for p in chosen] == ["X14Y", "X15Y", "X2Y", "X3Y"]


def test_single_path_cover_is_that_path():
    g = single_rib_graph()
    paths = enumerate_paths(g)
    assert minimal_path_cover(g) == paths


def test_diamond_cover_needs_both_paths():
    g = diamond_graph()
    paths = enumerate_paths(g)
    assert minimal_path_cover(g) == paths


def test_fixture_diagnostic_test_is_irreducible(g, suite):
    # oracle: no 9-term subset covers all 12 statement ids
    universe = set(g.statement_ids)
    for combo in combinations(suite.terms, len(suite.terms) - 1):
        assert {s for t in combo for s in t.selection} != universe
    minimal = minimal_diagnostic_test(suite, g.statement_ids)
    assert list(minimal.labels()) == PAPER_LABELS


def test_single_statement_graph_needs_one_term():
    g = single_rib_graph()
    suite = build_complete_test(g)
    minimal = minimal_diagnostic_test(suite, g.statement_ids)
    assert len(minimal.terms) == 1


def test_parallel_identical_opcode_ribs_need_two_terms():
    g = RTGraph(
        nodes=(Node("X", "input"), Node("Y", "output")),
        ribs=(make_rib("I1", "X", "Y", [(1, "a", ("x", 1.0))]),
              make_rib("I2", "X", "Y", [(1, "b", ("x", 2.0))])),
    )
    suite = build_complete_test(g)
    # oracle: brute force over term subsets
    assert brute_min_cover_size(set(g.statement_ids),
                                [t.selection for t in suite.terms]) == 2
    assert len(minimal_diagnostic_test(suite, g.statement_ids).terms) == 2


def test_uncoverable_statement_raises(g, suite):
    partial = term_suite(suite.terms[:3])
    with pytest.raises(Uncoverable):
        minimal_diagnostic_test(partial, g.statement_ids)


def test_exact_cover_matches_brute_force_on_random_models():
    rng = Random(1105)
    for _ in range(30):
        g = random_dag_model(rng)
        paths = enumerate_paths(g)
        universe = frozenset(n.name for n in g.nodes) | frozenset(r.key for r in g.ribs)
        expected = brute_min_cover_size(
            universe, [set(p.nodes) | {r.key for r in p.edges} for p in paths])
        assert len(minimal_path_cover(g)) == expected


# --- oracles for the indexed routes -------------------------------------------


def mask_greedy_cover(universe, candidates):
    """_greedy_cover on the same problem with its sets as bit masks."""
    elements = sorted(universe, key=str)
    bit = {e: 1 << i for i, e in enumerate(elements)}
    return _greedy_cover(elements, [(label, sum(bit[e] for e in items))
                                    for label, items in candidates])


def _cover_outcome(solver, universe, candidates):
    try:
        return solver(universe, candidates)
    except Uncoverable as e:
        return ("uncoverable", e.element)


def test_greedy_cover_matches_min_scan_reference():
    rng = Random(3107)
    tallies = {"uncoverable": 0, "key-ties": 0}
    for _ in range(600):
        n = rng.randint(1, 14)
        universe = frozenset(range(n)) | (frozenset({"extra"}) if rng.random() < 0.15
                                          else frozenset())
        candidates = []
        for _ in range(rng.randint(0, 40)):
            k = rng.randint(0, 12)
            # I1 and I01 share a natural key; small sets give many equal gains
            label = rng.choice((f"I{k}", f"I{k:02d}", f"I{k}{subscript(rng.randint(1, 3))}",
                                f"{k}", f"T{k}x{rng.randint(0, 2)}"))
            candidates.append((label, frozenset(rng.sample(range(n), rng.randint(0, min(3, n))))))
        # uncoverable families include ones that use up every candidate first
        expected = _cover_outcome(greedy_cover, universe, candidates)
        assert _cover_outcome(mask_greedy_cover, universe, candidates) == expected
        tallies["uncoverable"] += isinstance(expected, tuple)
        keys = [natural_key(label) for label in dict(candidates)]
        tallies["key-ties"] += len(set(keys)) < len(keys)
    assert tallies["uncoverable"] > 50 and tallies["key-ties"] > 100


def _masked(elements, candidates):
    bit = {e: 1 << i for i, e in enumerate(elements)}
    return [(label, sum(bit[e] for e in set(items))) for label, items in candidates]


def test_exact_cover_returns_the_first_minimum_cover():
    # which minimum cover, not only its size: the tie-break goes to the
    # naturally smallest labels, ranked as the reference ranks them
    rng = Random(2903)
    problems = []
    while len(problems) < 40:
        g = random_dag_model(rng)
        blocks = build_complete_test(g).blocks
        if sum(map(len, blocks)) <= 20:
            problems.append((list(g.statement_ids), [(label, selection) for b in blocks
                                                     for selection, label in b.items()]))
    for _ in range(300):
        # each element in 1-4 of at most 12 sets; T1 and T01 share a natural key
        sets = [set() for _ in range(rng.randint(1, 12))]
        elements = list(range(rng.randint(0, 30)))
        for e in elements:
            for i in rng.sample(range(len(sets)), rng.randint(1, min(len(sets), 4))):
                sets[i].add(e)
        labels = (rng.choice((f"T{k}", f"T{k:02d}", f"{k}"))
                  for k in rng.choices(range(10), k=len(sets)))
        problems.append((elements, list(zip(labels, sets))))
    tallies = {"uncoverable": 0, "beats-greedy": 0, "ties": 0}
    for elements, candidates in problems:
        expected = first_min_cover(elements, candidates)
        masked = _masked(elements, candidates)
        if expected is None:  # a later set of one label replaced an earlier
            with pytest.raises(Uncoverable):
                _exact_cover(elements, masked)
            tallies["uncoverable"] += 1
            continue
        assert _exact_cover(elements, masked) == expected
        tallies["beats-greedy"] += len(_greedy_cover(elements, masked)) > len(expected)
        by_label = dict(candidates)
        if len(by_label) <= 12:  # other minimum covers for the tie-break to pass over
            tallies["ties"] += sum(set(elements) <= set().union(*map(by_label.get, combo))
                                   for combo in combinations(by_label, len(expected))) > 1
    assert tallies["uncoverable"] > 20 and tallies["beats-greedy"] > 5 and tallies["ties"] > 50, \
        tallies


def reference_paths(g):
    """(label, edges) of every simple input-to-output path, by a DFS that
    filters and sorts the ribs leaving a node at every visit."""
    found = []

    def walk(node, visited, edges):
        if node == g.output_node:
            found.append(tuple(edges))
            return
        outs = sorted((r for r in g.ribs if r.src == node),
                      key=lambda r: (natural_key(r.fragment), natural_key(r.dst)))
        for r in outs:
            if r.dst not in visited:
                walk(r.dst, visited | {r.dst}, edges + [r])

    walk(g.input_node, {g.input_node}, [])
    found.sort(key=lambda edges: [natural_key(r.fragment) for r in edges])
    roles = {n.name: n.role for n in g.nodes}

    def short(name):
        digits = "".join(ch for ch in name if ch.isdigit())
        return digits if roles[name] == "internal" and digits else name

    labels = ["".join(short(n) for n in [e[0].src] + [r.dst for r in e]) for e in found]
    out = []
    for i, (label, edges) in enumerate(zip(labels, found)):
        if labels.count(label) > 1:
            label += subscript(labels[:i + 1].count(label))
        out.append((label, edges))
    return out


def test_enumerate_paths_matches_resorting_dfs_on_random_models():
    rng = Random(2203)
    renamed = 0
    for _ in range(150):
        g = random_dag_model(rng, max_internal=5, max_fragments=10)
        if rng.random() < 0.5:
            # shared and naturally tied fragment ids (I1 vs I01), in shuffled
            # rib order, make the destination and stable tie-breaks decide
            pool = ("I1", "I01", "I2", "I10", "I3")
            ribs = [dataclasses.replace(r, fragment=rng.choice(pool)) for r in g.ribs]
            rng.shuffle(ribs)
            g = g.with_ribs(ribs)
            renamed += 1
        assert [(p.label, p.edges) for p in enumerate_paths(g)] == reference_paths(g)
    assert renamed > 50


def _fixpoint_reach(g, start, forward):
    seen = {start}
    while True:
        grown = seen | {(r.dst if forward else r.src) for r in g.ribs
                        if (r.src if forward else r.dst) in seen}
        if grown == seen:
            return seen
        seen = grown


def test_validate_graph_reachability_matches_fixpoint():
    rng = Random(4409)
    tallies = {"dangling": 0, "unreachable": 0}
    for _ in range(200):
        g = random_dag_model(rng, max_internal=5, max_fragments=9)
        ribs = [r for r in g.ribs if rng.random() < 0.8]
        # a dead end after X and a node nothing reaches, feeding Y
        nodes = g.nodes[:-1] + (Node("R8", "internal"), Node("R9", "internal"), g.nodes[-1])
        ribs.append(make_rib("I20", "X", "R8", [(1, "acc", ("x", 1.0))]))
        if rng.random() < 0.5:
            ribs.append(make_rib("I21", "R9", "Y", [(1, "acc", ("x", 1.0))]))
        g = RTGraph(nodes=nodes, ribs=tuple(ribs))
        fwd = _fixpoint_reach(g, "X", True)
        back = _fixpoint_reach(g, "Y", False)
        violations = validate_graph(g)
        dangling = [n.name for n in g.nodes
                    if n.role == "internal" and not (n.name in fwd and n.name in back)]
        assert [v.subject for v in violations if v.code == "dangling-node"] == dangling
        assert any(v.code == "output-unreachable" for v in violations) == ("Y" not in fwd)
        assert {v.code for v in violations} <= {"dangling-node", "output-unreachable"}
        tallies["dangling"] += len(dangling) > 2
        tallies["unreachable"] += "Y" not in fwd
    assert tallies["dangling"] > 20 and tallies["unreachable"] > 5
