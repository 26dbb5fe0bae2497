"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Expected values marked "oracle" are computed here by independent means
(exhaustive enumeration or direct formula evaluation), never through the
code paths under test.
"""

import math
from random import Random

from rtgdiag import (Stimulus, attach_response, build_complete_test,
                     build_extended_fdt, build_generalized_fdt, build_rtg,
                     cnf_to_min_dnf, default_stimuli, diagnose, diagnose_generalized,
                     enumerate_paths, execute_program, inject_fault,
                     minimal_diagnostic_test, minimal_path_cover, parse_program,
                     recommend_observation_points, run_suite, verify_minimal_insertions)
from rtgdiag import testsynth
from rtgdiag.diagnosis import ambiguity_groups
from rtgdiag.fdt import ResponseVector
from rtgdiag.fixtures import fig1_graph, listing31_source, example_fault

from randmodels import random_clause_family, random_dag_model, random_mutation
from reference import brute_min_cover_size, brute_min_hitting_sets


def report(num: int, ok: bool, desc: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num:02d}: {desc}"


REFERENCE_LABELS = ["111₁", "141₁", "151₁", "111₂", "121₁",
                    "151₂", "21₁", "31", "11", "21₂"]

REFERENCE_MARKS = {
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

REFERENCE_V = (0, 0, 0, 1, 1, 1, 0, 0, 0, 0)


def test_criterion_01_path_enumeration():
    labels = [p.label for p in enumerate_paths(fig1_graph())]
    report(1, labels == ["X14Y", "X15Y", "X2Y", "X3Y"],
           "path enumeration yields exactly X14Y, X15Y, X2Y, X3Y")


def test_criterion_02_complete_test_expansion():
    g = fig1_graph()
    suite = build_complete_test(g)
    table = build_extended_fdt(g, suite)
    ok = list(suite.labels()) == REFERENCE_LABELS
    got = {r.label: {m.label for m in r.selection} for r in table.rows}
    ok = ok and got == REFERENCE_MARKS
    report(2, ok, "complete test has the 10 reference terms with exact marks")


def test_criterion_03_reference_fault_vector():
    g = fig1_graph()
    suite = build_complete_test(g)
    mutant = inject_fault(g, example_fault())
    v = run_suite(g, mutant, suite, default_stimuli(g, suite))
    report(3, v.bits == REFERENCE_V,
           "injected summation-to-subtraction fault on I5 gives V = (0001110000)")


def test_criterion_04_extended_diagnosis():
    g = fig1_graph()
    suite = build_complete_test(g)
    table = attach_response(build_extended_fdt(g, suite), ResponseVector(REFERENCE_V))
    result = diagnose(table, mode="strong")
    f_sets = {frozenset(s.label for s in t) for t in result.candidates.terms}
    ok = f_sets == {frozenset({"I11"}), frozenset({"I61"}),
                    frozenset({"I51", "I52", "I55"})}
    reduced = {frozenset(s.label for s in t) for t in result.reduced.terms}
    ok = ok and reduced == {frozenset({"I51", "I52", "I55"})}
    report(4, ok, "F = I11 v I61 v I51 I52 I55 and strong-mode F' = I51 I52 I55")


def test_criterion_05_generalized_diagnosis():
    g = fig1_graph()
    table = attach_response(build_generalized_fdt(g, enumerate_paths(g)),
                            ResponseVector((0, 1, 0, 0)))
    suspects = {s.label for s in diagnose_generalized(table)}
    report(5, suspects == {"I51", "I52", "I55"},
           "generalized diagnosis of V=(0100) yields {I51, I52, I55}")


def test_criterion_06_min_dnf_oracle_equivalence():
    rng = Random(20_240_601)
    mismatches = 0
    for _ in range(500):
        clauses = random_clause_family(rng)
        got = cnf_to_min_dnf(clauses).terms
        expected = frozenset(brute_min_hitting_sets(clauses))
        if got != expected:
            mismatches += 1
    report(6, mismatches == 0,
           "minimal DNF equals brute-force minimal hitting sets on 500 random families")


def test_criterion_07_single_fault_soundness():
    rng = Random(20_240_602)
    attempted = nonmasked = violations = 0
    while attempted < 200:
        graph = random_dag_model(rng, max_internal=3, max_fragments=6, max_statements=4)
        fault = random_mutation(rng, graph)
        if fault is None:
            continue
        attempted += 1
        suite = build_complete_test(graph)
        mutant = inject_fault(graph, fault)
        x0 = rng.uniform(1.1, 4.9)
        stimuli = default_stimuli(graph, suite).overriding(
            {t.label: Stimulus(env={"x": x0}) for t in suite.terms})
        v = run_suite(graph, mutant, suite, stimuli)
        table = attach_response(build_extended_fdt(graph, suite), v)

        # non-masked precondition: exactly the fault-covering terms fail and
        # every other fragment's statement is marked by some passing term
        expected_bits = tuple(1 if fault.fragment in t.path.fragments else 0
                              for t in suite.terms)
        passing_marks = frozenset().union(
            frozenset(), *(r.selection for r, bit in zip(table.rows, table.response.bits)
                                if bit == 0))
        others_marked = all(sid in passing_marks for sid in graph.statement_ids
                            if sid.fragment != fault.fragment)
        if v.bits != expected_bits or not others_marked:
            continue
        nonmasked += 1

        result = diagnose(table, mode="strong")
        fragment_ids = set(graph.fragment_sids(fault.fragment))
        mutated = graph.sid(fault.fragment, fault.ordinal)
        if not all(set(t) <= fragment_ids for t in result.reduced.terms):
            violations += 1
        elif mutated not in result.suspects():
            violations += 1
    ok = violations == 0 and nonmasked >= 100
    report(7, ok, f"strong-mode F' stays inside the faulty fragment and contains the "
                  f"mutated statement on all {nonmasked} non-masked of 200 random models")


def test_criterion_08_covering_optimality():
    g = fig1_graph()
    paths = enumerate_paths(g)
    suite = build_complete_test(g, paths)

    # oracle: exhaustive subset search on the worked example
    universe = frozenset(n.name for n in g.nodes) | frozenset(r.key for r in g.ribs)
    best_paths = brute_min_cover_size(
        universe, [set(p.nodes) | {r.key for r in p.edges} for p in paths])
    best_terms = brute_min_cover_size(set(g.statement_ids),
                                      [t.selection for t in suite.terms])
    ok = best_paths == 4 and len(minimal_path_cover(g)) == 4
    ok = ok and best_terms == 10
    ok = ok and len(minimal_diagnostic_test(suite, g.statement_ids).terms) == 10

    rng = Random(20_240_603)
    count = 0
    while count < 100:
        graph = random_dag_model(rng, max_internal=3, max_fragments=6, max_statements=2)
        rpaths = enumerate_paths(graph)
        rsuite = build_complete_test(graph, rpaths)
        if len(rpaths) > 8 or len(rsuite.terms) > 14:
            continue
        count += 1
        runiverse = frozenset(n.name for n in graph.nodes) | frozenset(
            r.key for r in graph.ribs)
        expected = brute_min_cover_size(
            runiverse, [set(p.nodes) | {r.key for r in p.edges} for p in rpaths])
        ok = ok and len(minimal_path_cover(graph)) == expected

        expected_t = brute_min_cover_size(set(graph.statement_ids),
                                          [t.selection for t in rsuite.terms])
        exact_t = minimal_diagnostic_test(rsuite, graph.statement_ids)
        bit = testsynth._bits(graph.statement_ids)
        greedy_t = testsynth._greedy_cover(
            list(bit), [(t.label, testsynth._mask(bit, t.selection)) for t in rsuite.terms])
        ok = ok and testsynth.cover_is_exact(len(rsuite.terms))
        ok = ok and len(exact_t.terms) == expected_t <= len(greedy_t)
    report(8, ok, "covers match brute-force optimum on the fixture and 100 random models")


def test_criterion_09_frontend_fidelity():
    program = parse_program(listing31_source(), fold=False)
    g, _ = build_rtg(program)
    multisets = [sorted(s.opcode for s in g.statements_of(f)) for f in g.fragments]
    ok = multisets == [[1], [2, 3], [1, 2], [1, 4, 5], [1, 2, 5], [1]]

    out = execute_program(program, Stimulus(env={"x": 1.0})).output
    # oracle by direct formula: f = 1 + 3 and w = sin(1 + 3.14159/3); the
    # stated reference prints 4.88788, inconsistent with its own derivation
    oracle = 4.0 + math.sin(1.0 + 3.14159 / 3.0)
    assert abs(oracle - 4.888651420640079) < 1e-12
    ok = ok and abs(out - oracle) <= 1e-4
    report(9, ok, "lowered rib opcode multisets match and F(x=1) is within 1e-4 "
                  "of the hand-evaluated 4.8886514")


def test_criterion_10_testability():
    g = fig1_graph()
    groups = [tuple(s.label for s in gr.sorted_members())
              for gr in ambiguity_groups(g)]
    ok = groups == [("I11",), ("I22", "I23"), ("I31", "I32"),
                    ("I41", "I44", "I45"), ("I51", "I52", "I55"), ("I61",)]
    inserts = recommend_observation_points(g, 1)
    i5 = [k for f, k in inserts if f == "I5"]
    ok = ok and i5 == [1, 2]
    # exhaustive check: with fewer points than recommended, some group of
    # size > 1 always survives
    ok = ok and verify_minimal_insertions(g, 1, len(inserts))
    report(10, ok, "ambiguity groups match and target-1 resolution of I5 "
                   "needs exactly 2 inserted points")
