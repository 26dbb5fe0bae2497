import math
from random import Random

import pytest

from rtgdiag import (ArityMismatch, DivisionByZero, FaultSpec, InfeasiblePath,
                     InvalidMutation, Node, NonFiniteValue, NoOpMutation, NoSuchStatement,
                     RTGraph, Stimulus, UnboundVariable, build_complete_test, build_rtg,
                     default_stimuli, enumerate_paths, execute_path, execute_program,
                     inject_fault, make_rib, parse_program, pick_stimulus, run_paths,
                     run_suite)
from rtgdiag.intervals import IntervalSet
from rtgdiag.simulator import DefaultedVariableWarning, guard_aware_stimuli
from rtgdiag.testsynth import TestSuite

from randmodels import random_dag_model, random_mutation

PI = 3.14159
PAPER_V = (0, 0, 0, 1, 1, 1, 0, 0, 0, 0)


def test_execute_program_x1(source):
    trace = execute_program(parse_program(source, fold=False), Stimulus(env={"x": 1.0}))
    assert trace.output == pytest.approx(4.0 + math.sin(1.0 + PI / 3.0), abs=1e-12)


def test_execute_program_x13(source):
    trace = execute_program(parse_program(source, fold=False), Stimulus(env={"x": 13.0}))
    assert trace.output == pytest.approx(-32.0 + math.sin(13.0 * PI) + 2.0, abs=1e-12)


def test_execute_identity_program():
    trace = execute_program(parse_program("input x; output x;"), Stimulus(env={"x": 7.0}))
    assert trace.output == 7.0
    assert trace.points == (("X", 7.0), ("Y", 7.0))


def test_execute_program_needs_inputs(source):
    with pytest.raises(UnboundVariable):
        execute_program(parse_program(source), Stimulus(env={}))


def test_division_by_zero_is_reported():
    program = parse_program("input x; f = 1/x; output f;")
    with pytest.raises(DivisionByZero):
        execute_program(program, Stimulus(env={"x": 0.0}))


def test_execute_path_x14y(g, paths):
    trace = execute_path(g, paths[0], Stimulus(env={"x": 1.0}))
    values = trace.as_dict()
    assert values["X"] == 1.0
    assert values["R1"] == 4.0
    assert values["R4"] == pytest.approx(math.sin(1.0 + PI / 3.0), abs=1e-12)
    assert values["Y"] == pytest.approx(4.0 + math.sin(1.0 + PI / 3.0), abs=1e-12)
    assert trace.output == values["Y"]


def test_execute_path_with_bound_free_variable(g, paths):
    x2y = paths[2]
    trace = execute_path(g, x2y, Stimulus(env={"x": 3.0, "w": 0.0}))
    assert trace.output == 3.0  # (2*3 - 3) + 0


def test_strict_mode_rejects_unbound_free_variables(g, paths):
    with pytest.raises(UnboundVariable) as exc:
        execute_path(g, paths[2], Stimulus(env={"x": 3.0}))
    assert "w" in exc.value.names


def test_permissive_mode_defaults_and_warns(g, paths):
    with pytest.warns(DefaultedVariableWarning, match="w"):
        trace = execute_path(g, paths[2], Stimulus(env={"x": 3.0}), permissive=True)
    assert trace.defaulted == ("w",)
    assert trace.output == 3.0


def test_inject_fault_changes_exactly_one_statement(g, fault):
    mutant = inject_fault(g, fault)
    assert g.statements_of("I5")[2].opcode == 1  # original untouched
    assert mutant.statements_of("I5")[2].opcode == 3
    diffs = [
        (r.fragment, s.ordinal)
        for r, rm in zip(g.ribs, mutant.ribs)
        for s, sm in zip(r.statements, rm.statements)
        if s != sm
    ]
    assert set(diffs) == {("I5", 3)}


def test_inject_constant_perturbation(g):
    mutant = inject_fault(g, FaultSpec(fragment="I1", ordinal=1, constant=4.0))
    assert mutant.statements_of("I1")[0].operands == ("x", 4.0)


def test_inject_rejects_identity_mutation(g):
    with pytest.raises(NoOpMutation):
        inject_fault(g, FaultSpec(fragment="I5", ordinal=3, opcode=1))
    with pytest.raises(NoOpMutation):
        inject_fault(g, FaultSpec(fragment="I1", ordinal=1, constant=3.0))


def test_inject_rejects_missing_targets(g):
    with pytest.raises(NoSuchStatement):
        inject_fault(g, FaultSpec(fragment="Z", ordinal=1, opcode=3))
    with pytest.raises(NoSuchStatement):
        inject_fault(g, FaultSpec(fragment="I5", ordinal=9, opcode=3))


def test_inject_rejects_arity_change(g):
    with pytest.raises(ArityMismatch):
        inject_fault(g, FaultSpec(fragment="I5", ordinal=3, opcode=5))


def test_inject_rejects_constant_on_pure_variable_statement(g):
    # I6 statement F = f + w has no constant operand
    with pytest.raises(InvalidMutation):
        inject_fault(g, FaultSpec(fragment="I6", ordinal=1, constant=9.0))


def test_run_suite_reproduces_reference_vector(g, suite, fault):
    mutant = inject_fault(g, fault)
    v = run_suite(g, mutant, suite, default_stimuli(g, suite))
    assert v.bits == PAPER_V


def test_run_paths_reproduces_generalized_vector(g, paths, fault):
    mutant = inject_fault(g, fault)
    stimuli = {p.label: pick_stimulus(g, p) for p in paths}
    assert run_paths(g, mutant, paths, stimuli).bits == (0, 1, 0, 0)


def test_identical_graphs_give_all_zero_vector(g, suite):
    v = run_suite(g, g, suite, default_stimuli(g, suite))
    assert v.bits == (0,) * len(suite.terms)


def test_unexercised_fault_gives_all_zero_vector(g, suite, fault):
    mutant = inject_fault(g, fault)
    off_path = TestSuite(terms=tuple(t for t in suite.terms
                                     if "I5" not in t.path.fragments),
                         origin="complete")
    v = run_suite(g, mutant, off_path, default_stimuli(g, off_path))
    assert v.bits == (0,) * len(off_path.terms)


def test_run_suite_is_deterministic(g, suite, fault):
    mutant = inject_fault(g, fault)
    stimuli = default_stimuli(g, suite)
    assert run_suite(g, mutant, suite, stimuli) == run_suite(g, mutant, suite, stimuli)


def test_masking_awareness(g, suite):
    # summation -> subtraction on I1 changes R1 for x=1, so every term whose
    # path crosses I1 must fail
    mutant = inject_fault(g, FaultSpec(fragment="I1", ordinal=1, opcode=3))
    v = run_suite(g, mutant, suite, default_stimuli(g, suite))
    for term, bit in zip(suite.terms, v.bits):
        assert bit == (1 if "I1" in term.path.fragments else 0)


def test_fault_locality_on_random_models():
    rng = Random(2207)
    checked = 0
    for _ in range(40):
        graph = random_dag_model(rng)
        fault = random_mutation(rng, graph)
        if fault is None:
            continue
        mutant = inject_fault(graph, fault)
        suite = build_complete_test(graph)
        v = run_suite(graph, mutant, suite, default_stimuli(graph, suite))
        for term, bit in zip(suite.terms, v.bits):
            if bit == 1:
                assert fault.fragment in term.path.fragments
        checked += 1
    assert checked >= 30


def test_mutation_catalogue_composition(g, fault):
    from rtgdiag import mutation_catalogue
    catalogue = mutation_catalogue(g)
    assert fault in catalogue
    substitutions = [m for m in catalogue if m.opcode is not None]
    perturbations = [m for m in catalogue if m.constant is not None]
    # every non-sine statement swaps within its arity class; sine never does
    assert len(substitutions) == 10
    assert all(m.opcode in (1, 2, 3, 4) for m in substitutions)
    # one perturbation per constant operand across the graph
    assert len(perturbations) == 9
    for m in catalogue:
        inject_fault(g, m)  # all catalogue entries are applicable


def test_interval_pick_rules():
    assert IntervalSet.from_comparison("<", 2.0).pick() == 1.0
    both = IntervalSet.from_comparison(">=", 2.0).intersect(
        IntervalSet.from_comparison("<", 12.0))
    assert both.pick() == 7.0
    assert IntervalSet.from_comparison(">=", 12.0).pick() == 13.0


def test_pick_stimulus_defaults(g, paths):
    stim = pick_stimulus(g, paths[2])
    assert stim.env["x"] == 1.0
    assert stim.env["w"] == 0.0
    assert stim.label == "X2Y"


def test_pick_stimulus_respects_guards(source):
    program = parse_program(source, fold=False)
    graph, smap = build_rtg(program)
    by_label = {p.label: p for p in enumerate_paths(graph)}
    x24y = by_label["X24Y"]
    stim = pick_stimulus(graph, x24y, smap.path_constraints(x24y.fragments))
    x = stim.env["x"]
    assert 2.0 <= x < 2.0 / 3.0 * PI


def test_program_faithful_x15y_is_infeasible(source):
    program = parse_program(source, fold=False)
    graph, smap = build_rtg(program)
    by_label = {p.label: p for p in enumerate_paths(graph)}
    x15y = by_label["X15Y"]
    with pytest.raises(InfeasiblePath):
        pick_stimulus(graph, x15y, smap.path_constraints(x15y.fragments))


def test_guard_aware_stimuli_on_feasible_suite(source):
    program = parse_program(source, fold=False)
    graph, smap = build_rtg(program)
    paths = enumerate_paths(graph)
    feasible = [p for p in paths if p.label in ("X14Y", "X24Y", "X25Y", "X35Y")]
    suite = build_complete_test(graph, feasible)
    stimuli = guard_aware_stimuli(graph, suite, smap)
    for term in suite.terms:
        env = stimuli[term.label].env
        for regions in smap.path_constraints(term.path.fragments):
            for var, region in regions.items():
                assert region.contains(env[var])


def _overflow_then_sin(last):
    # x * 1e300 * 1e300 overflows to inf; *last* builds sin's operand from it
    rib = make_rib("I1", "X", "Y", [(2, "t1", ("x", 1e300)), (2, "t2", ("t1", 1e300)),
                                    last, (5, "acc", ("t3",))])
    return RTGraph(nodes=(Node("X", "input"), Node("Y", "output")), ribs=(rib,))


@pytest.mark.parametrize("last", [(1, "t3", ("t2", 1.0)), (3, "t3", ("t2", "t2"))],
                         ids=["inf", "nan"])
def test_sin_of_non_finite_value_is_typed(last):
    graph = _overflow_then_sin(last)
    path = enumerate_paths(graph)[0]
    with pytest.raises(NonFiniteValue, match="fragment I1 statement 4"):
        execute_path(graph, path, Stimulus(env={"x": 10.0}))
    suite = build_complete_test(graph)
    mutant = inject_fault(graph, FaultSpec(fragment="I1", ordinal=1, constant=2e300))
    with pytest.raises(NonFiniteValue, match="term "):
        run_suite(graph, mutant, suite, default_stimuli(graph, suite))


def test_program_sin_of_non_finite_value_is_typed():
    program = parse_program("input x; f = sin(x * x); output f;")
    with pytest.raises(NonFiniteValue, match="line 1"):
        execute_program(program, Stimulus(env={"x": 1e300}))
