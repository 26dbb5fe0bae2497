import math
from random import Random

import pytest

from rtgdiag import (ArityMismatch, DivisionByZero, ExecutionError, FaultSpec,
                     InfeasiblePath, InvalidMutation, Node, NonFiniteValue, NoOpMutation,
                     NoSuchStatement, RTGraph, Stimulus, UnboundVariable, build_complete_test,
                     build_rtg, default_stimuli, enumerate_paths, execute_path, execute_program,
                     inject_fault, make_rib, parse_program, pick_stimulus, run_suite)
from rtgdiag.fixtures import fig1_graph
from rtgdiag.intervals import IntervalSet
from rtgdiag.simulator import DEFAULT_TOLERANCE, DefaultedVariableWarning, _differs

from randmodels import random_dag_model, random_mutation
from reference import term_suite

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
    values = dict(trace.points)
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


@pytest.mark.parametrize("constant", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_inject_rejects_non_finite_constant(constant):
    with pytest.raises(InvalidMutation, match="not finite"):
        inject_fault(fig1_graph(), FaultSpec("I1", 1, constant=constant))


def test_inject_rejects_arity_change(g):
    with pytest.raises(ArityMismatch):
        inject_fault(g, FaultSpec(fragment="I5", ordinal=3, opcode=5))


def test_inject_rejects_constant_on_pure_variable_statement(g):
    # I6 statement F = f + w has no constant operand
    with pytest.raises(InvalidMutation):
        inject_fault(g, FaultSpec(fragment="I6", ordinal=1, constant=9.0))


def test_an_opcode_fault_with_an_operand_index_is_an_invalid_mutation(g):
    # an operand index picks the constant a constant fault perturbs; an
    # opcode fault has no use for one, so it is refused, not dropped
    with pytest.raises(InvalidMutation, match="^an opcode fault takes no operand index, got 7$"):
        inject_fault(g, FaultSpec("I1", 1, opcode=3, operand_index=7))


def unknown_opcode_graph() -> RTGraph:
    """One rib X -> Y: t = x + 1, then y = t <opcode 9> 2."""
    return RTGraph(nodes=(Node("X", "input"), Node("Y", "output")),
                   ribs=(make_rib("I1", "X", "Y", [(1, "t", ("x", 1.0)), (9, "y", ("t", 2.0))]),))


def test_an_opcode_fault_on_an_unregistered_opcode_is_an_invalid_mutation():
    g = unknown_opcode_graph()
    with pytest.raises(InvalidMutation, match="^fragment I1 statement 2 has opcode 9, which is "
                                              "not registered$"):
        inject_fault(g, FaultSpec("I1", 2, opcode=1))


def test_a_constant_fault_on_an_unregistered_opcode_raises_only_when_reached():
    g = unknown_opcode_graph()
    mutant = inject_fault(g, FaultSpec("I1", 2, constant=5.0))
    assert mutant.statements_of("I1")[1].operands == ("t", 5.0)
    (p,) = enumerate_paths(mutant)
    with pytest.raises(ExecutionError, match="^unknown opcode 9 in fragment I1 statement 2$"):
        execute_path(mutant, p, Stimulus(env={"x": 1.0}))
    # the statement before it is a mutation target as usual
    suite = build_complete_test(g)
    stimuli = default_stimuli(g, suite)
    with pytest.raises(ExecutionError, match="^term [^ ]+: unknown opcode 9 in fragment I1"):
        run_suite(g, inject_fault(g, FaultSpec("I1", 1, opcode=3)), suite, stimuli)


def test_a_fault_on_a_fragment_whose_ribs_differ_is_an_invalid_mutation():
    # validate_graph's merge-inconsistent case: I2 is z = y * 3 on R -> Y
    # and z = x * 5 on X -> Y
    g = RTGraph(nodes=(Node("X", "input"), Node("R", "internal"), Node("Y", "output")),
                ribs=(make_rib("I1", "X", "R", [(1, "y", ("x", 1.0))]),
                      make_rib("I2", "R", "Y", [(2, "z", ("y", 3.0))]),
                      make_rib("I2", "X", "Y", [(2, "z", ("x", 5.0))])))
    for fault in (FaultSpec("I2", 1, opcode=4), FaultSpec("I2", 1, constant=4.0)):
        with pytest.raises(InvalidMutation, match="^ribs sharing fragment I2 differ in statements$"):
            inject_fault(g, fault)
    assert inject_fault(g, FaultSpec("I1", 1, opcode=3)).statements_of("I1")[0].opcode == 3


def test_run_suite_reproduces_reference_vector(g, suite, fault):
    mutant = inject_fault(g, fault)
    v = run_suite(g, mutant, suite, default_stimuli(g, suite))
    assert v.bits == PAPER_V


def test_run_suite_per_path_gives_generalized_vector(g, paths, suite, fault):
    # every term of a path runs the path's stimulus, so the terms of a path
    # share one bit, and those bits in path order are the generalized V
    v = run_suite(g, inject_fault(g, fault), suite, default_stimuli(g, suite))
    per_path: dict[str, set[int]] = {}
    for t, bit in zip(suite.terms, v.bits):
        per_path.setdefault(t.path.label, set()).add(bit)
    assert [per_path[p.label] for p in paths] == [{0}, {1}, {0}, {0}]


def test_identical_graphs_give_all_zero_vector(g, suite):
    v = run_suite(g, g, suite, default_stimuli(g, suite))
    assert v.bits == (0,) * len(suite.terms)


def test_unexercised_fault_gives_all_zero_vector(g, suite, fault):
    mutant = inject_fault(g, fault)
    off_path = term_suite(t for t in suite.terms if "I5" not in t.path.fragments)
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


@pytest.mark.parametrize("big", [1e16, 2.0 ** 53, -1e16])
def test_the_catalogue_holds_no_perturbation_that_leaves_a_constant(big):
    # adding 1 to a constant of magnitude 2**53 or more gives it back
    from rtgdiag import mutation_catalogue
    g = RTGraph((Node("X", "input"), Node("Y", "output")),
                (make_rib("I1", "X", "Y", [(1, "a", ("x", big)), (2, "b", ("a", 3))]),))
    catalogue = mutation_catalogue(g)
    assert [m.constant for m in catalogue if m.constant is not None] == [4.0]
    for m in catalogue:
        inject_fault(g, m)


def test_interval_pick_rules():
    assert IntervalSet.from_comparison("<", 2.0).pick() == 1.0
    both = IntervalSet.from_comparison(">=", 2.0).intersect(
        IntervalSet.from_comparison("<", 12.0))
    assert both.pick() == 7.0
    assert IntervalSet.from_comparison(">=", 12.0).pick() == 13.0


def test_pick_stimulus_defaults(g, paths):
    stim = pick_stimulus(paths[2])
    assert stim.env["x"] == 1.0
    assert stim.env["w"] == 0.0


def test_pick_stimulus_respects_guards(source):
    program = parse_program(source, fold=False)
    graph, smap = build_rtg(program)
    by_label = {p.label: p for p in enumerate_paths(graph)}
    x24y = by_label["X24Y"]
    stim = pick_stimulus(x24y, smap.path_constraints(x24y.fragments))
    x = stim.env["x"]
    assert 2.0 <= x < 2.0 / 3.0 * PI


def test_program_faithful_x15y_is_infeasible(source):
    program = parse_program(source, fold=False)
    graph, smap = build_rtg(program)
    by_label = {p.label: p for p in enumerate_paths(graph)}
    x15y = by_label["X15Y"]
    with pytest.raises(InfeasiblePath):
        pick_stimulus(x15y, smap.path_constraints(x15y.fragments))


def test_a_region_without_a_finite_float_is_an_infeasible_path(paths):
    between = IntervalSet.from_comparison(">", 1.0).intersect(
        IntervalSet.from_comparison("<", math.nextafter(1.0, 2.0)))
    with pytest.raises(InfeasiblePath, match="constraints on x have no solution"):
        pick_stimulus(paths[0], [{"x": between}])


def test_guard_aware_stimuli_on_feasible_suite(source):
    program = parse_program(source, fold=False)
    graph, smap = build_rtg(program)
    feasible = [p for p in enumerate_paths(graph)
                if p.label in ("X14Y", "X24Y", "X25Y", "X35Y")]
    for p in feasible:
        constraints = smap.path_constraints(p.fragments)
        env = pick_stimulus(p, constraints).env
        for regions in constraints:
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



INF, NAN = math.inf, math.nan


@pytest.mark.parametrize("a, b, bit", [
    (INF, 2e206, 1), (INF, -INF, 1), (INF, NAN, 1), (NAN, 2.0, 1), (2.0, 2.1, 1),
    (INF, INF, 0), (-INF, -INF, 0), (NAN, NAN, 0), (2.0, 2.0 + 1e-12, 0)])
def test_output_comparison_is_symmetric(a, b, bit):
    assert _differs(a, b, DEFAULT_TOLERANCE) == _differs(b, a, DEFAULT_TOLERANCE) == bit


def test_infinite_output_against_finite_one_fails():
    # golden x * 1e206 * 1e206 overflows to inf; the mutant's
    # x * 1e206 + 1e206 stays finite, whichever side is the golden one
    rib = make_rib("I1", "X", "Y", [(2, "y", ("x", 1e206)), (2, "acc", ("y", 1e206))])
    graph = RTGraph(nodes=(Node("X", "input"), Node("Y", "output")), ribs=(rib,))
    mutant = inject_fault(graph, FaultSpec(fragment="I1", ordinal=2, opcode=1))
    for golden, other in ((graph, mutant), (mutant, graph)):
        suite = build_complete_test(golden)
        stimuli = default_stimuli(golden, suite).overriding(
            {t.label: Stimulus(env={"x": 1.0}) for t in suite.terms})
        assert run_suite(golden, other, suite, stimuli).bits == (1, 1)
