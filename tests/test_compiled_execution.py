"""The compiled executor against the statement-by-statement reference.

``execute_path`` runs each rib's compiled steps and takes a path's first
reads from the ribs' compiled reads; ``reference.execute_path`` re-derives
the first reads and sorts every rib on every call.  On random DAG models,
free-variable models, ladders and lowered ``.swl`` programs, with inputs
that divide by zero, overflow to inf, take the sine of inf and carry NaN,
with variables left unbound, and in permissive mode, both routes give the
same trace, or the same error type and message, and the same warnings.
"""

import warnings
from collections import Counter
from dataclasses import replace
from random import Random

import pytest

import reference
from rtgdiag import (Block, DivisionByZero, ExecutionError, Node, NonFiniteValue, Path,
                     RTGraph, Rib, Statement, Stimulus, TestSuite, UnboundVariable,
                     build_complete_test, build_extended_fdt, build_rtg, default_stimuli,
                     dumps_graph, enumerate_paths, execute_path, inject_fault,
                     loads_graph, loads_table, make_rib, parse_program, pick_stimulus,
                     run_suite, simulator, table_json)
from rtgdiag.fixtures import fig1_graph

from randmodels import (expression_chain_program, forcing_values, free_variable_model,
                        if_chain_program, ladder_model, random_dag_model)


def models():
    for seed in range(60):
        yield random_dag_model(Random(seed))
        yield free_variable_model(Random(seed))
    for k in (1, 3, 5):
        yield ladder_model(k)
    for seed in range(3):
        yield build_rtg(parse_program(if_chain_program((2, 3), seed)))[0]
        yield build_rtg(parse_program(expression_chain_program((2, 3), seed)))[0]


def envs(g, p):
    """The default inputs of path *p*, none at all, every forcing value on
    all of its first reads and on its input alone, and the input alone."""
    default = pick_stimulus(p).env
    first = list(default)
    yield default
    yield {}
    for value in forcing_values(g):
        yield dict.fromkeys(first, value)
        if len(first) > 1:
            yield {**default, first[0]: value}
    if len(first) > 1:
        yield {first[0]: 2.0}


def outcome(execute, g, p, env, permissive):
    """repr of the trace (NaN compares by its text), or the error's type
    and message; and the warnings raised, by category and text."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = repr(execute(g, p, Stimulus(env=env), permissive))
        except Exception as e:  # any error, typed or not, must be the same
            result = (type(e), str(e))
    return result, [(w.category, str(w.message)) for w in caught]


def test_compiled_route_equals_reference():
    seen = Counter()
    for g in models():
        for p in enumerate_paths(g):
            for env in envs(g, p):
                for permissive in (False, True):
                    got = outcome(execute_path, g, p, env, permissive)
                    assert got == outcome(reference.execute_path, g, p, env, permissive), \
                        (p.label, env, permissive)
                    result, caught = got
                    seen[result[0] if isinstance(result, tuple) else "trace"] += 1
                    seen["warned"] += bool(caught)
                    seen["nan"] += isinstance(result, str) and "output=nan" in result
                    seen["inf"] += isinstance(result, str) and "output=inf" in result
                    seen["unknown opcode"] += "unknown opcode" in str(result)
    # the inputs really reach every kind of outcome
    assert seen["trace"] > 1000
    for kind in (DivisionByZero, NonFiniteValue, UnboundVariable, "warned", "nan", "inf",
                 "unknown opcode"):
        assert seen[kind] > 0, kind


def test_path_reads_follow_execution_order():
    for seed in range(60):
        g = free_variable_model(Random(seed))
        for p in enumerate_paths(g):
            assert simulator.path_reads(p) == reference.path_reads(p)


def out_of_order_graph() -> RTGraph:
    """One rib whose statements are stored against ordinal order: in
    ordinal order y = t + 1 reads t before t = 5 - 1 assigns it."""
    rib = Rib("I1", "X", "Y", (Statement(2, 3, "t", (5.0, 1.0)), Statement(1, 1, "y", ("t", 1.0))))
    return RTGraph(nodes=(Node("X", "input"), Node("Y", "output")), ribs=(rib,))


def test_statements_stored_out_of_order_run_in_ordinal_order():
    g = out_of_order_graph()
    (p,) = enumerate_paths(g)
    assert simulator.path_reads(p) == ["t"]
    with pytest.raises(UnboundVariable, match="unbound variable\\(s\\): t"):
        execute_path(g, p, Stimulus(env={}))
    # the last statement in ordinal order is the one observed
    assert execute_path(g, p, Stimulus(env={"t": 2.0})).points == (("X", 2.0), ("Y", 4.0))
    suite = build_complete_test(g)
    assert run_suite(g, g, suite, default_stimuli(g, suite)).bits == (0, 0)
    with pytest.raises(UnboundVariable, match="^term 1: unbound"):
        run_suite(g, g, suite, default_stimuli(g, suite).overriding(
            dict.fromkeys(suite.labels(), Stimulus(env={}))))


def test_an_empty_rib_is_an_execution_error_naming_its_fragment():
    g = RTGraph(nodes=(Node("X", "input"), Node("R1", "internal"), Node("Y", "output")),
                ribs=(make_rib("I1", "X", "R1", [(1, "acc", ("x", 1.0))]),
                      Rib("I2", "R1", "Y", ())))
    (p,) = enumerate_paths(g)
    with pytest.raises(ExecutionError, match="^fragment I2 carries no statements$"):
        execute_path(g, p, Stimulus(env={"x": 1.0}))
    suite = TestSuite((Block.of(p, (), "t"),))
    with pytest.raises(ExecutionError, match="^term t: fragment I2 carries no statements$"):
        run_suite(g, g, suite,
                  default_stimuli(g, suite).overriding({"t": Stimulus(env={"x": 1.0})}))


def test_a_path_with_no_ribs_is_an_execution_error_naming_it():
    # a loaded table keeps each row's path by label only, with no ribs
    g = fig1_graph()
    with pytest.raises(ExecutionError, match="^path XY crosses no rib$"):
        execute_path(g, Path("XY", ()), Stimulus(env={"x": 1.0}))
    table = build_extended_fdt(g, build_complete_test(g))
    suite = TestSuite(loads_table("".join(table_json(table))).blocks)
    first = suite.labels()[0]
    with pytest.raises(ExecutionError, match=f"^term {first}: path [^ ]+ crosses no rib$"):
        run_suite(g, g, suite, default_stimuli(g, suite))


def compiled(g: RTGraph) -> list[bool]:
    return [hasattr(r, "_compiled") for r in g.ribs]


def test_ribs_compile_on_first_use_only():
    # lowering, loading and test synthesis compile nothing; picking the
    # stimuli compiles every rib once, and the run reuses those forms
    g = build_rtg(parse_program(if_chain_program((2, 3))))[0]
    suite = build_complete_test(g)
    loaded = loads_graph(dumps_graph(g))
    assert not any(compiled(g)) and not any(compiled(loaded))
    stimuli = default_stimuli(g, suite)
    assert all(compiled(g)) and not any(compiled(loaded))
    before = [r._compiled for r in g.ribs]
    run_suite(g, g, suite, stimuli)
    assert all(r._compiled is c for r, c in zip(g.ribs, before))


def test_a_mutant_shares_the_compiled_form_of_untouched_ribs():
    g = ladder_model(3)
    suite = build_complete_test(g)
    mutant = inject_fault(g, simulator.FaultSpec("I3", 2, opcode=1))
    run_suite(g, mutant, suite, default_stimuli(g, suite))
    for r, m in zip(g.ribs, mutant.ribs):
        if r.fragment == "I3":
            assert m is not r and m._compiled is not r._compiled
        else:
            assert m is r


def raised(fn, arity: int) -> str:
    with pytest.raises(ExecutionError) as caught:
        fn(*[1.0] * arity)
    return str(caught.value)


def test_a_mutant_rib_is_compiled_by_substitution():
    # inject_fault gives each rib it changes the golden rib's compiled form
    # with one step replaced; it must equal a compile of the rib's
    # statements from scratch, step by step, with the same reads and assigns
    seen = Counter()
    for g in models():
        golden = {r.key: r for r in g.ribs}
        for fault in simulator.mutation_catalogue(g):
            for rib in inject_fault(g, fault).ribs:
                if rib is golden[rib.key]:
                    continue
                assert rib.fragment == fault.fragment
                steps, reads, assigns = rib._compiled
                fresh_steps, fresh_reads, fresh_assigns = simulator._compiled(replace(rib))
                assert (reads, assigns) == (fresh_reads, fresh_assigns)
                assert len(steps) == len(fresh_steps) == len(rib.statements)
                for (target, fn, operands, ordinal), fresh in zip(steps, fresh_steps):
                    assert (target, operands, ordinal) == (fresh[0], fresh[2], fresh[3])
                    # an opcode outside the alphabet compiles to a new failing
                    # operation each time, so compare what it raises
                    assert fn is fresh[1] or raised(fn, len(operands)) == \
                        raised(fresh[1], len(operands))
                    seen["unknown opcode"] += fn is not fresh[1]
                seen["ribs"] += 1
    assert seen["ribs"] > 1000 and seen["unknown opcode"] > 0
