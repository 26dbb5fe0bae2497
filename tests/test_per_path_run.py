"""The per-path run against a term-by-term reference.

``run_suite`` runs the golden side once per distinct (path, inputs) pair,
a record of the ``Stimuli``, which keeps the outputs for later mutants
against the same golden graph; each mutant runs only on the records that
cross a changed rib.  A cold call walks the records with one stack of
environments per side, so records that share inputs and a path prefix
share its runs.  ``reference_v`` runs both for every term, so any term
whose bit the shared run gets wrong, or any error reported for the wrong
term, shows up as a difference.
"""

import gc
import math
import sys
import threading
import warnings
import weakref
from collections import Counter
from dataclasses import replace
from itertools import chain
from random import Random

import pytest

from rtgdiag import (Block, DefaultedVariableWarning, DivisionByZero, ExecutionError,
                     GraphMismatch, InvalidTolerance, MissingStimulus, Node, Path, RTGraph, Stimuli,
                     Stimulus, TestSuite, UnboundVariable, build_complete_test, build_rtg,
                     default_stimuli, dumps_graph, enumerate_paths, inject_fault, make_rib,
                     minimal_diagnostic_test, parse_program, run_suite, simulator)
from rtgdiag.cli import main
from rtgdiag.fixtures import fig1_graph, listing31_source

from randmodels import (expression_chain_program, forced_stimuli, free_variable_model,
                        if_chain_program, ladder_model, random_dag_model, split_default_stimuli,
                        sparse_stimuli, split_stimuli, STIMULI_KINDS)
from reference import TOLERANCE, reference_v

def observed_v(golden, mutant, suite, stimuli, permissive=False):
    try:
        return run_suite(golden, mutant, suite, stimuli, tolerance=TOLERANCE,
                         permissive=permissive).bits, None
    except ExecutionError as e:
        return None, (type(e), str(e).split(":", 1)[0].removeprefix("term "))


def count_calls(monkeypatch, *names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _fn=getattr(simulator, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(simulator, name, counted)
    return calls


def count_runs(monkeypatch) -> Counter:
    """id(graph) -> execute_path calls made on that graph."""
    runs = Counter()

    def counted(g, *args, _fn=simulator.execute_path, **kwargs):
        runs[id(g)] += 1
        return _fn(g, *args, **kwargs)
    monkeypatch.setattr(simulator, "execute_path", counted)
    return runs


def count_steps(patch) -> Counter:
    """rib key -> statements the compiled step loop runs on ribs of that
    key, on either side.  A mutant made after this patch keeps counted
    steps in the form ``inject_fault`` gives it, and they count once."""
    steps = Counter()
    compiled = simulator._compiled
    counting = set()

    def count(fn, key):
        if fn in counting:
            return fn

        def run(*operands):
            steps[key] += 1
            return fn(*operands)
        counting.add(run)
        return run

    def counted(rib):
        body, reads, assigns = compiled(rib)
        return tuple((target, count(fn, rib.key), operands, ordinal)
                     for target, fn, operands, ordinal in body), reads, assigns
    patch.setattr(simulator, "_compiled", counted)
    return steps


def crossing_pairs(suite, stimuli, keys) -> dict:
    """(rib keys, inputs) -> rib keys, of each distinct (path, inputs) pair
    whose path crosses a rib of *keys*; read from the terms, not the
    records."""
    pairs = {}
    for t in suite.terms:
        path = tuple(r.key for r in t.path.edges)
        if keys & set(path):
            pairs[path, tuple(sorted(stimuli[t.label].env.items()))] = path
    return pairs


def changed_keys(g, mutant) -> set:
    golden_rib = {r.key: r for r in g.ribs}
    return {r.key for r in mutant.ribs if r.statements != golden_rib[r.key].statements}


def node_steps(g, suite, stimuli, changed=None) -> Counter:
    """rib key -> statements one side of a cold call runs if it runs each
    node once: a node is a rib-key prefix of a term's path within a
    stretch, a maximal run of consecutive terms with equal inputs, since
    each side keeps the environments of one stretch.  With no *changed*
    keys these are the golden side's nodes; with them, the mutant side's:
    the prefixes that end at or after the first changed rib, within the
    stretches of the terms whose path crosses one.  Read from the terms,
    not the records."""
    statements = {r.key: len(r.statements) for r in g.ribs}
    nodes = set()
    stretch, inputs = 0, None
    for t in suite.terms:
        path = tuple(r.key for r in t.path.edges)
        first = 0 if changed is None else next(
            (i for i, k in enumerate(path) if k in changed), None)
        if first is None:
            continue
        env = stimuli[t.label].env
        if env != inputs:
            stretch, inputs = stretch + 1, env
        nodes.update((stretch, path[:n]) for n in range(first + 1, len(path) + 1))
    steps = Counter()
    for _, prefix in nodes:
        steps[prefix[-1]] += statements[prefix[-1]]
    return steps


def cold_steps(patch, g, mutant, suite, stimuli_of) -> tuple[Counter, Counter]:
    """rib key -> statements that a cold call against *g* itself runs,
    which is the golden side alone, and that a cold call against *mutant*
    runs, each on fresh stimuli from *stimuli_of*."""
    steps = count_steps(patch)
    run_suite(g, g, suite, stimuli_of())
    alone = Counter(steps)
    steps.clear()
    run_suite(g, mutant, suite, stimuli_of())
    return alone, steps


def campaign(seeds):
    for seed in seeds:
        g = random_dag_model(Random(seed))
        suite = build_complete_test(g)
        for fault in simulator.mutation_catalogue(g):
            yield g, suite, inject_fault(g, fault)


STIMULI = [default_stimuli, split_default_stimuli, forced_stimuli]


@pytest.mark.parametrize("stimuli_of", STIMULI)
def test_per_path_run_matches_term_reference(stimuli_of):
    compared = failed = 0
    for g, suite, mutant in campaign(range(40)):
        stimuli = stimuli_of(g, suite)
        want = reference_v(g, mutant, suite, stimuli)
        assert observed_v(g, mutant, suite, stimuli) == want
        compared += 1
        failed += want[1] is not None
    assert compared > 200
    assert failed < compared


def model_families():
    """Ladders, lowered ``.swl`` programs and free-variable models, each with
    every catalogue mutant."""
    graphs = [ladder_model(k) for k in (1, 2, 3)]
    graphs += [build_rtg(parse_program(source(shape, seed)))[0]
               for source in (if_chain_program, expression_chain_program)
               for shape, seed in (((2, 3), 0), ((3, 2), 1))]
    graphs += [free_variable_model(Random(seed)) for seed in range(30)]
    for g in graphs:
        suite = build_complete_test(g)
        for fault in simulator.mutation_catalogue(g):
            yield g, suite, inject_fault(g, fault)


@pytest.mark.parametrize("stimuli_of", STIMULI)
def test_every_model_family_matches_term_reference(stimuli_of):
    outcomes = Counter()
    for g, suite, mutant in model_families():
        stimuli = stimuli_of(g, suite)
        want = reference_v(g, mutant, suite, stimuli)
        assert observed_v(g, mutant, suite, stimuli) == want
        outcomes["error" if want[1] else "bits"] += 1
    assert outcomes["bits"] > 100 and outcomes["error"] > 10


def test_error_names_first_failing_term():
    # acc = x - 1 on I1, then 2 / acc on I3: only inputs x = 1 divide by zero
    g = RTGraph(nodes=(Node("X", "input"), Node("R1", "internal"), Node("Y", "output")),
                ribs=(make_rib("I1", "X", "R1", [(3, "t1", ("x", 1.0)), (2, "acc", ("t1", 1.0))]),
                      make_rib("I2", "X", "R1", [(1, "t1", ("x", 1.0)), (2, "acc", ("t1", 1.0))]),
                      make_rib("I3", "R1", "Y", [(4, "t1", (2.0, "acc")), (1, "acc", ("t1", 0.5))])))
    suite = build_complete_test(g)
    late = suite.terms[2]
    assert late.path is suite.terms[0].path
    stimuli = default_stimuli(g, suite).overriding(
        {label: Stimulus(env={"x": 1.0 if label == late.label else 2.0})
         for label in suite.labels()})
    mutant = inject_fault(g, simulator.FaultSpec("I2", 1, opcode=3))
    want = reference_v(g, mutant, suite, stimuli)
    assert want[1] == (DivisionByZero, late.label)
    assert observed_v(g, mutant, suite, stimuli) == want


def test_split_inputs_run_separately(monkeypatch):
    g = ladder_model(2)
    suite = build_complete_test(g)
    mutant = inject_fault(g, simulator.FaultSpec("I1", 1, opcode=3))
    alone, steps = cold_steps(monkeypatch, g, mutant, suite,
                              lambda: split_stimuli(suite, default_stimuli(g, suite)))
    # 4 paths of 4 terms, whose last term moves to other inputs: the inputs
    # alternate from record to record, so no two records share a rib run;
    # each side runs both ribs of each of its records, the golden side all
    # 8 and the mutant side the 4 through I1
    stimuli = split_stimuli(suite, default_stimuli(g, suite))
    golden = node_steps(g, suite, stimuli)
    assert alone == golden and sum(golden.values()) == 8 * 2 * 2
    forked = node_steps(g, suite, stimuli, changed_keys(g, mutant))
    assert steps == golden + forked and sum(forked.values()) == 4 * 2 * 2


def test_ladder_runs_each_path_once(monkeypatch):
    g = ladder_model(4)
    suite = build_complete_test(g)
    assert len(suite.terms) == 256
    mutant = inject_fault(g, simulator.FaultSpec("I3", 2, opcode=1))
    calls = count_calls(monkeypatch, "pick_stimulus")
    alone, steps = cold_steps(monkeypatch, g, mutant, suite, lambda: default_stimuli(g, suite))
    assert calls == {"pick_stimulus": 2 * 16}
    # every path reads x = 1.0, so each side runs each distinct rib-key
    # prefix once: the golden side the 2 + 4 + 8 + 16 prefixes of the 16
    # paths, the mutant side the 2 + 4 + 8 that end at or after I3
    stimuli = default_stimuli(g, suite)
    golden = node_steps(g, suite, stimuli)
    assert alone == golden and sum(golden.values()) == 30 * 2
    forked = node_steps(g, suite, stimuli, changed_keys(g, mutant))
    assert steps == golden + forked and sum(forked.values()) == 14 * 2
    v = run_suite(g, mutant, suite, stimuli)
    assert len(v) == 256 and 0 < sum(v.bits) < 256


def test_cli_all_runs_each_path_once(monkeypatch, tmp_path, capsys):
    g = ladder_model(4)
    graph = tmp_path / "ladder4.rtg.json"
    graph.write_text(dumps_graph(g), encoding="utf-8")
    suite = build_complete_test(g)
    stimuli = default_stimuli(g, suite)
    mutant = inject_fault(g, simulator.FaultSpec("I3", 2, opcode=1))
    want = node_steps(g, suite, stimuli) + node_steps(g, suite, stimuli, changed_keys(g, mutant))
    calls = count_calls(monkeypatch, "pick_stimulus")
    steps = count_steps(monkeypatch)
    assert main(["all", "--graph", str(graph), "--fault", "I3:2:op=1"]) == 1
    assert calls == {"pick_stimulus": 16} and steps == want
    assert "F' = I31 I32" in capsys.readouterr().out


def divide_by_zero_graph(divider: str) -> RTGraph:
    """Two ribs X -> R1 and one R1 -> Y.  Rib *divider* computes 2 / (x - 1),
    which divides by zero at the default input x = 1; the other X -> R1 rib
    adds 1."""
    other = "I2" if divider == "I1" else "I1"
    ribs = {divider: make_rib(divider, "X", "R1", [(3, "t1", ("x", 1.0)), (4, "acc", (2.0, "t1"))]),
            other: make_rib(other, "X", "R1", [(1, "acc", ("x", 1.0))])}
    return RTGraph(nodes=(Node("X", "input"), Node("R1", "internal"), Node("Y", "output")),
                   ribs=(ribs["I1"], ribs["I2"],
                         make_rib("I3", "R1", "Y", [(2, "acc", ("acc", 3.0))])))


@pytest.mark.parametrize("divider", ["I1", "I2"], ids=["before-fault", "after-fault"])
def test_golden_error_outside_the_fault_keeps_its_label(divider):
    # the fault is on the rib that does not divide, so the path that raises
    # crosses no changed rib: only its golden side runs, and it still raises
    g = divide_by_zero_graph(divider)
    suite = build_complete_test(g)
    stimuli = default_stimuli(g, suite)
    mutant = inject_fault(g, simulator.FaultSpec("I2" if divider == "I1" else "I1", 1, opcode=3))
    want = reference_v(g, mutant, suite, stimuli)
    label = next(t.label for t in suite.terms if divider in t.path.fragments)
    assert want[1] == (DivisionByZero, label)
    # no error is kept: a second call on the same golden graph raises again
    assert observed_v(g, mutant, suite, stimuli) == want
    assert observed_v(g, mutant, suite, stimuli) == want


def test_mutant_equal_to_golden_runs_no_mutant_path(monkeypatch):
    runs = count_runs(monkeypatch)
    for seed in range(20):
        runs.clear()
        g = random_dag_model(Random(seed))
        suite = build_complete_test(g)
        stimuli = default_stimuli(g, suite)
        # equal statements in new rib objects, and the golden graph itself
        for twin in (RTGraph(g.nodes, tuple(replace(r) for r in g.ribs)), g):
            try:
                v = run_suite(g, twin, suite, stimuli)
            except ExecutionError:
                continue
            assert v.bits == (0,) * len(suite.terms)
        assert set(runs) <= {id(g)} and runs[id(g)] <= len(suite.blocks)


def test_second_golden_call_makes_no_golden_execution(monkeypatch):
    # a warm call runs no golden output again and calls no execute_path; it
    # builds the golden environment of a record on its first need, and a
    # later call on the same records runs only the mutant's nodes, as many
    # as the mutant side of a cold call
    g = ladder_model(3)
    suite = build_complete_test(g)
    stimuli = split_default_stimuli(g, suite)
    first, second = (inject_fault(g, f) for f in simulator.mutation_catalogue(g)[:2])
    run_suite(g, first, suite, stimuli)
    assert stimuli._golden[4] == {}
    runs = count_runs(monkeypatch)
    steps = count_steps(monkeypatch)
    v = run_suite(g, second, suite, stimuli)
    assert v.bits == reference_v(g, second, suite, stimuli)[0]
    crossing = crossing_pairs(suite, stimuli, changed_keys(g, second))
    assert runs == Counter() and len(stimuli._golden[4]) == len(crossing) > 0
    steps.clear()
    assert run_suite(g, second, suite, stimuli) == v
    assert runs == Counter() and steps == node_steps(g, suite, stimuli, changed_keys(g, second))


def test_goldens_with_equal_rib_keys_do_not_share_outputs(monkeypatch):
    # g and its mutant have the same rib keys, so one suite and one Stimuli
    # give both the same records; used in turn as the golden graph against
    # a third graph, each runs and keeps its own statements' outputs
    g = ladder_model(3)
    suite = build_complete_test(g)
    stimuli = default_stimuli(g, suite)
    other = inject_fault(g, simulator.FaultSpec("I1", 1, opcode=3))
    third = inject_fault(g, simulator.FaultSpec("I3", 2, opcode=1))
    steps = count_steps(monkeypatch)
    kept = []
    for golden in (g, other):
        steps.clear()
        assert run_suite(golden, third, suite, stimuli).bits == \
            reference_v(golden, third, suite, stimuli)[0]
        # each call is cold: it runs every golden node, then the mutant's
        assert steps == node_steps(golden, suite, stimuli) + \
            node_steps(golden, suite, stimuli, changed_keys(golden, third))
        kept.append(stimuli._golden)
    assert all(ref() is golden for (ref, *_), golden in zip(kept, (g, other)))
    assert len(kept[0][3]) == len(kept[1][3]) == len(stimuli.records)
    assert kept[0][3] != kept[1][3]


def given_stimuli(monkeypatch, stimuli_of, g, suite):
    """*stimuli_of*'s stimuli, and each term's stimulus as given to them:
    its path's default pick with each ``overriding`` map laid over it in
    turn.  The second is not read from the records, so it checks them."""
    given = {t.label: simulator.pick_stimulus(t.path) for t in suite.terms}
    overriding = Stimuli.overriding

    def spy(self, overrides):
        given.update(overrides)
        return overriding(self, overrides)
    with monkeypatch.context() as patch:
        patch.setattr(Stimuli, "overriding", spy)
        return stimuli_of(g, suite), given


@pytest.mark.parametrize("stimuli_of", STIMULI)
def test_memo_holds_one_entry_per_distinct_run(monkeypatch, stimuli_of):
    for seed in range(10):
        g = random_dag_model(Random(seed))
        suite = build_complete_test(g)
        stimuli, given = given_stimuli(monkeypatch, stimuli_of, g, suite)
        kept = []
        for mutant in [g] + [inject_fault(g, f) for f in simulator.mutation_catalogue(g)]:
            try:
                run_suite(g, mutant, suite, stimuli)
            except ExecutionError:
                pass
            kept.append(stimuli._golden)
        assert all(k is kept[0] for k in kept)
        distinct = [(tuple(r.key for r in t.path.edges), simulator._stimulus_key(given[t.label]))
                    for t in suite.terms]
        records = list(dict.fromkeys(distinct))
        assert [(keys, simulator._stimulus_key(stim))
                for _, stim, keys, _, _ in stimuli.records] == records
        # each row lies in one span, of the record of its own pair
        owner = [None] * len(distinct)
        for i, (_, _, _, _, spans) in enumerate(stimuli.records):
            for start, n in spans:
                assert owner[start:start + n] == [None] * n
                owner[start:start + n] = [i] * n
        assert owner == [records.index(pair) for pair in distinct]
        assert stimuli.rows == len(distinct)
        assert len(kept[0][3]) <= len(stimuli.records)


def test_concurrent_mutants_share_one_golden_graph():
    # the golden outputs are kept check-then-act without a lock; a race can
    # only compute them twice, equal, on the one Stimuli all threads share
    g = ladder_model(3)
    suite = build_complete_test(g)
    stimuli = split_default_stimuli(g, suite)
    mutants = [inject_fault(g, f) for f in simulator.mutation_catalogue(g)]
    want = [reference_v(g, m, suite, stimuli)[0] for m in mutants]
    got: dict[int, list] = {}

    def worker(n):
        got[n] = [run_suite(g, m, suite, stimuli).bits for m in mutants]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == {n: want for n in range(4)}
    assert len(stimuli._golden[3]) == 2 * len(suite.blocks)


def plan_models():
    """Seeded random models, the fixtures, ladders and the two golden-error
    graphs of ``divide_by_zero_graph``."""
    yield from (random_dag_model(Random(seed)) for seed in range(25))
    yield fig1_graph()
    yield build_rtg(parse_program(listing31_source(), fold=False))[0]
    yield from map(ladder_model, (1, 2, 3))
    yield from map(divide_by_zero_graph, ("I1", "I2"))


@pytest.mark.parametrize("kind", STIMULI_KINDS)
def test_kept_plan_matches_term_reference_over_a_catalogue(kind):
    # one golden graph and one Stimuli for every mutant in turn, so that
    # each call after the first reads the golden outputs the first one kept
    stimuli_of, permissive = STIMULI_KINDS[kind]
    outcomes = Counter()
    with warnings.catch_warnings(record=True) as defaulted:
        warnings.simplefilter("always", DefaultedVariableWarning)
        for g in plan_models():
            suite = build_complete_test(g)
            stimuli = stimuli_of(g, suite)
            faults = simulator.mutation_catalogue(g)
            for fault in faults:
                mutant = inject_fault(g, fault)
                want = reference_v(g, mutant, suite, stimuli, permissive)
                assert observed_v(g, mutant, suite, stimuli, permissive) == want, (kind, fault)
                outcomes["error" if want[1] else "bits"] += 1
            if not faults:
                continue
            if reference_v(g, g, suite, stimuli, permissive)[1] is None:
                assert stimuli._golden[0]() is g and stimuli._golden[1] == permissive
            else:
                # a golden error keeps nothing, so the next call is cold and
                # raises it again
                assert stimuli._golden is None
                assert observed_v(g, mutant, suite, stimuli, permissive) == want, (kind, fault)
    assert outcomes["bits"] > 300 and outcomes["error"] > 4
    assert bool(defaulted) == permissive


@pytest.mark.parametrize("kind", STIMULI_KINDS)
def test_each_term_reads_the_stimulus_it_was_given(monkeypatch, kind):
    # the label view is read from the records, so checking it against the
    # stimuli as given checks the records, and with them every reference
    # here that takes its inputs from stimuli[label]
    for g in plan_models():
        suite = build_complete_test(g)
        stimuli, given = given_stimuli(monkeypatch, STIMULI_KINDS[kind][0], g, suite)
        assert list(stimuli) == list(suite.labels()) and dict(stimuli) == given


def test_another_stimuli_or_flag_does_not_read_the_kept_plan():
    # equal per-block defaults with other overrides, and one Stimuli run
    # permissive and not: each call must run its own stimuli and flag,
    # whichever plan the graph kept last
    for g in (ladder_model(3), random_dag_model(Random(3)), fig1_graph()):
        suite = build_complete_test(g)
        first = default_stimuli(g, suite)
        second = first.overriding({label: Stimulus(env={k: 3.0 for k in first[label].env})
                                   for label in suite.labels()[::2]})
        sparse = sparse_stimuli(g, suite)
        for fault in simulator.mutation_catalogue(g):
            mutant = inject_fault(g, fault)
            for stimuli, permissive in ((first, False), (second, False), (sparse, True),
                                        (sparse, False), (first, False)):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", DefaultedVariableWarning)
                    assert observed_v(g, mutant, suite, stimuli, permissive) == \
                        reference_v(g, mutant, suite, stimuli, permissive)


def test_plan_dies_with_its_graph():
    g = ladder_model(2)
    suite = build_complete_test(g)
    stimuli = default_stimuli(g, suite)
    for fault in simulator.mutation_catalogue(g)[:2]:
        run_suite(g, inject_fault(g, fault), suite, stimuli)
    # the Stimuli holds the golden graph of its kept outputs weakly
    assert stimuli._golden[0]() is g
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None and stimuli._golden[0]() is None


def refuse(*args, **kwargs):
    raise AssertionError("a warm call walked the suite's runs or ran the golden side")


@pytest.mark.parametrize("kind", ["default", "split"])
def test_a_warm_plan_runs_only_the_crossing_pairs(monkeypatch, kind):
    # complexity guard: once a golden graph has run every golden output,
    # and a first pass over the catalogue has built each golden environment
    # at most once, a mutant makes no golden execution, no execute_path call
    # and no pass over the suite's runs (such a pass keys each run's
    # stimulus); it runs exactly the mutant side's nodes of a cold call
    stimuli_of, _ = STIMULI_KINDS[kind]
    checked = 0
    for g in [random_dag_model(Random(seed)) for seed in range(20)] + [ladder_model(3)]:
        suite = build_complete_test(g)
        stimuli = stimuli_of(g, suite)
        try:
            run_suite(g, g, suite, stimuli)
        except ExecutionError:
            continue
        mutants = [inject_fault(g, fault) for fault in simulator.mutation_catalogue(g)]
        # a catalogue mutant binds no variable of its own, so on a warm call
        # only the golden run that builds a record's environments binds one
        built = Counter()
        bind = simulator._bind

        def spy(forms, s, permissive):
            built[id(s), tuple(map(id, forms))] += 1
            return bind(forms, s, permissive)
        with monkeypatch.context() as patch:
            patch.setattr(simulator, "_bind", spy)
            for mutant in mutants:
                observed_v(g, mutant, suite, stimuli)
        assert set(built.values()) <= {1} and len(built) == len(stimuli._golden[4])
        with monkeypatch.context() as patch:
            for name in ("_stimulus_key", "_bind", "execute_path"):
                patch.setattr(simulator, name, refuse)
            patch.setattr(Stimuli, "__init__", refuse)
            steps = count_steps(patch)
            for mutant in mutants:
                steps.clear()
                want = reference_v(g, mutant, suite, stimuli)
                assert observed_v(g, mutant, suite, stimuli) == want
                if want[1] is None:
                    assert steps == node_steps(g, suite, stimuli, changed_keys(g, mutant))
                    checked += 1
    assert checked > 100


def test_a_cold_call_keeps_no_environment(monkeypatch, tmp_path):
    # the golden environments serve warm calls only: a call that runs the
    # golden outputs keeps none, a call whose golden side raised keeps
    # nothing at all, so the next one is cold and raises again, and the
    # CLI, which makes its Stimuli per run, keeps no environment
    g = ladder_model(4)
    suite = build_complete_test(g)
    stimuli = default_stimuli(g, suite)
    run_suite(g, inject_fault(g, simulator.FaultSpec("I3", 2, opcode=1)), suite, stimuli)
    assert stimuli._golden[4] == {}
    for divider, other in (("I1", "I2"), ("I2", "I1")):
        g = divide_by_zero_graph(divider)
        suite = build_complete_test(g)
        stimuli = default_stimuli(g, suite)
        mutant = inject_fault(g, simulator.FaultSpec(other, 1, opcode=3))
        want = reference_v(g, mutant, suite, stimuli)
        assert want[1][0] is DivisionByZero
        for _ in range(2):
            assert observed_v(g, mutant, suite, stimuli) == want
            assert stimuli._golden is None

    made = []
    init = Stimuli.__init__

    def spy(self, *args):
        init(self, *args)
        made.append(self)
    monkeypatch.setattr(Stimuli, "__init__", spy)
    graph = tmp_path / "ladder4.rtg.json"
    graph.write_text(dumps_graph(ladder_model(4)), encoding="utf-8")
    assert main(["all", "--graph", str(graph), "--fault", "I3:2:op=1"]) == 1
    kept = [s._golden for s in made if s._golden is not None]
    assert kept and all(k[4] == {} for k in kept)


def split_error_graph() -> RTGraph:
    """X -> R1 -> Y whose golden run never raises, on any input, and whose
    mutant ``I1:2:op=3`` divides by zero on I2, a rib after the one it
    changes, at the default input x = 1: acc = x * x + 1 on I1 (acc = x * 2
    on I3), then y = 2 / acc on I2."""
    return RTGraph(nodes=(Node("X", "input"), Node("R1", "internal"), Node("Y", "output")),
                   ribs=(make_rib("I1", "X", "R1", [(2, "t1", ("x", "x")), (1, "acc", ("t1", 1.0))]),
                         make_rib("I3", "X", "R1", [(2, "acc", ("x", 2.0))]),
                         make_rib("I2", "R1", "Y", [(4, "y", (2.0, "acc"))])))


@pytest.mark.parametrize("permissive", [False, True], ids=["strict", "permissive"])
@pytest.mark.parametrize("kind", STIMULI_KINDS)
def test_split_route_matches_term_reference_over_a_catalogue(monkeypatch, kind, permissive):
    # each catalogue mutant twice on one golden graph and one Stimuli, once
    # every golden output is kept: the first pass builds the golden
    # environments the mutants start from and the second reads the kept
    # ones; no mutant runs through execute_path
    stimuli_of = STIMULI_KINDS[kind][0]
    runs = count_runs(monkeypatch)
    outcomes = Counter()
    with warnings.catch_warnings(record=True) as defaulted:
        warnings.simplefilter("always", DefaultedVariableWarning)
        for g in [*plan_models(), split_error_graph()]:
            suite = build_complete_test(g)
            stimuli = stimuli_of(g, suite)
            try:
                run_suite(g, g, suite, stimuli, permissive=permissive)
            except ExecutionError:
                continue
            mutants = [inject_fault(g, fault) for fault in simulator.mutation_catalogue(g)]
            want = [reference_v(g, mutant, suite, stimuli, permissive) for mutant in mutants]
            runs.clear()
            defaulted.clear()
            for _ in range(2):
                for mutant, w in zip(mutants, want):
                    assert observed_v(g, mutant, suite, stimuli, permissive) == w
                    outcomes["error" if w[1] else "bits"] += 1
            assert runs == Counter()
            outcomes["warned"] += bool(defaulted)
    assert outcomes["bits"] > 100 or kind == "permissive" and not permissive
    assert outcomes["error"] > 0 or kind == "permissive"
    assert bool(outcomes["warned"]) == (kind == "permissive" and permissive)


def interleaved_stimuli(g, suite) -> Stimuli:
    """The default stimuli with every other term of each block on other
    inputs, so that two stimuli interleave on one path."""
    stimuli = default_stimuli(g, suite)
    given = {}
    for block in suite.blocks:
        env = stimuli[block.labels[0]].env
        given.update(dict.fromkeys(block.labels[1::2],
                                   Stimulus(env={k: v * 2.5 + 0.75 for k, v in env.items()})))
    return stimuli.overriding(given)


def laid_out(kind, g, suite, rng) -> tuple[TestSuite, Stimuli]:
    """*g*'s complete test *suite* and its stimuli as *kind* lays them out:
    records in an order other than path enumeration's (the diagnostic
    suite, the blocks reversed or shuffled by *rng*), two stimuli
    interleaved on each path, or the sparse stimuli, whose records share
    inputs but not the free variables they leave unbound."""
    if kind == "diagnostic":
        suite = minimal_diagnostic_test(suite, g.statement_ids)
    elif kind == "reversed":
        suite = TestSuite(suite.blocks[::-1])
    elif kind == "shuffled":
        suite = TestSuite(tuple(rng.sample(suite.blocks, len(suite.blocks))))
    if kind == "interleaved":
        return suite, interleaved_stimuli(g, suite)
    if kind == "sparse":
        return suite, sparse_stimuli(g, suite)
    return suite, default_stimuli(g, suite)


def warned(run, *args):
    """What *run* returns on *args*, and the distinct messages of the
    DefaultedVariableWarnings it raises, in the order first raised, as the
    CLI prints them."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DefaultedVariableWarning)
        out = run(*args)
    return out, list(dict.fromkeys(str(w.message) for w in caught
                                   if w.category is DefaultedVariableWarning))


def error_cases():
    """The catalogue mutants of the graphs whose golden side raises on a
    path sharing a prefix with others, and of the one whose mutant raises
    on a rib after the one it changes."""
    for g in (divide_by_zero_graph("I1"), divide_by_zero_graph("I2"), split_error_graph()):
        suite = build_complete_test(g)
        for fault in simulator.mutation_catalogue(g):
            yield g, suite, inject_fault(g, fault)


COLD_LAYOUTS = ["diagnostic", "reversed", "shuffled", "interleaved", "sparse"]


@pytest.mark.parametrize("permissive", [False, True], ids=["strict", "permissive"])
def test_the_cold_walk_matches_term_reference_in_any_record_order(permissive):
    # seeded: each mutant of the model families, the campaign and the error
    # graphs, and each reshaped mutant, runs cold on one layout drawn for
    # it; V, the error type and first failing label, and the distinct
    # warnings in order must match
    rng = Random(30)
    outcomes = Counter()
    sources = {"catalogue": chain(model_families(), campaign(range(40)), error_cases()),
               "reshaped": reshaped_cases()}
    for source, cases in sources.items():
        for g, suite, mutant in cases:
            kind = rng.choice(COLD_LAYOUTS)
            laid, stimuli = laid_out(kind, g, suite, rng)
            want = warned(reference_v, g, mutant, laid, stimuli, permissive)
            assert warned(observed_v, g, mutant, laid, stimuli, permissive) == want, (kind, mutant)
            outcomes[kind, "error" if want[0][1] else "bits"] += 1
            outcomes[source] += 1
            outcomes[source, "warned"] += bool(want[1])
    # a strict run of the sparse stimuli leaves a variable unbound on most
    # mutants' first records
    assert all(outcomes[kind, "bits"] > (0 if kind == "sparse" and not permissive else 50)
               and outcomes[kind, "error"] > 10 for kind in COLD_LAYOUTS), outcomes
    assert bool(outcomes["catalogue", "warned"]) == permissive
    reshaped_warned = outcomes["reshaped", "warned"]
    assert outcomes["reshaped"] > 500
    assert reshaped_warned > 100 if permissive else reshaped_warned == 0


def free_suffix_graph() -> RTGraph:
    """X -> R1 -> Y where both paths cross I1 (acc = x + 1) and then read
    acc, on I2 (y = acc * 2) or on I3 (y = acc + w), so only the path
    through I3 reads the free variable w."""
    return RTGraph(nodes=(Node("X", "input"), Node("R1", "internal"), Node("Y", "output")),
                   ribs=(make_rib("I1", "X", "R1", [(1, "acc", ("x", 1.0))]),
                         make_rib("I2", "R1", "Y", [(3, "y", ("acc", 2.0))]),
                         make_rib("I3", "R1", "Y", [(1, "y", ("acc", "w"))])))


@pytest.mark.parametrize("permissive", [False, True], ids=["strict", "permissive"])
def test_a_record_resuming_a_shared_prefix_defaults_its_own_free_variables(permissive):
    # both paths take x = 1.0 alone, so the second resumes after I1 from the
    # first one's environment, which never bound w: a permissive run
    # defaults it there, on both sides, and a strict one refuses it
    g = free_suffix_graph()
    suite = build_complete_test(g)
    for fault in simulator.mutation_catalogue(g):
        mutant = inject_fault(g, fault)
        stimuli = default_stimuli(g, suite).overriding(
            dict.fromkeys(suite.labels(), Stimulus(env={"x": 1.0})))
        assert [keys for _, _, keys, _, _ in stimuli.records] == [
            (("I1", "X", "R1"), ("I2", "R1", "Y")), (("I1", "X", "R1"), ("I3", "R1", "Y"))]
        want = warned(reference_v, g, mutant, suite, stimuli, permissive)
        assert warned(observed_v, g, mutant, suite, stimuli, permissive) == want
        if permissive:
            assert want == ((want[0][0], None), ["defaulted free variable(s) to 0.0: w"])
        else:
            assert want[0][1] == (UnboundVariable, stimuli.records[1][0])


def test_a_path_that_ends_where_another_one_goes_on_runs_its_own_ribs():
    # a hand-built suite may hold a path that is a prefix of another's; a
    # record resumes short of its own last rib, so each still runs one
    g = ladder_model(2)
    (long, *_) = enumerate_paths(g)
    short = Path("X1", long.edges[:1])
    for paths in ((long, short), (short, long)):
        suite = TestSuite(tuple(Block.of(p, (), p.label) for p in paths))
        stimuli = default_stimuli(g, suite)
        mutant = inject_fault(g, simulator.FaultSpec("I1", 2, opcode=4))
        assert observed_v(g, mutant, suite, stimuli) == reference_v(g, mutant, suite, stimuli)
        assert observed_v(g, mutant, suite, stimuli)[0] == (1, 1)


def shape(statements) -> tuple[list, set]:
    """The variables *statements* read before assigning them, in ordinal
    order, and the variables they assign."""
    reads, assigned = {}, set()
    for s in sorted(statements, key=lambda s: s.ordinal):
        reads.update(dict.fromkeys(v for v in s.read_variables() if v not in assigned))
        assigned.add(s.target)
    return list(reads), assigned


def reshaped(g: RTGraph, fragment: str, how: str) -> RTGraph:
    """*g* with every rib of *fragment* changed so that it reads or assigns
    other variables: its last statement assigns a new variable
    (``"target"``), or its first variable operand other than x is x
    (``"input"``) or a variable no rib assigns (``"free"``); *g* itself
    when the fragment has no such operand or the change leaves what the
    rib reads and assigns as it was."""
    statements = list(g.statements_of(fragment))
    if how == "target":
        statements[-1] = replace(statements[-1], target="renamed")
    else:
        at = next(((i, j) for i, s in enumerate(statements)
                   for j, o in enumerate(s.operands) if isinstance(o, str) and o != "x"), None)
        if at is None:
            return g
        i, j = at
        operands = list(statements[i].operands)
        operands[j] = "x" if how == "input" else "free"
        statements[i] = replace(statements[i], operands=tuple(operands))
    if shape(statements) == shape(g.statements_of(fragment)):
        return g
    return g.with_ribs(replace(r, statements=tuple(statements)) if r.fragment == fragment else r
                       for r in g.ribs)


def reshaped_mutants(g: RTGraph) -> list[tuple[str, RTGraph]]:
    """(how, mutant) of each reshaped mutant of *g*: every fragment
    reshaped each way, alone and beside a catalogue change on another
    fragment."""
    faults = simulator.mutation_catalogue(g)
    mutants = []
    for fragment in g.fragments:
        other = next((f for f in faults if f.fragment != fragment), None)
        for how in ("target", "input", "free"):
            mutant = reshaped(g, fragment, how)
            if mutant is not g:
                mutants.append((how, mutant))
                if other:
                    mutants.append((how, reshaped(inject_fault(g, other), fragment, how)))
    return mutants


def reshaped_cases():
    """Each reshaped mutant of the plan models, with its model and suite."""
    for g in plan_models():
        suite = build_complete_test(g)
        for _, mutant in reshaped_mutants(g):
            yield g, suite, mutant


@pytest.mark.parametrize("permissive", [False, True], ids=["strict", "permissive"])
def test_a_reshaped_rib_forks_like_any_other(monkeypatch, permissive):
    # a hand-built mutant whose changed rib reads or assigns other variables
    # forks at its first changed rib as a catalogue mutant does, and binds
    # its own path's free variables there: it calls no execute_path, and
    # once the golden environments are built a warm call runs the mutant
    # side's nodes of a cold call
    runs = count_runs(monkeypatch)
    steps = count_steps(monkeypatch)
    outcomes = Counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DefaultedVariableWarning)
        for g in plan_models():
            suite = build_complete_test(g)
            stimuli = default_stimuli(g, suite)
            try:
                run_suite(g, g, suite, stimuli, permissive=permissive)
            except ExecutionError:
                continue
            for how, m in reshaped_mutants(g):
                want = reference_v(g, m, suite, stimuli, permissive)
                runs.clear()
                assert observed_v(g, m, suite, stimuli, permissive) == want
                outcomes[how, "error" if want[1] else "bits"] += 1
                if want[1] is None:
                    steps.clear()
                    assert observed_v(g, m, suite, stimuli, permissive) == want
                    assert steps == node_steps(g, suite, stimuli, changed_keys(g, m))
                assert runs == Counter()
    assert outcomes["target", "bits"] > 20 and outcomes["input", "bits"] > 20
    # a free variable the stimulus leaves unbound is an error unless permissive
    assert outcomes["free", "bits" if permissive else "error"] > 20


def test_a_defaulted_variable_warning_points_at_the_caller():
    # each route that runs a record warns at run_suite's caller: a cold
    # call on both sides and a warm one, of a catalogue mutant and of a
    # mutant rib reading a variable the golden one does not.  The golden
    # graph of seed 3 raises, so it keeps nothing and each call is cold,
    # raising the same error again
    for seed in (0, 3):
        g = free_variable_model(Random(seed))
        suite = build_complete_test(g)
        fault = simulator.mutation_catalogue(g)[0]
        catalogue, reshape = inject_fault(g, fault), reshaped(g, fault.fragment, "free")
        calls = [(g, True), (catalogue, True), (reshape, True), (catalogue, False),
                 (reshape, False)]
        stimuli = sparse_stimuli(g, suite)
        for mutant, cold in calls:
            if cold:
                stimuli = sparse_stimuli(g, suite)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", DefaultedVariableWarning)
                got = observed_v(g, mutant, suite, stimuli, permissive=True)
            assert caught and {w.filename for w in caught} == {__file__}, (mutant, cold)
            if mutant is reshape:
                assert any("free" in str(w.message) for w in caught)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DefaultedVariableWarning)
            if seed == 0:
                assert reference_v(g, g, suite, stimuli, True)[1] is None
                assert stimuli._golden[0]() is g
            else:
                assert reference_v(g, g, suite, stimuli, True)[1] is not None
                assert stimuli._golden is None
                assert got == reference_v(g, reshape, suite, stimuli, True)
                assert observed_v(g, reshape, suite, stimuli, permissive=True) == got


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf, -1e-9])
def test_a_tolerance_that_is_not_finite_and_non_negative_is_refused(tolerance):
    # with nan or inf no output ever differed: 32 of these 64 terms fail
    g = ladder_model(3)
    suite = build_complete_test(g)
    mutant = inject_fault(g, simulator.FaultSpec("I1", 1, opcode=3))
    assert sum(run_suite(g, mutant, suite, default_stimuli(g, suite), tolerance=0.0).bits) == 32
    with pytest.raises(InvalidTolerance, match="finite non-negative"):
        run_suite(g, mutant, suite, default_stimuli(g, suite), tolerance=tolerance)


def test_topology_is_rib_keys_and_node_roles():
    # the node roles are compared only when the mutant has a node tuple of
    # its own; inject_fault shares the golden one
    g = ladder_model(2)
    suite = build_complete_test(g)
    stimuli = default_stimuli(g, suite)
    mutant = inject_fault(g, simulator.FaultSpec("I1", 1, opcode=3))
    assert mutant.nodes is g.nodes
    copied = RTGraph(tuple(Node(n.name, n.role) for n in g.nodes), mutant.ribs)
    assert run_suite(g, copied, suite, stimuli) == run_suite(g, mutant, suite, stimuli)
    swapped = RTGraph(tuple(Node(n.name, "internal" if n.role == "output" else n.role)
                            for n in g.nodes), mutant.ribs)
    for other in (swapped, RTGraph(g.nodes, mutant.ribs[1:])):
        with pytest.raises(GraphMismatch, match="differ in topology"):
            run_suite(g, other, suite, stimuli)


def test_a_suite_path_crossing_a_rib_the_golden_graph_lacks_is_a_mismatch():
    # ladder 2 has ribs I1, I2 on X -> R1, but none of fig1's I4 on R1 -> R4;
    # fig1 without I1 lacks the first rib of two paths
    fig1 = fig1_graph()
    suite = build_complete_test(fig1)
    for g in (ladder_model(2), RTGraph(fig1.nodes, tuple(r for r in fig1.ribs
                                                         if r.fragment != "I1"))):
        stimuli = default_stimuli(fig1, suite)
        with pytest.raises(GraphMismatch, match=r"^path [^ ]+ crosses rib \(.*\), which the "
                                                r"golden graph lacks$") as caught:
            run_suite(g, g, suite, stimuli)
        assert stimuli._golden is None
        # it names the first block's path that crosses a missing rib, and
        # the first such rib on it
        keys = {r.key for r in g.ribs}
        label, key = next((b.path.label, r.key) for b in suite.blocks for r in b.path.edges
                          if r.key not in keys)
        assert str(caught.value) == f"path {label} crosses rib {key}, which the golden graph lacks"


def test_only_the_stimuli_of_the_suite_are_taken():
    g = ladder_model(2)
    suite = build_complete_test(g)
    stimuli = default_stimuli(g, suite)
    other = build_complete_test(ladder_model(1))
    for given in (dict(stimuli), default_stimuli(g, other)):
        with pytest.raises(MissingStimulus, match="not the Stimuli of this suite"):
            run_suite(g, g, suite, given)
    assert run_suite(g, g, suite, stimuli).bits == (0,) * len(suite.labels())
