"""The per-path run against a term-by-term reference.

``run_suite`` runs golden and mutant once per distinct (path, inputs) pair.
The reference below runs both for every term, so any term whose bit the
shared run gets wrong, or any error reported for the wrong term, shows up
as a difference.
"""

import math
from random import Random

import pytest

from rtgdiag import (DivisionByZero, ExecutionError, Node, Path, RTGraph, Stimulus,
                     build_complete_test, default_stimuli, dumps_graph, execute_path,
                     inject_fault, make_rib, run_suite, simulator)
from rtgdiag.cli import main

from randmodels import ladder_model, random_dag_model

TOLERANCE = 1e-9


def reference_v(golden, mutant, suite, stimuli):
    """Two execute_path calls per term; (bits, None) or (None, (error type,
    label of the first failing term))."""
    mutant_rib = {r.key: r for r in mutant.ribs}
    bits = []
    for t in suite.terms:
        stim = stimuli[t.label]
        mpath = Path(label=t.path.label, edges=tuple(mutant_rib[r.key] for r in t.path.edges))
        try:
            gv = execute_path(golden, t.path, stim).output
            mv = execute_path(mutant, mpath, stim).output
        except ExecutionError as e:
            return None, (type(e), t.label)
        if math.isnan(gv) or math.isnan(mv):
            bits.append(int(math.isnan(gv) != math.isnan(mv)))
        else:
            bits.append(int(abs(gv - mv) > TOLERANCE * max(1.0, abs(gv))))
    return tuple(bits), None


def observed_v(golden, mutant, suite, stimuli):
    try:
        return run_suite(golden, mutant, suite, stimuli, tolerance=TOLERANCE).bits, None
    except ExecutionError as e:
        return None, (type(e), str(e).split(":", 1)[0].removeprefix("term "))


def split_stimuli(suite, stimuli):
    """*stimuli* with the last term of every multi-term path moved to other
    inputs, so one path carries two distinct input bindings."""
    out = dict(stimuli)
    last = {}
    for t in suite.terms:
        last.setdefault(t.path.label, []).append(t)
    for terms in last.values():
        if len(terms) > 1:
            t = terms[-1]
            env = {k: v * 2.5 + 0.75 for k, v in stimuli[t.label].env.items()}
            out[t.label] = Stimulus(env=env, label=t.label)
    return out


def count_calls(monkeypatch, *names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _fn=getattr(simulator, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(simulator, name, counted)
    return calls


def campaign(seeds):
    for seed in seeds:
        g = random_dag_model(Random(seed))
        suite = build_complete_test(g)
        for fault in simulator.mutation_catalogue(g):
            yield g, suite, inject_fault(g, fault)


def split_default_stimuli(g, suite):
    return split_stimuli(suite, default_stimuli(g, suite))


@pytest.mark.parametrize("stimuli_of", [default_stimuli, split_default_stimuli])
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


def test_error_names_first_failing_term():
    # acc = x - 1 on I1, then 2 / acc on I3: only inputs x = 1 divide by zero
    g = RTGraph(nodes=(Node("X", "input"), Node("R1", "internal"), Node("Y", "output")),
                ribs=(make_rib("I1", "X", "R1", [(3, "t1", ("x", 1.0)), (2, "acc", ("t1", 1.0))]),
                      make_rib("I2", "X", "R1", [(1, "t1", ("x", 1.0)), (2, "acc", ("t1", 1.0))]),
                      make_rib("I3", "R1", "Y", [(4, "t1", (2.0, "acc")), (1, "acc", ("t1", 0.5))])))
    suite = build_complete_test(g)
    stimuli = {t.label: Stimulus(env={"x": 2.0}) for t in suite.terms}
    late = suite.terms[2]
    assert late.path is suite.terms[0].path
    stimuli[late.label] = Stimulus(env={"x": 1.0})
    mutant = inject_fault(g, simulator.FaultSpec("I2", 1, opcode=3))
    want = reference_v(g, mutant, suite, stimuli)
    assert want[1] == (DivisionByZero, late.label)
    assert observed_v(g, mutant, suite, stimuli) == want


def test_split_inputs_run_separately(monkeypatch):
    g = ladder_model(2)
    suite = build_complete_test(g)
    stimuli = split_stimuli(suite, default_stimuli(g, suite))
    calls = count_calls(monkeypatch, "execute_path")
    run_suite(g, inject_fault(g, simulator.FaultSpec("I1", 1, opcode=3)), suite, stimuli)
    # 4 paths of 4 terms: each path runs its shared inputs and its moved term
    assert calls["execute_path"] == 2 * 2 * 4


def test_ladder_runs_each_path_once(monkeypatch):
    g = ladder_model(4)
    suite = build_complete_test(g)
    assert len(suite.terms) == 256
    calls = count_calls(monkeypatch, "execute_path", "pick_stimulus")
    stimuli = default_stimuli(g, suite)
    v = run_suite(g, inject_fault(g, simulator.FaultSpec("I3", 2, opcode=1)), suite, stimuli)
    assert calls == {"execute_path": 2 * 16, "pick_stimulus": 16}
    assert len(v) == 256 and 0 < sum(v.bits) < 256


def test_cli_all_runs_each_path_once(monkeypatch, tmp_path, capsys):
    graph = tmp_path / "ladder4.rtg.json"
    graph.write_text(dumps_graph(ladder_model(4)), encoding="utf-8")
    calls = count_calls(monkeypatch, "execute_path", "pick_stimulus")
    assert main(["all", "--graph", str(graph), "--fault", "I3:2:op=1"]) == 1
    assert calls == {"execute_path": 2 * 16, "pick_stimulus": 16}
    assert "F' = I31 I32" in capsys.readouterr().out
