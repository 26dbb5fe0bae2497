"""Complexity guards: on a path-uniform table the work between term
expansion and diagnosis is per path block, not per row.

One ``rtgdiag all`` on a 5-stage ladder (32 paths, 1,024 rows, 20
statements) must hash statement ids O(paths x statements) times, not once
per mark; pick one stimulus and compute one stimulus key per path, and
read no stimulus by term label; and build no ``TestTerm``: each read of
``suite.terms`` or ``table.rows`` builds every term anew, so no stage may
read them.
"""

import pytest

from rtgdiag import (FaultSpec, StatementId, TestTerm, attach_response, build_complete_test,
                     build_extended_fdt, default_stimuli, diagnose, dumps_graph, enumerate_paths,
                     inject_fault, run_suite, simulator)
from rtgdiag.cli import main

from randmodels import ladder_model

K = 5
PATHS = 2 ** K
STATEMENTS = 4 * K


@pytest.fixture
def calls(monkeypatch):
    """Call counts of StatementId.__hash__, simulator._stimulus_key and
    TestTerm.__init__, wrapped at class or module level."""
    counts = {"hash": 0, "key": 0, "term": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(StatementId, "__hash__", counted("hash", StatementId.__hash__))
    monkeypatch.setattr(simulator, "_stimulus_key", counted("key", simulator._stimulus_key))
    monkeypatch.setattr(TestTerm, "__init__", counted("term", TestTerm.__init__))
    return counts


def test_all_on_a_ladder_is_path_level(tmp_path, calls):
    graph = tmp_path / "ladder.rtg.json"
    graph.write_text(dumps_graph(ladder_model(K)), encoding="utf-8")
    out = tmp_path / "verdict.txt"
    assert main(["all", "--graph", str(graph), "--fault", "I3:2:op=4",
                 "--out", str(out)]) == 1
    text = out.read_text(encoding="utf-8")
    assert text.count("\n") > 2 ** (2 * K)  # every row is written
    assert "F' = I31 I32\n" in text
    assert calls["hash"] <= 4 * PATHS * STATEMENTS
    assert calls["key"] == PATHS
    assert calls["term"] == 0


def test_all_picks_one_stimulus_per_path_and_reads_none_by_label(tmp_path, monkeypatch):
    picks = []

    def counted(p, *args, _pick=simulator.pick_stimulus):
        picks.append(p.label)
        return _pick(p, *args)
    monkeypatch.setattr(simulator, "pick_stimulus", counted)

    def by_label(*args):
        raise AssertionError("a stimulus was read by term label")
    monkeypatch.setattr(simulator.Stimuli, "__getitem__", by_label)
    monkeypatch.setattr(simulator.Stimuli, "_index", property(by_label))
    graph = tmp_path / "ladder.rtg.json"
    graph.write_text(dumps_graph(ladder_model(K)), encoding="utf-8")
    assert main(["all", "--graph", str(graph), "--fault", "I3:2:op=4",
                 "--out", str(tmp_path / "verdict.txt")]) == 1
    assert len(picks) == len(set(picks)) == PATHS


def test_diagnose_builds_no_rows(calls):
    g = ladder_model(K)
    suite = build_complete_test(g, enumerate_paths(g))
    mutant = inject_fault(g, FaultSpec("I1", 1, opcode=3))
    v = run_suite(g, mutant, suite, default_stimuli(g, suite))
    table = attach_response(build_extended_fdt(g, suite), v)
    before = dict(calls)
    result = diagnose(table)
    assert str(result.reduced) == "I11 I12"
    assert calls["term"] == 0
    assert calls["hash"] - before["hash"] <= 4 * PATHS * STATEMENTS
