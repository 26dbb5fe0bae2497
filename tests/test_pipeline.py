"""Each CLI invocation computes each stage once."""

import os
from collections import Counter

import pytest

from rtgdiag import diagnosis, testsynth
from rtgdiag.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
FIG1 = ("--graph", os.path.join(FIXTURES, "fig1.rtg.json"))
LISTING31 = ("--program", os.path.join(FIXTURES, "listing31.swl"), "--unfolded")


@pytest.fixture
def calls(monkeypatch):
    counts = Counter()
    for module, name in ((testsynth, "enumerate_paths"), (testsynth, "build_complete_test"),
                         (diagnosis, "ambiguity_groups")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return counts


@pytest.mark.parametrize("source", (FIG1, LISTING31), ids=("fig1", "listing31"))
@pytest.mark.parametrize("argv, code, once", [
    (("cover", "--mode", "diagnostic"), 0, ("enumerate_paths", "build_complete_test")),
    (("cover", "--mode", "paths"), 0, ()),
    (("run", "--fault", "I5:3:op=3", "--suite", "diagnostic"), 0,
     ("enumerate_paths", "build_complete_test")),
    (("fdt",), 0, ("enumerate_paths", "build_complete_test")),
    (("all", "--fault", "I5:3:op=3"), 1, ("enumerate_paths", "build_complete_test")),
    (("testability",), 0, ("ambiguity_groups",)),
], ids=("cover-diagnostic", "cover-paths", "run-diagnostic", "fdt", "all", "testability"))
def test_each_stage_runs_once(calls, capsys, source, argv, code, once):
    assert main([*argv, *source]) == code
    capsys.readouterr()
    assert calls == Counter(dict.fromkeys(once, 1))
