"""Byte-level pins of CLI output on both fixtures and on a 3-stage ladder.

Each case runs one or more ``rtgdiag`` commands in order and compares the
stdout of the last one, and its exit code, with a capture stored under
``tests/golden/``.  ``{table}`` in an argument stands for a table file the
earlier commands of the case write; ``{ladder}`` for the ladder graph.
"""

import os

import pytest

from rtgdiag import dumps_graph
from rtgdiag.cli import main

from randmodels import ladder_model

HERE = os.path.dirname(__file__)
GOLDEN = os.path.join(HERE, "golden")
FIXTURES = os.path.join(HERE, "..", "fixtures")
FIG1 = ("--graph", os.path.join(FIXTURES, "fig1.rtg.json"))
LISTING31 = ("--program", os.path.join(FIXTURES, "listing31.swl"), "--unfolded")
FAULT = ("--fault", "I5:3:op=3")
LISTING31_V = "000111000000111111000000111111"

CASES = {
    "fig1_all.txt": (1, ("all", *FIG1, *FAULT)),
    "fig1_all_clean.txt": (0, ("all", *FIG1)),
    "fig1_run.json": (0, ("run", *FIG1, *FAULT, "--format", "json")),
    "fig1_run_diagnostic.json": (0, ("run", *FIG1, *FAULT, "--suite", "diagnostic",
                                     "--format", "json")),
    "fig1_fdt_response.txt": (0, ("fdt", *FIG1, "--response", "0001110000")),
    "fig1_fdt_response.json": (0, ("fdt", *FIG1, "--response", "0001110000",
                                   "--format", "json")),
    "fig1_fdt_generalized.txt": (0, ("fdt", *FIG1, "--kind", "generalized",
                                     "--response", "0100")),
    "fig1_diagnose.txt": (1, ("run", *FIG1, *FAULT, "--table-out", "{table}"),
                          ("diagnose", "--table", "{table}")),
    "fig1_diagnose.json": (1, ("run", *FIG1, *FAULT, "--table-out", "{table}"),
                           ("diagnose", "--table", "{table}", "--format", "json")),
    "fig1_diagnose_weak.json": (1, ("run", *FIG1, *FAULT, "--table-out", "{table}"),
                                ("diagnose", "--table", "{table}", "--mode", "weak",
                                 "--format", "json")),
    "fig1_diagnose_generalized.txt": (1, ("fdt", *FIG1, "--kind", "generalized",
                                          "--response", "0100", "--format", "json",
                                          "--out", "{table}"),
                                      ("diagnose", "--table", "{table}")),
    "listing31_all.txt": (1, ("all", *LISTING31, *FAULT)),
    "listing31_run.json": (0, ("run", *LISTING31, *FAULT, "--format", "json")),
    "listing31_fdt_response.txt": (0, ("fdt", *LISTING31, "--response", LISTING31_V)),
    "listing31_fdt_response.json": (0, ("fdt", *LISTING31, "--response", LISTING31_V,
                                        "--format", "json")),
    "listing31_diagnose.txt": (1, ("run", *LISTING31, *FAULT, "--table-out", "{table}"),
                               ("diagnose", "--table", "{table}")),
    "listing31_diagnose.json": (1, ("run", *LISTING31, *FAULT, "--table-out", "{table}"),
                                ("diagnose", "--table", "{table}", "--format", "json")),
    "ladder3_all.txt": (1, ("all", "--graph", "{ladder}", "--fault", "I3:1:op=3")),
}


def run_case(name, tmp_path, capsys):
    """(exit code, stdout) of the last command of case *name*."""
    ladder = tmp_path / "ladder3.rtg.json"
    ladder.write_text(dumps_graph(ladder_model(3)), encoding="utf-8")
    slots = {"{table}": str(tmp_path / "table.json"), "{ladder}": str(ladder)}
    capsys.readouterr()
    for argv in CASES[name][1:]:
        code = main([slots.get(a, a) for a in argv])
        out = capsys.readouterr().out
    return code, out


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path, capsys):
    code, out = run_case(name, tmp_path, capsys)
    with open(os.path.join(GOLDEN, name), encoding="utf-8", newline="") as fh:
        expected = fh.read()
    assert out == expected
    assert code == CASES[name][0]
