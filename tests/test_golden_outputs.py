"""Byte-level pins of CLI output on both fixtures, a 3-stage ladder and a
625-path if-chain program, covering every subcommand.

Each case runs one or more ``rtgdiag`` commands in order and compares the
stdout of the last one, and its exit code, with a capture stored under
``tests/golden/``.  ``{table}`` in an argument stands for a table file the
earlier commands of the case write; ``{ladder}`` for the ladder graph;
``{chain625}`` for the 5x5x5x5 if-chain program, whose 4,752 complete-test
terms take the greedy route of the diagnostic cover; ``{ladder4}`` for a
4-stage ladder and ``{stimuli}`` for a stimuli file that masks its fault I1:1:op=2 on one term
(x = 3 gives x + 1.5 = x * 1.5), so a failing path has a passing term;
``{ladder5}`` for a 5-stage ladder (32 paths, 1,024 rows).
"""

import os

import pytest

from rtgdiag import dumps_graph
from rtgdiag.cli import main

from randmodels import if_chain_program, ladder_model

HERE = os.path.dirname(__file__)
GOLDEN = os.path.join(HERE, "golden")
FIXTURES = os.path.join(HERE, "..", "fixtures")
FIG1 = ("--graph", os.path.join(FIXTURES, "fig1.rtg.json"))
LISTING31 = ("--program", os.path.join(FIXTURES, "listing31.swl"), "--unfolded")
FAULT = ("--fault", "I5:3:op=3")
LISTING31_V = "000111000000111111000000111111"
# fig1's V under FAULT with the bit of 151₂ flipped: path X15Y fails on two
# of its three terms
FIG1_FLIPPED_V = "0001100000"
LADDER4_SPLIT = ("--graph", "{ladder4}", "--fault", "I1:1:op=2", "--stimuli", "{stimuli}")

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
    "fig1_diagnose_flipped.txt": (1, ("fdt", *FIG1, "--response", FIG1_FLIPPED_V,
                                      "--format", "json", "--out", "{table}"),
                                  ("diagnose", "--table", "{table}")),
    "fig1_diagnose_flipped.json": (1, ("fdt", *FIG1, "--response", FIG1_FLIPPED_V,
                                       "--format", "json", "--out", "{table}"),
                                   ("diagnose", "--table", "{table}", "--format", "json")),
    "ladder3_all.txt": (1, ("all", "--graph", "{ladder}", "--fault", "I3:1:op=3")),
    # strong mode exonerates every candidate once a term of the faulty path passes
    "ladder4_split_all.txt": (1, ("all", *LADDER4_SPLIT, "--mode", "weak")),
    "listing31_all_clean.txt": (0, ("all", *LISTING31)),
    # given both, `all` parses and lowers the program but runs the graph file
    "listing31_fig1_all.txt": (1, ("all", *LISTING31, *FIG1, *FAULT)),
    "listing31_run_diagnostic.txt": (0, ("run", *LISTING31, *FAULT, "--suite", "diagnostic")),
    "listing31_run_diagnostic.json": (0, ("run", *LISTING31, *FAULT, "--suite", "diagnostic",
                                          "--format", "json")),
    "listing31_parse.txt": (0, ("parse", *LISTING31)),
    "listing31_parse.json": (0, ("parse", *LISTING31, "--format", "json")),
    "ladder5_all.txt": (1, ("all", "--graph", "{ladder5}", "--fault", "I4:2:op=2")),
    "ladder4_diagnostic_run.json": (1, ("run", "--graph", "{ladder4}", "--fault", "I3:1:op=3",
                                        "--suite", "diagnostic", "--format", "json",
                                        "--table-out", "{table}"),
                                    ("diagnose", "--table", "{table}", "--format", "json")),
    # the mark order of every row in table JSON
    "ladder4_fdt.json": (0, ("fdt", "--graph", "{ladder4}", "--format", "json",
                             "--response", "0110" * 64)),
}

CHAIN625 = ("--program", "{chain625}")
COVER_AND_TESTABILITY = {
    "cover_paths": ("cover", "--mode", "paths"),
    "cover_diagnostic": ("cover", "--mode", "diagnostic"),
    "testability_1": ("testability", "--target", "1"),
    "testability_2": ("testability", "--target", "2"),
}
INJECT = ("inject", "--fragment", "I5", "--ordinal", "3", "--op", "3")
for _prefix, _source in (("fig1", FIG1), ("listing31", LISTING31)):
    # `graph` and `inject` always print graph JSON; --format does not change it
    CASES[f"{_prefix}_graph.json"] = (0, ("graph", *_source))
    CASES[f"{_prefix}_inject.json"] = (0, (*INJECT, *_source))
    for _stem in ("paths", "terms"):
        CASES[f"{_prefix}_{_stem}.txt"] = (0, (_stem, *_source))
        CASES[f"{_prefix}_{_stem}.json"] = (0, (_stem, *_source, "--format", "json"))
for _prefix, _source in (("fig1", FIG1), ("listing31", LISTING31), ("chain625", CHAIN625)):
    for _stem, _argv in COVER_AND_TESTABILITY.items():
        CASES[f"{_prefix}_{_stem}.txt"] = (0, (*_argv, *_source))
        CASES[f"{_prefix}_{_stem}.json"] = (0, (*_argv, *_source, "--format", "json"))


def run_case(name, tmp_path, capsys):
    """(exit code, stdout) of the last command of case *name*."""
    ladder = tmp_path / "ladder3.rtg.json"
    ladder.write_text(dumps_graph(ladder_model(3)), encoding="utf-8")
    ladder4 = tmp_path / "ladder4.rtg.json"
    ladder4.write_text(dumps_graph(ladder_model(4)), encoding="utf-8")
    ladder5 = tmp_path / "ladder5.rtg.json"
    ladder5.write_text(dumps_graph(ladder_model(5)), encoding="utf-8")
    stimuli = tmp_path / "stimuli.json"
    stimuli.write_text('{"2111₁": {"x": 3.0}}', encoding="utf-8")
    chain625 = tmp_path / "chain625.swl"
    chain625.write_text(if_chain_program((5, 5, 5, 5)), encoding="utf-8")
    slots = {"{table}": str(tmp_path / "table.json"), "{ladder}": str(ladder),
             "{chain625}": str(chain625), "{ladder4}": str(ladder4),
             "{ladder5}": str(ladder5),
             "{stimuli}": str(stimuli)}
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
