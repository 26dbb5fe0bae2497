import argparse
import json
import os
import subprocess
import sys

import pytest

from rtgdiag import build_complete_test, dumps_graph, loads_graph, minimal_diagnostic_test, rtg
from rtgdiag import cli
from rtgdiag.cli import build_parser, main
from rtgdiag.fixtures import LISTING31_SOURCE

from randmodels import chain_model, ladder_model

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
FIXTURES = os.path.join(ROOT, "fixtures")
FIG1 = os.path.join(FIXTURES, "fig1.rtg.json")
LISTING31 = os.path.join(FIXTURES, "listing31.swl")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_paths_text(capsys):
    code, out, _ = run_cli(capsys, "paths", "--graph", FIG1)
    assert code == 0
    labels = [line.split(":")[0] for line in out.strip().splitlines()]
    assert labels == ["X14Y", "X15Y", "X2Y", "X3Y"]
    assert "[(1)(1 ∨ 4 ∨ 5)(1)]" in out


def test_terms_json(capsys):
    code, out, _ = run_cli(capsys, "terms", "--graph", FIG1, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [row["label"] for row in doc] == [
        "111₁", "141₁", "151₁", "111₂", "121₁",
        "151₂", "21₁", "31", "11", "21₂"]
    assert doc[3]["marks"] == ["I11", "I51", "I61"]


def test_cover_subcommands(capsys):
    code, out, _ = run_cli(capsys, "cover", "--graph", FIG1, "--mode", "paths",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["selected"] == ["X14Y", "X15Y", "X2Y", "X3Y"]
    code, out, _ = run_cli(capsys, "cover", "--graph", FIG1, "--mode", "diagnostic",
                           "--format", "json")
    assert code == 0
    assert len(json.loads(out)["selected"]) == 10


def test_parse_summary(capsys, tmp_path):
    src = tmp_path / "p.swl"
    src.write_text(LISTING31_SOURCE, encoding="utf-8")
    code, out, _ = run_cli(capsys, "parse", "--program", str(src))
    assert code == 0
    assert "if-chains=2" in out
    assert "output=F" in out


def test_parse_error_exits_3(capsys, tmp_path):
    src = tmp_path / "bad.swl"
    src.write_text("input x;\nf = ;\noutput f;", encoding="utf-8")
    code, _, err = run_cli(capsys, "parse", "--program", str(src))
    assert code == 3
    assert "line 2" in err


@pytest.mark.parametrize("digit", ["３", "٣"])
def test_non_ascii_digit_is_an_unexpected_character(capsys, tmp_path, digit):
    src = tmp_path / "digit.swl"
    src.write_text(f"input x;\ny = x + {digit};\noutput y;\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "graph", "--program", str(src))
    assert (code, out) == (3, "")
    assert err == f"rtgdiag graph: line 2, column 9: unexpected character {digit!r}\n"


def test_duplicate_input_declaration_exits_3(capsys, tmp_path):
    src = tmp_path / "twice.swl"
    src.write_text("input x; input x; y = x + 1; output y;", encoding="utf-8")
    code, out, err = run_cli(capsys, "parse", "--program", str(src))
    assert (code, out) == (3, "")
    assert err == "rtgdiag parse: line 1, column 10: duplicate input declaration x\n"


def test_missing_file_exits_3(capsys):
    code, _, err = run_cli(capsys, "paths", "--graph", "no-such-file.json")
    assert code == 3
    assert err


def test_graph_from_program_is_valid_json(capsys, tmp_path):
    src = tmp_path / "p.swl"
    src.write_text(LISTING31_SOURCE, encoding="utf-8")
    code, out, _ = run_cli(capsys, "graph", "--program", str(src), "--unfolded")
    assert code == 0
    g = loads_graph(out)
    assert sorted(s.opcode for s in g.statements_of("I4")) == [1, 4, 5]


def test_invalid_graph_exits_3(capsys, tmp_path):
    doc = {"nodes": [{"name": "X", "role": "input"}], "ribs": []}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_cli(capsys, "graph", "--graph", str(path))
    assert code == 3
    assert "no-output" in err


def test_a_duplicated_node_reports_no_cycle(capsys, tmp_path):
    with open(FIG1, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["nodes"].insert(3, dict(doc["nodes"][2]))  # R2 listed twice
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "graph", "--graph", str(path))
    assert (code, out) == (3, "")
    assert err == "[duplicate-node] node names are not unique\n"


def test_inject_writes_mutant(capsys, tmp_path):
    out_path = tmp_path / "mutant.json"
    code, _, _ = run_cli(capsys, "inject", "--graph", FIG1, "--fragment", "I5",
                         "--ordinal", "3", "--op", "3", "--out", str(out_path))
    assert code == 0
    mutant = loads_graph(out_path.read_text(encoding="utf-8"))
    assert mutant.statements_of("I5")[2].opcode == 3


def test_run_and_diagnose_pipeline(capsys, tmp_path):
    table_path = tmp_path / "fdt.json"
    code, out, _ = run_cli(capsys, "run", "--graph", FIG1, "--fault", "I5:3:op=3",
                           "--table-out", str(table_path))
    assert code == 0
    assert "V = (0001110000)" in out

    code, out, _ = run_cli(capsys, "diagnose", "--table", str(table_path))
    assert code == 1
    assert "F' = I51 I52 I55" in out

    code, out, _ = run_cli(capsys, "diagnose", "--table", str(table_path),
                           "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["Fprime"] == [["I51", "I52", "I55"]]
    assert "I41" in doc["H"]


def test_diagnose_no_fault(capsys, tmp_path):
    table_path = tmp_path / "fdt.json"
    run_cli(capsys, "run", "--graph", FIG1, "--fault", "I1:1:const=4",
            "--suite", "complete", "--table-out", str(table_path))
    # rebuild with an all-pass vector by comparing golden against itself
    code, out, _ = run_cli(capsys, "fdt", "--graph", FIG1, "--kind", "extended",
                           "--response", "0000000000", "--format", "json",
                           "--out", str(table_path))
    assert code == 0
    code, out, _ = run_cli(capsys, "diagnose", "--table", str(table_path))
    assert code == 0
    assert "no fault detected" in out


def test_generalized_fdt_and_diagnosis(capsys, tmp_path):
    table_path = tmp_path / "gen.json"
    code, _, _ = run_cli(capsys, "fdt", "--graph", FIG1, "--kind", "generalized",
                         "--response", "0100", "--format", "json", "--out", str(table_path))
    assert code == 0
    code, out, _ = run_cli(capsys, "diagnose", "--table", str(table_path))
    assert code == 1
    assert "Faults" in out
    assert "I51" in out and "I52" in out and "I55" in out


def test_an_empty_generalized_diagnosis_is_a_data_error(capsys, tmp_path):
    # nothing survives, which must not print the "no fault detected" answer
    table_path = tmp_path / "gen.json"
    run_cli(capsys, "fdt", "--graph", FIG1, "--kind", "generalized", "--response", "1001",
            "--format", "json", "--out", str(table_path))
    for fmt in ("text", "json"):
        assert run_cli(capsys, "diagnose", "--table", str(table_path), "--format", fmt) == (
            3, "", "rtgdiag diagnose: every candidate is exonerated; observations are "
                   "inconsistent with a single fault\n")


@pytest.mark.parametrize("kind, response, row", [("extended", "1111111111", "111₁"),
                                                  ("generalized", "1111", "X15Y")])
def test_a_failing_row_that_marks_nothing_is_named(capsys, tmp_path, kind, response, row):
    # every row fails, so nothing is exonerated: the row is an empty clause
    table = tmp_path / "table.json"
    run_cli(capsys, "fdt", "--graph", FIG1, "--kind", kind, "--response", response,
            "--format", "json", "--out", str(table))
    doc = json.loads(table.read_text(encoding="utf-8"))
    next(r for r in doc["rows"] if r["label"] == row)["marks"] = []
    table.write_text(json.dumps(doc), encoding="utf-8")
    for mode in ("strong", "weak"):
        assert run_cli(capsys, "diagnose", "--table", str(table), "--mode", mode) == (
            3, "", f"rtgdiag diagnose: row {row} fails but marks no statement\n")


def test_testability_output(capsys):
    code, out, _ = run_cli(capsys, "testability", "--graph", FIG1, "--target", "1",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert ["I51", "I52", "I55"] in doc["groups"]
    i5 = [i["after_ordinal"] for i in doc["insertions"] if i["fragment"] == "I5"]
    assert i5 == [1, 2]


def test_all_pipeline_reference_run(capsys):
    code, out, _ = run_cli(capsys, "all", "--graph", FIG1, "--fault", "I5:3:op=3")
    assert code == 1
    assert out.rstrip().endswith("ambiguity group: {I51, I52, I55}")
    assert "F' = I51 I52 I55" in out
    assert "paths: X14Y ∨ X15Y ∨ X2Y ∨ X3Y" in out


def test_all_pipeline_from_program(capsys, tmp_path):
    src = tmp_path / "p.swl"
    src.write_text(LISTING31_SOURCE, encoding="utf-8")
    code, out, _ = run_cli(capsys, "all", "--program", str(src), "--unfolded",
                           "--fault", "I5:3:op=3")
    assert code == 1
    assert "F' = I51 I52 I55" in out


def test_all_without_fault_is_clean(capsys):
    code, out, _ = run_cli(capsys, "all", "--graph", FIG1)
    assert code == 0
    assert "no fault" in out


def test_stimuli_file_is_honored(capsys, tmp_path):
    stimuli = {"21₁": {"x": 3.0, "w": 0.0}}
    spath = tmp_path / "stim.json"
    spath.write_text(json.dumps(stimuli), encoding="utf-8")
    code, out, _ = run_cli(capsys, "run", "--graph", FIG1, "--fault", "I5:3:op=3",
                           "--stimuli", str(spath))
    assert code == 0
    assert "V = (0001110000)" in out


@pytest.mark.parametrize("doc, label", [
    ({"2l": {"x": float("nan")}}, "2l"),  # a misspelt 21₁, its value never read
    ({"21₁": {"x": 3.0, "w": 0.0}, "2l": {"x": 1.0}, "3l": {}}, "2l"),
    ({"2l": {"x": 1.0}, "21₁": {"x": float("nan")}}, "2l"),
], ids=["misspelt", "first unknown", "unknown before non-finite"])
def test_stimuli_for_an_unknown_term_exit_3(capsys, tmp_path, doc, label):
    spath = tmp_path / "stim.json"
    spath.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli(capsys, "run", "--graph", FIG1, "--fault", "I5:3:op=3",
                   "--stimuli", str(spath)) == (
        3, "", f"rtgdiag run: {spath}: no term {label} in the complete suite\n")


def test_stimuli_for_a_term_of_the_complete_suite_only_exit_3(capsys, tmp_path):
    g = ladder_model(2)
    suite = build_complete_test(g)
    kept = minimal_diagnostic_test(suite, g.statement_ids).labels()
    dropped = next(label for label in suite.labels() if label not in kept)
    graph = tmp_path / "ladder.rtg.json"
    graph.write_text(dumps_graph(g), encoding="utf-8")
    spath = tmp_path / "stim.json"
    spath.write_text(json.dumps({kept[0]: {"x": 1.0}, dropped: {"x": 1.0}}), encoding="utf-8")
    assert run_cli(capsys, "run", "--graph", str(graph), "--fault", "I1:1:op=3",
                   "--suite", "diagnostic", "--stimuli", str(spath)) == (
        3, "", f"rtgdiag run: {spath}: no term {dropped} in the diagnostic suite\n")


def test_permissive_defaults_are_one_warning_line_each(capsys, tmp_path):
    # 111₁ binds no x and 21₁ binds no w: each default is one line, first seen first
    spath = tmp_path / "stim.json"
    spath.write_text(json.dumps({"111₁": {}, "21₁": {"x": 1.0}}), encoding="utf-8")
    code, out, err = run_cli(capsys, "all", "--graph", FIG1, "--fault", "I5:3:op=3",
                             "--permissive", "--stimuli", str(spath))
    assert code == 1
    assert "F' = I51 I52 I55" in out
    assert err.splitlines() == [
        "rtgdiag all: warning: defaulted free variable(s) to 0.0: x",
        "rtgdiag all: warning: defaulted free variable(s) to 0.0: w",
    ]


def test_bad_fault_spec_exits_3(capsys):
    code, _, err = run_cli(capsys, "run", "--graph", FIG1, "--fault", "I5-3-op3")
    assert code == 3
    assert "fault spec" in err


def test_outputs_are_deterministic(capsys):
    _, first, _ = run_cli(capsys, "all", "--graph", FIG1, "--fault", "I5:3:op=3")
    _, second, _ = run_cli(capsys, "all", "--graph", FIG1, "--fault", "I5:3:op=3")
    assert first == second
    _, tfirst, _ = run_cli(capsys, "fdt", "--graph", FIG1, "--format", "json")
    _, tsecond, _ = run_cli(capsys, "fdt", "--graph", FIG1, "--format", "json")
    assert tfirst == tsecond


def test_caps_env_override(capsys, monkeypatch):
    monkeypatch.setenv("RTGDIAG_CAPS", "terms=2")
    code, _, err = run_cli(capsys, "terms", "--graph", FIG1)
    assert code == 3
    assert "terms" in err


def test_malformed_caps_are_usage_errors(capsys, monkeypatch):
    for caps in ("paths=abc", "terms=-3", "path=5", "exact=5"):
        monkeypatch.setenv("RTGDIAG_CAPS", caps)
        code, out, err = run_cli(capsys, "paths", "--graph", FIG1)
        assert code == 2
        assert out == ""
        assert err.startswith("rtgdiag paths: RTGDIAG_CAPS: ")
        assert err.count("\n") == 1


def test_non_binary_response_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "fdt", "--graph", FIG1, "--kind", "generalized",
                             "--response", "01x1")
    assert code == 2
    assert out == ""
    assert err == "rtgdiag fdt: --response needs a string of 0s and 1s, got '01x1'\n"


def test_an_empty_response_is_a_response_of_no_bits(capsys):
    # an empty bit string is given, not absent: it binds V with no bits
    code, out, err = run_cli(capsys, "fdt", "--graph", FIG1, "--response", "")
    assert code == 3
    assert out == ""
    assert err == "rtgdiag fdt: response has 0 bits for 10 rows\n"


def test_run_and_all_describe_their_shared_options_alike():
    (commands,) = [a.choices for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    helps = {name: {a.dest: a.help for a in sub._actions} for name, sub in commands.items()}
    for dest in ("fault", "stimuli", "tolerance", "permissive"):
        assert helps["run"][dest] == helps["all"][dest] is not None
    assert helps["diagnose"]["mode"] == helps["all"]["mode"] is not None


def test_sin_overflow_exits_3(capsys, tmp_path):
    rib = {"fragment": "I1", "src": "X", "dst": "Y", "statements": [
        {"ordinal": 1, "opcode": 2, "target": "t1",
         "operands": [{"var": "x"}, {"const": 1e300}]},
        {"ordinal": 2, "opcode": 2, "target": "t2",
         "operands": [{"var": "t1"}, {"const": 1e300}]},
        {"ordinal": 3, "opcode": 5, "target": "acc", "operands": [{"var": "t2"}]}]}
    graph = tmp_path / "overflow.rtg.json"
    graph.write_text(json.dumps({"nodes": [{"name": "X", "role": "input"},
                                           {"name": "Y", "role": "output"}],
                                 "ribs": [rib]}), encoding="utf-8")
    code, out, err = run_cli(capsys, "all", "--graph", str(graph), "--fault", "I1:1:const=2")
    assert code == 3
    assert err.startswith("rtgdiag all: term ")
    assert "sin of non-finite value inf in fragment I1 statement 3" in err
    assert err.count("\n") == 1


def test_malformed_stimuli_file_exits_3(capsys, tmp_path):
    spath = tmp_path / "stim.json"
    for doc in ([1, 2], {"21₁": 3.0}, {"21₁": {"x": "abc"}}, {"21₁": {"x": True, "w": 0}},
                {"21₁": {"x": "3.0", "w": 0}}):
        spath.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run_cli(capsys, "run", "--graph", FIG1, "--fault", "I5:3:op=3",
                               "--stimuli", str(spath))
        assert code == 3
        assert err.startswith("rtgdiag run: ") and err.count("\n") == 1


#: Bytes no UTF-8 decoder accepts, and input nested past any recursion limit.
BAD_INPUTS = {
    "latin-1": "Gr\xfc\xdfe".encode("latin-1"),
    "deep JSON": ("[" * 200_000 + "]" * 200_000).encode(),
    "deep parentheses": f"input x;\ny = {'(' * 5000}x{')' * 5000};\noutput y;\n".encode(),
    "deep unary minus": f"input x;\ny = {'-' * 5000}x;\noutput y;\n".encode(),
    "long integer": b"[1" + b"0" * 5000 + b"]",  # past Python's 4,300-digit limit
}
#: Why each bad input is refused, where it is not "nested too deeply to read".
REASONS = {"latin-1": "not UTF-8 text (byte 2)",
           "long integer": f"an integer has more than {sys.get_int_max_str_digits()} digits"}
#: The command reading each file option, and the bad inputs it is given.
READERS = {
    "--table": (["diagnose"], ["latin-1", "deep JSON", "long integer"]),
    "--graph": (["paths"], ["latin-1", "deep JSON", "long integer"]),
    "--stimuli": (["run", "--graph", FIG1, "--fault", "I5:3:op=3"],
                  ["latin-1", "deep JSON", "long integer"]),
    "--program": (["parse"], ["latin-1", "deep parentheses", "deep unary minus"]),
}


@pytest.mark.parametrize("option, bad", [(option, bad) for option, (_, bads) in READERS.items()
                                         for bad in bads])
def test_unreadable_input_exits_3(capsys, tmp_path, option, bad):
    path = tmp_path / "input"
    path.write_bytes(BAD_INPUTS[bad])
    command = READERS[option][0]
    code, out, err = run_cli(capsys, *command, option, str(path))
    assert (code, out) == (3, "")
    reason = REASONS.get(bad, "nested too deeply to read")
    assert err == f"rtgdiag {command[0]}: {path}: {reason}\n"


@pytest.mark.parametrize("option", ["--table", "--graph", "--stimuli"])
def test_malformed_json_reports_the_decoder_message(capsys, tmp_path, option):
    path = tmp_path / "input"
    path.write_text('{"x": 1', encoding="utf-8")
    command = READERS[option][0]
    with pytest.raises(json.JSONDecodeError) as raised:
        json.loads(path.read_text(encoding="utf-8"))
    assert run_cli(capsys, *command, option, str(path)) == \
        (3, "", f"rtgdiag {command[0]}: {raised.value}\n")


def test_graph_without_ribs_exits_3(capsys, tmp_path):
    graph = tmp_path / "noribs.rtg.json"
    graph.write_text(json.dumps({"nodes": [{"name": "X", "role": "input"}]}), encoding="utf-8")
    code, out, err = run_cli(capsys, "paths", "--graph", str(graph))
    assert (code, out) == (3, "")
    assert err == "rtgdiag paths: graph JSON: missing key 'ribs'\n"


def _fig1_table(capsys, tmp_path):
    table = tmp_path / "table.json"
    code, _, _ = run_cli(capsys, "fdt", "--graph", FIG1, "--response", "0001110000",
                         "--format", "json", "--out", str(table))
    assert code == 0
    return table, json.loads(table.read_text(encoding="utf-8"))


def test_table_row_without_v_exits_3(capsys, tmp_path):
    table, doc = _fig1_table(capsys, tmp_path)
    del doc["rows"][4]["v"]
    table.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "diagnose", "--table", str(table))
    assert (code, out) == (3, "")
    assert err == "rtgdiag diagnose: table JSON: missing key 'v'\n"


def test_table_mark_naming_no_column_exits_3(capsys, tmp_path):
    table, doc = _fig1_table(capsys, tmp_path)
    doc["rows"][0]["marks"].append("I99")
    table.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "diagnose", "--table", str(table))
    assert (code, out) == (3, "")
    assert err == ("rtgdiag diagnose: table JSON: row '111₁' marks 'I99', "
                   "which names no column\n")


def test_folded_sin_overflow_exits_3(capsys, tmp_path):
    program = tmp_path / "overflow.swl"
    factors = " * ".join(["99999999999999999999"] * 17)
    program.write_text(f"input x;\ny = sin({factors}) + x;\noutput y;\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "graph", "--program", str(program))
    assert (code, out) == (3, "")
    assert err == "rtgdiag graph: sin of non-finite value inf in line 2, column 5\n"


NINES = "9" * 400  # a literal past the float range
OVERFLOW = " * ".join(["99999999999999999999"] * 17)  # folds to inf


def _fig1_with_const(spelling):
    with open(FIG1, encoding="utf-8") as fh:
        return fh.read().replace('"const": 3.0', f'"const": {spelling}', 1)


#: Inputs that would put a non-finite constant into a statement: the command,
#: the text of the file given as its last argument (if any), the exit code and
#: the message.
NON_FINITE = {
    "long literal": (["graph", "--program"], f"input x;\ny = x + {NINES};\noutput y;\n", 3,
                     "non-finite constant inf in line 2, column 9"),
    "long literal, unfolded": (["graph", "--unfolded", "--program"],
                               f"input x;\ny = x + {NINES};\noutput y;\n", 3,
                               "non-finite constant inf in line 2, column 9"),
    "folded overflow": (["graph", "--program"], f"input x;\ny = x + {OVERFLOW};\noutput y;\n",
                        3, "non-finite constant inf in line 2, column 375"),
    "folded NaN": (["all", "--program"],
                   f"input x;\ny = x + ({OVERFLOW} - {OVERFLOW});\noutput y;\n", 3,
                   "non-finite constant nan in line 2, column 399"),
    "graph NaN": (["all", "--fault", "I1:1:op=3", "--graph"], _fig1_with_const("NaN"), 3,
                  "graph JSON: 'const' holds nan, expected a finite number"),
    "graph -Infinity": (["paths", "--graph"], _fig1_with_const("-Infinity"), 3,
                        "graph JSON: 'const' holds -inf, expected a finite number"),
    "graph integer past the float range": (
        ["graph", "--graph"], _fig1_with_const("1" + "0" * 400), 3,
        "graph JSON: 'const' holds an integer past the float range, expected a finite number"),
    "graph integer past the digit limit": (
        ["graph", "--graph"], _fig1_with_const("1" + "0" * 5000), 3,
        f"{{path}}: an integer has more than {sys.get_int_max_str_digits()} digits"),
    "inject inf": (["inject", "--graph", FIG1, "--fragment", "I1", "--ordinal", "1",
                    "--const", "inf"], None, 2, "--const needs a finite number, got inf"),
    "inject -nan": (["inject", "--graph", FIG1, "--fragment", "I1", "--ordinal", "1",
                     "--const", "-nan"], None, 2, "--const needs a finite number, got nan"),
    "fault inf": (["all", "--graph", FIG1, "--fault", "I1:1:const=inf"], None, 3,
                  "bad fault spec 'I1:1:const=inf'; "
                  "expected FRAG:ORDINAL:op=N or FRAG:ORDINAL:const=V"),
    "stimulus NaN": (["all", "--graph", FIG1, "--fault", "I2:2:op=1", "--stimuli"],
                     '{"21₁": {"x": NaN, "w": 0}, "31": {"x": NaN, "w": 0}}', 3,
                     "{path}: term 21₁: x needs a finite number"),
    "stimulus Infinity": (["run", "--graph", FIG1, "--fault", "I2:2:op=1", "--stimuli"],
                          '{"31": {"x": 1, "w": -Infinity}}', 3,
                          "{path}: term 31: w needs a finite number"),
    "stimulus 1e400": (["all", "--graph", FIG1, "--fault", "I2:2:op=1", "--stimuli"],
                       '{"21₁": {"x": 1e400, "w": 0}}', 3,
                       "{path}: term 21₁: x needs a finite number"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_constant_is_rejected(capsys, tmp_path, case):
    # a statement's constant is finite: no graph or JSON output may hold inf or NaN
    argv, text, code, err = NON_FINITE[case]
    if text is not None:
        path = tmp_path / "input"
        path.write_text(text, encoding="utf-8")
        argv = [*argv, str(path)]
        err = err.replace("{path}", str(path))
    assert run_cli(capsys, *argv) == (code, "", f"rtgdiag {argv[0]}: {err}\n")


def test_all_reads_400_nested_parentheses(capsys, tmp_path):
    program = tmp_path / "deep.swl"
    program.write_text(f"input x;\ny = {'(' * 400}x + 1{')' * 400};\noutput y;\n",
                       encoding="utf-8")
    code, out, err = run_cli(capsys, "all", "--program", str(program), "--fault", "I1:1:op=3")
    assert (code, err) == (1, "")
    assert "F' = I11" in out


def test_paths_of_a_long_chain(capsys, tmp_path):
    graph = tmp_path / "chain.rtg.json"
    graph.write_text(dumps_graph(chain_model(1200)), encoding="utf-8")
    code, out, err = run_cli(capsys, "paths", "--graph", str(graph), "--format", "json")
    assert (code, err) == (0, "")
    (path,) = json.loads(out)
    assert len(path["fragments"]) == 1200


def _fig1_doc():
    with open(FIG1, encoding="utf-8") as fh:
        return json.load(fh)


def _reshaped(doc, edit):
    edit(doc)
    return doc


GRAPH_SHAPES = {
    "document": lambda: [1],
    "nodes": lambda: {"nodes": 5, "ribs": []},
    "node": lambda: _reshaped(_fig1_doc(), lambda d: d["nodes"].__setitem__(0, "X")),
    "name": lambda: _reshaped(_fig1_doc(), lambda d: d["nodes"][0].__setitem__("name", ["X"])),
    "ribs": lambda: _reshaped(_fig1_doc(), lambda d: d.__setitem__("ribs", "I1")),
    "rib": lambda: _reshaped(_fig1_doc(), lambda d: d["ribs"].__setitem__(0, [1])),
    "fragment": lambda: _reshaped(_fig1_doc(), lambda d: d["ribs"][0].__setitem__("fragment", 1)),
    "statements": lambda: _reshaped(_fig1_doc(),
                                    lambda d: d["ribs"][0].__setitem__("statements", 3)),
    "statement": lambda: _reshaped(_fig1_doc(),
                                   lambda d: d["ribs"][0]["statements"].__setitem__(0, 3)),
    "opcode": lambda: _reshaped(_fig1_doc(),
                                lambda d: d["ribs"][0]["statements"][0].__setitem__("opcode", [1])),
    "operands": lambda: _reshaped(
        _fig1_doc(), lambda d: d["ribs"][0]["statements"][0].__setitem__("operands", None)),
    "operand": lambda: _reshaped(
        _fig1_doc(), lambda d: d["ribs"][0]["statements"][0]["operands"].__setitem__(0, "x")),
    "const": lambda: _reshaped(
        _fig1_doc(),
        lambda d: d["ribs"][0]["statements"][0]["operands"].__setitem__(1, {"const": [3]})),
}


@pytest.mark.parametrize("shape", sorted(GRAPH_SHAPES))
@pytest.mark.parametrize("command", ("paths", "graph"))
def test_graph_of_the_wrong_shape_exits_3(capsys, tmp_path, command, shape):
    graph = tmp_path / "bad.rtg.json"
    graph.write_text(json.dumps(GRAPH_SHAPES[shape]()), encoding="utf-8")
    code, out, err = run_cli(capsys, command, "--graph", str(graph))
    assert (code, out) == (3, "")
    assert err.startswith(f"rtgdiag {command}: graph JSON: ") and err.count("\n") == 1


TABLE_SHAPES = {
    "document": lambda d: [1],
    "columns": lambda d: {**d, "columns": 5},
    "column": lambda d: {**d, "columns": ["I11"] + d["columns"][1:]},
    "rows": lambda d: {**d, "rows": 7},
    "row": lambda d: {**d, "rows": [[1]] + d["rows"][1:]},
    "marks": lambda d: {**d, "rows": [{**d["rows"][0], "marks": 5}] + d["rows"][1:]},
    "mark": lambda d: {**d, "rows": [{**d["rows"][0], "marks": [["I11"]]}] + d["rows"][1:]},
    "v": lambda d: {**d, "rows": [{**d["rows"][0], "v": [1]}] + d["rows"][1:]},
    "kind": lambda d: {**d, "kind": "bogus"},
}


@pytest.mark.parametrize("shape", sorted(TABLE_SHAPES))
def test_table_of_the_wrong_shape_exits_3(capsys, tmp_path, shape):
    table, doc = _fig1_table(capsys, tmp_path)
    table.write_text(json.dumps(TABLE_SHAPES[shape](doc)), encoding="utf-8")
    code, out, err = run_cli(capsys, "diagnose", "--table", str(table))
    assert (code, out) == (3, "")
    assert err.startswith("rtgdiag diagnose: table JSON: ") and err.count("\n") == 1


@pytest.mark.parametrize("kind", ["extended", "generalized"])
def test_diagnosing_a_table_without_response_exits_3(capsys, tmp_path, kind):
    table = tmp_path / "table.json"
    code, _, _ = run_cli(capsys, "fdt", "--graph", FIG1, "--kind", kind,
                         "--format", "json", "--out", str(table))
    assert code == 0
    code, out, err = run_cli(capsys, "diagnose", "--table", str(table))
    assert (code, out) == (3, "")
    assert err == "rtgdiag diagnose: the table has no response vector V to diagnose from\n"


def test_table_bit_other_than_0_or_1_exits_3(capsys, tmp_path):
    table, doc = _fig1_table(capsys, tmp_path)
    for i, row in enumerate(doc["rows"]):
        row["v"] = 2 if i == 3 else 0
    table.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "diagnose", "--table", str(table))
    assert (code, out) == (3, "")
    assert err == "rtgdiag diagnose: table JSON: row '111₂' has v = 2, expected 0 or 1\n"


def test_table_with_one_null_bit_exits_3(capsys, tmp_path):
    table, doc = _fig1_table(capsys, tmp_path)
    doc["rows"][4]["v"] = None
    table.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "diagnose", "--table", str(table))
    assert (code, out) == (3, "")
    assert err == ("rtgdiag diagnose: table JSON: v is null on some rows only; "
                   "give 0 or 1 on every row, or null on every row\n")


SIX_STATEMENTS = """input x;
a = x + 1;
b = a * 2;
c = b - 3;
d = c + 4;
e = d * 5;
f = e - 6;
output f;
"""


def test_testability_plan_is_minimal(capsys, tmp_path):
    program = tmp_path / "six.swl"
    program.write_text(SIX_STATEMENTS, encoding="utf-8")
    code, out, _ = run_cli(capsys, "testability", "--program", str(program), "--target", "2")
    assert code == 0
    assert out == ("ambiguity groups:\n"
                   "  {I11₁, I11₂, I12₁, I12₂, I13₁, I13₂}\n"
                   "insertions for target 2:\n"
                   "  I1: after statement 2\n"
                   "  I1: after statement 4\n")


@pytest.mark.parametrize("target", ["0", "-3"])
def test_target_below_one_is_a_usage_error(capsys, target):
    code, out, err = run_cli(capsys, "testability", "--graph", FIG1, "--target", target)
    assert code == 2
    assert out == ""
    assert err == f"rtgdiag testability: --target needs a positive integer, got {target}\n"


@pytest.mark.parametrize("command", ["run", "all"])
@pytest.mark.parametrize("tolerance", ["-0.001", "nan", "inf"])
def test_malformed_tolerance_is_a_usage_error(capsys, command, tolerance):
    code, out, err = run_cli(capsys, command, "--graph", FIG1, "--fault", "I5:3:op=3",
                             "--tolerance", tolerance)
    assert code == 2
    assert out == ""
    assert err.startswith(f"rtgdiag {command}: --tolerance needs a finite non-negative number")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["run", "all"])
@pytest.mark.parametrize("spelling", [("--tolerance", "-1e-9"), ("--tolerance=-1e-9",)])
def test_exponent_tolerance_is_a_one_line_usage_error(capsys, command, spelling):
    # argparse alone reads a dash-led exponent as an option and prints usage
    code, out, err = run_cli(capsys, command, "--graph", FIG1, "--fault", "I5:3:op=3",
                             *spelling)
    assert code == 2
    assert out == ""
    assert err == (f"rtgdiag {command}: --tolerance needs a finite non-negative number, "
                   "got -1e-09\n")


def test_dash_led_constant_reaches_inject(capsys, tmp_path):
    out_path = tmp_path / "mutant.json"
    code, _, _ = run_cli(capsys, "inject", "--graph", FIG1, "--fragment", "I1",
                         "--ordinal", "1", "--const", "-2.5e-3", "--operand", "1",
                         "--out", str(out_path))
    assert code == 0
    mutant = loads_graph(out_path.read_text(encoding="utf-8"))
    assert mutant.statements_of("I1")[0].operands == ("x", -2.5e-3)


def test_dnf_cap_reaches_the_diagnosis(capsys, monkeypatch):
    monkeypatch.setenv("RTGDIAG_CAPS", "dnf=1")
    code, out, err = run_cli(capsys, "all", "--graph", FIG1, "--fault", "I5:3:op=3")
    assert code == 3
    assert out == ""
    assert err == "rtgdiag all: candidate DNF exceeds the cap of 1 terms\n"


def test_infinite_golden_output_is_detected(capsys, tmp_path):
    # x * 10^206 * 10^206 overflows to inf; the mutant's x * 10^206 + 10^206
    # stays finite, and that difference is a failing test
    big = "1" + "0" * 206
    program = tmp_path / "overflow.swl"
    program.write_text(f"input x;\ny = x * {big};\nz = y * {big};\noutput z;\n",
                       encoding="utf-8")
    code, out, _ = run_cli(capsys, "all", "--program", str(program), "--fault", "I1:2:op=1")
    assert code == 1
    assert "no fault detected" not in out
    assert "F' = I12₁ I12₂" in out


def test_inject_op_with_const_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["inject", "--graph", FIG1, "--fragment", "I1", "--ordinal", "1",
              "--op", "3", "--const", "7"])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --const: not allowed with argument --op" in captured.err


def test_parse_without_program_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["parse"])
    assert exit_.value.code == 2
    assert "the following arguments are required: --program" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("source", [("--graph", FIG1), ("--program", LISTING31, "--unfolded")],
                         ids=["fig1", "listing31"])
def test_run_with_an_injected_mutant_matches_the_fault(capsys, tmp_path, source, fmt):
    mutant = tmp_path / "mutant.json"
    code, _, _ = run_cli(capsys, "inject", *source, "--fragment", "I5", "--ordinal", "3",
                         "--op", "3", "--out", str(mutant))
    assert code == 0
    by_fault = run_cli(capsys, "run", *source, "--fault", "I5:3:op=3", "--format", fmt)
    assert by_fault[0] == 0 and "1" in by_fault[1]
    assert run_cli(capsys, "run", *source, "--mutant", str(mutant), "--format", fmt) == by_fault


def test_mutant_of_another_topology_exits_3(capsys, tmp_path):
    mutant = tmp_path / "ladder.rtg.json"
    mutant.write_text(dumps_graph(ladder_model(3)), encoding="utf-8")
    assert run_cli(capsys, "run", "--graph", FIG1, "--mutant", str(mutant)) == (
        3, "", "rtgdiag run: golden and mutant graphs differ in topology\n")


@pytest.mark.parametrize("edit, violation", [
    (lambda i5: i5[0]["operands"].pop(), "[bad-arity] rib I5 statement 1: mul needs 2 operands"),
    (lambda i5: i5.clear(), "[empty-rib] rib I5 carries no statements"),
], ids=("one operand", "empty rib"))
def test_an_invalid_mutant_is_refused_with_its_violations(capsys, tmp_path, edit, violation):
    with open(FIG1, encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(next(r["statements"] for r in doc["ribs"] if r["fragment"] == "I5"))
    mutant = tmp_path / "mutant.rtg.json"
    mutant.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli(capsys, "run", "--graph", FIG1, "--mutant", str(mutant)) == (
        3, "", f"rtgdiag run: invalid mutant graph:\n{violation}\n")


def test_all_has_no_format_option(capsys):
    # all writes a text report only; --format json was silently ignored
    with pytest.raises(SystemExit) as exit_:
        main(["all", "--graph", FIG1, "--fault", "I5:3:op=3", "--format", "json"])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --format json" in captured.err


@pytest.mark.parametrize("argv", [
    ("inject", "--fragment", "I5", "--ordinal", "3", "--op", "3"),
    ("inject", "--fragment", "I9", "--ordinal", "1", "--op", "3"),
    ("run", "--fault", "I9:1:op=3"),
    ("all", "--fault", "I9:1:op=3"),
], ids=["inject", "inject no fragment", "run no fragment", "all no fragment"])
def test_a_graph_violation_wins_over_the_injection(capsys, tmp_path, argv):
    with open(FIG1, encoding="utf-8") as fh:
        doc = json.load(fh)
    for node in doc["nodes"]:
        if node["role"] == "output":
            node["role"] = "internal"
    graph = tmp_path / "no-output.rtg.json"
    graph.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli(capsys, *argv, "--graph", str(graph)) == (
        3, "", f"rtgdiag {argv[0]}: invalid graph:\n[no-output] no output node reachable: "
               "graph declares no output node\n")


def test_run_without_mutant_or_fault_exits_3(capsys):
    assert run_cli(capsys, "run", "--graph", FIG1) == (
        3, "", "rtgdiag run: run needs --mutant or --fault\n")


#: The options each subcommand requires.
REQUIRED_ARGV = {
    "parse": ["--program", "p.swl"],
    "cover": ["--mode", "paths"],
    "inject": ["--fragment", "I1", "--ordinal", "1", "--op", "3"],
    "diagnose": ["--table", "t.json"],
}


def test_every_option_has_a_root_default():
    # the pipeline reads args.<dest> for every option of every subcommand
    parser = build_parser()
    (commands,) = [a.choices for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)]
    dests = {a.dest for sub in commands.values() for a in sub._actions if a.dest != "help"}
    for name in commands:
        missing = dests - set(vars(parser.parse_args([name, *REQUIRED_ARGV.get(name, [])])))
        assert not missing, f"{name}: no default for {sorted(missing)}"


@pytest.mark.parametrize("argv", [
    ("graph",), ("paths",), ("terms",), ("cover", "--mode", "paths"),
    ("fdt", "--kind", "generalized"), ("run", "--fault", "I5:3:op=3", "--suite", "diagnostic"),
    ("testability",), ("all", "--fault", "I5:3:op=3"),
    ("inject", "--fragment", "I5", "--ordinal", "3", "--op", "3"),
], ids=lambda argv: argv[0])
def test_graph_is_validated_once(capsys, monkeypatch, argv):
    calls = []
    validate = rtg.validate_graph
    monkeypatch.setattr(rtg, "validate_graph", lambda g: calls.append(g) or validate(g))
    assert main([*argv, "--graph", FIG1]) in (0, 1)
    capsys.readouterr()
    assert len(calls) == 1


def test_one_parser_serves_every_call_in_a_process(capsys, monkeypatch):
    """Each main() call in one process, with the parser built once, prints
    and exits as a fresh process would, usage errors included."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage text to the terminal
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONIOENCODING="utf-8")
    calls = [("paths", "--graph", FIG1),
             ("cover", "--graph", FIG1),  # no --mode: argparse exits 2
             ("cover", "--mode", "paths", "--graph", FIG1, "--format", "json"),
             ("testability", "--graph", FIG1, "--target", "0"),  # a UsageError
             ("terms", "--graph", FIG1, "--format", "json"),
             ("cover", "--mode", "diagnostic", "--graph", FIG1)]
    for argv in calls:
        try:
            code = main(list(argv))
        except SystemExit as e:
            code = e.code
        out, err = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "rtgdiag.cli", *argv], env=env,
                               capture_output=True, text=True, encoding="utf-8", timeout=60)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert cli._parser.cache_info().currsize == 1
