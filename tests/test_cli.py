import json
import os

from rtgdiag import loads_graph
from rtgdiag.cli import main
from rtgdiag.fixtures import LISTING31_SOURCE

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
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
    for caps in ("paths=abc", "terms=-3", "path=5"):
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
    for doc in ([1, 2], {"21₁": 3.0}, {"21₁": {"x": "abc"}}):
        spath.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run_cli(capsys, "run", "--graph", FIG1, "--fault", "I5:3:op=3",
                               "--stimuli", str(spath))
        assert code == 3
        assert err.startswith("rtgdiag run: ") and err.count("\n") == 1
