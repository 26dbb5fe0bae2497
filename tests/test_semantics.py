"""The program, the lowered graph and constant folding compute the same
values, and division by zero behaves as documented in each of them."""

import pytest

from rtgdiag import (DivisionByZero, ParseError, Stimulus, build_rtg, enumerate_paths,
                     execute_path, execute_program, parse_program)
from rtgdiag.cli import main

from randmodels import expression_chain_program

XS = [k / 2 for k in range(-2, 25)]  # every integer guard cut 0..10 and the halves between


@pytest.mark.parametrize("fold", (True, False), ids=("folded", "unfolded"))
@pytest.mark.parametrize("seed", range(8))
def test_program_and_graph_agree_on_the_path_the_guards_select(seed, fold):
    shape = ((3, 4), (2, 3, 2), (4, 2))[seed % 3]
    program = parse_program(expression_chain_program(shape, seed), fold=fold)
    g, smap = build_rtg(program)
    paths = enumerate_paths(g)
    for x in XS:
        trace = execute_program(program, Stimulus(env={"x": x}))
        nodes = [name for name, _ in trace.points]
        (path,) = [p for p in paths if list(p.nodes) == nodes]
        assert execute_path(g, path, Stimulus(env={"x": x})).points == trace.points
        # the guard regions of the source map agree with evaluating the guards
        for regions in smap.path_constraints(path.fragments):
            assert all(region.contains(x) for region in regions.values())


DIVIDE_BY_ZERO = "input x;\nf = 1/0;\noutput f;\n"
GUARD_DIVIDES_BY_ZERO = ("input x;\nif (x < 1/0) { f = x + 1; } else { f = x * 2; }\n"
                         "F = f + 3;\noutput F;\n")


def _write(tmp_path, text):
    path = tmp_path / "p.swl"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_folded_constant_division_by_zero_is_a_parse_error(tmp_path, capsys):
    with pytest.raises(ParseError, match="^line 2, column 6: constant division by zero$"):
        parse_program(DIVIDE_BY_ZERO)
    assert main(["parse", "--program", _write(tmp_path, DIVIDE_BY_ZERO)]) == 3
    assert capsys.readouterr().err == (
        "rtgdiag parse: line 2, column 6: constant division by zero\n")


def test_unfolded_division_by_zero_lowers_and_fails_when_executed(tmp_path, capsys):
    program = parse_program(DIVIDE_BY_ZERO, fold=False)
    g, _ = build_rtg(program)
    assert [(s.opcode, s.operands) for s in g.statements_of("I1")] == [(4, (1.0, 0.0))]
    with pytest.raises(DivisionByZero):
        execute_program(program, Stimulus(env={"x": 1.0}))
    with pytest.raises(DivisionByZero, match="fragment I1 statement 1"):
        execute_path(g, enumerate_paths(g)[0], Stimulus(env={"x": 1.0}))
    source = _write(tmp_path, DIVIDE_BY_ZERO)
    assert main(["run", "--program", source, "--unfolded", "--fault", "I1:1:op=2"]) == 3
    assert capsys.readouterr().err == (
        "rtgdiag run: term 4: division by zero in fragment I1 statement 1\n")


def test_unfolded_guard_dividing_by_zero_has_no_constraint(tmp_path, capsys):
    _, smap = build_rtg(parse_program(GUARD_DIVIDES_BY_ZERO, fold=False))
    assert "I1" not in smap.constraints and "I2" not in smap.constraints
    source = _write(tmp_path, GUARD_DIVIDES_BY_ZERO)
    assert main(["all", "--program", source, "--unfolded", "--fault", "I1:1:op=3"]) == 1
    out = capsys.readouterr().out
    assert out.endswith("F' = I11\nambiguity group: {I11}\n")
