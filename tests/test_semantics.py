"""The program, the lowered graph and constant folding compute the same
values, and division by zero behaves as documented in each of them."""

import pytest

from rtgdiag import (DivisionByZero, InfeasiblePath, ParseError, Stimulus, build_rtg,
                     enumerate_paths, execute_path, execute_program, parse_program,
                     pick_stimulus)
from rtgdiag.cli import main
from rtgdiag.intervals import IntervalSet

from randmodels import expression_chain_program

XS = [k / 2 for k in range(-2, 25)]  # every integer guard cut 0..10 and the halves between
BIG = "9" * 400  # a literal past the float range
#: Programs whose guard bounds fold to inf, -inf and NaN, or sit where bound +- 1 rounds back
EDGE_BOUNDS = {
    "inf": f"if (x < {BIG}) {{ y = x + 1; }} else {{ y = x * 2; }}",
    "-inf": f"if (x > -{BIG}) {{ y = x + 1; }} else if ({BIG} * {BIG} < x) {{ y = x - 1; }}"
            " else { y = x * 2; }",
    "nan": f"if (x < {BIG} - {BIG}) {{ y = x + 1; }} else if (x >= 0 * {BIG}) {{ y = x - 1; }}"
           " else { y = x * 2; }",
    "1e17": "if (x > 100000000000000000) { y = x + 1; } else if (x < -100000000000000000)"
            " { y = x - 1; } else { y = x * 2; }",
}


@pytest.mark.parametrize("fold", (True, False), ids=("folded", "unfolded"))
@pytest.mark.parametrize("seed", [*range(8), *EDGE_BOUNDS])
def test_program_and_graph_agree_on_the_path_the_guards_select(seed, fold):
    if seed in EDGE_BOUNDS:
        source = f"input x;\n{EDGE_BOUNDS[seed]}\nF = y * 2;\noutput F;\n"
    else:
        source = expression_chain_program(((3, 4), (2, 3, 2), (4, 2))[seed % 3], seed)
    program = parse_program(source, fold=fold)
    g, smap = build_rtg(program)
    paths = enumerate_paths(g)
    for x in XS + [1e17, -1e17]:
        trace = execute_program(program, Stimulus(env={"x": x}))
        nodes = [name for name, _ in trace.points]
        (path,) = [p for p in paths if list(p.nodes) == nodes]
        assert execute_path(g, path, Stimulus(env={"x": x})).points == trace.points
        # the guard regions of the source map agree with evaluating the guards
        for regions in smap.path_constraints(path.fragments):
            assert all(region.contains(x) for region in regions.values())
    # a stimulus picked from a path's regions drives the program down that path
    for path in paths:
        try:
            stim = pick_stimulus(path, smap.path_constraints(path.fragments))
        except InfeasiblePath:
            continue
        assert [name for name, _ in execute_program(program, stim).points] == list(path.nodes)


def test_a_nan_guard_bound_selects_no_real_and_its_else_arm_every_real():
    # x < inf - inf is false for every x, so the program always takes the else arm
    program = parse_program(f"input x;\nif (x < {BIG} - {BIG}) {{ y = x + 1; }}\n"
                            "else { y = x * 2; }\noutput y;\n")
    g, smap = build_rtg(program)
    assert smap.constraints == {"I1": {"x": IntervalSet(())}, "I2": {"x": IntervalSet.full()}}
    first, second = enumerate_paths(g)
    with pytest.raises(InfeasiblePath, match="^path XY₁: constraints on x have no solution$"):
        pick_stimulus(first, smap.path_constraints(first.fragments))
    assert pick_stimulus(second, smap.path_constraints(second.fragments)).env == {"x": 1.0}


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
