import math

import pytest

from rtgdiag import (NonFiniteValue, ParseError, Stimulus, UndefinedVariable,
                     UnsupportedOperation, build_rtg, enumerate_paths, execute_path, execute_program,
                     parse_program, validate_graph)
from rtgdiag.frontend import Assignment, IfChain

from reference import lower_expression

PI = 3.14159


def expr_of(text, fold=True):
    program = parse_program(f"input x; F = {text}; output F;", fold=fold)
    return program.body[0].expr


def opcodes(statements):
    return [s.opcode for s in statements]


def test_parse_listing31_shape(source):
    program = parse_program(source, fold=False)
    assert program.inputs == ("x",)
    assert program.output == "F"
    kinds = [type(item) for item in program.body]
    assert kinds == [IfChain, IfChain, Assignment]
    assert [len(item.arms) for item in program.body[:2]] == [3, 2]
    assert program.body[1].arms[-1].guard is None


def test_parse_identity_program():
    program = parse_program("input x; output x;")
    assert program.body == ()
    assert program.inputs == ("x",)
    assert program.output == "x"


def test_use_before_assign_rejected():
    with pytest.raises(UndefinedVariable) as exc:
        parse_program("input x; f = y + 1; output f;")
    assert exc.value.name == "y"


def test_branch_assignment_counts_as_defined():
    src = """
    input x;
    if (x < 0) { f = x + 1; } else { f = x + 2; }
    g = f * 2;
    output g;
    """
    parse_program(src)  # must not raise


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_program("input x;\nf = x +;\noutput f;")
    assert exc.value.line == 2


def test_unterminated_statement_rejected():
    with pytest.raises(ParseError):
        parse_program("input x; f = x + 1 output f;")


def test_lower_sin_sum_unfolded_reproduces_division():
    stmts, result = lower_expression(expr_of("sin(x + PI/3)", fold=False))
    assert opcodes(stmts) == [4, 1, 5]
    assert result == stmts[-1].target
    div = stmts[0]
    assert div.operands == (PI, 3.0)


def test_lower_sin_sum_folded_consumes_constant():
    stmts, _ = lower_expression(expr_of("sin(x + PI/3)", fold=True))
    assert opcodes(stmts) == [1, 5]
    assert stmts[0].operands == ("x", PI / 3.0)


def test_lower_sin_product_plus_two():
    stmts, _ = lower_expression(expr_of("sin(PI*x) + 2", fold=False))
    assert opcodes(stmts) == [2, 5, 1]


def test_lower_literal_is_consumed_by_parent():
    stmts, result = lower_expression(expr_of("7", fold=False))
    assert stmts == []
    assert result == 7.0


def test_lower_negated_scaling():
    program = parse_program("input x; f = -3*x + 7; output f;", fold=False)
    stmts, _ = lower_expression(program.body[0].expr)
    assert opcodes(stmts) == [2, 1]
    assert stmts[0].operands == ("x", -3.0)
    assert stmts[1].operands == (stmts[0].target, 7.0)


def test_lower_unary_minus_of_variable_multiplies():
    stmts, _ = lower_expression(expr_of("-x", fold=False))
    assert opcodes(stmts) == [2]
    assert stmts[0].operands == ("x", -1.0)


def test_copy_assignment_is_unsupported():
    program = parse_program("input x; f = x; output f;")
    with pytest.raises(UnsupportedOperation):
        build_rtg(program)


def test_chain_without_else_is_unsupported():
    program = parse_program("input x; if (x < 0) { f = x + 1; } output f;")
    with pytest.raises(UnsupportedOperation):
        build_rtg(program)


def test_build_listing31_fragment_multisets(source):
    program = parse_program(source, fold=False)
    g, _ = build_rtg(program)
    assert validate_graph(g) == []
    multisets = {f: sorted(s.opcode for s in g.statements_of(f)) for f in g.fragments}
    assert multisets == {"I1": [1], "I2": [2, 3], "I3": [1, 2],
                         "I4": [1, 4, 5], "I5": [1, 2, 5], "I6": [1]}


def test_branch_node_out_degree_matches_arm_count(source):
    g, _ = build_rtg(parse_program(source, fold=False))
    assert len(g.out_ribs("X")) == 3
    for node in ("R1", "R2", "R3"):
        assert len(g.out_ribs(node)) == 2


def test_program_faithful_graph_has_six_paths(source):
    g, _ = build_rtg(parse_program(source, fold=False))
    labels = [p.label for p in enumerate_paths(g)]
    assert labels == ["X14Y", "X15Y", "X24Y", "X25Y", "X34Y", "X35Y"]


def test_straight_line_program_builds_single_rib():
    g, _ = build_rtg(parse_program("input x; f = x + 3; output f;"))
    assert [p.label for p in enumerate_paths(g)] == ["XY"]
    assert len(g.ribs) == 1
    assert opcodes(g.ribs[0].statements) == [1]


def test_final_chain_arms_terminate_at_output():
    src = "input x; if (x < 1) { y = x + 1; } else { y = x + 2; } output y;"
    g, _ = build_rtg(parse_program(src))
    assert validate_graph(g) == []
    assert {r.dst for r in g.ribs} == {"Y"}
    assert len(enumerate_paths(g)) == 2


def test_execute_program_x1(source):
    program = parse_program(source, fold=False)
    trace = execute_program(program, Stimulus(env={"x": 1.0}))
    # independent hand evaluation: f = 4, w = sin(1 + PI/3)
    assert trace.output == pytest.approx(4.0 + math.sin(1.0 + PI / 3.0), abs=1e-12)
    assert dict(trace.points)["R1"] == 4.0


@pytest.mark.parametrize("x", [1.0, 0.0, 2.0, 7.0, 11.999, 13.0, -5.0, 2.0944])
def test_program_and_graph_agree_along_consistent_path(source, x):
    program = parse_program(source, fold=False)
    g, _ = build_rtg(program)
    trace = execute_program(program, Stimulus(env={"x": x}))
    trace_nodes = [name for name, _ in trace.points]
    path = next(p for p in enumerate_paths(g) if list(p.nodes) == trace_nodes)
    graph_trace = execute_path(g, path, Stimulus(env={"x": x}))
    assert graph_trace.points == trace.points


def test_folding_changes_rib_content_not_semantics(source):
    folded, _ = build_rtg(parse_program(source, fold=True))
    unfolded, _ = build_rtg(parse_program(source, fold=False))
    assert sorted(s.opcode for s in folded.statements_of("I4")) == [1, 5]
    assert sorted(s.opcode for s in unfolded.statements_of("I4")) == [1, 4, 5]
    for x in (1.0, 5.0, 20.0):
        pf = parse_program(source, fold=True)
        pu = parse_program(source, fold=False)
        out_f = execute_program(pf, Stimulus(env={"x": x})).output
        out_u = execute_program(pu, Stimulus(env={"x": x})).output
        assert out_f == pytest.approx(out_u, rel=1e-12)


def test_source_map_constraints_cover_guarded_fragments(source):
    _, smap = build_rtg(parse_program(source, fold=False))
    # three f-arms and two w-arms carry interval regions
    assert set(smap.constraints) == {"I1", "I2", "I3", "I4", "I5"}
    region = smap.constraints["I3"]["x"]
    assert region.contains(13.0)
    assert not region.contains(5.0)
    w_region = smap.constraints["I4"]["x"]
    assert w_region.contains(1.0)
    assert not w_region.contains(3.0)


def test_constant_sin_of_overflow_is_typed():
    # 17 factors of 1e20 overflow to inf before sin folds them
    factors = " * ".join(["99999999999999999999"] * 17)
    with pytest.raises(NonFiniteValue, match="in line 2, column 5$"):
        parse_program(f"input x;\ny = sin({factors}) + x;\noutput y;")
    # unfolded, the same constant reaches sin when a guard bound is evaluated
    program = parse_program(f"input x;\nif (x < sin({factors})) {{ y = x + 1; }} "
                            "else { y = x + 2; }\noutput y;", fold=False)
    with pytest.raises(NonFiniteValue, match="in line 2, column 9$"):
        build_rtg(program)
