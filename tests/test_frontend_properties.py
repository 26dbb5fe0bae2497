"""Property tests: folding and lowering keep the value of an expression.

Expressions are drawn as source text built from literals (zero, and one
large enough that a product of a few overflows), ``PI``, the variables x
and y, binary ``+ - * /``, parentheses, unary minus and ``sin``.  Each is
checked two ways:

- where the folded parse succeeds, ``evaluate`` gives the folded and the
  unfolded expression the same value, or both raise the same
  ExecutionError subclass;
- running ``lower_expression``'s statements through ``OP_ALPHABET`` gives
  the value ``evaluate`` gives, or raises the same subclass.

NaN counts as equal to NaN.
"""

import math

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from rtgdiag import NonFiniteValue, ParseError, parse_program
from rtgdiag.errors import ExecutionError
from rtgdiag.frontend import Num, Op, evaluate
from rtgdiag.rtg import OP_ALPHABET

from reference import lower_expression

LEAVES = st.sampled_from(["x", "y", "PI", "0", "1", "2.5", ".5", "3.", "99999999999999999999"])


def _extend(children):
    binary = st.tuples(children, st.sampled_from("+-*/"), children).map(" ".join)
    return st.one_of(
        binary,
        binary.map(lambda e: f"({e})"),
        children.map(lambda e: f"-{e}"),
        children.map(lambda e: f"sin({e})"),
    )


EXPRESSIONS = st.recursive(LEAVES, _extend, max_leaves=12)
VALUES = st.sampled_from([0.0, 1.0, -2.5, 3.14159, 1e-300, 1e300])


def expr_of(text, fold):
    return parse_program(f"input x; input y; F = {text}; output F;", fold=fold).body[0].expr


def outcome(compute):
    """The value of *compute()*, or the ExecutionError subclass it raises."""
    try:
        return compute()
    except ExecutionError as e:
        return type(e)


def same(a, b):
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    return a == b


def run_statements(statements, result, env):
    env = dict(env)
    for s in statements:
        env[s.target] = OP_ALPHABET[s.opcode].fn(
            *(env[o] if isinstance(o, str) else o for o in s.operands))
    return env[result] if isinstance(result, str) else result


def constants(e):
    if isinstance(e, Num):
        return [e.value]
    if isinstance(e, Op):
        return [v for o in e.operands for v in constants(o)]
    return []


@seed(20261018)
@settings(max_examples=200, deadline=None)
@given(EXPRESSIONS, VALUES, VALUES)
def test_folding_keeps_the_value(text, x, y):
    try:
        folded = expr_of(text, fold=True)
    except (ParseError, NonFiniteValue):
        return  # a constant divides by zero, or sin of a constant overflows
    unfolded = expr_of(text, fold=False)
    env = {"x": x, "y": y}
    assert same(outcome(lambda: evaluate(folded, env)), outcome(lambda: evaluate(unfolded, env)))


@seed(20261018)
@settings(max_examples=200, deadline=None)
@given(EXPRESSIONS, VALUES, VALUES, st.booleans())
def test_lowered_statements_keep_the_value(text, x, y, fold):
    try:
        e = expr_of(text, fold)
    except (ParseError, NonFiniteValue):
        return
    try:
        statements, result = lower_expression(e)
    except NonFiniteValue:
        # only a constant operand that is not finite stops lowering
        assert not all(math.isfinite(v) for v in constants(e))
        return
    env = {"x": x, "y": y}
    assert same(outcome(lambda: run_statements(statements, result, env)),
                outcome(lambda: evaluate(e, env)))
