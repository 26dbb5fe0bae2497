"""The linear routes of the frontend and graph views against the quadratic
reference routes of ``reference.py``, on seeded inputs.

- ``tokenize`` (one match per token) gives the tokens, or the ParseError
  message and position, of the tokenizer that matched every whitespace run,
  newline and comment on its own.  Non-ASCII digits are the one documented
  difference: the library refuses them.
- ``_effective_constraints`` (a running complement per variable) gives the
  regions of intersecting each arm with every earlier arm's complement.
- ``RTGraph.try_topo_order`` (Kahn's algorithm on a heap) gives the order
  and acyclic flag of Kahn's algorithm re-sorting its ready list, names
  with tied natural keys (R01, R1) and cycles included.
- ``validate_graph`` (statements checked once per distinct fragment and
  statement tuple) gives the report of checking every rib on its own.
"""

from dataclasses import replace
from random import Random

import pytest

from rtgdiag import (Node, ParseError, RTGraph, build_rtg, make_rib, parse_program,
                     validate_graph)
from rtgdiag.frontend import IfChain, _effective_constraints, tokenize
from rtgdiag.rtg import Statement

import reference
from randmodels import random_dag_model

SEEDS = range(300)

# --- tokens --------------------------------------------------------------------

_WORDS = ("input", "output", "if", "else", "sin", "PI", "x", "y_2", "_t", "a1b",
          "0", "12", "3.", ".5", "4.25", "007", "<", "<=", ">", ">=", "=", "&&",
          "+", "-", "*", "/", "(", ")", "{", "}", ";")
_GAPS = (" ", "  ", "\t", "\n", "\r\n", "\r", "\n\n", "# note\n", "#\n", " # x < 1;\n", "")
_STRAY = ("@", "$", "!", "&", "|", "é", "\f", "\x0b", " ", " ", "?")


def source(rng: Random) -> str:
    parts = []
    for _ in range(rng.randint(0, 40)):
        parts.append(rng.choice(_WORDS))
        parts.append(rng.choice(_GAPS))
        if rng.random() < 0.02:
            parts.append(rng.choice(_STRAY))
    if rng.random() < 0.3:
        parts.append("# a trailing comment with no newline")
    return "".join(parts)


def tokens_or_error(tokenizer, text):
    try:
        return [tuple(t) for t in tokenizer(text)]
    except ParseError as e:
        return (str(e), e.line, e.column)


def test_tokens_match_the_reference():
    for seed in SEEDS:
        text = source(Random(seed))
        assert tokens_or_error(tokenize, text) == tokens_or_error(reference.tokenize, text), seed


@pytest.mark.parametrize("text", ["", "\n", "#", "# only", "x\r\ny", "\tx;\n\t# c", "x é",
                                  "input x;\r\n# tail", "a\n\n\n  @"])
def test_edge_sources_match_the_reference(text):
    assert tokens_or_error(tokenize, text) == tokens_or_error(reference.tokenize, text)


@pytest.mark.parametrize("digit", ["３", "٣", "३"])
def test_non_ascii_digits_are_the_one_difference(digit):
    text = f"y = x +\n  {digit};"
    assert ("NUMBER", digit, 2, 3) in reference.tokenize(text)
    with pytest.raises(ParseError) as exc:
        tokenize(text)
    assert (str(exc.value), exc.value.line, exc.value.column) == (
        f"line 2, column 3: unexpected character {digit!r}", 2, 3)


# --- guard regions ---------------------------------------------------------------

_BOUNDS = ("0", "3", "-2", "4.5", "PI", "sin(1)", "(7 / 2)", "99999999999999999999" * 20)
_UNKNOWN_BOUNDS = ("1 / 0", "y + 1", "y")
_RELOPS = ("<", "<=", ">", ">=")


def comparison(rng: Random) -> str:
    """Mostly a variable against a constant; sometimes against a variable,
    a division by zero or from an expression, which no region represents."""
    if rng.random() < 0.03:
        return f"x + 1 {rng.choice(_RELOPS)} {rng.choice(_BOUNDS)}"
    bound = rng.choice(_UNKNOWN_BOUNDS if rng.random() < 0.04 else _BOUNDS)
    var = "y" if rng.random() < 0.15 else "x"
    if rng.random() < 0.5:
        return f"{var} {rng.choice(_RELOPS)} {bound}"
    return f"{bound} {rng.choice(_RELOPS)} {var}"


def chain_program(rng: Random) -> str:
    lines = ["input x;", "input y;"]
    for c in range(rng.randint(1, 3)):
        for a in range(rng.randint(1, 7)):
            guard = " && ".join(comparison(rng) for _ in range(rng.choice((1, 1, 1, 1, 2, 3))))
            lines.append(f"{'if' if a == 0 else 'else if'} ({guard}) {{ z{c} = x + {a}; }}")
        if rng.random() < 0.7:
            lines.append(f"else {{ z{c} = x * 2; }}")
    lines += ["F = x + 1;", "output F;"]
    return "\n".join(lines)


def test_guard_regions_match_the_reference():
    for seed in SEEDS:
        rng = Random(seed)
        text = chain_program(rng)
        fold = rng.random() < 0.5 and "1 / 0" not in text  # folding refuses 1 / 0
        for chain in parse_program(text, fold=fold).body:
            if isinstance(chain, IfChain):
                assert _effective_constraints(chain) == reference.effective_constraints(chain), seed


# --- topological order -------------------------------------------------------------

_NAMES = ("X", "Y", "R1", "R01", "R001", "R2", "R10", "I2", "a", "b9", "b10", "b09", "z")


def tangled_graph(rng: Random) -> RTGraph:
    names = rng.sample(_NAMES, rng.randint(1, len(_NAMES)))
    if rng.random() < 0.2:
        names.append(rng.choice(names))  # a duplicated node entry
    nodes = tuple(Node(n, rng.choice(("input", "internal", "output"))) for n in names)
    rank = {n: i for i, n in enumerate(names)}
    ribs = []
    for i in range(rng.randint(0, 3 * len(names))):
        src, dst = rng.choice(names), rng.choice(names + ["W"])  # W is no node
        if rng.random() < 0.95 and dst in rank and rank[src] >= rank[dst]:
            if src == dst:
                continue
            src, dst = dst, src  # mostly forward, so most graphs are acyclic
        ribs.append(make_rib(f"I{i % 7}", src, dst, [(1, "t", ("x", 1.0))]))
    return RTGraph(nodes=nodes, ribs=tuple(ribs))


def test_topological_order_matches_the_reference():
    for seed in SEEDS:
        g = tangled_graph(Random(seed))
        assert g.try_topo_order() == reference.topo_order(g), seed
        assert g.try_topo_order() is g.try_topo_order()  # computed once per graph


def test_tied_natural_keys_keep_the_order_they_became_ready():
    nodes = (Node("X", "input"), Node("R1", "internal"), Node("R01", "internal"),
             Node("Y", "output"))
    ribs = (make_rib("I1", "X", "R1", [(1, "a", ("x", 1.0))]),
            make_rib("I2", "X", "R01", [(1, "a", ("x", 1.0))]))
    assert RTGraph(nodes, ribs).try_topo_order() == (("X", "R1", "R01", "Y"), True)
    assert RTGraph(nodes, ribs[::-1]).try_topo_order() == (("X", "R01", "R1", "Y"), True)


# --- validation ----------------------------------------------------------------------


def broken_graph(rng: Random) -> RTGraph:
    """A random DAG model with a few seeded faults; copies of a rib share
    its statement tuple, as the copies of a lowered arm do."""
    g = random_dag_model(rng, max_internal=4, max_fragments=8)
    nodes, ribs = list(g.nodes), list(g.ribs)
    for _ in range(rng.randint(0, 4)):
        fault = rng.randrange(11)
        r = rng.choice(ribs)
        if fault == 0:
            nodes.append(rng.choice(nodes))
        elif fault == 1:
            nodes.append(Node(f"R{rng.randint(5, 9)}", rng.choice(("internal", "output", "sink"))))
        elif fault == 2:
            ribs.append(replace(r, dst=rng.choice(("W", "X"))))
        elif fault == 3:
            ribs.append(r)
        elif fault == 4:
            ribs.append(replace(r, statements=()))
        elif fault == 5:
            bad = r.statements + (Statement(7, 9, "q", ("x",)),)
            ribs = [replace(o, statements=bad) if o.fragment == r.fragment else o for o in ribs]
        elif fault == 6:
            bad = (Statement(1, 5, "q", ("x", 2.0)),) + r.statements
            ribs = [replace(o, statements=bad) if o.fragment == r.fragment else o for o in ribs]
        elif fault == 7:
            ribs.append(replace(r, src=rng.choice(nodes).name, statements=r.statements[:1] * 2))
        elif fault == 8:
            ribs.append(replace(r, src=r.dst, dst=r.src))  # a cycle, or a self loop
        elif fault == 9:
            other = rng.choice(ribs)
            ribs.append(replace(other, src=r.src, dst=other.dst, fragment=r.fragment,
                                statements=r.statements))
        else:
            ribs.append(replace(r, fragment=rng.choice(("I1", "I99")), statements=r.statements))
    return RTGraph(nodes=tuple(nodes), ribs=tuple(ribs))


def test_validation_report_matches_the_reference():
    for seed in SEEDS:
        g = broken_graph(Random(seed))
        assert validate_graph(g) == reference.validate_graph(g), seed


def test_broken_graphs_reach_every_violation():
    codes = {v.code for seed in SEEDS for v in validate_graph(broken_graph(Random(seed)))}
    assert codes >= {"duplicate-node", "bad-role", "multiple-outputs", "bad-endpoint",
                     "duplicate-edge", "empty-rib", "bad-ordinals", "unknown-opcode",
                     "bad-arity", "merge-inconsistent", "cycle", "dangling-node"}


def test_a_shared_broken_tuple_is_reported_for_every_copy():
    source = parse_program("input x;\nif (x < 1) { a = x + 1; } else { a = x * 2; }\n"
                           "if (x < 2) { b = a + 1; } else { b = a - 1; }\n"
                           "F = b * 2;\noutput F;\n")
    g, _ = build_rtg(source)
    bad = (Statement(2, 9, "q", ("x",)),)
    ribs = tuple(replace(r, statements=bad) if r.fragment == "I3" else r for r in g.ribs)
    broken = g.with_ribs(ribs)
    report = validate_graph(broken)
    assert report == reference.validate_graph(broken)
    assert [v.code for v in report] == ["bad-ordinals", "unknown-opcode"] * 2
