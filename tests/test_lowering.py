"""Lowering gives each (step, arm) of a program its own fragment.

A step is an if-chain or a maximal run of assignments (a chain of one
arm).  ``build_rtg`` is checked to number the fragments I1, I2, ... in step
and arm order, to give every arm one fragment copied onto one rib per end
node of the previous step, and to keep one destination and one statement
sequence per fragment.  A graph of that shape is already merged: the
merge pass of ``tests/reference.py``, which unifies copies of one piece of
code in a hand-built graph, leaves it unchanged.  Programs: listing31
folded and unfolded, and seeded if-chain and expression-chain programs.
"""

from itertools import groupby

import pytest

from rtgdiag import build_rtg, parse_program
from rtgdiag.fixtures import listing31_source
from rtgdiag.frontend import Assignment, IfChain

from randmodels import expression_chain_program, if_chain_program
from reference import merge_equivalent_ribs

PROGRAMS = [("listing31", listing31_source(), fold) for fold in (True, False)]
PROGRAMS += [(f"if_chain{shape}-{seed}", if_chain_program(shape, seed), seed % 2 == 0)
             for seed, shape in enumerate([(2,), (3, 2), (5, 5, 5, 5), (4, 2, 3),
                                           (2, 2, 2, 2, 2)])]
PROGRAMS += [(f"expression_chain{shape}-{seed}", expression_chain_program(shape, seed), fold)
             for seed, shape in enumerate([(2,), (3, 4), (4, 2, 3)]) for fold in (True, False)]


def arms_by_step(program):
    """The arms of each step of *program*, in source order."""
    steps = []
    for kind, items in groupby(program.body, type):
        if kind is Assignment:
            steps.append([tuple(items)])
        else:
            steps.extend([arm.body for arm in chain.arms] for chain in items)
    return steps


@pytest.mark.parametrize("source, fold", [p[1:] for p in PROGRAMS],
                         ids=[f"{n}-{'folded' if f else 'unfolded'}" for n, _, f in PROGRAMS])
def test_each_step_arm_is_its_own_fragment(source, fold):
    program = parse_program(source, fold=fold)
    assert any(isinstance(item, IfChain) for item in program.body)
    g, _ = build_rtg(program)
    ribs_of = {}
    for r in g.ribs:
        ribs_of.setdefault(r.fragment, []).append(r)
    steps = arms_by_step(program)
    assert list(ribs_of) == [f"I{i}" for i in range(1, sum(map(len, steps)) + 1)]

    fragments = iter(ribs_of)
    sources = {"X"}
    for step in steps:
        ends = set()
        for body in step:
            ribs = ribs_of[next(fragments)]
            assert len({r.dst for r in ribs}) == 1
            assert len({r.statements for r in ribs}) == 1
            assert sorted(r.src for r in ribs) == sorted(sources)
            assert ribs[0].statements[-1].target == body[-1].target
            ends.add(ribs[0].dst)
        assert len(ends) == len(step) or ends == {"Y"}
        sources = ends
    assert sources == {"Y"}
    assert merge_equivalent_ribs(g) == g
