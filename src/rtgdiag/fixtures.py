"""Shipped worked-example fixtures.

``fig1_graph`` is the hand-built register-transfer graph of the piecewise
sum S = f(x) + w(x): three f-arms leave the input X, the w-branch follows
the first arm only, and four parallel copies of the final summation (one
shared fragment I6) converge on the output Y.  ``listing31_source`` is the
same computation written in the mini-language; lowering it yields a second,
program-faithful graph in which the w-branch follows every f-arm.

Run ``python -m rtgdiag.fixtures OUTDIR`` to write both fixture files.
"""

from __future__ import annotations

from .frontend import PI_VALUE
from .rtg import Node, RTGraph, make_rib
from .simulator import FaultSpec


def fig1_graph() -> RTGraph:
    """The worked-example graph: 4 one-dimensional paths X14Y, X15Y, X2Y, X3Y."""
    nodes = (
        Node("X", "input"),
        Node("R1", "internal"),
        Node("R2", "internal"),
        Node("R3", "internal"),
        Node("R4", "internal"),
        Node("R5", "internal"),
        Node("Y", "output"),
    )
    ribs = (
        # f = x + 3
        make_rib("I1", "X", "R1", [(1, "f", ("x", 3.0))]),
        # f = 2*x - 3
        make_rib("I2", "X", "R2", [(2, "t1", ("x", 2.0)), (3, "f", ("t1", 3.0))]),
        # f = -3*x + 7
        make_rib("I3", "X", "R3", [(2, "t1", ("x", -3.0)), (1, "f", ("t1", 7.0))]),
        # w = sin(x + PI/3), PI/3 kept as a division statement
        make_rib("I4", "R1", "R4", [(4, "t1", (PI_VALUE, 3.0)),
                                    (1, "t2", ("x", "t1")),
                                    (5, "w", ("t2",))]),
        # w = sin(PI*x) + 2
        make_rib("I5", "R1", "R5", [(2, "t1", ("x", PI_VALUE)),
                                    (5, "t2", ("t1",)),
                                    (1, "w", ("t2", 2.0))]),
        # F = f + w, one fragment on four converging edges
        make_rib("I6", "R2", "Y", [(1, "F", ("f", "w"))]),
        make_rib("I6", "R3", "Y", [(1, "F", ("f", "w"))]),
        make_rib("I6", "R4", "Y", [(1, "F", ("f", "w"))]),
        make_rib("I6", "R5", "Y", [(1, "F", ("f", "w"))]),
    )
    return RTGraph(nodes=nodes, ribs=ribs)


LISTING31_SOURCE = """\
# Piecewise sum S = f(x) + w(x).
input x;
if (x < 2) {
  f = x + 3;
} else if (x >= 2 && x < 12) {
  f = 2*x - 3;
} else {
  f = -3*x + 7;
}
if (x < 2/3*PI) {
  w = sin(x + PI/3);
} else {
  w = sin(PI*x) + 2;
}
F = f + w;
output F;
"""


def listing31_source() -> str:
    return LISTING31_SOURCE


def example_fault() -> FaultSpec:
    """The injected defect: the final summation of w = sin(PI*x) + 2 on
    fragment I5 is replaced by a subtraction (w = sin(PI*x) - 2)."""
    return FaultSpec(fragment="I5", ordinal=3, opcode=3)


def write_fixture_files(outdir: str) -> list[str]:
    """Write fig1.rtg.json and listing31.swl into *outdir*; returns paths."""
    import os

    from .rtg import dumps_graph

    os.makedirs(outdir, exist_ok=True)
    graph_path = os.path.join(outdir, "fig1.rtg.json")
    with open(graph_path, "w", encoding="utf-8") as fh:
        fh.write(dumps_graph(fig1_graph()))
    source_path = os.path.join(outdir, "listing31.swl")
    with open(source_path, "w", encoding="utf-8") as fh:
        fh.write(LISTING31_SOURCE)
    return [graph_path, source_path]


if __name__ == "__main__":  # pragma: no cover
    import sys

    for path in write_fixture_files(sys.argv[1] if len(sys.argv) > 1 else "fixtures"):
        print("wrote", path)
