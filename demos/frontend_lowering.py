"""From mini-language source to a register-transfer graph.

Shows parsing, three-address lowering with and without constant folding,
the observation-point layout, and that interpreting the program agrees
bit-for-bit with executing the lowered graph along the consistent path.

Run from the repository root:  python demos/frontend_lowering.py
"""

import sys

from rtgdiag import (Stimulus, build_rtg, enumerate_paths, execute_path,
                     execute_program, parse_program, pick_stimulus)
from rtgdiag.errors import InfeasiblePath
from rtgdiag.fixtures import listing31_source

source = listing31_source()
print("== source ==")
print(source)

for fold in (False, True):
    program = parse_program(source, fold=fold)
    g, smap = build_rtg(program)
    mode = "folded" if fold else "unfolded"
    print(f"== lowering ({mode}) ==")
    for fragment in g.fragments:
        stmts = g.statements_of(fragment)
        rendered = "; ".join(
            f"{s.target} := op{s.opcode}(" + ", ".join(map(str, s.operands)) + ")"
            for s in stmts)
        print(f"  {fragment}: {rendered}")
    print()

program = parse_program(source, fold=False)
g, smap = build_rtg(program)
paths = enumerate_paths(g)
print("paths of the program-faithful graph:", " ".join(p.label for p in paths))

print("\n== guard-aware stimulus selection ==")
for p in paths:
    try:
        stim = pick_stimulus(p, smap.path_constraints(p.fragments))
        print(f"  {p.label}: x = {stim.env['x']:g}")
    except InfeasiblePath:
        print(f"  {p.label}: infeasible (its guards contradict each other)")

print("\n== program/graph agreement ==")
for x in (1.0, 2.5, 7.0, 13.0):
    trace = execute_program(program, Stimulus(env={"x": x}))
    consistent = next(p for p in paths
                      if list(p.nodes) == [name for name, _ in trace.points])
    graph_trace = execute_path(g, consistent, Stimulus(env={"x": x}))
    if graph_trace.points != trace.points:
        sys.exit(f"x={x:g}: the program and path {consistent.label} disagree")
    shown = ", ".join(f"{n}={v:g}" for n, v in trace.points)
    print(f"  x={x:<5g} path {consistent.label}:  {shown}")
