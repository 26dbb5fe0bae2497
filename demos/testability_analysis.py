"""Diagnostic resolution: ambiguity groups and added observation points.

With a single observed output, statements sharing the same covering paths
are indistinguishable; the diagnosis can only name their group.  Extra
observation points inside a rib split its group.  This demo measures the
shipped model's resolution and plans the points needed for
statement-level diagnosis.

Run from the repository root:  python demos/testability_analysis.py
"""

import sys

from rtgdiag import (ResponseVector, ambiguity_groups, attach_response,
                     build_generalized_fdt, diagnose_generalized, enumerate_paths,
                     recommend_observation_points, table_text, verify_minimal_insertions)
from rtgdiag.fixtures import fig1_graph

g = fig1_graph()
paths = enumerate_paths(g)

print("== generalized fault detection table ==")
table = build_generalized_fdt(g, paths)
responded = attach_response(table, ResponseVector((0, 1, 0, 0)))
suspects = diagnose_generalized(responded)
sys.stdout.writelines(table_text(responded, suspects))
print()
print("failing X15Y alone implicates {"
      + ", ".join(sorted(s.label for s in suspects)) + "}\n")

print("== ambiguity groups (identical covering-path sets) ==")
for group in ambiguity_groups(g):
    members = ", ".join(s.label for s in group.sorted_members())
    via = ", ".join(sorted(p.label for p in paths if group.signature & set(p.fragments))) or "-"
    print(f"  {{{members}}}  seen via {via}")

print("\n== observation points for finer resolution ==")
for target in (3, 2, 1):
    inserts = recommend_observation_points(g, target)
    if not inserts:
        print(f"  target {target}: already satisfied")
        continue
    plan = "; ".join(f"{f} after statement {k}" for f, k in inserts)
    print(f"  target {target}: insert {len(inserts)} point(s): {plan}")

inserts = recommend_observation_points(g, 1)
if not verify_minimal_insertions(g, 1, len(inserts)):
    sys.exit(f"a plan with fewer than {len(inserts)} points reaches target 1")
print(f"\nexhaustive search confirms {len(inserts)} points are the minimum "
      "for statement-level resolution (2 of them inside I5)")
