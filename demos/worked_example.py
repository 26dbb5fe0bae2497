"""End-to-end fault localization on the shipped piecewise-sum model.

The program computes S = f(x) + w(x) where both pieces are chosen by
branches.  We model it as a register-transfer graph, synthesize the
complete activation test, inject a single wrong statement (the final
summation of the second w-branch becomes a subtraction), run golden
versus mutant, and let the Boolean diagnosis point back at the culprit.

Run from the repository root:  python demos/worked_example.py
"""

import sys

from rtgdiag import (attach_response, build_complete_test, build_extended_fdt,
                     default_stimuli, diagnose, enumerate_paths, inject_fault,
                     minimal_diagnostic_test, minimal_path_cover, run_suite,
                     table_text, validate_graph)
from rtgdiag.fixtures import fig1_graph, example_fault
from rtgdiag.testsynth import activation_formula

g = fig1_graph()
violations = validate_graph(g)
if violations:
    sys.exit("the shipped graph is not valid: " + "; ".join(map(str, violations)))

print("== 1. the register-transfer graph ==")
for rib in g.ribs:
    ops = ",".join(str(s.opcode) for s in rib.statements)
    print(f"  {rib.fragment}: {rib.src} -> {rib.dst}   opcodes {{{ops}}}")

print("\n== 2. one-dimensional paths and activation formulas ==")
paths = enumerate_paths(g)
for p in paths:
    print(f"  {p.label}: {activation_formula(g, p)}")

suite = build_complete_test(g, paths)
print("\ncomplete test (bracket removal):", " ".join(suite.labels()))

cover = minimal_path_cover(g)
print("minimal path cover:", " ".join(p.label for p in cover))
diagnostic = minimal_diagnostic_test(suite, g.statement_ids)
print(f"minimal diagnostic test: {len(diagnostic.terms)} terms "
      "(irreducible, coincides with the complete test)")

print("\n== 3. fault injection and the response vector ==")
fault = example_fault()
print(f"injected fault: {fault}  (w = sin(PI*x) + 2 becomes w = sin(PI*x) - 2)")
mutant = inject_fault(g, fault)
v = run_suite(g, mutant, suite, default_stimuli(g, suite))
print(f"V = {v}")

print("\n== 4. diagnosis ==")
table = attach_response(build_extended_fdt(g, suite), v)
sys.stdout.writelines(table_text(table))
print()
result = diagnose(table, mode="strong")
print("F  =", result.candidates)
print("H  = {" + ", ".join(s.label for s in sorted(result.exonerated,
                                                   key=lambda s: s.sort_key())) + "}")
print("F' =", result.reduced)
group = result.ambiguity[0]
print("ambiguity group of the survivors: {"
      + ", ".join(s.label for s in group.sorted_members()) + "}")
print("\nThe faulty statement is one of the three on rib I5; the injected "
      "one was", g.sid(fault.fragment, fault.ordinal).label)
