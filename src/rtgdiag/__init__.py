"""rtgdiag: fault localization for small numeric programs.

The toolkit models a program as a register-transfer graph (nodes are
observation points, edges carry statement sequences), synthesizes
path-activation tests, builds fault detection tables, produces response
vectors by golden-versus-mutant simulation, and localizes the faulty
statement by Boolean CNF-to-DNF diagnosis with exoneration.
"""

from .diagnosis import (AmbiguityGroup, CandidateDNF, DiagnosisResult, ambiguity_groups,
                        build_cnf, cnf_to_min_dnf, diagnose, diagnose_generalized,
                        exoneration_set, recommend_observation_points, reduce_candidates,
                        verify_minimal_insertions)
from .errors import (ArityMismatch, CandidateExplosion, DivisionByZero, EmptyDiagnosis,
                     ExecutionError, GraphMismatch, InfeasiblePath, InvalidMutation,
                     LengthMismatch, MergeConflict, MissingStimulus, NoFailures,
                     NonFiniteValue, NoOpMutation, NoSuchStatement, ParseError,
                     PathExplosion, RtgError, TermExplosion, UnboundVariable, Uncoverable,
                     UndefinedVariable, UnsupportedOperation, UsageError)
from .fdt import (FaultDetectionTable, ResponseVector, TableRow, attach_response,
                  build_extended_fdt, build_generalized_fdt, dumps_table, loads_table,
                  render_table, table_from_json, table_to_json)
from .frontend import (Program, SourceMap, build_rtg, lower_expression, parse_program)
from .rtg import (OP_ALPHABET, Node, OpCode, Rib, RTGraph, Statement, StatementId,
                  Violation, dumps_graph, graph_from_json, graph_to_json, loads_graph,
                  make_rib, make_statements, merge_equivalent_ribs, validate_graph)
from .simulator import (DefaultedVariableWarning, FaultSpec, ObservationTrace, Stimulus,
                        default_path_stimuli, default_stimuli, execute_path,
                        execute_program, guard_aware_stimuli, inject_fault,
                        mutation_catalogue, pick_stimulus, run_paths, run_suite)
from .testsynth import (ActivationFormula, Path, TestSuite, TestTerm, activation_formula,
                        build_complete_test, enumerate_paths, expand_terms,
                        minimal_diagnostic_test, minimal_path_cover)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
