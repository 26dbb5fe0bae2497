"""rtgdiag: fault localization for small numeric programs.

The toolkit models a program as a register-transfer graph (nodes are
observation points, edges carry statement sequences), synthesizes
path-activation tests, builds fault detection tables, produces response
vectors by golden-versus-mutant simulation, and localizes the faulty
statement by Boolean CNF-to-DNF diagnosis with exoneration.
"""

from .diagnosis import (AmbiguityGroup, CandidateDNF, DiagnosisResult, ambiguity_groups,
                        cnf_to_min_dnf, diagnose, diagnose_generalized, factor_clauses,
                        recommend_observation_points, reduce_candidates,
                        verify_minimal_insertions)
from .errors import (ArityMismatch, CandidateExplosion, CyclicGraph, DivisionByZero, EmptyDiagnosis,
                     ExecutionError, GraphMismatch, InfeasiblePath, InvalidMutation,
                     InvalidTolerance, LengthMismatch, MissingStimulus, NoFailures,
                     NonFiniteValue, NoOpMutation, NoResponse, NoSuchStatement,
                     ParseError, PathExplosion, RtgError, SchemaError, TermExplosion,
                     UnboundVariable, Uncoverable, UndefinedVariable, UnsupportedOperation,
                     UsageError)
from .fdt import (FaultDetectionTable, ResponseVector, attach_response, build_extended_fdt,
                  build_generalized_fdt, loads_table, table_from_json, table_json,
                  table_text)
from .frontend import Program, SourceMap, build_rtg, parse_program
from .rtg import (OP_ALPHABET, Node, OpCode, Rib, RTGraph, Statement, StatementId,
                  Violation, dumps_graph, graph_from_json, graph_to_json, loads_graph,
                  make_rib, make_statements, validate_graph)
from .simulator import (DefaultedVariableWarning, FaultSpec, ObservationTrace, Stimuli, Stimulus,
                        default_stimuli, execute_path, execute_program, inject_fault,
                        mutation_catalogue, pick_stimulus, run_suite)
from .testsynth import (Block, Path, TestSuite, TestTerm, activation_formula, build_complete_test,
                        enumerate_paths, minimal_diagnostic_test, minimal_path_cover)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
