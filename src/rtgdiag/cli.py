"""Command-line interface wiring the four-stage workflow.

Subcommands: parse, graph, paths, terms, cover, fdt, inject, run, diagnose,
testability, all.  Each invocation builds one Pipeline whose stages (graph,
paths, complete and diagnostic suites, extended table, response vector V,
diagnosis) are computed at most once; every subcommand prints a projection
of it.  Text output mirrors the reference table layout; JSON output
(``--format json``) is the machine interface.  Outputs are byte-identical
across runs with identical configuration.

Exit codes: 0 success, 1 diagnosis findings, 2 usage errors, 3 data errors.
An error is one ``rtgdiag <cmd>: ...`` line on stderr, and so is each
distinct warning (``rtgdiag <cmd>: warning: ...``, e.g. a variable that
``--permissive`` defaulted), in the order first raised.  The environment variable RTGDIAG_CAPS ("paths=N,terms=N,dnf=N,exact=N")
overrides the explosion caps.  ``testability`` counts covering paths
instead of listing them, so its cost is polynomial in the graph and the
``paths`` cap does not bound it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property

from . import diagnosis, fdt, frontend, rtg, simulator, testsynth
from .errors import NoFailures, RtgError, UsageError

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_DATA = 3


@dataclass(frozen=True)
class RunConfig:
    """Resolved knobs for one invocation; defaults are stable."""

    fmt: str = "text"
    tolerance: float = simulator.DEFAULT_TOLERANCE
    mode: str = "strong"
    unfolded: bool = False
    permissive: bool = False
    path_cap: int = testsynth.DEFAULT_PATH_CAP
    term_cap: int = testsynth.DEFAULT_TERM_CAP
    dnf_cap: int = diagnosis.DEFAULT_DNF_CAP
    exact_cap: int = testsynth.DEFAULT_EXACT_CAP


def _caps_from_env() -> dict[str, int]:
    raw = os.environ.get("RTGDIAG_CAPS", "")
    out: dict[str, int] = {}
    names = {"paths": "path_cap", "terms": "term_cap", "dnf": "dnf_cap", "exact": "exact_cap"}
    for part in raw.split(","):
        if not part.strip():
            continue
        key, _, value = (x.strip() for x in part.partition("="))
        if key not in names:
            raise UsageError(f"RTGDIAG_CAPS: unknown cap {key!r}; "
                             f"expected one of {', '.join(names)}")
        if not value.isdecimal():
            raise UsageError(f"RTGDIAG_CAPS: {key} needs a non-negative integer, "
                             f"got {value!r}")
        out[names[key]] = int(value)
    return out


def _config(args: argparse.Namespace) -> RunConfig:
    caps = _caps_from_env()
    tolerance = getattr(args, "tolerance", simulator.DEFAULT_TOLERANCE)
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise UsageError(f"--tolerance needs a finite non-negative number, got {tolerance}")
    return RunConfig(
        fmt=getattr(args, "format", "text"),
        tolerance=tolerance,
        mode=getattr(args, "mode", "strong"),
        unfolded=getattr(args, "unfolded", False),
        permissive=getattr(args, "permissive", False),
        **caps,
    )


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _emit(args: argparse.Namespace, text: str) -> None:
    """*text* to the ``--out`` file, else to stdout."""
    out = getattr(args, "out", None)
    if out:
        _write(out, text)
    else:
        sys.stdout.write(text)


def _read(path: str, load):
    """*load* of the UTF-8 text of *path*; text that is not UTF-8, or nested
    too deeply for *load*, raises RtgError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return load(fh.read())
    except UnicodeDecodeError as e:
        raise RtgError(f"{path}: not UTF-8 text (byte {e.start})") from None
    except RecursionError:
        raise RtgError(f"{path}: nested too deeply to read") from None


def _validate_or_fail(g: rtg.RTGraph) -> None:
    violations = rtg.validate_graph(g)
    if violations:
        raise RtgError("invalid graph:\n" + "\n".join(str(v) for v in violations))


def _parse_fault(spec: str) -> simulator.FaultSpec:
    try:
        fragment, ordinal, mutation = spec.split(":", 2)
        kind, _, value = mutation.partition("=")
        if kind == "op":
            return simulator.FaultSpec(fragment=fragment, ordinal=int(ordinal),
                                       opcode=int(value))
        if kind == "const" and math.isfinite(float(value)):
            return simulator.FaultSpec(fragment=fragment, ordinal=int(ordinal),
                                       constant=float(value))
    except ValueError:
        pass
    raise RtgError(f"bad fault spec {spec!r}; expected FRAG:ORDINAL:op=N or FRAG:ORDINAL:const=V")


def _stimuli_for(g: rtg.RTGraph, suite: testsynth.TestSuite,
                 stimuli_path: str | None) -> dict[str, simulator.Stimulus]:
    given: dict[str, dict] = {}
    if stimuli_path:
        given = _read(stimuli_path, json.loads)
    if not isinstance(given, dict) or not all(isinstance(e, dict) for e in given.values()):
        raise RtgError(f"{stimuli_path}: expected {{term label: {{variable: value}}}}")
    out = simulator.default_stimuli(g, suite)
    for label, env in given.items():
        if label in out:
            try:
                out[label] = simulator.Stimulus(env={k: float(v) for k, v in env.items()})
            except (TypeError, ValueError):
                raise RtgError(f"{stimuli_path}: non-numeric value for term {label}") from None
    return out


class Pipeline:
    """The stages of one invocation.

    Each stage is computed on first use from the stages before it and kept
    for the rest of the invocation only.  Stages call the layer functions
    through their modules, so tracing those modules sees every call.
    """

    def __init__(self, args: argparse.Namespace, cfg: RunConfig):
        self.args = args
        self.cfg = cfg

    @cached_property
    def program(self) -> frontend.Program:
        return _read(self.args.program,
                     lambda text: frontend.parse_program(text, fold=not self.cfg.unfolded))

    @cached_property
    def graph(self) -> rtg.RTGraph:
        """The ``--graph`` file, else the lowered ``--program``."""
        if getattr(self.args, "graph", None):
            return _read(self.args.graph, rtg.loads_graph)
        if getattr(self.args, "program", None):
            return frontend.build_rtg(self.program)[0]
        raise RtgError("either --graph or --program is required")

    @cached_property
    def paths(self) -> list[testsynth.Path]:
        return testsynth.enumerate_paths(self.graph, path_cap=self.cfg.path_cap)

    @cached_property
    def suite(self) -> testsynth.TestSuite:
        """The complete test."""
        return testsynth.build_complete_test(self.graph, self.paths, term_cap=self.cfg.term_cap)

    @cached_property
    def diagnostic_suite(self) -> testsynth.TestSuite:
        return testsynth.minimal_diagnostic_test(self.suite, self.graph.statement_ids,
                                                 exact_cap=self.cfg.exact_cap)

    @cached_property
    def tests(self) -> testsynth.TestSuite:
        """The suite that is run: the diagnostic one under ``--suite
        diagnostic``, the complete test otherwise."""
        if getattr(self.args, "suite", "complete") == "diagnostic":
            return self.diagnostic_suite
        return self.suite

    @cached_property
    def table(self) -> fdt.FaultDetectionTable:
        """The extended table of the tests."""
        return fdt.build_extended_fdt(self.graph, self.tests)

    @cached_property
    def fault(self) -> simulator.FaultSpec | None:
        return _parse_fault(self.args.fault) if self.args.fault else None

    @cached_property
    def mutant(self) -> rtg.RTGraph:
        if getattr(self.args, "mutant", None):
            return _read(self.args.mutant, rtg.loads_graph)
        if self.fault is not None:
            return simulator.inject_fault(self.graph, self.fault)
        raise RtgError("run needs --mutant or --fault")

    @cached_property
    def response(self) -> fdt.ResponseVector:
        """V: one bit per test, golden against mutant."""
        return simulator.run_suite(
            self.graph, self.mutant, self.tests,
            _stimuli_for(self.graph, self.tests, self.args.stimuli),
            tolerance=self.cfg.tolerance, permissive=self.cfg.permissive)

    @cached_property
    def responded(self) -> fdt.FaultDetectionTable:
        """The ``--table`` file, else the extended table with V bound."""
        if getattr(self.args, "table", None):
            return _read(self.args.table, fdt.loads_table)
        return fdt.attach_response(self.table, self.response)

    @cached_property
    def verdict(self) -> diagnosis.DiagnosisResult:
        return diagnosis.diagnose(self.responded, mode=self.cfg.mode, cap=self.cfg.dnf_cap)


# --- subcommands ---------------------------------------------------------------

def cmd_parse(pl: Pipeline) -> int:
    program = pl.program
    chains = [item for item in program.body if isinstance(item, frontend.IfChain)]
    assignments = (len(program.body) - len(chains)
                   + sum(len(arm.body) for chain in chains for arm in chain.arms))
    doc = {"inputs": list(program.inputs), "output": program.output,
           "if_chains": len(chains), "assignments": assignments}
    if pl.cfg.fmt == "json":
        _emit(pl.args, rtg.dumps_json(doc))
    else:
        _emit(pl.args, f"program: inputs={', '.join(program.inputs)} output={program.output} "
                       f"if-chains={len(chains)} assignments={assignments}\n")
    return EXIT_OK


def cmd_graph(pl: Pipeline) -> int:
    violations = rtg.validate_graph(pl.graph)
    if violations:
        sys.stderr.write("\n".join(str(v) for v in violations) + "\n")
        return EXIT_DATA
    _emit(pl.args, rtg.dumps_graph(pl.graph))
    return EXIT_OK


def cmd_paths(pl: Pipeline) -> int:
    _validate_or_fail(pl.graph)
    if pl.cfg.fmt == "json":
        doc = [{"label": p.label, "fragments": list(p.fragments), "nodes": list(p.nodes)}
               for p in pl.paths]
        _emit(pl.args, rtg.dumps_json(doc))
    else:
        lines = [f"{p.label}: " + " ".join(p.fragments) + "   "
                 + str(testsynth.activation_formula(pl.graph, p)) for p in pl.paths]
        _emit(pl.args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_terms(pl: Pipeline) -> int:
    _validate_or_fail(pl.graph)
    if pl.cfg.fmt == "json":
        doc = [{"label": t.label, "path": t.path.label,
                "marks": [s.label for s in t.selection]} for t in pl.suite.terms]
        _emit(pl.args, rtg.dumps_json(doc))
    else:
        lines = [f"{t.label}: " + " ".join(s.label for s in t.selection)
                 + f"   (path {t.path.label})" for t in pl.suite.terms]
        _emit(pl.args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_cover(pl: Pipeline) -> int:
    _validate_or_fail(pl.graph)
    mode = pl.args.cover_mode
    if mode == "paths":
        candidates = pl.paths
        chosen = testsynth.minimal_path_cover(pl.graph, pl.paths, exact_cap=pl.cfg.exact_cap)
        labels = [p.label for p in chosen]
    else:
        candidates = pl.suite.terms
        labels = list(pl.diagnostic_suite.terms.labels())
    if pl.cfg.fmt == "json":
        exact = testsynth.cover_is_exact(len(candidates), pl.cfg.exact_cap)
        _emit(pl.args, rtg.dumps_json({"mode": mode, "selected": labels, "exact": exact}))
    else:
        _emit(pl.args, f"minimal {mode} cover ({len(labels)}): " + " ".join(labels) + "\n")
    return EXIT_OK


def cmd_fdt(pl: Pipeline) -> int:
    args = pl.args
    if args.response and args.response.strip("01"):
        raise UsageError(f"--response needs a string of 0s and 1s, got {args.response!r}")
    _validate_or_fail(pl.graph)
    if args.kind == "generalized":
        table = fdt.build_generalized_fdt(pl.graph, pl.paths)
    else:
        table = pl.table
    if args.response:
        bits = tuple(int(b) for b in args.response)
        table = fdt.attach_response(table, fdt.ResponseVector(bits))
    _emit(args, fdt.dumps_table(table) if pl.cfg.fmt == "json" else fdt.render_table(table))
    return EXIT_OK


def cmd_inject(pl: Pipeline) -> int:
    args = pl.args
    g = pl.graph
    if args.op is not None:
        fault = simulator.FaultSpec(fragment=args.fragment, ordinal=args.ordinal,
                                    opcode=args.op)
    elif args.const is not None:
        if not math.isfinite(args.const):
            raise UsageError(f"--const needs a finite number, got {args.const}")
        fault = simulator.FaultSpec(fragment=args.fragment, ordinal=args.ordinal,
                                    constant=args.const, operand_index=args.operand)
    else:
        raise RtgError("inject needs --op or --const")
    _emit(args, rtg.dumps_graph(simulator.inject_fault(g, fault)))
    return EXIT_OK


def cmd_run(pl: Pipeline) -> int:
    _validate_or_fail(pl.graph)
    v = pl.response
    if pl.args.table_out:
        _write(pl.args.table_out, fdt.dumps_table(pl.responded))
    if pl.cfg.fmt == "json":
        doc = {"labels": list(pl.tests.terms.labels()), "bits": list(v.bits)}
        _emit(pl.args, rtg.dumps_json(doc))
    else:
        _emit(pl.args, f"V = {v}\n")
    return EXIT_OK


def _diagnosis_text(result: diagnosis.DiagnosisResult) -> str:
    lines = [
        f"F  = {result.candidates}",
        "H  = {" + ", ".join(s.label for s in sorted(result.exonerated,
                                                     key=lambda s: s.sort_key())) + "}",
        f"F' = {result.reduced}",
    ]
    for group in result.ambiguity:
        lines.append("ambiguity group: {" + ", ".join(s.label for s in group.sorted_members()) + "}")
    return "\n".join(lines) + "\n"


def _diagnosis_json(result: diagnosis.DiagnosisResult) -> dict:
    return {
        "F": [[s.label for s in t] for t in result.candidates.sorted_terms()],
        "H": [s.label for s in sorted(result.exonerated, key=lambda s: s.sort_key())],
        "Fprime": [[s.label for s in t] for t in result.reduced.sorted_terms()],
        "mode": result.mode,
        "groups": [[s.label for s in g.sorted_members()] for g in result.ambiguity],
    }


def cmd_diagnose(pl: Pipeline) -> int:
    args, table = pl.args, pl.responded
    try:
        if table.kind == "generalized":
            suspects = diagnosis.diagnose_generalized(table)
            if pl.cfg.fmt == "json":
                _emit(args, rtg.dumps_json({"suspects": sorted(s.label for s in suspects)}))
            else:
                _emit(args, fdt.render_table(table, suspects=suspects)
                      + "Faults = {" + ", ".join(sorted(s.label for s in suspects)) + "}\n")
            return EXIT_FINDINGS
        result = pl.verdict
    except NoFailures:
        _emit(args, rtg.dumps_json({"suspects": []}) if pl.cfg.fmt == "json"
              else "no fault detected\n")
        return EXIT_OK
    _emit(args, rtg.dumps_json(_diagnosis_json(result)) if pl.cfg.fmt == "json"
          else _diagnosis_text(result))
    return EXIT_FINDINGS


def cmd_testability(pl: Pipeline) -> int:
    target = pl.args.target
    if target < 1:
        raise UsageError(f"--target needs a positive integer, got {target}")
    _validate_or_fail(pl.graph)
    groups = diagnosis.ambiguity_groups(pl.graph)
    inserts = diagnosis.recommend_observation_points(pl.graph, target)
    if pl.cfg.fmt == "json":
        doc = {
            "groups": [[s.label for s in gr.sorted_members()] for gr in groups],
            "target": target,
            "insertions": [{"fragment": f, "after_ordinal": k} for f, k in inserts],
        }
        _emit(pl.args, rtg.dumps_json(doc))
    else:
        lines = ["ambiguity groups:"]
        lines += ["  {" + ", ".join(s.label for s in gr.sorted_members()) + "}" for gr in groups]
        lines.append(f"insertions for target {target}:")
        lines += [f"  {f}: after statement {k}" for f, k in inserts] or ["  (none needed)"]
        _emit(pl.args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_all(pl: Pipeline) -> int:
    args = pl.args
    if args.program is None and args.graph is None:
        raise RtgError("all needs --program and/or --graph")
    report: list[str] = []
    if args.program:
        report.append(f"parsed program: inputs={', '.join(pl.program.inputs)} "
                      f"output={pl.program.output}")
        if args.graph:  # the program must still lower, though the graph file replaces it
            frontend.build_rtg(pl.program)
    if args.graph:
        report.append(f"graph loaded from {os.path.basename(args.graph)}")
    _validate_or_fail(pl.graph)

    report.append("paths: " + " ∨ ".join(p.label for p in pl.paths))
    report.append("complete test: " + " ".join(pl.suite.terms.labels()))
    code = EXIT_OK
    if pl.fault is None:
        report.append("no fault injected; nothing to run")
    else:
        report.append(f"injected fault {pl.fault}")
        report += ["", fdt.render_table(pl.responded).rstrip("\n"), ""]
        try:
            report.append(_diagnosis_text(pl.verdict).rstrip("\n"))
            code = EXIT_FINDINGS
        except NoFailures:
            report.append("no fault detected")
    _emit(args, "\n".join(report) + "\n")
    return code


# --- argument parsing ------------------------------------------------------------

def _add_io(sub, program=True, graph=True):
    if program:
        sub.add_argument("--program", help="mini-language source file (.swl)")
        sub.add_argument("--unfolded", action="store_true",
                         help="disable constant folding when lowering")
    if graph:
        sub.add_argument("--graph", help="register-transfer graph JSON file")
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument("--out", help="write output to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtgdiag",
        description="Fault localization over register-transfer graph models")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a program and report its shape")
    _add_io(p, graph=False)

    p = sub.add_parser("graph", help="build or validate a graph, emit JSON")
    _add_io(p)

    p = sub.add_parser("paths", help="enumerate one-dimensional paths")
    _add_io(p)

    p = sub.add_parser("terms", help="expand activation formulas into the complete test")
    _add_io(p)

    p = sub.add_parser("cover", help="solve a covering problem")
    _add_io(p)
    p.add_argument("--mode", dest="cover_mode", choices=("paths", "diagnostic"),
                   required=True)

    p = sub.add_parser("fdt", help="build a fault detection table")
    _add_io(p)
    p.add_argument("--kind", choices=("generalized", "extended"), default="extended")
    p.add_argument("--response", help="bit string to attach as response vector")

    p = sub.add_parser("inject", help="inject a single-statement fault")
    _add_io(p)
    p.add_argument("--fragment", required=True)
    p.add_argument("--ordinal", type=int, required=True)
    p.add_argument("--op", type=int, help="substitute opcode (same arity)")
    p.add_argument("--const", type=float, help="perturbed constant value")
    p.add_argument("--operand", type=int, help="constant operand index")

    p = sub.add_parser("run", help="run a suite against a mutant, produce V")
    _add_io(p)
    p.add_argument("--mutant", help="mutant graph JSON file")
    p.add_argument("--fault", help="fault spec FRAG:ORDINAL:op=N|const=V")
    p.add_argument("--suite", choices=("complete", "diagnostic"), default="complete")
    p.add_argument("--stimuli", help="JSON file: term label -> {var: value}")
    p.add_argument("--tolerance", type=float, default=simulator.DEFAULT_TOLERANCE)
    p.add_argument("--permissive", action="store_true",
                   help="default unbound free variables to 0.0")
    p.add_argument("--table-out", help="write the responded extended table here")

    p = sub.add_parser("diagnose", help="diagnose a responded table")
    p.add_argument("--table", required=True)
    p.add_argument("--mode", choices=("strong", "weak"), default="strong")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out")

    p = sub.add_parser("testability", help="ambiguity groups and observation points")
    _add_io(p)
    p.add_argument("--target", type=int, default=1)

    p = sub.add_parser("all", help="full pipeline: parse, build, test, run, diagnose")
    _add_io(p)
    p.add_argument("--fault", help="fault spec FRAG:ORDINAL:op=N|const=V")
    p.add_argument("--stimuli")
    p.add_argument("--mode", choices=("strong", "weak"), default="strong")
    p.add_argument("--tolerance", type=float, default=simulator.DEFAULT_TOLERANCE)
    p.add_argument("--permissive", action="store_true")

    return parser


#: Options taking a float, which may be dash-led (``-1e-9``, ``-inf``).
_FLOAT_OPTIONS = ("--tolerance", "--const")


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _glue_float_values(argv: list[str]) -> list[str]:
    """``--tolerance -1e-9`` as ``--tolerance=-1e-9``.

    argparse reads a dash-led value that is not a plain negative number as
    an option and stops with its usage text; glued, the value reaches the
    option's own checks."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _FLOAT_OPTIONS and arg.startswith("-") and _is_float(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


_COMMANDS = {
    "parse": cmd_parse,
    "graph": cmd_graph,
    "paths": cmd_paths,
    "terms": cmd_terms,
    "cover": cmd_cover,
    "fdt": cmd_fdt,
    "inject": cmd_inject,
    "run": cmd_run,
    "diagnose": cmd_diagnose,
    "testability": cmd_testability,
    "all": cmd_all,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_glue_float_values(sys.argv[1:] if argv is None else argv))
    error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = _COMMANDS[args.command](Pipeline(args, _config(args)))
        except (RtgError, OSError, json.JSONDecodeError) as e:
            error = e
            code = EXIT_USAGE if isinstance(e, UsageError) else EXIT_DATA
    for message in dict.fromkeys(str(w.message) for w in caught):
        sys.stderr.write(f"rtgdiag {args.command}: warning: {message}\n")
    if error is not None:
        sys.stderr.write(f"rtgdiag {args.command}: {error}\n")
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
