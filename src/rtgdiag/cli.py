"""Command-line interface wiring the four-stage workflow.

Each invocation builds one Pipeline.  Its stages are program, lowered,
graph, violations, valid_graph, paths, suite (the complete test),
diagnostic_suite, tests (the suite that is run), table, fault, mutant,
stimuli, response (V), responded (the table with V bound) and verdict;
each is computed at most once, and every subcommand prints a projection:

  parse        program's shape
  graph        graph, or its violations
  paths        paths, with activation formulas
  terms        suite
  cover        a minimal cover of paths, or diagnostic_suite
  fdt          table, or responded when ``--response`` is given
  inject       mutant
  run          response (``--table-out`` writes responded)
  diagnose     verdict of the ``--table`` file
  testability  ambiguity groups and insertions of valid_graph
  all          program, paths, suite, responded and verdict

Text output mirrors the reference table layout; JSON output (``--format
json``, on every subcommand but ``all``) is the machine interface.  A table
is written as the chunks of ``fdt.table_text`` or ``fdt.table_json``, one
block at a time, to stdout, ``--out`` or ``--table-out``.
Outputs are byte-identical across runs with identical configuration.

Exit codes: 0 success, 1 diagnosis findings, 2 usage errors, 3 data errors.
Option values are checked before any file is read.  An error is one
``rtgdiag <cmd>: ...`` line on stderr, and so is each distinct warning
(``rtgdiag <cmd>: warning: ...``, e.g. a variable that ``--permissive``
defaulted), in the order first raised.  The environment variable
RTGDIAG_CAPS ("paths=N,terms=N,dnf=N") overrides the explosion
caps.  ``testability`` and ``cover --mode paths`` count paths instead of
listing them (the path cover is a minimum flow, always exact), so their
cost is polynomial in the graph and the ``paths`` cap does not bound them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from functools import cache, cached_property
from itertools import chain
from typing import Iterable

from . import diagnosis, fdt, frontend, rtg, simulator, testsynth
from .errors import NoFailures, RtgError, UsageError

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_DATA = 3


def _caps_from_env() -> dict[str, int]:
    """The explosion caps, RTGDIAG_CAPS over the defaults."""
    caps = {"paths": testsynth.DEFAULT_PATH_CAP, "terms": testsynth.DEFAULT_TERM_CAP,
            "dnf": diagnosis.DEFAULT_DNF_CAP}
    for part in os.environ.get("RTGDIAG_CAPS", "").split(","):
        if not part.strip():
            continue
        key, _, value = (x.strip() for x in part.partition("="))
        if key not in caps:
            raise UsageError(f"RTGDIAG_CAPS: unknown cap {key!r}; "
                             f"expected one of {', '.join(caps)}")
        if not value.isdecimal():
            raise UsageError(f"RTGDIAG_CAPS: {key} needs a non-negative integer, "
                             f"got {value!r}")
        caps[key] = int(value)
    return caps


def _write(path: str | None, chunks: Iterable[str]) -> None:
    """*chunks* in order to the file *path*, else to stdout.  A reader that
    closes stdout early (``| head``) drops the rest quietly: fd 1 then
    points at os.devnull, so the flush at exit cannot fail again."""
    if not path:
        try:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        except BrokenPipeError:
            with open(os.devnull, "w") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(chunks)


def _read(path: str, load):
    """*load* of the UTF-8 text of *path*; text that is not UTF-8, nested too
    deeply for *load*, or with an over-long integer raises RtgError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return load(fh.read())
    except UnicodeDecodeError as e:
        raise RtgError(f"{path}: not UTF-8 text (byte {e.start})") from None
    except RecursionError:
        raise RtgError(f"{path}: nested too deeply to read") from None
    except ValueError as e:
        if isinstance(e, json.JSONDecodeError) or "integer string conversion" not in str(e):
            raise
        raise RtgError(f"{path}: an integer has more than {sys.get_int_max_str_digits()} "
                       "digits") from None


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


def _finite(value) -> bool:
    """Whether *value* is an int or float, not a bool, of finite float value."""
    try:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:  # an int past the float range
        return False


def _valid(what: str, g: rtg.RTGraph, violations: list[rtg.Violation]) -> rtg.RTGraph:
    """*g*, once it has no *violations*; else RtgError listing them."""
    if violations:
        raise RtgError(f"invalid {what}:\n" + "\n".join(str(v) for v in violations))
    return g


class Pipeline:
    """The stages of one invocation.

    Option values are checked when the pipeline is made.  Each stage is
    computed on first use from the stages before it and kept for the rest
    of the invocation only.  Stages call the layer functions through their
    modules, so tracing those modules sees every call.
    """

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.caps = _caps_from_env()
        if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
            raise UsageError(f"--tolerance needs a finite non-negative number, "
                             f"got {args.tolerance}")
        if args.const is not None and not math.isfinite(args.const):
            raise UsageError(f"--const needs a finite number, got {args.const}")
        if args.response is not None and args.response.strip("01"):
            raise UsageError(f"--response needs a string of 0s and 1s, got {args.response!r}")
        if args.target < 1:
            raise UsageError(f"--target needs a positive integer, got {args.target}")

    @cached_property
    def program(self) -> frontend.Program:
        return _read(self.args.program,
                     lambda text: frontend.parse_program(text, fold=not self.args.unfolded))

    @cached_property
    def lowered(self) -> rtg.RTGraph:
        return frontend.build_rtg(self.program)[0]

    @cached_property
    def graph(self) -> rtg.RTGraph:
        """The ``--graph`` file, else the lowered ``--program``."""
        if self.args.graph:
            return _read(self.args.graph, rtg.loads_graph)
        if self.args.program:
            return self.lowered
        raise RtgError("either --graph or --program is required")

    @cached_property
    def violations(self) -> list[rtg.Violation]:
        return rtg.validate_graph(self.graph)

    @cached_property
    def valid_graph(self) -> rtg.RTGraph:
        """The graph, once it has no violations."""
        return _valid("graph", self.graph, self.violations)

    @cached_property
    def paths(self) -> list[testsynth.Path]:
        return testsynth.enumerate_paths(self.valid_graph, path_cap=self.caps["paths"])

    @cached_property
    def suite(self) -> testsynth.TestSuite:
        """The complete test."""
        return testsynth.build_complete_test(self.valid_graph, self.paths,
                                             term_cap=self.caps["terms"])

    @cached_property
    def diagnostic_suite(self) -> testsynth.TestSuite:
        return testsynth.minimal_diagnostic_test(self.suite, self.graph.statement_ids)

    @cached_property
    def tests(self) -> testsynth.TestSuite:
        """The suite that is run: the diagnostic one under ``--suite
        diagnostic``, the complete test otherwise."""
        return self.diagnostic_suite if self.args.suite == "diagnostic" else self.suite

    @cached_property
    def table(self) -> fdt.FaultDetectionTable:
        """The ``--kind`` table: one row per path, or one per test."""
        if self.args.kind == "generalized":
            return fdt.build_generalized_fdt(self.valid_graph, self.paths)
        return fdt.build_extended_fdt(self.valid_graph, self.tests)

    @cached_property
    def fault(self) -> simulator.FaultSpec | None:
        """``--fault``, else ``inject``'s ``--op`` or ``--const``."""
        a = self.args
        if a.fault:
            return _parse_fault(a.fault)
        if a.op is not None or a.const is not None:
            return simulator.FaultSpec(fragment=a.fragment, ordinal=a.ordinal, opcode=a.op,
                                       constant=a.const, operand_index=a.operand)
        return None

    @cached_property
    def mutant(self) -> rtg.RTGraph:
        """The ``--mutant`` file, else the valid graph with the fault injected."""
        if self.args.mutant:
            mutant = _read(self.args.mutant, rtg.loads_graph)
            return _valid("mutant graph", mutant, rtg.validate_graph(mutant))
        if self.fault is None:
            raise RtgError("run needs --mutant or --fault")
        return simulator.inject_fault(self.valid_graph, self.fault)

    @cached_property
    def stimuli(self) -> simulator.Stimuli:
        """The default stimulus of each path, with the ``--stimuli`` file's
        terms laid over it.  A label that names no test of the suite is an
        error."""
        path = self.args.stimuli
        given = _read(path, json.loads) if path else {}
        if not isinstance(given, dict) or not all(isinstance(e, dict) for e in given.values()):
            raise RtgError(f"{path}: expected {{term label: {{variable: value}}}}")
        defaults = simulator.default_stimuli(self.valid_graph, self.tests)
        overrides = {}
        for label, env in given.items():
            if label not in defaults:
                raise RtgError(f"{path}: no term {label} in the {self.args.suite} suite")
            for var, value in env.items():
                if not _finite(value):
                    raise RtgError(f"{path}: term {label}: {var} needs a finite number")
            overrides[label] = simulator.Stimulus(env={k: float(v) for k, v in env.items()})
        return defaults.overriding(overrides)

    @cached_property
    def response(self) -> fdt.ResponseVector:
        """V: the ``--response`` bits, else one bit per test, golden
        against mutant."""
        if self.args.response is not None:
            return fdt.ResponseVector(tuple(int(b) for b in self.args.response))
        return simulator.run_suite(self.valid_graph, self.mutant, self.tests, self.stimuli,
                                   tolerance=self.args.tolerance,
                                   permissive=self.args.permissive)

    @cached_property
    def responded(self) -> fdt.FaultDetectionTable:
        """The ``--table`` file, else the table with V bound."""
        if self.args.table:
            return _read(self.args.table, fdt.loads_table)
        return fdt.attach_response(self.table, self.response)

    @cached_property
    def verdict(self) -> diagnosis.DiagnosisResult:
        return diagnosis.diagnose(self.responded, mode=self.args.mode, cap=self.caps["dnf"])


def _emit(pl: Pipeline, text, doc=None) -> None:
    """*doc* as JSON under ``--format json``, else *text*, to the ``--out``
    file, else stdout.  *text* is a string or its chunks, *doc* a JSON
    value, and each may be given as a function making it."""
    if doc is not None and pl.args.format == "json":
        text = rtg.dumps_json(doc() if callable(doc) else doc)
    elif callable(text):
        text = text()
    _write(pl.args.out, [text] if isinstance(text, str) else text)


# --- subcommands ---------------------------------------------------------------

def cmd_parse(pl: Pipeline) -> int:
    program = pl.program
    chains = [item for item in program.body if isinstance(item, frontend.IfChain)]
    assignments = (len(program.body) - len(chains)
                   + sum(len(arm.body) for chain in chains for arm in chain.arms))
    _emit(pl, f"program: inputs={', '.join(program.inputs)} output={program.output} "
              f"if-chains={len(chains)} assignments={assignments}\n",
          {"inputs": list(program.inputs), "output": program.output,
           "if_chains": len(chains), "assignments": assignments})
    return EXIT_OK


def cmd_graph(pl: Pipeline) -> int:
    if pl.violations:
        sys.stderr.write("\n".join(str(v) for v in pl.violations) + "\n")
        return EXIT_DATA
    _emit(pl, rtg.dumps_graph(pl.graph))
    return EXIT_OK


def cmd_paths(pl: Pipeline) -> int:
    paths = pl.paths
    _emit(pl, lambda: "\n".join(f"{p.label}: " + " ".join(p.fragments) + "   "
                                + testsynth.activation_formula(pl.graph, p)
                                for p in paths) + "\n",
          lambda: [{"label": p.label, "fragments": list(p.fragments), "nodes": list(p.nodes)}
                   for p in paths])
    return EXIT_OK


def cmd_terms(pl: Pipeline) -> int:
    items = [(b.path.label, selection, label)
             for b in pl.suite.blocks for selection, label in b.items()]
    _emit(pl, lambda: "\n".join(f"{label}: " + " ".join(s.label for s in selection)
                                + f"   (path {path})" for path, selection, label in items) + "\n",
          lambda: [{"label": label, "path": path, "marks": [s.label for s in selection]}
                   for path, selection, label in items])
    return EXIT_OK


def cmd_cover(pl: Pipeline) -> int:
    mode = pl.args.cover_mode
    if mode == "paths":
        labels = [p.label for p in testsynth.minimal_path_cover(pl.valid_graph)]
        exact = True
    else:
        labels = list(pl.diagnostic_suite.labels())
        exact = testsynth.cover_is_exact(len(pl.suite.labels()))
    _emit(pl, f"minimal {mode} cover ({len(labels)}): " + " ".join(labels) + "\n",
          {"mode": mode, "selected": labels, "exact": exact})
    return EXIT_OK


def cmd_fdt(pl: Pipeline) -> int:
    table = pl.responded if pl.args.response is not None else pl.table
    _write(pl.args.out, (fdt.table_json if pl.args.format == "json" else fdt.table_text)(table))
    return EXIT_OK


def cmd_inject(pl: Pipeline) -> int:
    _emit(pl, rtg.dumps_graph(pl.mutant))
    return EXIT_OK


def cmd_run(pl: Pipeline) -> int:
    v = pl.response
    if pl.args.table_out:
        _write(pl.args.table_out, fdt.table_json(pl.responded))
    _emit(pl, f"V = {v}\n",
          lambda: {"labels": list(pl.tests.labels()), "bits": list(v.bits)})
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
    table = pl.responded
    try:
        if table.kind == "generalized":
            suspects = diagnosis.diagnose_generalized(table)
            labels = sorted(s.label for s in suspects)
            _emit(pl, lambda: chain(fdt.table_text(table, suspects),
                                    ["Faults = {" + ", ".join(labels) + "}\n"]),
                  {"suspects": labels})
            return EXIT_FINDINGS
        result = pl.verdict
    except NoFailures:
        _emit(pl, "no fault detected\n", {"suspects": []})
        return EXIT_OK
    _emit(pl, _diagnosis_text(result), _diagnosis_json(result))
    return EXIT_FINDINGS


def cmd_testability(pl: Pipeline) -> int:
    target = pl.args.target
    groups = [[s.label for s in gr.sorted_members()]
              for gr in diagnosis.ambiguity_groups(pl.valid_graph)]
    inserts = diagnosis.recommend_observation_points(pl.valid_graph, target)
    lines = ["ambiguity groups:", *("  {" + ", ".join(gr) + "}" for gr in groups),
             f"insertions for target {target}:",
             *([f"  {f}: after statement {k}" for f, k in inserts] or ["  (none needed)"])]
    _emit(pl, "\n".join(lines) + "\n",
          {"groups": groups, "target": target,
           "insertions": [{"fragment": f, "after_ordinal": k} for f, k in inserts]})
    return EXIT_OK


def cmd_all(pl: Pipeline) -> int:
    """The report; its verdict, or the error that stops it, comes before
    the first byte is written."""
    args = pl.args
    report: list[str] = []
    if args.program:
        report.append(f"parsed program: inputs={', '.join(pl.program.inputs)} "
                      f"output={pl.program.output}")
        pl.lowered  # the program must lower, though a --graph file replaces it
    if args.graph:
        report.append(f"graph loaded from {os.path.basename(args.graph)}")
    report.append("paths: " + " ∨ ".join(p.label for p in pl.paths))
    report.append("complete test: " + " ".join(pl.suite.labels()))
    if pl.fault is None:
        report.append("no fault injected; nothing to run")
        _emit(pl, "\n".join(report) + "\n")
        return EXIT_OK
    report.append(f"injected fault {pl.fault}")
    try:
        verdict, code = _diagnosis_text(pl.verdict), EXIT_FINDINGS
    except NoFailures:
        verdict, code = "no fault detected\n", EXIT_OK
    _emit(pl, chain(["\n".join(report) + "\n\n"], fdt.table_text(pl.responded), ["\n", verdict]))
    return code


# --- argument parsing ------------------------------------------------------------

#: Every option's value when its subcommand does not define it, or it is not
#: given; the pipeline reads each as ``args.<dest>``.
_DEFAULTS = {
    "program": None, "unfolded": False, "graph": None, "format": "text", "out": None,
    "cover_mode": None, "kind": "extended", "response": None, "fragment": None,
    "ordinal": None, "op": None, "const": None, "operand": None, "mutant": None,
    "fault": None, "suite": "complete", "stimuli": None,
    "tolerance": simulator.DEFAULT_TOLERANCE, "permissive": False, "table_out": None,
    "table": None, "mode": "strong", "target": 1,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtgdiag",
        description="Fault localization over register-transfer graph models")
    parser.set_defaults(**_DEFAULTS)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, summary: str, program=True, graph=True):
        # an option that is not given keeps its root default
        p = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        p.set_defaults(handler=handler)
        if program:
            p.add_argument("--program", required=not graph,
                           help="mini-language source file (.swl)")
            p.add_argument("--unfolded", action="store_true",
                           help="disable constant folding when lowering")
        if graph:
            p.add_argument("--graph", help="register-transfer graph JSON file")
        if name != "all":  # all writes a text report only
            p.add_argument("--format", choices=("text", "json"))
        p.add_argument("--out", help="write output to a file instead of stdout")
        return p

    options = {  # of more than one subcommand, each added in the order it lists them
        "--fault": dict(help="fault spec FRAG:ORDINAL:op=N|const=V"),
        "--stimuli": dict(help="JSON file: term label -> {var: value}"),
        "--mode": dict(choices=("strong", "weak"), help="exoneration mode"),
        "--tolerance": dict(type=float, help="relative tolerance of the output comparison"),
        "--permissive": dict(action="store_true", help="default unbound free variables to 0.0"),
    }

    def shared(p: argparse.ArgumentParser, *names: str) -> None:
        for name in names:
            p.add_argument(name, **options[name])

    command("parse", cmd_parse, "parse a program and report its shape", graph=False)
    command("graph", cmd_graph, "build or validate a graph, emit JSON")
    command("paths", cmd_paths, "enumerate one-dimensional paths")
    command("terms", cmd_terms, "expand activation formulas into the complete test")

    p = command("cover", cmd_cover, "solve a covering problem")
    p.add_argument("--mode", dest="cover_mode", choices=("paths", "diagnostic"),
                   required=True)

    p = command("fdt", cmd_fdt, "build a fault detection table")
    p.add_argument("--kind", choices=("generalized", "extended"))
    p.add_argument("--response", help="bit string to attach as response vector")

    p = command("inject", cmd_inject, "inject a single-statement fault")
    p.add_argument("--fragment", required=True)
    p.add_argument("--ordinal", type=int, required=True)
    mutation = p.add_mutually_exclusive_group(required=True)
    mutation.add_argument("--op", type=int, help="substitute opcode (same arity)")
    mutation.add_argument("--const", type=float, help="perturbed constant value")
    p.add_argument("--operand", type=int, help="constant operand index")

    p = command("run", cmd_run, "run a suite against a mutant, produce V")
    p.add_argument("--mutant", help="mutant graph JSON file")
    shared(p, "--fault")
    p.add_argument("--suite", choices=("complete", "diagnostic"))
    shared(p, "--stimuli", "--tolerance", "--permissive")
    p.add_argument("--table-out", help="write the responded extended table here")

    p = command("diagnose", cmd_diagnose, "diagnose a responded table",
                program=False, graph=False)
    p.add_argument("--table", required=True)
    shared(p, "--mode")

    p = command("testability", cmd_testability, "ambiguity groups and observation points")
    p.add_argument("--target", type=int)

    p = command("all", cmd_all, "full pipeline: parse, build, test, run, diagnose")
    shared(p, "--fault", "--stimuli", "--mode", "--tolerance", "--permissive")

    return parser


#: The parser of every ``main`` call in a process, built on the first.  Its
#: defaults are immutable scalars and each parse makes a fresh namespace.
_parser = cache(build_parser)


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


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(_glue_float_values(sys.argv[1:] if argv is None else argv))
    error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = args.handler(Pipeline(args))
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
