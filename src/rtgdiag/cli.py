"""Command-line interface wiring the four-stage workflow.

Subcommands: parse, graph, paths, terms, cover, fdt, inject, run, diagnose,
testability, all.  Text output mirrors the reference table layout; JSON
output (``--format json``) is the machine interface.  Outputs are
byte-identical across runs with identical configuration.

Exit codes: 0 success, 1 diagnosis findings, 2 usage errors, 3 data errors.
The environment variable RTGDIAG_CAPS ("paths=N,terms=N,dnf=N,exact=N")
overrides the explosion caps.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from . import diagnosis, fdt, frontend, rtg, simulator, testsynth
from .errors import NoFailures, RtgError, UsageError

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_DATA = 3


@dataclass(frozen=True)
class RunConfig:
    """Resolved knobs for one invocation; defaults are stable."""

    subcommand: str
    fmt: str = "text"
    tolerance: float = simulator.DEFAULT_TOLERANCE
    mode: str = "strong"
    unfolded: bool = False
    permissive: bool = False
    seed: int = 0
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
    return RunConfig(
        subcommand=args.command,
        fmt=getattr(args, "format", "text"),
        tolerance=getattr(args, "tolerance", simulator.DEFAULT_TOLERANCE),
        mode=getattr(args, "mode", "strong"),
        unfolded=getattr(args, "unfolded", False),
        permissive=getattr(args, "permissive", False),
        seed=getattr(args, "seed", 0),
        **caps,
    )


def _emit(args: argparse.Namespace, text: str) -> None:
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_dump(doc) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def _load_program(path: str, unfolded: bool) -> frontend.Program:
    with open(path, encoding="utf-8") as fh:
        return frontend.parse_program(fh.read(), fold=not unfolded)


def _load_graph(args: argparse.Namespace, cfg: RunConfig
                ) -> tuple[rtg.RTGraph, frontend.SourceMap | None]:
    graph_path = getattr(args, "graph", None)
    program_path = getattr(args, "program", None)
    if graph_path:
        with open(graph_path, encoding="utf-8") as fh:
            return rtg.loads_graph(fh.read()), None
    if program_path:
        g, smap = frontend.build_rtg(_load_program(program_path, cfg.unfolded))
        return g, smap
    raise RtgError("either --graph or --program is required")


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
        if kind == "const":
            return simulator.FaultSpec(fragment=fragment, ordinal=int(ordinal),
                                       constant=float(value))
    except ValueError:
        pass
    raise RtgError(f"bad fault spec {spec!r}; expected FRAG:ORDINAL:op=N or FRAG:ORDINAL:const=V")


def _stimuli_for(g: rtg.RTGraph, suite: testsynth.TestSuite,
                 stimuli_path: str | None) -> dict[str, simulator.Stimulus]:
    given: dict[str, dict] = {}
    if stimuli_path:
        with open(stimuli_path, encoding="utf-8") as fh:
            given = json.load(fh)
    if not isinstance(given, dict) or not all(isinstance(e, dict) for e in given.values()):
        raise RtgError(f"{stimuli_path}: expected {{term label: {{variable: value}}}}")
    out = simulator.default_stimuli(g, suite)
    for label, env in given.items():
        if label in out:
            try:
                out[label] = simulator.Stimulus(env={k: float(v) for k, v in env.items()},
                                                label=label)
            except (TypeError, ValueError):
                raise RtgError(f"{stimuli_path}: non-numeric value for term {label}") from None
    return out


def _suite_for(g: rtg.RTGraph, cfg: RunConfig, which: str) -> testsynth.TestSuite:
    paths = testsynth.enumerate_paths(g, path_cap=cfg.path_cap)
    suite = testsynth.build_complete_test(g, paths, term_cap=cfg.term_cap)
    if which == "diagnostic":
        return testsynth.minimal_diagnostic_test(suite, g.statement_ids,
                                                 exact_cap=cfg.exact_cap)
    return suite


# --- subcommands ---------------------------------------------------------------

def cmd_parse(args, cfg: RunConfig) -> int:
    program = _load_program(args.program, cfg.unfolded)
    chains = sum(1 for item in program.body if isinstance(item, frontend.IfChain))
    assignments = len(simulator.supported_assignments(program))
    doc = {"inputs": list(program.inputs), "output": program.output,
           "if_chains": chains, "assignments": assignments}
    if cfg.fmt == "json":
        _emit(args, _json_dump(doc))
    else:
        _emit(args, f"program: inputs={', '.join(program.inputs)} output={program.output} "
                    f"if-chains={chains} assignments={assignments}\n")
    return EXIT_OK


def cmd_graph(args, cfg: RunConfig) -> int:
    g, _ = _load_graph(args, cfg)
    violations = rtg.validate_graph(g)
    if violations:
        sys.stderr.write("\n".join(str(v) for v in violations) + "\n")
        return EXIT_DATA
    _emit(args, rtg.dumps_graph(g))
    return EXIT_OK


def cmd_paths(args, cfg: RunConfig) -> int:
    g, _ = _load_graph(args, cfg)
    _validate_or_fail(g)
    paths = testsynth.enumerate_paths(g, path_cap=cfg.path_cap)
    if cfg.fmt == "json":
        doc = [{"label": p.label, "fragments": list(p.fragments), "nodes": list(p.nodes)}
               for p in paths]
        _emit(args, _json_dump(doc))
    else:
        lines = [f"{p.label}: " + " ".join(p.fragments) + "   "
                 + str(testsynth.activation_formula(g, p)) for p in paths]
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_terms(args, cfg: RunConfig) -> int:
    g, _ = _load_graph(args, cfg)
    _validate_or_fail(g)
    suite = _suite_for(g, cfg, "complete")
    if cfg.fmt == "json":
        doc = [{"label": t.label, "path": t.path.label,
                "marks": [s.label for s in t.selection]} for t in suite.terms]
        _emit(args, _json_dump(doc))
    else:
        lines = [f"{t.label}: " + " ".join(s.label for s in t.selection)
                 + f"   (path {t.path.label})" for t in suite.terms]
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_cover(args, cfg: RunConfig) -> int:
    g, _ = _load_graph(args, cfg)
    _validate_or_fail(g)
    paths = testsynth.enumerate_paths(g, path_cap=cfg.path_cap)
    if args.cover_mode == "paths":
        chosen = testsynth.minimal_path_cover(g, paths, exact_cap=cfg.exact_cap)
        labels = [p.label for p in chosen]
        exact = len(paths) <= cfg.exact_cap
    else:
        suite = _suite_for(g, cfg, "complete")
        minimal = testsynth.minimal_diagnostic_test(suite, g.statement_ids,
                                                    exact_cap=cfg.exact_cap)
        labels = list(minimal.labels())
        exact = len(suite.terms) <= cfg.exact_cap
    if cfg.fmt == "json":
        _emit(args, _json_dump({"mode": args.cover_mode, "selected": labels, "exact": exact}))
    else:
        _emit(args, f"minimal {args.cover_mode} cover ({len(labels)}): "
                    + " ".join(labels) + "\n")
    return EXIT_OK


def cmd_fdt(args, cfg: RunConfig) -> int:
    if args.response and args.response.strip("01"):
        raise UsageError(f"--response needs a string of 0s and 1s, got {args.response!r}")
    g, _ = _load_graph(args, cfg)
    _validate_or_fail(g)
    paths = testsynth.enumerate_paths(g, path_cap=cfg.path_cap)
    if args.kind == "generalized":
        table = fdt.build_generalized_fdt(g, paths)
    else:
        table = fdt.build_extended_fdt(g, _suite_for(g, cfg, "complete"))
    if args.response:
        bits = tuple(int(b) for b in args.response)
        table = fdt.attach_response(table, fdt.ResponseVector(bits))
    if cfg.fmt == "json":
        _emit(args, fdt.dumps_table(table))
    else:
        _emit(args, fdt.render_table(table))
    return EXIT_OK


def cmd_inject(args, cfg: RunConfig) -> int:
    g, _ = _load_graph(args, cfg)
    if args.op is not None:
        fault = simulator.FaultSpec(fragment=args.fragment, ordinal=args.ordinal,
                                    opcode=args.op)
    elif args.const is not None:
        fault = simulator.FaultSpec(fragment=args.fragment, ordinal=args.ordinal,
                                    constant=args.const, operand_index=args.operand)
    else:
        raise RtgError("inject needs --op or --const")
    _emit(args, rtg.dumps_graph(simulator.inject_fault(g, fault)))
    return EXIT_OK


def cmd_run(args, cfg: RunConfig) -> int:
    golden, _ = _load_graph(args, cfg)
    _validate_or_fail(golden)
    if args.mutant:
        with open(args.mutant, encoding="utf-8") as fh:
            mutant = rtg.loads_graph(fh.read())
    elif args.fault:
        mutant = simulator.inject_fault(golden, _parse_fault(args.fault))
    else:
        raise RtgError("run needs --mutant or --fault")
    suite = _suite_for(golden, cfg, args.suite)
    stimuli = _stimuli_for(golden, suite, args.stimuli)
    v = simulator.run_suite(golden, mutant, suite, stimuli,
                            tolerance=cfg.tolerance, permissive=cfg.permissive)
    if args.table_out:
        table = fdt.attach_response(fdt.build_extended_fdt(golden, suite), v)
        with open(args.table_out, "w", encoding="utf-8") as fh:
            fh.write(fdt.dumps_table(table))
    if cfg.fmt == "json":
        _emit(args, _json_dump({"labels": list(suite.labels()), "bits": list(v.bits)}))
    else:
        _emit(args, f"V = {v}\n")
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


def cmd_diagnose(args, cfg: RunConfig) -> int:
    with open(args.table, encoding="utf-8") as fh:
        table = fdt.loads_table(fh.read())
    try:
        if table.kind == "generalized":
            suspects = diagnosis.diagnose_generalized(table)
            if cfg.fmt == "json":
                _emit(args, _json_dump({"suspects": sorted(s.label for s in suspects)}))
            else:
                _emit(args, fdt.render_table(table, suspects=suspects)
                      + "Faults = {" + ", ".join(sorted(s.label for s in suspects)) + "}\n")
            return EXIT_FINDINGS
        result = diagnosis.diagnose(table, mode=cfg.mode)
    except NoFailures:
        _emit(args, _json_dump({"suspects": []}) if cfg.fmt == "json"
              else "no fault detected\n")
        return EXIT_OK
    _emit(args, _json_dump(_diagnosis_json(result)) if cfg.fmt == "json"
          else _diagnosis_text(result))
    return EXIT_FINDINGS


def cmd_testability(args, cfg: RunConfig) -> int:
    g, _ = _load_graph(args, cfg)
    _validate_or_fail(g)
    paths = testsynth.enumerate_paths(g, path_cap=cfg.path_cap)
    groups = diagnosis.ambiguity_groups(g, paths)
    inserts = diagnosis.recommend_observation_points(g, args.target, paths)
    if cfg.fmt == "json":
        doc = {
            "groups": [[s.label for s in gr.sorted_members()] for gr in groups],
            "target": args.target,
            "insertions": [{"fragment": f, "after_ordinal": k} for f, k in inserts],
        }
        _emit(args, _json_dump(doc))
    else:
        lines = ["ambiguity groups:"]
        lines += ["  {" + ", ".join(s.label for s in gr.sorted_members()) + "}" for gr in groups]
        lines.append(f"insertions for target {args.target}:")
        lines += [f"  {f}: after statement {k}" for f, k in inserts] or ["  (none needed)"]
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_all(args, cfg: RunConfig) -> int:
    report: list[str] = []
    smap = None
    if args.program:
        program = _load_program(args.program, cfg.unfolded)
        report.append(f"parsed program: inputs={', '.join(program.inputs)} "
                      f"output={program.output}")
        g, smap = frontend.build_rtg(program)
    if args.graph:
        with open(args.graph, encoding="utf-8") as fh:
            g = rtg.loads_graph(fh.read())
        report.append(f"graph loaded from {os.path.basename(args.graph)}")
    if args.program is None and args.graph is None:
        raise RtgError("all needs --program and/or --graph")
    _validate_or_fail(g)

    paths = testsynth.enumerate_paths(g, path_cap=cfg.path_cap)
    report.append("paths: " + " ∨ ".join(p.label for p in paths))
    suite = testsynth.build_complete_test(g, paths, term_cap=cfg.term_cap)
    report.append("complete test: " + " ".join(suite.labels()))
    table = fdt.build_extended_fdt(g, suite)

    fault = _parse_fault(args.fault) if args.fault else None
    if fault is None:
        report.append("no fault injected; nothing to run")
        _emit(args, "\n".join(report) + "\n")
        return EXIT_OK
    mutant = simulator.inject_fault(g, fault)
    report.append(f"injected fault {fault}")
    stimuli = _stimuli_for(g, suite, args.stimuli)
    v = simulator.run_suite(g, mutant, suite, stimuli,
                            tolerance=cfg.tolerance, permissive=cfg.permissive)
    table = fdt.attach_response(table, v)
    report.append("")
    report.append(fdt.render_table(table).rstrip("\n"))
    report.append("")
    try:
        result = diagnosis.diagnose(table, mode=cfg.mode)
    except NoFailures:
        report.append("no fault detected")
        _emit(args, "\n".join(report) + "\n")
        return EXIT_OK
    report.append(_diagnosis_text(result).rstrip("\n"))
    _emit(args, "\n".join(report) + "\n")
    return EXIT_FINDINGS


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
    parser.add_argument("--seed", type=int, default=0,
                        help="seed reserved for randomized workloads")
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
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, _config(args))
    except (RtgError, OSError, json.JSONDecodeError) as e:
        sys.stderr.write(f"rtgdiag {args.command}: {e}\n")
        return EXIT_USAGE if isinstance(e, UsageError) else EXIT_DATA


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
