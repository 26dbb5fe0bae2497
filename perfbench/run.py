#!/usr/bin/env python3
"""rtgdiag benchmark: seeded workloads, end-to-end metrics, a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 30 --trace 0

Workloads (inputs are generated from ``--seed`` and written out before any
timing; the program receives only graph JSON, ``.swl`` text and fault specs):

- ``ladder``: in-process ``rtgdiag all --graph G --fault F --out O`` on a
  k-stage ladder (2 parallel ribs of 2 statements per stage: 2^k paths,
  4^k terms), a different seeded fault per operation.
- ``campaign``: every entry of ``mutation_catalogue`` over seeded random DAG
  models plus the fig1 and lowered listing31 fixtures; one operation is
  ``inject_fault -> run_suite -> attach_response -> diagnose`` against a
  golden side prepared once (its preparation counts toward ``setup_s``).
- ``swl_testability``: ``cover --mode paths`` plus ``testability --target 1``
  (both ``--format json``) on seeded ``.swl`` programs of 512 to 7776 paths.

Every operation's output is checked by the oracles in ``oracle.py``.  With
``--trace 0`` the run reports the end-to-end metrics, operation times in
units of ``reference_work`` timed alongside; with ``--trace 1`` it
runs the same operations untraced and then traced (``tracing.py``) and
reports per-layer medians per operation.  The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  Inputs,
the report and the span file land in ``perfbench/.work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from array import array
from pathlib import Path
from random import Random
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracle  # noqa: E402

END_TO_END = {"op_ref.p50": "ref", "ops_per_ref": "1/ref", "setup_s": "s",
              "peak_rss_mb": "MB", "localized_frac": "frac"}

PER_LAYER = {
    "cli": ["cli.main.s", "cli.self_s"],
    "frontend": ["frontend.parse_program.s", "frontend.build_rtg.s",
                 "frontend.statements", "frontend.self_s"],
    "rtg": ["rtg.loads_graph.s", "rtg.validate_graph.s", "rtg.merge_equivalent_ribs.s",
            "rtg.ribs", "rtg.self_s"],
    "testsynth": ["testsynth.enumerate_paths.s", "testsynth.build_complete_test.s",
                  "testsynth.minimal_path_cover.s", "testsynth.paths", "testsynth.terms",
                  "testsynth.self_s"],
    "simulator": ["simulator.run_suite.s", "simulator.inject_fault.s",
                  "simulator.pick_stimulus.calls", "simulator.execute_path.calls",
                  "simulator.useful_exec_ratio", "simulator.self_s"],
    "fdt": ["fdt.build_extended_fdt.s", "fdt.attach_response.s", "fdt.render_table.s",
            "fdt.rows", "fdt.render_bytes", "fdt.self_s"],
    "diagnosis": ["diagnosis.diagnose.s", "diagnosis.cnf_to_min_dnf.s",
                  "diagnosis.exoneration_set.s", "diagnosis.recommend_observation_points.s",
                  "diagnosis.ambiguity_groups.s", "diagnosis.clauses", "diagnosis.dnf_terms",
                  "diagnosis.fprime_statements", "diagnosis.self_s"],
    "trace": ["trace.overhead_ratio", "trace.self_coverage"],
}


def layer_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("self_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_coverage"):
        return "ratio"
    return "bytes" if name.endswith("_bytes") else "count"


#: Per-layer metrics that must repeat exactly across runs of one seed.
COUNTS = [n for names in PER_LAYER.values() for n in names
          if layer_unit(n) == "count" or n == "simulator.useful_exec_ratio"]


# --- workloads -------------------------------------------------------------------

class Ladder:
    """``rtgdiag all`` on one k-stage ladder, one seeded fault per operation."""

    def __init__(self, rng: Random, work: Path, tiny: bool):
        self.k = 3 if tiny else 6
        self.lad = gen.ladder(rng, self.k)
        self.graph = work / "ladder.rtg.json"
        self.graph.write_text(json.dumps(self.lad.doc, indent=2) + "\n", encoding="utf-8")
        self.out = str(work / "verdict.txt")
        faults = gen.ladder_faults(rng, self.lad, 8 if tiny else 64)
        self.units = [[f] for f in faults]
        self.trace_units = self.units[:4]

    def setup(self) -> float:
        return 0.0

    def run(self, fault: str):
        from rtgdiag import cli
        return cli.main(["all", "--graph", str(self.graph), "--fault", fault, "--out", self.out])

    def check(self, fault: str, exit_code) -> dict:
        with open(self.out, encoding="utf-8") as fh:
            text = fh.read()
        os.remove(self.out)
        return oracle.check_ladder(self.lad.doc, self.k, fault, exit_code, text)


class Campaign:
    """Mutation campaign over random DAG models and the two fixtures."""

    def __init__(self, rng: Random, work: Path, tiny: bool):
        from rtgdiag import build_rtg, graph_to_json, parse_program
        from rtgdiag.fixtures import fig1_graph, listing31_source

        # Shapes come from a fixed stream so that every seed carries the same
        # work; the seed picks opcodes and constants.
        shape = Random("campaign shapes")
        docs = [gen.random_dag(shape, rng) for _ in range(6 if tiny else 96)]
        docs.insert(len(docs) // 3, graph_to_json(fig1_graph()))
        docs.insert(2 * len(docs) // 3,
                    graph_to_json(build_rtg(parse_program(listing31_source(), fold=False))[0]))
        self.docs = docs
        self.texts = []
        for i, doc in enumerate(docs):
            path = work / f"model{i:03d}.rtg.json"
            path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
            self.texts.append(path.read_text(encoding="utf-8"))
        self.models = None

    def setup(self) -> float:
        """Golden side of every model: graph, paths, complete test, extended
        table, stimuli and the mutation catalogue.  Returns its duration."""
        from rtgdiag import fdt, rtg, simulator, testsynth

        self.models = None
        start = perf_counter()
        models = []
        for text in self.texts:
            g = rtg.loads_graph(text)
            paths = testsynth.enumerate_paths(g)
            suite = testsynth.build_complete_test(g, paths)
            table = fdt.build_extended_fdt(g, suite)
            stimuli = simulator.default_stimuli(g, suite)
            models.append((g, suite, table, stimuli, simulator.mutation_catalogue(g)))
        elapsed = perf_counter() - start
        self.models = models
        # One unit is one pass over every mutant, so that every run measures
        # the same mix of mutants whatever the program's speed.
        ops = [(i, fault) for i, m in enumerate(models) for fault in m[4]]
        self.units = [ops]
        self.trace_units = [[op for op in ops if op[0] < (6 if len(models) < 60 else 40)]]
        self._rows = (None, None)
        return elapsed

    def run(self, op):
        from rtgdiag import diagnosis, fdt, simulator
        from rtgdiag.errors import RtgError

        i, fault = op
        g, suite, table, stimuli, _ = self.models[i]
        mutant = simulator.inject_fault(g, fault)
        v = simulator.run_suite(g, mutant, suite, stimuli)
        responded = fdt.attach_response(table, v)
        try:
            return v.bits, diagnosis.diagnose(responded), None
        except RtgError as e:
            return v.bits, None, e

    def rows(self, i: int) -> list:
        """Per table row of model *i*: rib keys of its path, stimulus env,
        fragments of the path, selected (fragment, ordinal) pairs.  Only the
        latest model's rows are kept (a unit runs the models in order)."""
        if self._rows[0] != i:
            _, suite, _, stimuli, _ = self.models[i]
            self._rows = (i, [(tuple(r.key for r in t.path.edges), stimuli[t.label].env,
                               t.path.fragments,
                               {(s.fragment, s.ordinal) for s in t.selection})
                              for t in suite.terms])
        return self._rows[1]

    def check(self, op, outcome) -> dict:
        i, fault = op
        rows = self.rows(i)
        if isinstance(outcome, BaseException):
            bits, result, error = None, None, outcome
        else:
            bits, result, error = outcome
        verdict = oracle.check_campaign(self.docs[i], rows, fault, bits, result, error)
        failing = sum(bits or ())
        verdict["sizes"] = {
            "paths": len({r[0] for r in rows}), "terms": len(rows), "rows": len(rows),
            "clauses": failing,
            "dnf_terms": len(result.candidates.terms) if result else 0,
            "fprime_statements": len(result.suspects()) if result else 0,
            "statements": sum(len(r["statements"]) for r in
                              {r["fragment"]: r for r in self.docs[i]["ribs"]}.values())}
        return verdict


# Three programs of the middle size make the per-cycle median land on 3
# samples instead of 1.
SWL_SHAPES = ((8, 8, 8), (6, 6, 6, 6), (5, 5, 5, 5, 5), (5, 5, 5, 5, 5), (5, 5, 5, 5, 5),
              (4, 4, 4, 4, 4, 4), (6, 6, 6, 6, 6))
SWL_TINY_SHAPES = ((3, 3), (2, 2, 2))


class SwlTestability:
    """Path cover plus observation-point plan on seeded ``.swl`` programs."""

    def __init__(self, rng: Random, work: Path, tiny: bool):
        from rtgdiag import parse_program

        shapes = SWL_TINY_SHAPES if tiny else SWL_SHAPES
        self.units = []
        self.programs = {}
        for u in range(3):
            unit = []
            for j, shape in enumerate(shapes):
                prog = gen.swl_program(rng, shape)
                path = work / f"prog{u}{j}.swl"
                path.write_text(prog.text, encoding="utf-8")
                xs = [round(rng.uniform(-1.0, 11.0), 3) for _ in range(3)]
                self.programs[str(path)] = (prog, oracle.path_labels(prog),
                                            parse_program(prog.text), xs)
                unit.append(str(path))
            self.units.append(unit)
        self.trace_units = self.units[:1]
        self.cover_out = str(work / "cover.json")
        self.plan_out = str(work / "testability.json")

    def setup(self) -> float:
        return 0.0

    def run(self, path: str):
        from rtgdiag import cli
        return (cli.main(["cover", "--mode", "paths", "--format", "json",
                          "--program", path, "--out", self.cover_out]),
                cli.main(["testability", "--target", "1", "--format", "json",
                          "--program", path, "--out", self.plan_out]))

    def check(self, path: str, codes) -> dict:
        from rtgdiag import Stimulus, execute_program

        prog, labels, program, xs = self.programs[path]
        with open(self.cover_out, encoding="utf-8") as fh:
            cover = json.load(fh)
        with open(self.plan_out, encoding="utf-8") as fh:
            plan = json.load(fh)
        os.remove(self.cover_out)
        os.remove(self.plan_out)
        executed = [(x, execute_program(program, Stimulus(env={"x": x})).output) for x in xs]
        verdict = oracle.check_swl(prog, labels, cover, plan, executed)
        if codes != (0, 0):
            verdict["problems"].append(f"exit codes {codes}")
        return verdict


WORKLOADS = {"ladder": Ladder, "campaign": Campaign, "swl_testability": SwlTestability}


# --- measurement -----------------------------------------------------------------

def reference_work() -> int:
    """A fixed pure-Python routine (tuples, strings, dicts, frozensets, a
    keyed sort; about a millisecond) whose duration is the unit of the
    ``*_ref`` metrics.  The machine's speed drifts by tens of percent over
    minutes; timing this next to the operations cancels that drift.  It
    must never change, or the ``*_ref`` metrics stop being comparable."""
    table = {}
    for i in range(600):
        table[(i % 37, str(i))] = frozenset((i, i * 3 % 11, i % 5))
    return len(sorted(table.items(), key=lambda kv: (kv[0][1], len(kv[1]))))


def reference_seconds() -> float:
    """Median of five timed runs of reference_work."""
    times = []
    for _ in range(5):
        start = perf_counter()
        reference_work()
        times.append(perf_counter() - start)
    return statistics.median(times)


def fresh_import_refs(repeats: int) -> list[float]:
    """Time to ``import rtgdiag`` in a fresh interpreter over the time of
    ``reference_work`` in that interpreter right after it (median of five),
    *repeats* times after one warm-up (which also writes the bytecode
    cache)."""
    code = ("import sys, time\n" + inspect.getsource(reference_work) +
            "sys.path.insert(0, sys.argv[1])\n"
            "t = time.perf_counter()\n"
            "import rtgdiag\n"
            "d = time.perf_counter() - t\n"
            "assert rtgdiag.__file__.startswith(sys.argv[1])\n"
            "refs = []\n"
            "for _ in range(6):\n"
            "    r = time.perf_counter(); reference_work(); refs.append(time.perf_counter() - r)\n"
            "print(repr(d / sorted(refs[1:])[2]))\n")
    out = []
    for _ in range(repeats + 1):
        done = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)],
                              capture_output=True, text=True, timeout=60, check=True)
        out.append(float(done.stdout.strip()))
    return out[1:]


def setup_refs(wl, repeats: int) -> list[float]:
    """The workload's one-time preparation, *repeats* times, each over the
    mean ``reference_work`` time taken just before and after it."""
    out = []
    for _ in range(repeats):
        before = reference_seconds()
        elapsed = wl.setup()
        out.append(2 * elapsed / (before + reference_seconds()))
    return out


#: ``setup_s`` is reported in seconds at a fixed speed: its ``ref`` ratios
#: times this, about the duration of ``reference_work`` under Python 3.11
#: on the 2-vCPU x86-64 VM the benchmark was written on.  It must never
#: change, like ``reference_work``.
REFERENCE_SECONDS = 0.0007

#: An operation is normalised by the latest reference timing, taken again
#: once this many seconds have passed; an operation at least this long is
#: bracketed by timings before and after it and uses their mean.
REFERENCE_EVERY = 0.2


#: Each distinct sizes record (sorted items) -> its index in Records.sizes.
_SIZES: dict[tuple, int] = {}


class Records:
    """The outcomes of one phase's operations.  They are kept for the whole
    run and count toward ``peak_rss_mb``, so they sit in flat arrays: a run
    that gets through more operations must not read as using more memory."""

    def __init__(self):
        self.seconds = array("d")
        self.ref = array("d")
        self.sizes = array("l")
        self.localized = 0
        self.failed = 0
        self.problems: set[str] = set()

    def __len__(self) -> int:
        return len(self.seconds)

    def add(self, seconds: float, ref: float, verdict: dict) -> None:
        self.seconds.append(seconds)
        self.ref.append(ref)
        sizes = tuple(sorted(verdict.get("sizes", {}).items()))
        self.sizes.append(_SIZES.setdefault(sizes, len(_SIZES)))
        self.localized += bool(verdict["localized"])
        if verdict["problems"]:
            self.failed += 1
            self.problems.update(verdict["problems"])

    def relative(self) -> list[float]:
        return [s / r for s, r in zip(self.seconds, self.ref)]


def run_phase(wl, units, budget: float, tracer=None, whole: bool = False) -> Records:
    """Run units in order, cycling, in whole units (whole cycles of *units*
    when *whole*); stop before a unit or cycle that, taking as long as the
    last one, would end after *budget* seconds.  At least one runs.  Only
    the program's calls are timed; the oracle check follows each
    operation."""
    from rtgdiag.errors import RtgError

    records = Records()
    deadline = perf_counter() + budget
    step = len(units) if whole else 1
    block_start = perf_counter()
    ref_at = -REFERENCE_EVERY
    done = 0
    while True:
        for op in units[done % len(units)]:
            if perf_counter() - ref_at >= REFERENCE_EVERY:
                ref = reference_seconds()
                ref_at = perf_counter()
            if tracer is not None:
                tracer.op = len(records)
            start = perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    outcome = wl.run(op)
            except Exception as e:  # an untyped escape is a result to report
                outcome = e
            seconds = perf_counter() - start
            if tracer is not None:
                tracer.op = None
            op_ref = ref
            if seconds >= REFERENCE_EVERY:
                ref = reference_seconds()
                ref_at = perf_counter()
                op_ref = (op_ref + ref) / 2
            if isinstance(outcome, Exception) and not isinstance(outcome, RtgError):
                verdict = {"problems": ["".join(traceback.format_exception_only(outcome)).strip()],
                           "localized": False}
            else:
                try:
                    verdict = wl.check(op, outcome)
                except Exception as e:
                    verdict = {"problems": [f"oracle could not read the output: {e!r}"],
                               "localized": False}
            records.add(seconds, op_ref, verdict)
        done += 1
        if done % step == 0:
            now = perf_counter()
            if now + (now - block_start) > deadline:
                return records
            block_start = now


def quantile(values: list[float], q: int) -> float:
    """q-th percentile, inclusive method (as statistics.quantiles)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summary_sizes(phases: list[Records]) -> dict:
    rows = {i: dict(t) for t, i in _SIZES.items()}
    index = [i for phase in phases for i in phase.sizes]
    keys = sorted({k for i in set(index) for k in rows[i]})
    return {k: statistics.median(rows[i].get(k, 0) for i in index) for k in keys}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smallest inputs (self-test)")
    args = ap.parse_args(argv)

    if not (SRC / "rtgdiag" / "__init__.py").is_file():
        print(f"perfbench: no rtgdiag sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import_refs = fresh_import_refs(2 if args.tiny else 49)
    import rtgdiag
    if not rtgdiag.__file__.startswith(str(SRC)):
        print(f"perfbench: rtgdiag imported from {rtgdiag.__file__}", file=sys.stderr)
        return 2

    work = HERE / ".work" / f"{args.workload}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    rng = Random(args.seed)
    wl = WORKLOADS[args.workload](rng, work, args.tiny)
    setup = setup_refs(wl, 9)

    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "platform": platform.platform()}
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env}
    warm = run_phase(wl, [wl.units[0][:1]], 0.0)
    if args.trace:
        from tracing import Tracer, medians
        plain = run_phase(wl, wl.trace_units, args.seconds / 2, whole=True)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_phase(wl, wl.trace_units, args.seconds / 2, tracer, whole=True)
        finally:
            tracer.uninstall()
        tracer.dump(str(work / "spans.jsonl"))
        tracer_rows = tracer.per_op()
        rows = [tracer_rows[i] for i in range(len(traced))]
        names = [n for group in PER_LAYER.values() for n in group if not n.startswith("trace.")]
        metrics = medians(rows, names)
        metrics["trace.overhead_ratio"] = (statistics.median(traced.relative())
                                           / statistics.median(plain.relative()))
        # share of an op's time spent in a wrapped function of a layer below
        # cli: the rest is cli's own code or time no wrapper catches
        below = [n for n in PER_LAYER if n not in ("cli", "trace")]
        metrics["trace.self_coverage"] = statistics.median(
            sum(tracer_rows[i].get(f"{n}.self_s", 0.0) for n in below) / seconds
            for i, seconds in enumerate(traced.seconds))
        units = {n: layer_unit(n) for n in metrics}
        phases = [warm, plain, traced]
        samples = len(traced)
    else:
        records = run_phase(wl, wl.units, args.seconds)
        times = sorted(records.seconds)
        relative = records.relative()
        metrics = {
            "op_ref.p50": statistics.median(relative),
            "ops_per_ref": len(relative) / sum(relative),
            "setup_s": REFERENCE_SECONDS * (statistics.median(import_refs)
                                            + statistics.median(setup)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "localized_frac": records.localized / len(records),
        }
        units = dict(END_TO_END)
        samples = len(records)
        report["seconds"] = {
            "op_s.p50": statistics.median(times), "ops_per_s": len(times) / sum(times),
            "op_s.p90": quantile(times, 90) if len(times) >= 100 else None,
            "ref_s.p50": statistics.median(records.ref)}
        phases = [warm, records]

    attempted = sum(len(phase) for phase in phases)
    failed = sum(phase.failed for phase in phases)
    report.update(sizes=summary_sizes(phases), metrics=metrics,
                  attempted=attempted, failed=failed,
                  problems=sorted(set().union(*(phase.problems for phase in phases))))
    (work / "report.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("sizes " + " ".join(f"{k}={v:g}" for k, v in report["sizes"].items()))
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]} (n={samples})")
    if not args.trace:
        for name, value in report["seconds"].items():
            unit = "1/s" if name == "ops_per_s" else "s"
            print(f"metric {name} = {value:.6g} {unit} (n={samples})" if value is not None
                  else f"metric {name} not reported (n={samples} < 100)")
    print(f"metric error_frac = {failed / attempted:.6g} frac (n={attempted})")
    for problem in report["problems"]:
        print(f"problem: {problem}")
    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": v, "unit": units[n]}
                                  for n, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
