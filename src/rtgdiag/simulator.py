"""Execution of programs and graph paths, fault injection, response vectors.

A response vector is produced by running the same stimuli through a golden
graph and a mutant graph and comparing the value observed at the output
node, one bit per test term (1 = the outputs differ beyond tolerance).
Path execution is guard-oblivious: a term's path is executed as written,
which also allows paths that the concrete program can never take.  A term's
selection therefore never changes its output, so each bit is computed once
per distinct (path, inputs) pair and shared by every term with that pair.

Each rib is compiled once, on its first use, in the manner of
compiled-code simulators (Wang, Hoover & Porter 1987): its statements in
ordinal order as (target, operation, operands, ordinal) steps, the
variables it reads before assigning them and the variables it assigns.
The form is kept on the rib object, so a mutant shares it on every rib that
fault injection leaves untouched, and a path's first reads cost one step
per rib rather than one per statement read.

A suite's stimuli are its run layout (``Stimuli``, made by
``default_stimuli`` and ``overriding``): one default stimulus per path,
shared by the path's blocks, plus per-term overrides such as a stimuli file
gives.  A block is one run unless overrides split it into runs of
consecutive terms sharing a stimulus object, and each distinct (path,
inputs) pair is one record, with its rows and the rib keys it crosses.

Per mutant, only what the mutant changes is executed, in the manner of
concurrent fault simulation (Ulrich & Baker 1973).  The ``Stimuli`` keeps
the golden output of each record for the latest golden graph and
permissive flag it ran, computed by executing each golden record once.
After that a mutant executes only the records whose path crosses a rib
whose statements differ from the golden one, so its cost is in what the
mutant touches, not in the suite.
"""

from __future__ import annotations

import math
import warnings
import weakref
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby, repeat

from .errors import (ArityMismatch, ExecutionError, GraphMismatch, InfeasiblePath,
                     InvalidMutation, InvalidTolerance, MissingStimulus, NoOpMutation,
                     NoSuchStatement, UnboundVariable)
from .fdt import ResponseVector
from .frontend import Program, evaluate, layout
from .intervals import RELATIONS, IntervalSet, meet
from .rtg import OP_ALPHABET, Rib, RTGraph, Statement
from .testsynth import Path, TestSuite

DEFAULT_TOLERANCE = 1e-9


class DefaultedVariableWarning(UserWarning):
    """Raised (as a warning) when permissive execution defaults free variables."""


@dataclass(frozen=True, slots=True)
class Stimulus:
    """Input bindings for one execution."""

    env: Mapping[str, float]


@dataclass(frozen=True, slots=True)
class ObservationTrace:
    """Values observed at each monitoring point along one execution."""

    points: tuple[tuple[str, float], ...]
    output: float


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """A single-statement mutation: opcode substitution of equal arity, or
    perturbation of one constant operand."""

    fragment: str
    ordinal: int
    opcode: int | None = None
    constant: float | None = None
    operand_index: int | None = None

    def __str__(self) -> str:
        if self.opcode is not None:
            return f"{self.fragment}:{self.ordinal}:op={self.opcode}"
        return f"{self.fragment}:{self.ordinal}:const={self.constant}"


# --- program execution --------------------------------------------------------

def execute_program(p: Program, s: Stimulus) -> ObservationTrace:
    """Big-step evaluation of a program; guards are evaluated as written.

    The program runs step by step (``frontend.layout``): the first arm of a
    step whose guard holds executes.  The trace records the input node X,
    the end node of each executed arm (value of the arm's final assignment),
    and the output node Y with the output variable's value.  Node names
    match the lowered graph.
    """
    missing = [v for v in p.inputs if v not in s.env]
    if missing:
        raise UnboundVariable(missing)
    env: dict[str, float] = {v: float(s.env[v]) for v in s.env}
    points: list[tuple[str, float]] = []
    if p.inputs:
        points.append(("X", env[p.inputs[0]]))

    for chain, ends in layout(p):
        for arm, dst in zip(chain.arms, ends):
            if all(RELATIONS[c.relop].holds(evaluate(c.lhs, env), evaluate(c.rhs, env))
                   for c in arm.guard or ()):
                for a in arm.body:
                    env[a.target] = evaluate(a.expr, env)
                if dst != "Y":
                    points.append((dst, env[arm.body[-1].target]))
                break

    if p.output not in env:
        raise UnboundVariable(p.output)
    points.append(("Y", env[p.output]))
    return ObservationTrace(points=tuple(points), output=env[p.output])


# --- graph path execution -------------------------------------------------------

def _unknown_opcode(opcode: int) -> Callable[..., float]:
    """The operation of a step whose opcode is outside the alphabet: it
    raises only when reached, so the statements before it still run."""
    def fail(*operands):
        raise ExecutionError(f"unknown opcode {opcode}")
    return fail


def _compiled(rib: Rib) -> tuple[tuple, tuple[str, ...], frozenset[str]]:
    """The compiled form of *rib*: its statements in ordinal order as
    (target, operation, operands, ordinal) steps, the variables it reads
    before it assigns them (in order) and the variables it assigns.  Made
    on first use and kept as an attribute of the rib; a rib that no path
    reads or executes is never compiled."""
    c = getattr(rib, "_compiled", None)
    if c is None:
        steps, reads, assigned = [], {}, set()
        for stmt in sorted(rib.statements, key=lambda st: st.ordinal):
            op = OP_ALPHABET.get(stmt.opcode)
            steps.append((stmt.target, _unknown_opcode(stmt.opcode) if op is None else op.fn,
                          stmt.operands, stmt.ordinal))
            for v in stmt.read_variables():
                if v not in assigned:
                    reads[v] = None
            assigned.add(stmt.target)
        c = (tuple(steps), tuple(reads), frozenset(assigned))
        # set as an attribute: reading rib.__dict__ would give the rib a dict
        # object of its own and slow every later read of its fields
        object.__setattr__(rib, "_compiled", c)
    return c


def _first_reads(ribs: Iterable[tuple]) -> list[str]:
    assigned: set[str] = set()
    first_reads: dict[str, None] = {}
    for _, reads, assigns in ribs:
        for v in reads:
            if v not in assigned:
                first_reads[v] = None
        assigned |= assigns
    return list(first_reads)


def path_reads(p: Path) -> list[str]:
    """The ordered first-reads along a path: variables read before any
    statement on the path assigns them, statements taken in ordinal order
    on each rib.  The first one is taken as the path's input variable.
    """
    return _first_reads(map(_compiled, p.edges))


def execute_path(g: RTGraph, p: Path, s: Stimulus, permissive: bool = False) -> ObservationTrace:
    """Execute each rib's statements in ordinal order along a path.

    Variables read but never assigned on the path must be bound by the
    stimulus; in permissive mode missing ones default to 0.0 with a
    DefaultedVariableWarning naming them.  Each rib's end node observes the
    value its last statement assigns.  A path with no ribs is an
    ExecutionError naming the path, and a rib with no statements one naming
    its fragment.
    """
    if not p.edges:
        raise ExecutionError(f"path {p.label} crosses no rib")
    env: dict[str, float] = {k: float(v) for k, v in s.env.items()}
    ribs = [_compiled(rib) for rib in p.edges]
    first_reads = _first_reads(ribs)
    unbound = [v for v in first_reads if v not in env]
    if unbound:
        if not permissive:
            raise UnboundVariable(unbound)
        for v in unbound:
            env[v] = 0.0
        warnings.warn(f"defaulted free variable(s) to 0.0: {', '.join(unbound)}",
                      DefaultedVariableWarning, stacklevel=2)

    points: list[tuple[str, float]] = []
    if first_reads:
        points.append((p.edges[0].src, env[first_reads[0]]))
    for rib, (steps, _, _) in zip(p.edges, ribs):
        for target, fn, operands, ordinal in steps:
            try:
                env[target] = fn(*[env[o] if isinstance(o, str) else o for o in operands])
            except ExecutionError as err:
                raise err.at(f"fragment {rib.fragment} statement {ordinal}")
        if not steps:
            raise ExecutionError(f"fragment {rib.fragment} carries no statements")
        points.append((rib.dst, env[target]))
    return ObservationTrace(points=tuple(points), output=points[-1][1])


# --- fault injection ------------------------------------------------------------

def inject_fault(g: RTGraph, f: FaultSpec) -> RTGraph:
    """Return a mutant graph differing in exactly one statement.

    Every edge sharing the target fragment carries the mutated sequence, so
    merged fragments stay consistent.  The original graph is untouched.
    """
    try:
        statements = g.statements_of(f.fragment)
    except KeyError:
        raise NoSuchStatement(f"no fragment {f.fragment}") from None
    index = next((i for i, s in enumerate(statements) if s.ordinal == f.ordinal), None)
    if index is None:
        raise NoSuchStatement(f"fragment {f.fragment} has no statement {f.ordinal}")
    old = statements[index]

    if (f.opcode is None) == (f.constant is None):
        raise InvalidMutation("exactly one of opcode or constant must be given")
    if f.opcode is not None:
        opdef = OP_ALPHABET.get(f.opcode)
        if opdef is None:
            raise InvalidMutation(f"opcode {f.opcode} is not registered")
        if opdef.arity != OP_ALPHABET[old.opcode].arity:
            raise ArityMismatch(
                f"opcode {old.opcode} has arity {OP_ALPHABET[old.opcode].arity}, "
                f"{f.opcode} has arity {opdef.arity}")
        if f.opcode == old.opcode:
            raise NoOpMutation("substituted opcode equals the original")
        new = Statement(old.ordinal, f.opcode, old.target, old.operands)
    else:
        if f.operand_index is not None:
            idx = f.operand_index
            if not (0 <= idx < len(old.operands)) or isinstance(old.operands[idx], str):
                raise InvalidMutation(f"operand {idx} is not a constant")
        else:
            idx = next((i for i, o in enumerate(old.operands) if not isinstance(o, str)), None)
            if idx is None:
                raise InvalidMutation("statement has no constant operand")
        if not math.isfinite(f.constant):
            raise InvalidMutation(f"constant {f.constant} is not finite")
        if float(f.constant) == old.operands[idx]:
            raise NoOpMutation("perturbed constant equals the original")
        operands = list(old.operands)
        operands[idx] = float(f.constant)
        new = Statement(old.ordinal, old.opcode, old.target, tuple(operands))

    mutated = statements[:index] + (new,) + statements[index + 1:]
    return g.with_ribs(Rib(r.fragment, r.src, r.dst, mutated) if r.fragment == f.fragment else r
                       for r in g.ribs)


def mutation_catalogue(g: RTGraph) -> list[FaultSpec]:
    """Every single-statement mutation in the standard catalogue.

    Each opcode is swapped for its ``OpCode.swap`` partner: within the
    arity classes {1,3} and {2,4} (sine has no partner); each constant
    operand additionally yields one perturbation by +1, where adding 1
    changes it (not at |c| >= 2**53).
    """
    out: list[FaultSpec] = []
    for fragment in g.fragments:
        for s in g.statements_of(fragment):
            swap = OP_ALPHABET[s.opcode].swap if s.opcode in OP_ALPHABET else None
            if swap is not None:
                out.append(FaultSpec(fragment=fragment, ordinal=s.ordinal, opcode=swap))
            for i, operand in enumerate(s.operands):
                if not isinstance(operand, str) and float(operand) + 1.0 != operand:
                    out.append(FaultSpec(fragment=fragment, ordinal=s.ordinal,
                                         constant=float(operand) + 1.0,
                                         operand_index=i))
    return out


# --- suite execution ------------------------------------------------------------

def _differs(gv: float, mv: float, tolerance: float) -> bool:
    """Relative comparison of finite outputs; a non-finite output differs
    from everything but the same infinity or, for NaN, another NaN."""
    if not (math.isfinite(gv) and math.isfinite(mv)):
        return gv != mv and not (math.isnan(gv) and math.isnan(mv))
    return abs(gv - mv) > tolerance * max(1.0, abs(gv))


def _stimulus_key(stim: Stimulus) -> tuple:
    return tuple(sorted(stim.env.items()))


class Stimuli(Mapping[str, Stimulus]):
    """The stimuli of a suite by term label, laid out as the runs that
    ``run_suite`` walks; it takes only the ``Stimuli`` of its own suite.

    ``records`` holds one record per distinct (rib keys, inputs) pair, at
    its first run in suite order: (first label, stimulus, rib keys, suite
    path, row spans), a span being the (offset, length) of one run's rows.
    ``crossing`` maps each rib key to the records crossing it, in order,
    and ``rows`` is the term count; all are made once, in one pass over
    the runs.  ``run_suite`` keeps the golden ribs by key and outputs of
    its latest (golden graph, permissive flag) pair here, holding the graph
    weakly.  The label index is built on the first read by label.
    """

    def __init__(self, suite: TestSuite, runs: Iterable[Iterable[tuple[str, Stimulus, int]]]):
        """*runs* gives, for each block of *suite* in order, the (first
        label, stimulus, length) of each of its runs."""
        self.suite = suite
        self.records: list[tuple] = []
        self.crossing: dict[tuple, list[int]] = {}
        self._golden: tuple | None = None  # (weak golden graph, permissive, ribs, outputs)
        index: dict[tuple, int] = {}
        start = 0
        for block, block_runs in zip(suite.blocks, runs):
            keys = tuple(r.key for r in block.path.edges)
            for label, stim, n in block_runs:
                pair = (keys, _stimulus_key(stim))
                i = index.get(pair)
                if i is None:
                    i = index[pair] = len(self.records)
                    self.records.append((label, stim, keys, block.path, []))
                    for k in keys:
                        self.crossing.setdefault(k, []).append(i)
                self.records[i][4].append((start, n))
                start += n
        self.rows = start

    def overriding(self, given: Mapping[str, Stimulus]) -> "Stimuli":
        """These stimuli with each term of *given* taking its stimulus;
        KeyError for a label that names no term.  One pass over the terms."""
        if not given:
            return self
        stim_of = dict(self._index)
        for label, stim in given.items():
            if label not in stim_of:
                raise KeyError(label)
            stim_of[label] = stim
        runs = []
        for block in self.suite.blocks:
            same = (list(g) for _, g in groupby(block.labels, lambda label: id(stim_of[label])))
            runs.append([(labels[0], stim_of[labels[0]], len(labels)) for labels in same])
        return Stimuli(self.suite, runs)

    @cached_property
    def _index(self) -> dict[str, Stimulus]:
        by_row: list = [None] * self.rows
        for _, stim, _, _, spans in self.records:
            for start, n in spans:
                by_row[start:start + n] = repeat(stim, n)
        return dict(zip(self.suite.labels(), by_row))

    def __getitem__(self, label: str) -> Stimulus:
        return self._index[label]

    def __iter__(self) -> Iterator[str]:
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)


def _output(g: RTGraph, rib: Mapping[tuple, Rib], record: tuple, permissive: bool) -> float:
    """The output of *record*'s path on *g*, whose ribs by key are *rib*; an
    ExecutionError is prefixed with ``term <label>:`` for the record's first
    term."""
    label, stim, keys, path, _ = record
    try:
        return execute_path(g, Path(path.label, tuple(rib[k] for k in keys)), stim,
                            permissive).output
    except ExecutionError as e:
        e.args = (f"term {label}: {e}",)
        raise


def run_suite(golden: RTGraph, mutant: RTGraph, suite: TestSuite, stimuli: Stimuli,
              tolerance: float = DEFAULT_TOLERANCE, permissive: bool = False) -> ResponseVector:
    """Golden-versus-mutant comparison at the output node, one bit per term.

    *stimuli* is the ``Stimuli`` of *suite*, made by ``default_stimuli`` and
    ``overriding``; anything else is a MissingStimulus.  A suite path names
    its ribs by key, and each side runs its own graph's ribs of those keys;
    the two graphs must share rib keys and node roles, and the golden graph
    must have every rib a suite path crosses (GraphMismatch).

    Cost: *stimuli* keeps the golden output of each of its records for the
    latest *golden* graph and *permissive* flag.  Computing them executes
    each record once on the golden side; every call executes the mutant
    only on the records whose path crosses a rib whose statements differ
    from the golden one.  Any other record runs the golden statements, so
    its bits are 0, and a warm call costs what the changed ribs touch, not
    the suite.

    An ExecutionError is that of the first failing record in suite order,
    the golden side before the mutant, and names the record's first term
    as ``term <label>:``.  Raises InvalidTolerance unless *tolerance* is
    finite and non-negative.
    """
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise InvalidTolerance(f"tolerance needs a finite non-negative number, got {tolerance}")
    if not (isinstance(stimuli, Stimuli) and stimuli.suite == suite):
        raise MissingStimulus("the stimuli are not the Stimuli of this suite")
    kept = stimuli._golden
    warm = kept is not None and kept[0]() is golden and kept[1] == permissive
    golden_rib = kept[2] if warm else {r.key: r for r in golden.ribs}
    mutant_rib = {r.key: r for r in mutant.ribs}
    if golden_rib.keys() != mutant_rib.keys() or mutant.nodes is not golden.nodes and \
            {(n.name, n.role) for n in golden.nodes} != {(n.name, n.role) for n in mutant.nodes}:
        raise GraphMismatch("golden and mutant graphs differ in topology")
    if warm:
        known = kept[3]
    else:
        for block in suite.blocks:
            missing = next((r.key for r in block.path.edges if r.key not in golden_rib), None)
            if missing is not None:
                raise GraphMismatch(f"path {block.path.label} crosses rib {missing}, "
                                    "which the golden graph lacks")
        outputs: list[float] = []
        try:  # the outputs before the first golden record that raises
            for record in stimuli.records:
                outputs.append(_output(golden, golden_rib, record, permissive))
        except ExecutionError:
            pass
        known = tuple(outputs)
        stimuli._golden = (weakref.ref(golden), permissive, golden_rib, known)
    records = stimuli.records
    crossed = {i for k, r in mutant_rib.items()
               if r is not golden_rib[k] and r.statements != golden_rib[k].statements
               for i in stimuli.crossing.get(k, ()) if i < len(known)}
    bits = [0] * stimuli.rows
    for i in sorted(crossed):
        if _differs(known[i], _output(mutant, mutant_rib, records[i], permissive), tolerance):
            for start, n in records[i][4]:
                bits[start:start + n] = repeat(1, n)
    if len(known) < len(records):
        _output(golden, golden_rib, records[len(known)], permissive)  # raises again
    return ResponseVector(tuple(bits))


# --- stimulus selection -----------------------------------------------------------

def pick_stimulus(p: Path,
                  guards: Sequence[Mapping[str, IntervalSet]] | None = None) -> Stimulus:
    """Choose input values exercising a path.

    With guard regions (from a SourceMap) the regions along the path are
    met per variable and each gives its ``pick``, a finite point of it; a
    region with none raises InfeasiblePath naming the variable.  Without
    guards the input variable gets 1.0; free variables always default to 0.0.
    """
    first_reads = path_reads(p)
    env: dict[str, float] = {}
    for var, region in meet(guards or ()).items():
        try:
            env[var] = region.pick()
        except ValueError:
            raise InfeasiblePath(
                f"path {p.label}: constraints on {var} have no solution") from None
    for i, var in enumerate(first_reads):
        if var not in env:
            env[var] = 1.0 if i == 0 else 0.0
    return Stimulus(env=env)


def default_stimuli(g: RTGraph, suite: TestSuite) -> Stimuli:
    """Guard-oblivious stimuli for every term: input 1.0, free variables 0.0.

    A term's stimulus depends only on its path: one is picked per run of
    consecutive blocks on one path and shared by their terms, so each block
    is one run.  *g* is not read."""
    runs = []
    path = stim = None
    for block in suite.blocks:
        if block.path is not path:
            path, stim = block.path, pick_stimulus(block.path)
        labels = block.labels
        runs.append(((labels[0], stim, len(labels)),) if labels else ())
    return Stimuli(suite, runs)
