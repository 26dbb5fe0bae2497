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
per rib rather than one per statement read.  A rib that fault injection
changes takes the golden rib's form with the mutated step replaced.

A suite's stimuli are its run layout (``Stimuli``, made by
``default_stimuli`` and ``overriding``): one default stimulus per path,
shared by the path's blocks, plus per-term overrides such as a stimuli file
gives.  A block is one run unless overrides split it into runs of
consecutive terms sharing a stimulus object, and each distinct (path,
inputs) pair is one record, with its rows and the rib keys it crosses.

Per mutant, only what the mutant changes is executed, in the manner of
concurrent fault simulation (Ulrich & Baker 1973).  A mutant executes only
the records whose path crosses a rib whose statements differ from the
golden one, and each such record starts at its first changed rib, from the
golden environment there, as split-stream mutation analysis forks at the
mutated statement (Tokumoto et al. 2016).  A cold call walks the records in
order, both sides in turn, and each side keeps one stack of environments,
those of its last record: a record resumes at the deepest rib up to which
it shares that record's inputs and rib keys, so consecutive records share
their path prefix's runs, as the paths of a path tree do.  The ``Stimuli``
then keeps the golden output of each record for that golden graph and
permissive flag.  A warm call runs no golden rib: the ``Stimuli`` keeps the
golden environment a mutant starts from, built by one golden run of its
record the first time a mutant starts in it.  So a mutant's cost is in what
it touches, not in the suite.  ``execute_path`` runs a path from its input:
it is the route of a changed rib that reads or assigns other variables, and
the one the walk and the warm route are checked against.
"""

from __future__ import annotations

import math
import sys
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


def _step(stmt: Statement) -> tuple:
    op = OP_ALPHABET.get(stmt.opcode)
    return (stmt.target, _unknown_opcode(stmt.opcode) if op is None else op.fn,
            stmt.operands, stmt.ordinal)


def _keep(rib: Rib, c: tuple) -> tuple:
    # set as an attribute: reading rib.__dict__ would give the rib a dict
    # object of its own and slow every later read of its fields
    object.__setattr__(rib, "_compiled", c)
    return c


def _compiled(rib: Rib) -> tuple[tuple, tuple[str, ...], frozenset[str]]:
    """The compiled form of *rib*: its statements in ordinal order as
    (target, operation, operands, ordinal) steps, the variables it reads
    before it assigns them (in order) and the variables it assigns.  Made
    on first use, or by ``inject_fault``, and kept as an attribute of the
    rib; a rib that no path reads or executes is never compiled."""
    c = getattr(rib, "_compiled", None)
    if c is None:
        steps, reads, assigned = [], {}, set()
        for stmt in sorted(rib.statements, key=lambda st: st.ordinal):
            steps.append(_step(stmt))
            for v in stmt.read_variables():
                if v not in assigned:
                    reads[v] = None
            assigned.add(stmt.target)
        c = _keep(rib, (tuple(steps), tuple(reads), frozenset(assigned)))
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


def _bind(forms: Sequence[tuple], s: Stimulus,
          permissive: bool) -> tuple[dict[str, float], list[str], list[str]]:
    """The environment a run of ribs compiled as *forms* starts from on *s*,
    the ribs' first reads and those of them *s* leaves unbound, which are
    defaulted to 0.0 when *permissive* and an UnboundVariable otherwise."""
    env = {k: float(v) for k, v in s.env.items()}
    first_reads = _first_reads(forms)
    unbound = [v for v in first_reads if v not in env]
    if unbound:
        if not permissive:
            raise UnboundVariable(unbound)
        for v in unbound:
            env[v] = 0.0
    return env, first_reads, unbound


def _warn_defaulted(unbound: Sequence[str]) -> None:
    """Warn of the free variables a run defaulted, at the first caller
    outside this module: the caller of ``execute_path`` or ``run_suite``."""
    frame, level = sys._getframe(1), 2
    while frame.f_back is not None and frame.f_globals is globals():
        frame, level = frame.f_back, level + 1
    warnings.warn(f"defaulted free variable(s) to 0.0: {', '.join(unbound)}",
                  DefaultedVariableWarning, stacklevel=level)


def _run(ribs: Iterable[Rib], forms: Iterable[tuple], env: dict[str, float],
         states: list[dict[str, float]] | None = None, keep: int = 0) -> list[tuple[str, float]]:
    """Run *ribs*, compiled as *forms*, in turn on *env*, in place; the
    (end node, value its last step assigns) of each rib.  A copy of *env*
    after each of the first *keep* ribs is appended to *states*.  An
    ExecutionError names the fragment and ordinal of its step, and a rib
    with no statements is one naming its fragment."""
    points = []
    for rib, (steps, _, _) in zip(ribs, forms):
        for target, fn, operands, ordinal in steps:
            try:
                env[target] = fn(*[env[o] if isinstance(o, str) else o for o in operands])
            except ExecutionError as err:
                raise err.at(f"fragment {rib.fragment} statement {ordinal}")
        if not steps:
            raise ExecutionError(f"fragment {rib.fragment} carries no statements")
        points.append((rib.dst, env[target]))
        if keep > 0:
            keep -= 1
            states.append(dict(env))
    return points


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
    forms = [_compiled(rib) for rib in p.edges]
    env, first_reads, unbound = _bind(forms, s, permissive)
    if unbound:
        _warn_defaulted(unbound)
    points = [(p.edges[0].src, env[first_reads[0]])] if first_reads else []
    points += _run(p.edges, forms, env)
    return ObservationTrace(points=tuple(points), output=points[-1][1])


# --- fault injection ------------------------------------------------------------

def inject_fault(g: RTGraph, f: FaultSpec) -> RTGraph:
    """Return a mutant graph differing in exactly one statement.

    Every edge sharing the target fragment carries the mutated sequence, so
    the copies of a fragment stay consistent; a fragment whose ribs differ in
    statements is an InvalidMutation, as is an opcode substitution given an
    operand index or on a statement whose opcode is not registered.  The
    original graph is untouched.

    Cost: each mutant rib is compiled by substitution.  It takes the golden
    rib's compiled form with the mutated step replaced, and its reads and
    assigns as they are, since neither an opcode substitution of equal
    arity nor a constant perturbation changes them; so a mutant compiles
    nothing, and every other rib is the golden rib itself.
    """
    try:
        statements = g.statements_of(f.fragment)
    except KeyError:
        raise NoSuchStatement(f"no fragment {f.fragment}") from None
    if any(r.statements != statements for r in g.fragment_ribs(f.fragment)):
        raise InvalidMutation(f"ribs sharing fragment {f.fragment} differ in statements")
    index = next((i for i, s in enumerate(statements) if s.ordinal == f.ordinal), None)
    if index is None:
        raise NoSuchStatement(f"fragment {f.fragment} has no statement {f.ordinal}")
    old = statements[index]

    if (f.opcode is None) == (f.constant is None):
        raise InvalidMutation("exactly one of opcode or constant must be given")
    if f.opcode is not None:
        if f.operand_index is not None:
            raise InvalidMutation(f"an opcode fault takes no operand index, got {f.operand_index}")
        opdef = OP_ALPHABET.get(f.opcode)
        if opdef is None:
            raise InvalidMutation(f"opcode {f.opcode} is not registered")
        olddef = OP_ALPHABET.get(old.opcode)
        if olddef is None:
            raise InvalidMutation(f"fragment {f.fragment} statement {f.ordinal} has opcode "
                                  f"{old.opcode}, which is not registered")
        if opdef.arity != olddef.arity:
            raise ArityMismatch(
                f"opcode {old.opcode} has arity {olddef.arity}, "
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
    step = _step(new)
    ribs = []
    for r in g.ribs:
        if r.fragment == f.fragment:
            # the stable sort by ordinal puts the mutated statement first
            # among the steps of its ordinal
            steps, reads, assigns = _compiled(r)
            at = next(i for i, s in enumerate(steps) if s[3] == f.ordinal)
            rib = Rib(r.fragment, r.src, r.dst, mutated)
            _keep(rib, (steps[:at] + (step,) + steps[at + 1:], reads, assigns))
            r = rib
        ribs.append(r)
    return g.with_ribs(ribs)


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
    the runs.  ``run_suite`` keeps here, for its latest (golden graph,
    permissive flag) pair, the golden ribs by key, the golden outputs and
    the golden environments of the records a warm mutant started in,
    holding the graph weakly.  The label index is built on the first read
    by label.
    """

    def __init__(self, suite: TestSuite, runs: Iterable[Iterable[tuple[str, Stimulus, int]]]):
        """*runs* gives, for each block of *suite* in order, the (first
        label, stimulus, length) of each of its runs."""
        self.suite = suite
        self.records: list[tuple] = []
        self.crossing: dict[tuple, list[int]] = {}
        # (weak golden graph, permissive, ribs, outputs, environments)
        self._golden: tuple | None = None
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
    """The output of *record*'s path on *g*, whose ribs by key are *rib*."""
    _, stim, keys, path, _ = record
    return execute_path(g, Path(path.label, tuple(rib[k] for k in keys)), stim,
                        permissive).output


def _golden_states(rib: Mapping[tuple, Rib], record: tuple,
                   permissive: bool) -> tuple[list[str], list[dict[str, float]]]:
    """The free variables *record*'s run defaults, and its environment at
    the source of each rib of its path, by one run of the ribs *rib* gives
    by key; the last rib is not run."""
    _, stim, keys, _, _ = record
    ribs = [rib[k] for k in keys]
    forms = [_compiled(r) for r in ribs]
    env, _, unbound = _bind(forms, stim, permissive)
    states = [dict(env)]
    _run(ribs[:-1], forms, env, states, len(ribs) - 1)
    return unbound, states


def _shared(a: tuple, b: tuple) -> int:
    """The rib position at which a run of record *b* may resume from the
    environments of a run of record *a*: the length of the rib-key prefix
    they share, short of the last rib of either, if their stimuli bind
    equal inputs, and -1 if not."""
    if a[1] is not b[1] and a[1].env != b[1].env:
        return -1
    keys, other = a[2], b[2]
    n, end = 0, min(len(keys), len(other)) - 1
    while n < end and keys[n] == other[n]:
        n += 1
    return n


def _walk(golden_rib: Mapping[tuple, Rib], mutant: RTGraph, mutant_rib: Mapping[tuple, Rib],
          records: Sequence[tuple], start: Mapping[int, int], whole: set[int],
          permissive: bool, tolerance: float,
          bits: list[int]) -> tuple[list[float], tuple[int, ExecutionError] | None]:
    """The cold run of *records*: each in turn on the golden side, then on
    the mutant side if it is in *whole*, through ``execute_path``, or in
    *start*, from the golden environment at the rib position *start* gives.
    Sets the *bits* of each record whose outputs differ.  Returns the golden
    outputs before the first golden error and the (index, error) of the
    first failing record, golden before mutant, or None.  After a mutant
    error only the golden side runs, and no run warns.

    Each side keeps one stack: its environment before each rib of the last
    record it ran, as deep as the next record it runs shares that record's
    inputs and rib keys (and, on the golden side, as deep as the mutant
    starts on the record).  A record resumes at the deepest such rib, so
    each (inputs, rib prefix) that consecutive records share runs once per
    side."""
    outputs: list[float] = []
    failed = None
    golden_stack: list[dict[str, float]] = []
    mutant_stack: list[dict[str, float]] = []
    forks = [i for i in sorted(start) if i not in whole]  # the records the mutant forks
    forked = 0  # of them, those run so far
    resume = -1  # where this record resumes from the golden stack
    mutant_resume = -1  # where the next forked record may resume from the mutant stack
    for i, record in enumerate(records):
        stim, keys = record[1], record[2]
        fork = start.get(i, -1) if failed is None and i not in whole else -1
        ahead = _shared(record, records[i + 1]) if i + 1 < len(records) else -1
        try:
            if not keys:  # execute_path raises, naming the path
                execute_path(mutant, record[3], stim, permissive)
            ribs = [golden_rib[k] for k in keys]
            forms = [_compiled(r) for r in ribs]
            env, _, unbound = _bind(forms, stim, permissive)
            if unbound and failed is None:
                _warn_defaulted(unbound)
            keep = max(ahead, fork)
            if resume < 0:
                golden_stack.clear()
                if keep >= 0:
                    golden_stack.append(dict(env))
                resume = 0
            else:
                del golden_stack[resume + 1:]
                env.update(golden_stack[resume])
            out = _run(ribs[resume:], forms[resume:], env, golden_stack, keep - resume)[-1][1]
        except ExecutionError as e:
            return outputs, failed or (i, e)
        outputs.append(out)
        resume = ahead
        if failed is not None:
            continue
        try:
            if i in whole:
                out_m = _output(mutant, mutant_rib, record, permissive)
            elif fork >= 0:
                if unbound:
                    _warn_defaulted(unbound)
                if mutant_resume > fork:
                    del mutant_stack[mutant_resume + 1:]
                    at, state = mutant_resume, mutant_stack[mutant_resume]
                else:
                    mutant_stack[:] = golden_stack[:fork + 1]
                    at, state = fork, golden_stack[fork]
                env = dict.fromkeys(unbound, 0.0)
                env.update(state)
                forked += 1
                mutant_resume = _shared(record, records[forks[forked]]) \
                    if forked < len(forks) else -1
                ribs = [mutant_rib[k] for k in keys[at:]]
                forms = [_compiled(r) for r in ribs]
                out_m = _run(ribs, forms, env, mutant_stack, mutant_resume - at)[-1][1]
            else:
                continue
        except ExecutionError as e:
            failed = (i, e)
            continue
        if _differs(out, out_m, tolerance):
            for offset, n in record[4]:
                bits[offset:offset + n] = repeat(1, n)
    return outputs, failed


def run_suite(golden: RTGraph, mutant: RTGraph, suite: TestSuite, stimuli: Stimuli,
              tolerance: float = DEFAULT_TOLERANCE, permissive: bool = False) -> ResponseVector:
    """Golden-versus-mutant comparison at the output node, one bit per term.

    *stimuli* is the ``Stimuli`` of *suite*, made by ``default_stimuli`` and
    ``overriding``; anything else is a MissingStimulus.  A suite path names
    its ribs by key, and each side runs its own graph's ribs of those keys;
    the two graphs must share rib keys and node roles, and the golden graph
    must have every rib a suite path crosses (GraphMismatch).

    The mutant runs only the records whose path crosses a rib whose
    statements differ from the golden one; any other record runs the golden
    statements, so its bits are 0.  Such a record starts at its first
    changed rib, from the golden environment there, and runs only the ribs
    from there to the end of its path.  A record whose changed rib reads or
    assigns other variables than the golden one, as a hand-built mutant
    may, runs its whole path instead.

    Cost: a cold call, one that does not find *stimuli* keeping the golden
    outputs for *golden* and *permissive*, walks the records in order and
    runs each on both sides in turn.  Each side keeps one stack of
    environments, those of its last record, and a record resumes at the
    deepest rib up to which it shares that record's inputs and rib keys;
    so on records in path-enumeration order each distinct (inputs, rib
    prefix) runs once per side, and memory is one path's environments per
    side.  The call keeps the golden outputs in *stimuli*.  A warm call, one
    that finds them kept, runs no golden rib: it starts each mutant record
    on a copy of the golden environment at its first changed rib, which
    *stimuli* keeps too, built by one golden run of a record the first time
    a mutant starts in it.  So a warm call costs what the changed ribs
    touch, not the suite.

    An ExecutionError is that of the first failing record in suite order,
    the golden side before the mutant, and names the record's first term
    as ``term <label>:``.  A DefaultedVariableWarning is raised at the
    caller for each record run that defaults free variables, up to the
    first failing record.  Raises InvalidTolerance unless *tolerance* is
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
    records = stimuli.records
    if warm:
        known, states = kept[3], kept[4]
    else:
        for block in suite.blocks:
            missing = next((r.key for r in block.path.edges if r.key not in golden_rib), None)
            if missing is not None:
                raise GraphMismatch(f"path {block.path.label} crosses rib {missing}, "
                                    "which the golden graph lacks")
    # a warm call whose kept golden run raised runs the records before the
    # error, each whole, and then the failing record again
    limit = len(known) if warm else len(records)
    split = limit == len(records)
    start: dict[int, int] = {}  # record -> position of its first changed rib
    whole: set[int] = set()  # records that run their whole path
    for k, r in mutant_rib.items():
        g = golden_rib[k]
        if r is g or r.statements == g.statements:
            continue
        same = split and _compiled(r)[1:] == _compiled(g)[1:]
        for i in stimuli.crossing.get(k, ()):
            if i >= limit:
                break
            if same:
                pos = records[i][2].index(k)
                start[i] = min(pos, start.get(i, pos))
            else:
                whole.add(i)
    bits = [0] * stimuli.rows
    i = None
    try:
        if not warm:
            outputs, failed = _walk(golden_rib, mutant, mutant_rib, records, start, whole,
                                    permissive, tolerance, bits)
            stimuli._golden = (weakref.ref(golden), permissive, golden_rib, tuple(outputs), {})
            if failed is not None:
                i, error = failed
                raise error
            return ResponseVector(tuple(bits))
        for i in sorted(start.keys() | whole):
            record = records[i]
            if i in whole:
                out = _output(mutant, mutant_rib, record, permissive)
            else:
                state = states.get(i)
                if state is None:
                    state = states[i] = _golden_states(golden_rib, record, permissive)
                defaulted, envs = state
                if defaulted:
                    _warn_defaulted(defaulted)
                pos = start[i]
                ribs = [mutant_rib[k] for k in record[2][pos:]]
                out = _run(ribs, map(_compiled, ribs), dict(envs[pos]))[-1][1]
            if _differs(known[i], out, tolerance):
                for offset, n in record[4]:
                    bits[offset:offset + n] = repeat(1, n)
        if len(known) < len(records):
            i = len(known)
            _output(golden, golden_rib, records[i], permissive)  # raises again
    except ExecutionError as e:
        e.args = (f"term {records[i][0]}: {e}",)
        raise
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
