"""Execution of programs and graph paths, fault injection, response vectors.

A response vector is produced by running the same stimuli through a golden
graph and a mutant graph and comparing the value observed at the output
node, one bit per test term (1 = the outputs differ beyond tolerance).
Path execution is guard-oblivious: a term's path is executed as written,
which also allows paths that the concrete program can never take.  A term's
selection therefore never changes its output, so each bit is computed once
per distinct (path, inputs) pair and shared by every term with that pair.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

from . import frontend
from .errors import (ArityMismatch, DivisionByZero, ExecutionError, GraphMismatch,
                     InfeasiblePath, InvalidMutation, MissingStimulus, NonFiniteValue,
                     NoOpMutation, NoSuchStatement, UnboundVariable)
from .fdt import ResponseVector
from .frontend import Assignment, Guard, Program, SourceMap
from .intervals import IntervalSet
from .rtg import OP_ALPHABET, RTGraph
from .testsynth import Path, TestSuite

DEFAULT_TOLERANCE = 1e-9


class DefaultedVariableWarning(UserWarning):
    """Raised (as a warning) when permissive execution defaults free variables."""


@dataclass(frozen=True, slots=True)
class Stimulus:
    """Input bindings for one execution."""

    env: Mapping[str, float]
    label: str = ""


@dataclass(frozen=True, slots=True)
class ObservationTrace:
    """Values observed at each monitoring point along one execution."""

    points: tuple[tuple[str, float], ...]
    output: float
    defaulted: tuple[str, ...] = ()

    def value_at(self, node: str) -> float:
        for name, value in self.points:
            if name == node:
                return value
        raise KeyError(node)

    def as_dict(self) -> dict[str, float]:
        return dict(self.points)


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


def _sin(x: float, where: str) -> float:
    # math.sin raises a bare ValueError on inf and passes NaN through; both
    # mean an earlier overflow, reported as a typed failure instead.
    if not math.isfinite(x):
        raise NonFiniteValue(f"sin of non-finite value {x} in {where}")
    return math.sin(x)


def _apply_op(opcode: int, values: Sequence[float], where: str) -> float:
    if opcode == 1:
        return values[0] + values[1]
    if opcode == 2:
        return values[0] * values[1]
    if opcode == 3:
        return values[0] - values[1]
    if opcode == 4:
        if values[1] == 0.0:
            raise DivisionByZero(f"division by zero in {where}")
        return values[0] / values[1]
    if opcode == 5:
        return _sin(values[0], where)
    raise ExecutionError(f"unknown opcode {opcode} in {where}")


# --- program execution --------------------------------------------------------

def _eval_expr(e: frontend.Expr, env: Mapping[str, float]) -> float:
    if isinstance(e, frontend.Num):
        return e.value
    if isinstance(e, frontend.Var):
        if e.name not in env:
            raise UnboundVariable(e.name)
        return env[e.name]
    if isinstance(e, frontend.Neg):
        return -_eval_expr(e.operand, env)
    if isinstance(e, frontend.Sin):
        return _sin(_eval_expr(e.operand, env), f"line {e.line}")
    if isinstance(e, frontend.BinOp):
        a = _eval_expr(e.lhs, env)
        b = _eval_expr(e.rhs, env)
        if e.op == "/" and b == 0.0:
            raise DivisionByZero(f"division by zero at line {e.line}")
        return {"+": a + b, "-": a - b, "*": a * b, "/": a / b if b else 0.0}[e.op]
    raise ExecutionError(f"cannot evaluate {type(e).__name__}")


def _guard_holds(guard: Guard | None, env: Mapping[str, float]) -> bool:
    if guard is None:
        return True
    ops = {"<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
           ">": lambda a, b: a > b, ">=": lambda a, b: a >= b}
    return all(ops[c.relop](_eval_expr(c.lhs, env), _eval_expr(c.rhs, env))
               for c in guard.comparisons)


def execute_program(p: Program, s: Stimulus) -> ObservationTrace:
    """Big-step evaluation of a program; guards are evaluated as written.

    The trace records the input node X, each executed if-chain arm's end
    node (value of the arm's final assignment), and the output node Y with
    the output variable's value.  Node names match the lowered graph.
    """
    missing = [v for v in p.inputs if v not in s.env]
    if missing:
        raise UnboundVariable(missing)
    env: dict[str, float] = {v: float(s.env[v]) for v in s.env}
    points: list[tuple[str, float]] = []
    if p.inputs:
        points.append(("X", env[p.inputs[0]]))

    for ev in frontend.layout(p):
        if ev[0] == "segment":
            _, assignments, dst = ev
            for a in assignments:
                env[a.target] = _eval_expr(a.expr, env)
            if dst != "Y":
                points.append((dst, env[assignments[-1].target]))
        else:
            _, chain, dsts = ev
            for arm, dst in zip(chain.arms, dsts):
                if _guard_holds(arm.guard, env):
                    for a in arm.body:
                        env[a.target] = _eval_expr(a.expr, env)
                    if dst != "Y":
                        points.append((dst, env[arm.body[-1].target]))
                    break

    if p.output not in env:
        raise UnboundVariable(p.output)
    points.append(("Y", env[p.output]))
    return ObservationTrace(points=tuple(points), output=env[p.output])


# --- graph path execution -------------------------------------------------------

def path_reads(p: Path) -> tuple[list[str], list[str]]:
    """(ordered first-reads, assignment targets) along a path.

    First-reads are variables read before any statement on the path assigns
    them; the first one is taken as the path's input variable.
    """
    assigned: set[str] = set()
    first_reads: list[str] = []
    for rib in p.edges:
        for stmt in rib.statements:
            for v in stmt.read_variables():
                if v not in assigned and v not in first_reads:
                    first_reads.append(v)
            assigned.add(stmt.target)
    return first_reads, sorted(assigned)


def execute_path(g: RTGraph, p: Path, s: Stimulus, permissive: bool = False) -> ObservationTrace:
    """Execute each rib's statements in order along a path.

    Variables read but never assigned on the path must be bound by the
    stimulus; in permissive mode missing ones default to 0.0 with a
    DefaultedVariableWarning naming them.
    """
    env: dict[str, float] = {k: float(v) for k, v in s.env.items()}
    first_reads, _ = path_reads(p)
    unbound = [v for v in first_reads if v not in env]
    defaulted: tuple[str, ...] = ()
    if unbound:
        if not permissive:
            raise UnboundVariable(unbound)
        defaulted = tuple(unbound)
        for v in unbound:
            env[v] = 0.0
        warnings.warn(f"defaulted free variable(s) to 0.0: {', '.join(unbound)}",
                      DefaultedVariableWarning, stacklevel=2)

    points: list[tuple[str, float]] = []
    if first_reads:
        points.append((p.edges[0].src, env[first_reads[0]]))
    value = math.nan
    for rib in p.edges:
        for stmt in sorted(rib.statements, key=lambda st: st.ordinal):
            operands = [env[o] if isinstance(o, str) else o for o in stmt.operands]
            value = _apply_op(stmt.opcode, operands,
                              f"fragment {rib.fragment} statement {stmt.ordinal}")
            env[stmt.target] = value
        points.append((rib.dst, env[rib.statements[-1].target]))
    return ObservationTrace(points=tuple(points), output=points[-1][1], defaulted=defaulted)


# --- fault injection ------------------------------------------------------------

def inject_fault(g: RTGraph, f: FaultSpec) -> RTGraph:
    """Return a mutant graph differing in exactly one statement.

    Every edge sharing the target fragment carries the mutated sequence, so
    merged fragments stay consistent.  The original graph is untouched.
    """
    target_ribs = [r for r in g.ribs if r.fragment == f.fragment]
    if not target_ribs:
        raise NoSuchStatement(f"no fragment {f.fragment}")
    statements = target_ribs[0].statements
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
        new = replace(old, opcode=f.opcode)
    else:
        if f.operand_index is not None:
            idx = f.operand_index
            if not (0 <= idx < len(old.operands)) or isinstance(old.operands[idx], str):
                raise InvalidMutation(f"operand {idx} is not a constant")
        else:
            idx = next((i for i, o in enumerate(old.operands) if not isinstance(o, str)), None)
            if idx is None:
                raise InvalidMutation("statement has no constant operand")
        if float(f.constant) == old.operands[idx]:
            raise NoOpMutation("perturbed constant equals the original")
        operands = list(old.operands)
        operands[idx] = float(f.constant)
        new = replace(old, operands=tuple(operands))

    mutated = statements[:index] + (new,) + statements[index + 1:]
    return g.with_ribs(replace(r, statements=mutated) if r.fragment == f.fragment else r
                       for r in g.ribs)


#: Arity-preserving opcode substitutions in the standard catalogue.
OPCODE_SWAPS = {1: 3, 3: 1, 2: 4, 4: 2}


def mutation_catalogue(g: RTGraph, constant_delta: float = 1.0) -> list[FaultSpec]:
    """Every single-statement mutation in the standard catalogue.

    Opcode substitutions stay within the arity classes {1,3} and {2,4}
    (sine has no partner); each constant operand additionally yields one
    perturbation by *constant_delta*.
    """
    out: list[FaultSpec] = []
    for fragment in g.fragments:
        for s in g.statements_of(fragment):
            if s.opcode in OPCODE_SWAPS:
                out.append(FaultSpec(fragment=fragment, ordinal=s.ordinal,
                                     opcode=OPCODE_SWAPS[s.opcode]))
            for i, operand in enumerate(s.operands):
                if not isinstance(operand, str):
                    out.append(FaultSpec(fragment=fragment, ordinal=s.ordinal,
                                         constant=float(operand) + constant_delta,
                                         operand_index=i))
    return out


# --- suite execution ------------------------------------------------------------

def _check_topology(golden: RTGraph, mutant: RTGraph) -> None:
    if {(n.name, n.role) for n in golden.nodes} != {(n.name, n.role) for n in mutant.nodes} \
            or {r.key for r in golden.ribs} != {r.key for r in mutant.ribs}:
        raise GraphMismatch("golden and mutant graphs differ in topology")


def _differs(gv: float, mv: float, tolerance: float) -> bool:
    if math.isnan(gv) or math.isnan(mv):
        return math.isnan(gv) != math.isnan(mv)
    return abs(gv - mv) > tolerance * max(1.0, abs(gv))


def _run_items(golden: RTGraph, mutant: RTGraph, items: Sequence[tuple[str, Path]],
               stimuli: Mapping[str, Stimulus], tolerance: float,
               permissive: bool) -> ResponseVector:
    """One bit per item; golden and mutant run once per distinct (path,
    inputs) pair, and later items with the same pair reuse its bit."""
    _check_topology(golden, mutant)
    mutant_rib = {r.key: r for r in mutant.ribs}
    seen: dict[tuple, int] = {}
    bits = []
    for label, path in items:
        stim = stimuli.get(label)
        if stim is None:
            raise MissingStimulus(f"no stimulus for {label}")
        keys = tuple(r.key for r in path.edges)
        pair = (keys, tuple(sorted(stim.env.items())))
        bit = seen.get(pair)
        if bit is None:
            mpath = Path(label=path.label, edges=tuple(mutant_rib[k] for k in keys))
            try:
                gv = execute_path(golden, path, stim, permissive).output
                mv = execute_path(mutant, mpath, stim, permissive).output
            except ExecutionError as e:
                e.args = (f"term {label}: {e}",)
                raise
            bit = seen[pair] = 1 if _differs(gv, mv, tolerance) else 0
        bits.append(bit)
    return ResponseVector(tuple(bits))


def run_suite(golden: RTGraph, mutant: RTGraph, suite: TestSuite,
              stimuli: Mapping[str, Stimulus], tolerance: float = DEFAULT_TOLERANCE,
              permissive: bool = False) -> ResponseVector:
    """Golden-versus-mutant comparison at the output node, one bit per term.

    The bit is computed once per distinct (path, inputs) pair: terms of one
    path that share a stimulus share the path's bit, while terms given
    different inputs are run separately.
    """
    return _run_items(golden, mutant, [(t.label, t.path) for t in suite.terms],
                      stimuli, tolerance, permissive)


def run_paths(golden: RTGraph, mutant: RTGraph, paths: Sequence[Path],
              stimuli: Mapping[str, Stimulus], tolerance: float = DEFAULT_TOLERANCE,
              permissive: bool = False) -> ResponseVector:
    """Like run_suite, but one bit per path (for the generalized table)."""
    return _run_items(golden, mutant, [(p.label, p) for p in paths],
                      stimuli, tolerance, permissive)


# --- stimulus selection -----------------------------------------------------------

def pick_stimulus(g: RTGraph, p: Path,
                  guards: Sequence[Mapping[str, IntervalSet]] | None = None) -> Stimulus:
    """Choose input values exercising a path.

    With guard regions (from a SourceMap) the per-variable regions along the
    path are intersected and a representative point is taken: the midpoint
    of a bounded interval, bound plus or minus one toward an unbounded side.
    An empty intersection raises InfeasiblePath.  Without guards the input
    variable gets 1.0; free variables always default to 0.0.
    """
    first_reads, _ = path_reads(p)
    env: dict[str, float] = {}
    combined: dict[str, IntervalSet] = {}
    for regions in guards or ():
        for var, region in regions.items():
            combined[var] = combined.get(var, IntervalSet.full()).intersect(region)
    for var, region in combined.items():
        if region.is_empty():
            raise InfeasiblePath(
                f"path {p.label}: constraints on {var} have no solution")
        env[var] = region.pick()
    for i, var in enumerate(first_reads):
        if var not in env:
            env[var] = 1.0 if i == 0 else 0.0
    return Stimulus(env=env, label=p.label)


def _per_path(suite: TestSuite, pick: Callable[[Path], Stimulus]) -> dict[str, Stimulus]:
    # A term's stimulus depends only on its path: pick once per run of
    # consecutive terms on one path and share the object across them.
    out: dict[str, Stimulus] = {}
    for path, terms in itertools.groupby(suite.terms, key=lambda t: t.path):
        stim = pick(path)
        for t in terms:
            out[t.label] = stim
    return out


def default_stimuli(g: RTGraph, suite: TestSuite) -> dict[str, Stimulus]:
    """Guard-oblivious stimuli for every term: input 1.0, free variables 0.0."""
    return _per_path(suite, lambda p: pick_stimulus(g, p))


def default_path_stimuli(g: RTGraph, paths: Sequence[Path]) -> dict[str, Stimulus]:
    return {p.label: pick_stimulus(g, p) for p in paths}


def guard_aware_stimuli(g: RTGraph, suite: TestSuite, smap: SourceMap) -> dict[str, Stimulus]:
    """Stimuli satisfying each term's path constraints where those are known."""
    return _per_path(suite, lambda p: pick_stimulus(g, p, smap.path_constraints(p.fragments)))


def supported_assignments(p: Program) -> list[Assignment]:
    """Flat view of every assignment in a program, arms included."""
    out: list[Assignment] = []
    for item in p.body:
        if isinstance(item, Assignment):
            out.append(item)
        else:
            for arm in item.arms:
                out.extend(arm.body)
    return out
