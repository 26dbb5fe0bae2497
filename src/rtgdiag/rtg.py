"""Register-transfer graph model: opcode alphabet, statements, ribs, graphs.

A program under test is modelled as a directed acyclic graph whose nodes are
observation points (places where a variable's value can be monitored) and
whose edges, called ribs, carry ordered sequences of three-address
statements.  A rib is identified by a fragment id such as "I5"; several
parallel edges may share one fragment when they correspond to the same piece
of source code, in which case they carry identical statement sequences.

Everything here is an immutable value; operations return new graphs.
"""

from __future__ import annotations

import json
import math
import operator
import re
from dataclasses import dataclass
from functools import cached_property, partial
from heapq import heapify, heappop, heappush
from itertools import chain, count
from typing import Callable, Iterable, NamedTuple, Union

from .errors import CyclicGraph, DivisionByZero, NonFiniteValue, SchemaError

_SUBSCRIPT = str.maketrans("0123456789", "₀₁₂₃₄₅₆₇₈₉")


def subscript(n: int) -> str:
    """Render an integer with Unicode subscript digits (1 -> '₁')."""
    return str(n).translate(_SUBSCRIPT)


_DIGITS = re.compile(r"(\d+)")


def natural_key(s: str):
    """Sort key that orders embedded integers numerically ('I2' < 'I10').

    Only decimal digits count; subscript digits in labels stay text.
    """
    return tuple(int(p) if p.isdecimal() else p for p in _DIGITS.split(s))


@dataclass(frozen=True, slots=True)
class OpCode:
    """One operation: its code, name, arity, source symbol, the opcode a
    mutation swaps it for (None when it has no partner of equal arity), and
    its evaluation function.  The program, the lowered graph and constant
    folding all evaluate through ``fn``, so they compute the same values."""

    code: int
    name: str
    arity: int
    symbol: str
    swap: int | None
    fn: Callable[..., float]


def finite_sin(x: float) -> float:
    """Opcode 5 on one value.

    math.sin raises a bare ValueError on inf and passes NaN through; both
    mean an earlier overflow, reported as NonFiniteValue.
    """
    if not math.isfinite(x):
        raise NonFiniteValue(f"sin of non-finite value {x}")
    return math.sin(x)


def _divide(a: float, b: float) -> float:
    if b == 0.0:
        raise DivisionByZero("division by zero")
    return a / b


#: The registered operation alphabet.  Codes are single digits so that test
#: term labels can concatenate them.  Evaluation errors are ExecutionErrors
#: without a location; each caller adds its own (see ExecutionError.at).
OP_ALPHABET: dict[int, OpCode] = {
    1: OpCode(1, "sum", 2, "+", 3, operator.add),
    2: OpCode(2, "mul", 2, "*", 4, operator.mul),
    3: OpCode(3, "sub", 2, "-", 1, operator.sub),
    4: OpCode(4, "div", 2, "/", 2, _divide),
    5: OpCode(5, "sin", 1, "sin", None, finite_sin),
}

#: The binary operations by source symbol.
BINARY_OPS: dict[str, OpCode] = {op.symbol: op for op in OP_ALPHABET.values()
                                 if op.arity == 2}


#: An operand is a variable name or a numeric constant.
Operand = Union[str, float]


@dataclass(frozen=True, slots=True)
class Statement:
    """One three-address operation on a rib.

    ``ordinal`` is the 1-based position within the rib; ``operands`` has
    exactly ``OP_ALPHABET[opcode].arity`` entries.
    """

    ordinal: int
    opcode: int
    target: str
    operands: tuple[Operand, ...]

    def read_variables(self) -> tuple[str, ...]:
        return tuple(o for o in self.operands if isinstance(o, str))


@dataclass(frozen=True, slots=True)
class StatementId:
    """Identity of a statement: fragment plus ordinal, displayed by opcode.

    The display label is the fragment id followed by the opcode digit
    (e.g. ``I51`` for the summation on fragment I5).  When a fragment holds
    two statements with the same opcode the label additionally carries a
    subscripted ordinal occurrence so ids stay unique.
    """

    fragment: str
    opcode: int
    ordinal: int
    label: str

    def __str__(self) -> str:
        return self.label

    def sort_key(self):
        return (natural_key(self.fragment), self.opcode, self.ordinal)


@dataclass(frozen=True)
class Rib:
    """A directed edge carrying a non-empty statement sequence.

    A rib has no ``__slots__``, so that a derived form can be kept on it,
    as ``RTGraph`` keeps its views: the simulator compiles a rib on its
    first use.  Equality, hashing and ``replace`` see only the fields, so a
    rib built from another by ``replace`` is compiled anew; fault injection
    gives its ribs the golden form with one step replaced."""

    fragment: str
    src: str
    dst: str
    statements: tuple[Statement, ...]

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.fragment, self.src, self.dst)


@dataclass(frozen=True, slots=True)
class Node:
    name: str
    role: str  # "input" | "internal" | "output"


@dataclass(frozen=True, slots=True)
class Violation:
    """One invariant violation found by validate_graph."""

    code: str
    message: str
    subject: str = ""

    def __str__(self) -> str:
        return f"[{self.code}] {self.message}"


def make_statements(specs: Iterable[tuple[int, str, tuple]]) -> tuple[Statement, ...]:
    """Build a statement tuple from (opcode, target, operands) triples.

    Ordinals are assigned 1..n in order; numeric operands are normalized
    to float.
    """
    out = []
    for i, (opcode, target, operands) in enumerate(specs, start=1):
        ops = tuple(o if isinstance(o, str) else float(o) for o in operands)
        out.append(Statement(ordinal=i, opcode=opcode, target=target, operands=ops))
    return tuple(out)


def make_rib(fragment: str, src: str, dst: str, specs: Iterable[tuple[int, str, tuple]]) -> Rib:
    return Rib(fragment=fragment, src=src, dst=dst, statements=make_statements(specs))


class _Fragment(NamedTuple):
    """What a graph holds of one fragment."""

    ribs: tuple[Rib, ...]  # in topological order of their sources
    statements: tuple[Statement, ...]  # those of its first rib in ``ribs`` order
    by_ordinal: dict[int, StatementId]
    sids: tuple[StatementId, ...]  # by opcode, then ordinal


@dataclass(frozen=True)
class RTGraph:
    """An immutable register-transfer graph.

    ``nodes`` and ``ribs`` keep construction order, which serialization
    preserves; all derived views are deterministic.
    """

    nodes: tuple[Node, ...]
    ribs: tuple[Rib, ...]

    @cached_property
    def input_nodes(self) -> tuple[str, ...]:
        return tuple(n.name for n in self.nodes if n.role == "input")

    @cached_property
    def output_nodes(self) -> tuple[str, ...]:
        return tuple(n.name for n in self.nodes if n.role == "output")

    @property
    def input_node(self) -> str:
        return self.input_nodes[0]

    @property
    def output_node(self) -> str:
        return self.output_nodes[0]

    @cached_property
    def natural_keys(self) -> dict[str, tuple]:
        """natural_key of every node name, fragment id and rib destination,
        each computed once per graph."""
        names = {n.name for n in self.nodes}
        names.update({r.fragment for r in self.ribs}, {r.dst for r in self.ribs})
        return {name: natural_key(name) for name in names}

    @cached_property
    def _out_index(self) -> dict[str, tuple[Rib, ...]]:
        keys = self.natural_keys
        by_src: dict[str, list[Rib]] = {}
        for r in sorted(self.ribs, key=lambda r: (keys[r.fragment], keys[r.dst])):
            by_src.setdefault(r.src, []).append(r)
        return {src: tuple(ribs) for src, ribs in by_src.items()}

    def out_ribs(self, node: str) -> tuple[Rib, ...]:
        """Ribs leaving *node*, ordered naturally by fragment then destination."""
        return self._out_index.get(node, ())

    @cached_property
    def _fragment_index(self) -> dict[str, _Fragment]:
        """Each fragment's ``_Fragment``, the fragments ordered
        topologically by their first source node, then naturally; one pass
        over ``ribs`` groups them."""
        order, _ = self.try_topo_order()
        pos = {name: i for i, name in enumerate(order)}
        keys = self.natural_keys

        def source(r: Rib) -> int:
            return pos.get(r.src, len(pos))

        grouped: dict[str, list[Rib]] = {}
        for r in self.ribs:
            grouped.setdefault(r.fragment, []).append(r)
        ribs = {f: sorted(rs, key=source) for f, rs in grouped.items()}
        index: dict[str, _Fragment] = {}
        for fragment in sorted(ribs, key=lambda f: (source(ribs[f][0]), keys[f])):
            stmts = grouped[fragment][0].statements
            per_op: dict[int, list[Statement]] = {}
            for s in stmts:
                per_op.setdefault(s.opcode, []).append(s)
            by_ordinal: dict[int, StatementId] = {}
            for s in stmts:
                same = per_op[s.opcode]
                label = f"{fragment}{s.opcode}"
                if len(same) > 1:
                    label += subscript(same.index(s) + 1)
                by_ordinal[s.ordinal] = StatementId(fragment, s.opcode, s.ordinal, label)
            sids = sorted((by_ordinal[s.ordinal] for s in stmts),
                          key=lambda i: (i.opcode, i.ordinal))
            index[fragment] = _Fragment(tuple(ribs[fragment]), stmts, by_ordinal, tuple(sids))
        return index

    @cached_property
    def fragments(self) -> tuple[str, ...]:
        """Fragment ids ordered topologically by source node, then naturally."""
        return tuple(self._fragment_index)

    def fragment_ribs(self, fragment: str) -> tuple[Rib, ...]:
        """The ribs of a fragment, stably ordered topologically by source."""
        return self._fragment_index[fragment].ribs

    def statements_of(self, fragment: str) -> tuple[Statement, ...]:
        """The statements of a fragment, as its first rib in ``ribs`` carries
        them; raises KeyError for a fragment the graph does not hold."""
        return self._fragment_index[fragment].statements

    def sid(self, fragment: str, ordinal: int) -> StatementId:
        return self._fragment_index[fragment].by_ordinal[ordinal]

    def fragment_sids(self, fragment: str) -> tuple[StatementId, ...]:
        """Statement ids of a fragment, ordered by opcode then ordinal."""
        return self._fragment_index[fragment].sids

    @cached_property
    def statement_ids(self) -> tuple[StatementId, ...]:
        """All statement ids in table column order: fragments topologically,
        statements by ascending opcode within each fragment."""
        return tuple(chain.from_iterable(f.sids for f in self._fragment_index.values()))

    @cached_property
    def _topo(self) -> tuple[tuple[str, ...], bool]:
        keys = self.natural_keys
        names = list(dict.fromkeys(n.name for n in self.nodes))
        indeg = dict.fromkeys(names, 0)
        succ: dict[str, list[str]] = {n: [] for n in names}
        for r in self.ribs:
            if r.src in indeg and r.dst in indeg:
                indeg[r.dst] += 1
                succ[r.src].append(r.dst)
        entered = count()
        ready = [(keys[n], next(entered), n) for n in names if indeg[n] == 0]
        heapify(ready)
        order: list[str] = []
        while ready:
            n = heappop(ready)[2]
            order.append(n)
            for m in succ[n]:
                indeg[m] -= 1
                if indeg[m] == 0:
                    heappush(ready, (keys[m], next(entered), m))
        return tuple(order), len(order) == len(names)

    def try_topo_order(self) -> tuple[tuple[str, ...], bool]:
        """Kahn's algorithm with natural-name tie-break, computed once per
        graph: among ready nodes the least natural key goes first, and of
        equal keys the one that became ready first.

        Returns (order, acyclic), acyclic meaning that every distinct node
        name is ordered.  On a cycle the order is partial.  A heap of ready
        nodes makes it O((V + E) log V).
        """
        return self._topo

    def acyclic_order(self) -> tuple[str, ...]:
        """The topological order of try_topo_order; raises CyclicGraph on a
        cycle, where paths cannot be counted."""
        order, acyclic = self.try_topo_order()
        if not acyclic:
            raise CyclicGraph("cycle detected; covering paths are counted on acyclic graphs only")
        return order

    def with_ribs(self, ribs: Iterable[Rib]) -> "RTGraph":
        """This graph's nodes (the same tuple) with *ribs*."""
        return RTGraph(self.nodes, tuple(ribs))


def _statement_violations(fragment: str, statements: tuple[Statement, ...]) -> list[Violation]:
    """The ordinal, opcode and arity violations of a non-empty rib."""
    report: list[Violation] = []
    if [s.ordinal for s in statements] != list(range(1, len(statements) + 1)):
        report.append(Violation("bad-ordinals", f"rib {fragment} ordinals not contiguous from 1", fragment))
    for s in statements:
        op = OP_ALPHABET.get(s.opcode)
        if op is None:
            report.append(Violation("unknown-opcode", f"rib {fragment} uses opcode {s.opcode}", fragment))
        elif len(s.operands) != op.arity:
            report.append(Violation(
                "bad-arity",
                f"rib {fragment} statement {s.ordinal}: {op.name} needs {op.arity} operands",
                fragment))
    return report


def validate_graph(g: RTGraph) -> list[Violation]:
    """Check every structural invariant; an empty report means valid.

    Violations are data, not exceptions: each carries a stable machine
    readable ``code``.  The statements of a rib are checked once per
    distinct (fragment, statement tuple): the copies of a lowered arm share
    one tuple, and each copy re-appends that check's violations.  With the
    graph's one topological order, O(V + E + statements) beyond it.
    """
    report: list[Violation] = []
    names = [n.name for n in g.nodes]
    if len(set(names)) != len(names):
        report.append(Violation("duplicate-node", "node names are not unique"))
    for n in g.nodes:
        if n.role not in ("input", "internal", "output"):
            report.append(Violation("bad-role", f"node {n.name} has role {n.role!r}", n.name))
    if len(g.input_nodes) == 0:
        report.append(Violation("no-input", "graph has no input node"))
    elif len(g.input_nodes) > 1:
        report.append(Violation("multiple-inputs", f"multiple input nodes: {', '.join(g.input_nodes)}"))
    if len(g.output_nodes) == 0:
        report.append(Violation("no-output", "no output node reachable: graph declares no output node"))
    elif len(g.output_nodes) > 1:
        report.append(Violation("multiple-outputs", f"multiple output nodes: {', '.join(g.output_nodes)}"))

    known = set(names)
    seen_edges: set[tuple[str, str, str]] = set()
    by_fragment: dict[str, Rib] = {}
    checked: dict[tuple[str, int], list[Violation]] = {}  # by fragment and id of the tuple
    for r in g.ribs:
        if r.src not in known or r.dst not in known:
            report.append(Violation("bad-endpoint", f"rib {r.fragment} references unknown node", r.fragment))
        key = r.key
        if key in seen_edges:
            report.append(Violation("duplicate-edge", f"duplicate edge {key}", r.fragment))
        seen_edges.add(key)
        if not r.statements:
            report.append(Violation("empty-rib", f"rib {r.fragment} carries no statements", r.fragment))
            continue
        found = checked.get((r.fragment, id(r.statements)))
        if found is None:
            found = checked[r.fragment, id(r.statements)] = _statement_violations(
                r.fragment, r.statements)
        report.extend(found)
        first = by_fragment.setdefault(r.fragment, r)
        if first.statements != r.statements:
            report.append(Violation(
                "merge-inconsistent",
                f"ribs sharing fragment {r.fragment} differ in statements", r.fragment))

    order, acyclic = g.try_topo_order()
    if not acyclic:
        stuck = sorted(known - set(order), key=g.natural_keys.__getitem__)
        report.append(Violation("cycle", "cycle detected through node(s): " + ", ".join(stuck)))

    if acyclic and len(g.input_nodes) == 1 and len(g.output_nodes) == 1:
        fwd = _reachable(g, g.input_node, forward=True)
        back = _reachable(g, g.output_node, forward=False)
        if g.output_node not in fwd:
            report.append(Violation("output-unreachable",
                                    "no output node reachable from the input node"))
        for n in g.nodes:
            if n.role == "internal" and (n.name not in fwd or n.name not in back):
                report.append(Violation("dangling-node",
                                        f"internal node {n.name} lies on no input-output path", n.name))
    return report


def _reachable(g: RTGraph, start: str, forward: bool) -> set[str]:
    step: dict[str, list[str]] = {}
    for r in g.ribs:
        a, b = (r.src, r.dst) if forward else (r.dst, r.src)
        step.setdefault(a, []).append(b)
    seen = {start}
    frontier = [start]
    while frontier:
        for nxt in step.get(frontier.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


# --- JSON serialization ----------------------------------------------------
#
# Schema: {"nodes": [{"name", "role"}], "ribs": [{"fragment", "src", "dst",
# "statements": [{"ordinal", "opcode", "target", "operands"}]}]} where an
# operand entry is {"var": name} or {"const": number}, the number finite.

def _operand_to_json(o: Operand) -> dict:
    return {"var": o} if isinstance(o, str) else {"const": o}


def _operand_from_json(d) -> Operand:
    if isinstance(d, dict) and "var" in d:
        return SchemaError.field("graph JSON", d, "var", str)
    try:
        value = float(SchemaError.field("graph JSON", d, "const", int, float))
    except OverflowError:
        raise SchemaError("graph JSON: 'const' holds an integer past the float range, "
                          "expected a finite number") from None
    if not math.isfinite(value):
        raise SchemaError(f"graph JSON: 'const' holds {value}, expected a finite number")
    return value


def graph_to_json(g: RTGraph) -> dict:
    return {
        "nodes": [{"name": n.name, "role": n.role} for n in g.nodes],
        "ribs": [
            {
                "fragment": r.fragment,
                "src": r.src,
                "dst": r.dst,
                "statements": [
                    {
                        "ordinal": s.ordinal,
                        "opcode": s.opcode,
                        "target": s.target,
                        "operands": [_operand_to_json(o) for o in s.operands],
                    }
                    for s in r.statements
                ],
            }
            for r in g.ribs
        ],
    }


def graph_from_json(doc: dict) -> RTGraph:
    """Inverse of graph_to_json; raises SchemaError naming a missing key or
    a value of the wrong type."""
    get = partial(SchemaError.field, "graph JSON")
    nodes = tuple(Node(get(d, "name", str), get(d, "role", str))
                  for d in get(doc, "nodes", list))
    ribs = tuple(
        Rib(
            fragment=get(d, "fragment", str),
            src=get(d, "src", str),
            dst=get(d, "dst", str),
            statements=tuple(
                Statement(
                    ordinal=get(s, "ordinal", int),
                    opcode=get(s, "opcode", int),
                    target=get(s, "target", str),
                    operands=tuple(_operand_from_json(o) for o in get(s, "operands", list)),
                )
                for s in get(d, "statements", list)
            ),
        )
        for d in get(doc, "ribs", list)
    )
    return RTGraph(nodes=nodes, ribs=ribs)


def dumps_json(doc) -> str:
    """The one JSON encoding of every written document: indented, UTF-8
    text kept as is, a final newline; NaN and Infinity are refused."""
    return json.dumps(doc, indent=2, ensure_ascii=False, allow_nan=False) + "\n"


def dumps_graph(g: RTGraph) -> str:
    return dumps_json(graph_to_json(g))


def loads_graph(text: str) -> RTGraph:
    return graph_from_json(json.loads(text))
