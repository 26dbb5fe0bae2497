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
import re
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Mapping, Union

from .errors import MergeConflict

_SUBSCRIPT = str.maketrans("0123456789", "₀₁₂₃₄₅₆₇₈₉")


def subscript(n: int) -> str:
    """Render an integer with Unicode subscript digits (1 -> '₁')."""
    return str(n).translate(_SUBSCRIPT)


def natural_key(s: str):
    """Sort key that orders embedded integers numerically ('I2' < 'I10').

    Only decimal digits count; subscript digits in labels stay text.
    """
    return tuple(int(p) if p.isdecimal() else p for p in re.split(r"(\d+)", s))


@dataclass(frozen=True, slots=True)
class OpCode:
    code: int
    name: str
    arity: int


#: The registered operation alphabet.  Codes are single digits so that test
#: term labels can concatenate them.
OP_ALPHABET: dict[int, OpCode] = {
    1: OpCode(1, "sum", 2),
    2: OpCode(2, "mul", 2),
    3: OpCode(3, "sub", 2),
    4: OpCode(4, "div", 2),
    5: OpCode(5, "sin", 1),
}

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


@dataclass(frozen=True, slots=True)
class Rib:
    """A directed edge carrying a non-empty statement sequence."""

    fragment: str
    src: str
    dst: str
    statements: tuple[Statement, ...]

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.fragment, self.src, self.dst)

    def opcode_multiset(self) -> tuple[int, ...]:
        return tuple(s.opcode for s in self.statements)

    def opcode_set(self) -> tuple[int, ...]:
        return tuple(sorted({s.opcode for s in self.statements}))


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


@dataclass(frozen=True)
class RTGraph:
    """An immutable register-transfer graph.

    ``nodes`` and ``ribs`` keep construction order, which serialization
    preserves; all derived views are deterministic.
    """

    nodes: tuple[Node, ...]
    ribs: tuple[Rib, ...]

    @cached_property
    def node_by_name(self) -> dict[str, Node]:
        return {n.name: n for n in self.nodes}

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

    def out_ribs(self, node: str) -> tuple[Rib, ...]:
        return tuple(sorted((r for r in self.ribs if r.src == node),
                            key=lambda r: (natural_key(r.fragment), natural_key(r.dst))))

    @cached_property
    def fragments(self) -> tuple[str, ...]:
        """Fragment ids ordered topologically by source node, then naturally."""
        order, _ = self.try_topo_order()
        pos = {name: i for i, name in enumerate(order)}
        firsts: dict[str, int] = {}
        for r in self.ribs:
            p = pos.get(r.src, len(pos))
            if r.fragment not in firsts or p < firsts[r.fragment]:
                firsts[r.fragment] = p
        return tuple(sorted(firsts, key=lambda f: (firsts[f], natural_key(f))))

    def statements_of(self, fragment: str) -> tuple[Statement, ...]:
        for r in self.ribs:
            if r.fragment == fragment:
                return r.statements
        raise KeyError(fragment)

    @cached_property
    def _sid_by_pos(self) -> dict[tuple[str, int], StatementId]:
        index: dict[tuple[str, int], StatementId] = {}
        for fragment in self.fragments:
            stmts = self.statements_of(fragment)
            per_op: dict[int, list[Statement]] = {}
            for s in stmts:
                per_op.setdefault(s.opcode, []).append(s)
            for s in stmts:
                same = per_op[s.opcode]
                label = f"{fragment}{s.opcode}"
                if len(same) > 1:
                    label += subscript(same.index(s) + 1)
                index[(fragment, s.ordinal)] = StatementId(fragment, s.opcode, s.ordinal, label)
        return index

    def sid(self, fragment: str, ordinal: int) -> StatementId:
        return self._sid_by_pos[(fragment, ordinal)]

    def fragment_sids(self, fragment: str) -> tuple[StatementId, ...]:
        """Statement ids of a fragment, ordered by opcode then ordinal."""
        ids = [self.sid(fragment, s.ordinal) for s in self.statements_of(fragment)]
        return tuple(sorted(ids, key=lambda i: (i.opcode, i.ordinal)))

    @cached_property
    def statement_ids(self) -> tuple[StatementId, ...]:
        """All statement ids in table column order: fragments topologically,
        statements by ascending opcode within each fragment."""
        out: list[StatementId] = []
        for fragment in self.fragments:
            out.extend(self.fragment_sids(fragment))
        return tuple(out)

    @cached_property
    def variables(self) -> tuple[str, ...]:
        seen: set[str] = set()
        for r in self.ribs:
            for s in r.statements:
                seen.add(s.target)
                seen.update(s.read_variables())
        return tuple(sorted(seen))

    def try_topo_order(self) -> tuple[tuple[str, ...], bool]:
        """Kahn's algorithm with natural-name tie-break.

        Returns (order, acyclic).  On a cycle the order is partial.
        """
        names = [n.name for n in self.nodes]
        indeg = {n: 0 for n in names}
        succ: dict[str, list[str]] = {n: [] for n in names}
        for r in self.ribs:
            if r.src in indeg and r.dst in indeg:
                indeg[r.dst] += 1
                succ[r.src].append(r.dst)
        ready = sorted((n for n in names if indeg[n] == 0), key=natural_key)
        order: list[str] = []
        while ready:
            n = ready.pop(0)
            order.append(n)
            for m in succ[n]:
                indeg[m] -= 1
                if indeg[m] == 0:
                    ready.append(m)
            ready.sort(key=natural_key)
        return tuple(order), len(order) == len(names)

    def with_ribs(self, ribs: Iterable[Rib]) -> "RTGraph":
        return replace(self, ribs=tuple(ribs))


def validate_graph(g: RTGraph) -> list[Violation]:
    """Check every structural invariant; an empty report means valid.

    Violations are data, not exceptions: each carries a stable machine
    readable ``code``.
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
    for r in g.ribs:
        if r.src not in known or r.dst not in known:
            report.append(Violation("bad-endpoint", f"rib {r.fragment} references unknown node", r.fragment))
        if r.key in seen_edges:
            report.append(Violation("duplicate-edge", f"duplicate edge {r.key}", r.fragment))
        seen_edges.add(r.key)
        if not r.statements:
            report.append(Violation("empty-rib", f"rib {r.fragment} carries no statements", r.fragment))
            continue
        if [s.ordinal for s in r.statements] != list(range(1, len(r.statements) + 1)):
            report.append(Violation("bad-ordinals", f"rib {r.fragment} ordinals not contiguous from 1", r.fragment))
        for s in r.statements:
            op = OP_ALPHABET.get(s.opcode)
            if op is None:
                report.append(Violation("unknown-opcode", f"rib {r.fragment} uses opcode {s.opcode}", r.fragment))
            elif len(s.operands) != op.arity:
                report.append(Violation(
                    "bad-arity",
                    f"rib {r.fragment} statement {s.ordinal}: {op.name} needs {op.arity} operands",
                    r.fragment))
        first = by_fragment.setdefault(r.fragment, r)
        if first.statements != r.statements:
            report.append(Violation(
                "merge-inconsistent",
                f"ribs sharing fragment {r.fragment} differ in statements", r.fragment))

    order, acyclic = g.try_topo_order()
    if not acyclic:
        stuck = sorted(set(names) - set(order), key=natural_key)
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
    seen = {start}
    frontier = [start]
    while frontier:
        n = frontier.pop()
        for r in g.ribs:
            nxt = r.dst if forward and r.src == n else (r.src if not forward and r.dst == n else None)
            if nxt is not None and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def merge_equivalent_ribs(g: RTGraph, source_keys: Mapping[str, object] | None = None) -> RTGraph:
    """Give one shared fragment id to ribs that are copies of the same code.

    Ribs merge when their statement sequences are equal element-wise, their
    destinations coincide, and they originate from the same source fragment.
    With ``source_keys`` (fragment id -> source-map key) the last condition
    is checked against the keys; without a source map, element-wise equality
    plus a shared destination is taken as sufficient evidence.

    The merged group keeps the longest common prefix of its fragment ids
    when that is a usable name (e.g. I6A..I6D become I6), otherwise the
    naturally smallest member id.  Raises MergeConflict when ribs already
    share a fragment id but differ in statements.
    """
    for r in g.ribs:
        for other in g.ribs:
            if r.fragment == other.fragment and r.statements != other.statements:
                raise MergeConflict(f"ribs sharing fragment {r.fragment} differ in statements")

    groups: dict[tuple, list[Rib]] = {}
    for r in g.ribs:
        if source_keys is not None:
            key_part = source_keys.get(r.fragment)
            if key_part is None:
                # No provenance: never merge this rib with anything else.
                key_part = ("unkeyed", r.fragment)
        else:
            key_part = ("stmts", r.statements)
        groups.setdefault((r.dst, r.statements, key_part), []).append(r)

    rename: dict[str, str] = {}
    taken = {r.fragment for r in g.ribs}
    for members in groups.values():
        ids = sorted({r.fragment for r in members}, key=natural_key)
        if len(ids) < 2:
            continue
        merged = _common_prefix(ids)
        if not merged or (merged in taken and merged not in ids):
            merged = ids[0]
        for fid in ids:
            rename[fid] = merged

    if not rename:
        return g
    new_ribs = [replace(r, fragment=rename.get(r.fragment, r.fragment)) for r in g.ribs]
    return g.with_ribs(new_ribs)


def _common_prefix(ids: list[str]) -> str:
    prefix = ids[0]
    for s in ids[1:]:
        while not s.startswith(prefix):
            prefix = prefix[:-1]
            if not prefix:
                return ""
    return prefix


# --- JSON serialization ----------------------------------------------------
#
# Schema: {"nodes": [{"name", "role"}], "ribs": [{"fragment", "src", "dst",
# "statements": [{"ordinal", "opcode", "target", "operands"}]}]} where an
# operand entry is {"var": name} or {"const": number}.

def _operand_to_json(o: Operand) -> dict:
    return {"var": o} if isinstance(o, str) else {"const": o}


def _operand_from_json(d: dict) -> Operand:
    if "var" in d:
        return d["var"]
    return float(d["const"])


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
    nodes = tuple(Node(d["name"], d["role"]) for d in doc["nodes"])
    ribs = tuple(
        Rib(
            fragment=d["fragment"],
            src=d["src"],
            dst=d["dst"],
            statements=tuple(
                Statement(
                    ordinal=s["ordinal"],
                    opcode=s["opcode"],
                    target=s["target"],
                    operands=tuple(_operand_from_json(o) for o in s["operands"]),
                )
                for s in d["statements"]
            ),
        )
        for d in doc["ribs"]
    )
    return RTGraph(nodes=nodes, ribs=ribs)


def dumps_graph(g: RTGraph) -> str:
    return json.dumps(graph_to_json(g), indent=2, ensure_ascii=False) + "\n"


def loads_graph(text: str) -> RTGraph:
    return graph_from_json(json.loads(text))
