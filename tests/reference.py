"""Reference routes the tests check the library against.

Each oracle here works on materialized rows, terms, paths or subsets, the
plain way, and reads nothing private of the code it checks: row-level CNF
and exoneration, the row-level ambiguity partition, the ambiguity groups of
a graph from its enumerated paths, path execution statement by statement
(first reads re-derived and each rib sorted on every call) and a
term-by-term response vector on it,
brute-force hitting sets and covers, the first minimum cover in rank
order, the greedy covers on frozensets, an
unmerged fixture and the merge pass that ``build_rtg``'s graphs are checked
against, regions as sorted tuples of interval pieces, and the quadratic
routes of the frontend and graph views: a tokenizer with one match per
whitespace run, newline and comment, guard regions from every pair of
arms, Kahn's algorithm re-sorting its ready list, graph validation rib
by rib, and a table's text and JSON document built whole, cell by cell and
row by row.
``row_blocks`` and ``term_suite`` hold given rows or terms one item per
block, as a loaded table does, and ``row_key`` is what a row keeps through
a table file.  ``lower_expression`` is no oracle: it is the tests' entry
into the frontend's own lowering of one expression.
"""

import math
import re
import warnings
from dataclasses import dataclass, replace
from itertools import combinations

from rtgdiag import (AmbiguityGroup, Block, DefaultedVariableWarning, ExecutionError,
                     FaultDetectionTable, NoFailures, NoResponse, ObservationTrace, ParseError,
                     Path, RtgError, RTGraph, Stimulus, TestSuite, Uncoverable, enumerate_paths,
                     make_rib, make_statements)
from rtgdiag.errors import DivisionByZero, UnboundVariable
from rtgdiag.fixtures import fig1_graph
from rtgdiag.frontend import RELATIONS, Var, _expr_vars, _lower, evaluate, fresh_names
from rtgdiag import intervals
from rtgdiag.rtg import OP_ALPHABET, Violation, dumps_json, natural_key

TOLERANCE = 1e-9


def row_blocks(rows) -> tuple[Block, ...]:
    """Each table row as a block of its own, on its label-only path."""
    return tuple(Block.of(Path(r.path.label, ()), r.selection, r.label) for r in rows)


def row_key(r) -> tuple:
    """A row as a table file keeps it: its label, its path's label and the
    set of statements it selects, but not the ribs of its path."""
    return r.label, r.path.label, frozenset(r.selection)


def term_suite(terms) -> TestSuite:
    """The suite of *terms*, each a block of its own."""
    return TestSuite(tuple(Block.of(t.path, t.selection, t.label) for t in terms))


# --- diagnosis, row by row ------------------------------------------------------


def _bits(t: FaultDetectionTable) -> tuple[int, ...]:
    if t.response is None:
        raise NoResponse("the table has no response vector V to diagnose from")
    return t.response.bits


def build_cnf(t: FaultDetectionTable) -> list[frozenset]:
    """One clause per failing row (bit 1), in row order.

    Raises NoFailures when the response is all-zero: nothing to diagnose.
    """
    clauses = [frozenset(r.selection) for r, bit in zip(t.rows, _bits(t)) if bit]
    if not clauses:
        raise NoFailures("response vector is all-zero; no fault detected")
    return clauses


def exoneration_set(t: FaultDetectionTable) -> frozenset:
    """Statements exercised by passing rows (bit 0): observed to transform
    data correctly at least once."""
    return frozenset().union(*(r.selection for r, bit in zip(t.rows, _bits(t)) if not bit))


def ambiguity_partition(t: FaultDetectionTable) -> list[AmbiguityGroup]:
    """Every ambiguity group of table *t*: its columns partitioned by the set
    of path labels whose rows mark them, ordered by least member."""
    marked: dict[str, set] = {}
    for r in t.rows:
        marked.setdefault(r.path.label, set()).update(r.selection)
    by_signature: dict[frozenset, set] = {}
    for c in t.columns:
        signature = frozenset(p for p, m in marked.items() if c in m)
        by_signature.setdefault(signature, set()).add(c)
    groups = [AmbiguityGroup(members=frozenset(m), signature=s) for s, m in by_signature.items()]
    return sorted(groups, key=lambda g: min(s.sort_key() for s in g.members))


def ambiguity_groups_by_paths(g: RTGraph) -> list[AmbiguityGroup]:
    """Every ambiguity group of graph *g*: its statements partitioned by the
    set of labels of the enumerated paths that cross their fragment,
    ordered by least member."""
    covering: dict[str, set] = {}
    for p in enumerate_paths(g):
        for rib in p.edges:
            covering.setdefault(rib.fragment, set()).add(p.label)
    by_signature: dict[frozenset, set] = {}
    for sid in g.statement_ids:
        by_signature.setdefault(frozenset(covering.get(sid.fragment, ())), set()).add(sid)
    groups = [AmbiguityGroup(members=frozenset(m), signature=s) for s, m in by_signature.items()]
    return sorted(groups, key=lambda g: min(s.sort_key() for s in g.members))


# --- the run, term by term ------------------------------------------------------


def path_reads(p: Path) -> list[str]:
    """The ordered first-reads along a path: variables read before any
    statement on the path assigns them.  The first one is taken as the
    path's input variable.
    """
    assigned: set[str] = set()
    first_reads: list[str] = []
    for rib in p.edges:
        for stmt in rib.statements:
            for v in stmt.read_variables():
                if v not in assigned and v not in first_reads:
                    first_reads.append(v)
            assigned.add(stmt.target)
    return first_reads


def execute_path(g: RTGraph, p: Path, s: Stimulus, permissive: bool = False) -> ObservationTrace:
    """Execute each rib's statements in order along a path.

    Variables read but never assigned on the path must be bound by the
    stimulus; in permissive mode missing ones default to 0.0 with a
    DefaultedVariableWarning naming them.
    """
    env: dict[str, float] = {k: float(v) for k, v in s.env.items()}
    first_reads = path_reads(p)
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
    for rib in p.edges:
        for stmt in sorted(rib.statements, key=lambda st: st.ordinal):
            operands = [env[o] if isinstance(o, str) else o for o in stmt.operands]
            try:
                env[stmt.target] = OP_ALPHABET[stmt.opcode].fn(*operands)
            except KeyError:
                raise ExecutionError(f"unknown opcode {stmt.opcode} in fragment {rib.fragment} "
                                     f"statement {stmt.ordinal}") from None
            except ExecutionError as err:
                raise err.at(f"fragment {rib.fragment} statement {stmt.ordinal}")
        points.append((rib.dst, env[rib.statements[-1].target]))
    return ObservationTrace(points=tuple(points), output=points[-1][1])



def reference_v(golden, mutant, suite, stimuli, permissive=False):
    """Two execute_path calls per term, each on its own graph's ribs of the
    term's path, both *permissive* or not; (bits, None) or (None, (error
    type, label of the first failing term)).  A NaN output agrees only with
    NaN, and an infinite one only with the same infinity."""
    golden_rib = {r.key: r for r in golden.ribs}
    mutant_rib = {r.key: r for r in mutant.ribs}
    bits = []
    for t in suite.terms:
        stim = stimuli[t.label]
        gpath = Path(label=t.path.label, edges=tuple(golden_rib[r.key] for r in t.path.edges))
        mpath = Path(label=t.path.label, edges=tuple(mutant_rib[r.key] for r in t.path.edges))
        try:
            gv = execute_path(golden, gpath, stim, permissive).output
            mv = execute_path(mutant, mpath, stim, permissive).output
        except ExecutionError as e:
            return None, (type(e), t.label)
        if math.isnan(gv) or math.isnan(mv):
            bits.append(int(math.isnan(gv) != math.isnan(mv)))
        elif math.isinf(gv) or math.isinf(mv):  # only the same infinity agrees
            bits.append(int(gv != mv))
        else:
            bits.append(int(abs(gv - mv) > TOLERANCE * max(1.0, abs(gv))))
    return tuple(bits), None


# --- brute force ----------------------------------------------------------------


def brute_min_hitting_sets(clauses):
    """All minimal hitting sets by exhaustive size-ascending enumeration.

    A candidate is minimal iff every element has a witness clause that the
    candidate hits through that element alone.
    """
    universe = sorted(frozenset().union(*clauses), key=repr)
    found = []
    for k in range(1, len(clauses) + 1):
        for combo in combinations(universe, k):
            s = frozenset(combo)
            if any(h <= s for h in found):
                continue
            if not all(s & c for c in clauses):
                continue
            if all(any(c & s == frozenset((e,)) for c in clauses) for e in s):
                found.append(s)
    return set(found)


def brute_min_cover_size(universe, candidate_sets):
    """Size of a minimum cover by size-ascending exhaustive search;
    None when the universe is not coverable at all."""
    universe = frozenset(universe)
    sets = [frozenset(s) & universe for s in candidate_sets]
    if not universe:
        return 0
    for k in range(1, len(sets) + 1):
        for combo in combinations(sets, k):
            if frozenset().union(*combo) == universe:
                return k
    return None


def first_min_cover(elements, candidates):
    """The first minimum cover of *elements* in rank order: the (label,
    items) *candidates* ranked by ``natural_key`` (a stable sort; a later
    candidate of a label replaces its items) and tried by
    ``itertools.combinations`` of increasing size.  None when no subset
    covers them."""
    by_label = {label: frozenset(items) for label, items in candidates}
    ranked = sorted(by_label, key=natural_key)
    universe = frozenset(elements)
    for k in range(len(ranked) + 1):
        for combo in combinations(ranked, k):
            if universe <= frozenset().union(*map(by_label.get, combo)):
                return list(combo)
    return None


# --- greedy covers on frozensets ---------------------------------------------------


def greedy_cover(universe, candidates):
    """Plain min-scan greedy: each round rescans every remaining candidate for
    the most uncovered elements, ties to the naturally smallest label, then
    to the earlier candidate."""
    chosen, covered = [], set()
    remaining = dict(candidates)
    while covered != universe:
        best = None
        if remaining:
            best = min(remaining.items(),
                       key=lambda kv: (-len(kv[1] - covered), natural_key(kv[0])))
        if best is None or not best[1] - covered:
            raise Uncoverable(sorted(universe - covered, key=str)[0])
        chosen.append(best[0])
        covered |= best[1]
        del remaining[best[0]]
    return chosen


def greedy_diagnostic_test(suite, columns) -> list[str]:
    """The labels greedy takes to select every statement of *columns*, each
    term a frozenset of its selection."""
    universe = frozenset(columns)
    return greedy_cover(universe, [(t.label, frozenset(t.selection) & universe)
                                   for t in suite.terms])


# --- graphs before merging, and the merge pass ----------------------------------


def fig1_unmerged_variant() -> RTGraph:
    """fig1_graph before merging: the final summation appears as I6A..I6D."""
    g = fig1_graph()
    suffixes = iter("ABCD")
    ribs = []
    for r in g.ribs:
        if r.fragment == "I6":
            ribs.append(make_rib("I6" + next(suffixes), r.src, r.dst,
                                 [(s.opcode, s.target, s.operands) for s in r.statements]))
        else:
            ribs.append(r)
    return g.with_ribs(ribs)


class MergeConflict(RtgError):
    """Two ribs share a fragment id but carry different statements."""


def merge_equivalent_ribs(g: RTGraph) -> RTGraph:
    """Give one shared fragment id to ribs that are copies of the same code.

    Ribs merge when their statement sequences are equal element-wise and
    their destinations coincide.  The merged group keeps the longest common
    prefix of its fragment ids when that is a usable name (I6A..I6D become
    I6), otherwise the naturally smallest member id.  Raises MergeConflict
    when ribs already share a fragment id but differ in statements.
    """
    first = {}
    conflicting = set()
    for r in g.ribs:
        if first.setdefault(r.fragment, r).statements != r.statements:
            conflicting.add(r.fragment)
    if conflicting:
        fragment = next(f for f in first if f in conflicting)
        raise MergeConflict(f"ribs sharing fragment {fragment} differ in statements")

    groups = {}
    for r in g.ribs:
        groups.setdefault((r.dst, r.statements), []).append(r)

    rename = {}
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
    return g.with_ribs([replace(r, fragment=rename.get(r.fragment, r.fragment))
                        for r in g.ribs])


def _common_prefix(ids: list) -> str:
    prefix = ids[0]
    for s in ids[1:]:
        while not s.startswith(prefix):
            prefix = prefix[:-1]
            if not prefix:
                return ""
    return prefix


# --- regions, piece by piece ----------------------------------------------------

INF = float("inf")


@dataclass(frozen=True)
class Interval:
    lo: float
    lo_open: bool
    hi: float
    hi_open: bool

    def is_empty(self) -> bool:
        if self.lo > self.hi:
            return True
        if self.lo == self.hi and (self.lo_open or self.hi_open):
            return True
        return False


FULL = Interval(-INF, True, INF, True)


@dataclass(frozen=True)
class IntervalSet:
    """A finite union of disjoint intervals, kept sorted: pairwise
    intersection and a complement that walks the gaps.  Exact for finite
    bounds only; its ``pick`` can fall outside the region where bound +- 1
    rounds back to the bound."""

    parts: tuple[Interval, ...]

    @staticmethod
    def full() -> "IntervalSet":
        return IntervalSet((FULL,))

    @staticmethod
    def from_comparison(relop: str, bound: float) -> "IntervalSet":
        if relop == "<":
            return IntervalSet((Interval(-INF, True, bound, True),))
        if relop == "<=":
            return IntervalSet((Interval(-INF, True, bound, False),))
        if relop == ">":
            return IntervalSet((Interval(bound, True, INF, True),))
        if relop == ">=":
            return IntervalSet((Interval(bound, False, INF, True),))
        raise ValueError(f"unsupported relational operator {relop!r}")

    def is_empty(self) -> bool:
        return not self.parts

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        parts = []
        for a in self.parts:
            for b in other.parts:
                # on ties the open bound is the more restrictive one
                lo, lo_open = max((a.lo, a.lo_open), (b.lo, b.lo_open))
                hi, hi_closed = min((a.hi, not a.hi_open), (b.hi, not b.hi_open))
                piece = Interval(lo, lo_open, hi, not hi_closed)
                if not piece.is_empty():
                    parts.append(piece)
        parts.sort(key=lambda p: (p.lo, p.lo_open))
        return IntervalSet(tuple(parts))

    def complement(self) -> "IntervalSet":
        if not self.parts:
            return IntervalSet.full()
        parts = []
        cursor, cursor_open = -INF, True
        for p in sorted(self.parts, key=lambda p: (p.lo, p.lo_open)):
            gap = Interval(cursor, cursor_open, p.lo, not p.lo_open)
            if not gap.is_empty():
                parts.append(gap)
            cursor, cursor_open = p.hi, not p.hi_open
        tail = Interval(cursor, cursor_open, INF, True)
        if not tail.is_empty():
            parts.append(tail)
        return IntervalSet(tuple(parts))

    def pick(self) -> float:
        """A representative point: midpoint of the first bounded component,
        bound+-1 toward the unbounded side, 1.0 when fully unbounded."""
        if not self.parts:
            raise ValueError("empty interval set has no points")
        p = self.parts[0]
        if p.lo == -INF and p.hi == INF:
            return 1.0
        if p.lo == -INF:
            return p.hi - 1.0
        if p.hi == INF:
            return p.lo + 1.0
        if p.lo == p.hi:
            return p.lo
        return (p.lo + p.hi) / 2.0

    def contains(self, x: float) -> bool:
        for p in self.parts:
            lo_ok = x > p.lo if p.lo_open else x >= p.lo
            hi_ok = x < p.hi if p.hi_open else x <= p.hi
            if lo_ok and hi_ok:
                return True
        return False


# --- the frontend, match by match and arm by arm ---------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<NUMBER>\d+\.\d*|\.\d+|\d+)
  | (?P<ID>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<LE><=)|(?P<GE>>=)|(?P<AND>&&)
  | (?P<LT><)|(?P<GT>>)|(?P<ASSIGN>=)
  | (?P<PLUS>\+)|(?P<MINUS>-)|(?P<STAR>\*)|(?P<SLASH>/)
  | (?P<LPAREN>\()|(?P<RPAREN>\))|(?P<LBRACE>\{)|(?P<RBRACE>\})
  | (?P<SEMI>;)
  | (?P<COMMENT>\#[^\n]*)
  | (?P<NL>\n)
  | (?P<WS>[ \t\r]+)
  | (?P<MISMATCH>.)
""", re.VERBOSE)

_KEYWORDS = {"input", "output", "if", "else", "sin"}


def tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """(kind, text, line, column) of every token, one match per token,
    whitespace run, newline and comment.  Unlike the library it reads every
    Unicode decimal digit, not only 0-9, as a digit."""
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        value = m.group()
        col = m.start() - line_start + 1
        if kind == "NL":
            line += 1
            line_start = m.end()
            continue
        if kind in ("WS", "COMMENT"):
            continue
        if kind == "MISMATCH":
            raise ParseError(f"unexpected character {value!r}", line, col)
        if kind == "ID" and value in _KEYWORDS:
            kind = value.upper()
        tokens.append((kind, value, line, col))
    tokens.append(("EOF", "", line, 1))
    return tokens


def lower_expression(e):
    """(statements, result operand) of lowering *e* post-order to alphabet
    statements, temporaries named t1, t2, ... past the names *e* reads.  A
    bare literal or variable lowers to no statements, the operand being
    consumed by the parent.  For commutative opcodes a constant left
    operand is swapped to the right.  A non-finite constant operand raises
    NonFiniteValue naming its location."""
    specs = []
    result = _lower(e, fresh_names(_expr_vars(e)), specs)
    return list(make_statements(specs)), result


def _bound(e):
    try:
        return evaluate(e, {})
    except (UnboundVariable, DivisionByZero):
        return None


def guard_regions(guard):
    """A guard as a region per variable; None unless every comparison sets
    a variable against a constant."""
    regions = {}
    for cmp_ in guard:
        if isinstance(cmp_.lhs, Var):
            var, relop, bound = cmp_.lhs.name, cmp_.relop, _bound(cmp_.rhs)
        elif isinstance(cmp_.rhs, Var):
            var, relop, bound = cmp_.rhs.name, RELATIONS[cmp_.relop].mirror, _bound(cmp_.lhs)
        else:
            return None
        if bound is None:
            return None
        region = intervals.IntervalSet.from_comparison(relop, bound)
        regions[var] = regions.get(var, intervals.IntervalSet.full()).intersect(region)
    return regions


def effective_constraints(chain):
    """Each arm's own regions intersected with the complement of every
    earlier arm's guard, one earlier arm at a time: O(arms^2).  None once an
    earlier guard is not representable or constrains two variables."""
    out, priors = [], []
    for arm in chain.arms:
        own = guard_regions(arm.guard) if arm.guard is not None else {}
        effective = None if own is None else dict(own)
        for prior in priors:
            if effective is None:
                break
            if prior is None or len(prior) > 1:
                effective = None
            elif prior:
                (var, region), = prior.items()
                effective[var] = effective.get(var, intervals.IntervalSet.full()).intersect(
                    region.complement())
        out.append(effective)
        priors.append(own)
    return out


# --- graph views, re-sorting and rib by rib -----------------------------------------


def topo_order(g: RTGraph) -> tuple[tuple[str, ...], bool]:
    """Kahn's algorithm over the distinct node names, the ready list stably
    re-sorted by natural key after every pop: O(V^2 log V)."""
    names = list(dict.fromkeys(n.name for n in g.nodes))
    indeg = {n: 0 for n in names}
    succ = {n: [] for n in names}
    for r in g.ribs:
        if r.src in indeg and r.dst in indeg:
            indeg[r.dst] += 1
            succ[r.src].append(r.dst)
    ready = sorted((n for n in names if indeg[n] == 0), key=natural_key)
    order = []
    while ready:
        n = ready.pop(0)
        order.append(n)
        for m in succ[n]:
            indeg[m] -= 1
            if indeg[m] == 0:
                ready.append(m)
        ready.sort(key=natural_key)
    return tuple(order), len(order) == len(names)


def _reached(g: RTGraph, start: str, forward: bool) -> set:
    seen, frontier = {start}, [start]
    while frontier:
        u = frontier.pop()
        for r in g.ribs:
            a, b = (r.src, r.dst) if forward else (r.dst, r.src)
            if a == u and b not in seen:
                seen.add(b)
                frontier.append(b)
    return seen


def validate_graph(g: RTGraph) -> list[Violation]:
    """Every invariant violation of *g*, the statements of each rib checked
    on their own, the order from ``topo_order``."""
    report = []
    names = [n.name for n in g.nodes]
    if len(set(names)) != len(names):
        report.append(Violation("duplicate-node", "node names are not unique"))
    for n in g.nodes:
        if n.role not in ("input", "internal", "output"):
            report.append(Violation("bad-role", f"node {n.name} has role {n.role!r}", n.name))
    inputs = [n.name for n in g.nodes if n.role == "input"]
    outputs = [n.name for n in g.nodes if n.role == "output"]
    if not inputs:
        report.append(Violation("no-input", "graph has no input node"))
    elif len(inputs) > 1:
        report.append(Violation("multiple-inputs", f"multiple input nodes: {', '.join(inputs)}"))
    if not outputs:
        report.append(Violation("no-output", "no output node reachable: graph declares no output node"))
    elif len(outputs) > 1:
        report.append(Violation("multiple-outputs", f"multiple output nodes: {', '.join(outputs)}"))

    seen_edges, by_fragment = set(), {}
    for r in g.ribs:
        f = r.fragment
        if r.src not in names or r.dst not in names:
            report.append(Violation("bad-endpoint", f"rib {f} references unknown node", f))
        if r.key in seen_edges:
            report.append(Violation("duplicate-edge", f"duplicate edge {r.key}", f))
        seen_edges.add(r.key)
        if not r.statements:
            report.append(Violation("empty-rib", f"rib {f} carries no statements", f))
            continue
        if [s.ordinal for s in r.statements] != list(range(1, len(r.statements) + 1)):
            report.append(Violation("bad-ordinals", f"rib {f} ordinals not contiguous from 1", f))
        for s in r.statements:
            op = OP_ALPHABET.get(s.opcode)
            if op is None:
                report.append(Violation("unknown-opcode", f"rib {f} uses opcode {s.opcode}", f))
            elif len(s.operands) != op.arity:
                report.append(Violation(
                    "bad-arity", f"rib {f} statement {s.ordinal}: {op.name} needs {op.arity} operands",
                    f))
        if by_fragment.setdefault(f, r).statements != r.statements:
            report.append(Violation("merge-inconsistent",
                                    f"ribs sharing fragment {f} differ in statements", f))

    order, acyclic = topo_order(g)
    if not acyclic:
        stuck = sorted(set(names) - set(order), key=natural_key)
        report.append(Violation("cycle", "cycle detected through node(s): " + ", ".join(stuck)))
    if acyclic and len(inputs) == 1 and len(outputs) == 1:
        fwd, back = _reached(g, inputs[0], True), _reached(g, outputs[0], False)
        if outputs[0] not in fwd:
            report.append(Violation("output-unreachable",
                                    "no output node reachable from the input node"))
        for n in g.nodes:
            if n.role == "internal" and (n.name not in fwd or n.name not in back):
                report.append(Violation("dangling-node",
                                        f"internal node {n.name} lies on no input-output path",
                                        n.name))
    return report


# --- table writers, whole documents -----------------------------------------------


def render_table(t: FaultDetectionTable, suspects=None) -> str:
    """The fixed-width text table, every cell made with ``c in r.selection``
    and ``str.center``."""
    has_v = t.response is not None
    headers = ["Ti\\Ij"] + [c.label for c in t.columns] + (["V"] if has_v else [])
    label_w = max(len(headers[0]), *(len(r.label) for r in t.rows), 6)
    col_ws = [max(len(c.label), 3) for c in t.columns]

    def fmt_row(cells):
        out = [cells[0].ljust(label_w)]
        for w, cell in zip(col_ws, cells[1:len(col_ws) + 1]):
            out.append(cell.center(w))
        out.extend(cells[len(col_ws) + 1:])
        return "  ".join(out)

    lines = [fmt_row(headers)]
    for i, r in enumerate(t.rows):
        cells = [r.label] + ["1" if c in r.selection else "" for c in t.columns]
        if has_v:
            cells.append(str(t.response.bits[i]))
        lines.append(fmt_row(cells))
    if suspects is not None:
        cells = ["Faults"] + ["1" if c in suspects else "" for c in t.columns]
        if has_v:
            cells.append("")
        lines.append(fmt_row(cells))
    return "\n".join(lines) + "\n"


def table_to_json(t: FaultDetectionTable) -> dict:
    """The table document, row by row: each row's marks are its distinct
    mark labels sorted by the first column of each label, labels naming no
    column last, by label."""
    rank = {}
    for i, c in enumerate(t.columns):
        rank.setdefault(c.label, i)
    bits = t.response.bits if t.response is not None else [None] * len(t.rows)
    return {
        "kind": t.kind,
        "columns": [{"label": c.label, "fragment": c.fragment, "opcode": c.opcode,
                     "ordinal": c.ordinal} for c in t.columns],
        "rows": [{"label": r.label, "path": r.path.label,
                  "marks": sorted({s.label for s in r.selection},
                                  key=lambda m: (rank.get(m, len(t.columns)), m)),
                  "v": v} for r, v in zip(t.rows, bits)],
    }


def dumps_table(t: FaultDetectionTable) -> str:
    return dumps_json(table_to_json(t))
