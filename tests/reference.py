"""Reference routes the tests check the library against.

Each oracle here works on materialized rows, terms, paths or subsets, the
plain way, and reads nothing private of the code it checks: row-level CNF
and exoneration, the row-level ambiguity partition, the ambiguity groups of
a graph from its enumerated paths, a term-by-term response vector,
brute-force hitting sets and covers, the greedy covers on frozensets, and
an unmerged fixture for the merge pass.  ``row_blocks`` and ``term_suite``
hold given rows or terms one item per block, as a loaded table does.
"""

import math
from itertools import combinations

from rtgdiag import (AmbiguityGroup, Block, ExecutionError, FaultDetectionTable, NoFailures,
                     NoResponse, Path, RTGraph, TestSuite, Uncoverable, enumerate_paths,
                     execute_path, make_rib)
from rtgdiag.fixtures import fig1_graph
from rtgdiag.rtg import natural_key

TOLERANCE = 1e-9


def row_blocks(rows) -> tuple[Block, ...]:
    """Each table row as a block of its own, on its label-only path."""
    return tuple(Block.of(Path(r.path, ()), r.marks, r.label) for r in rows)


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
    clauses = [r.marks for r, bit in zip(t.rows, _bits(t)) if bit]
    if not clauses:
        raise NoFailures("response vector is all-zero; no fault detected")
    return clauses


def exoneration_set(t: FaultDetectionTable) -> frozenset:
    """Statements exercised by passing rows (bit 0): observed to transform
    data correctly at least once."""
    return frozenset().union(*(r.marks for r, bit in zip(t.rows, _bits(t)) if not bit))


def ambiguity_partition(t: FaultDetectionTable) -> list[AmbiguityGroup]:
    """Every ambiguity group of table *t*: its columns partitioned by the set
    of path labels whose rows mark them, ordered by least member."""
    marked: dict[str, set] = {}
    for r in t.rows:
        marked.setdefault(r.path, set()).update(r.marks)
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


def reference_v(golden, mutant, suite, stimuli):
    """Two execute_path calls per term, each on its own graph's ribs of the
    term's path; (bits, None) or (None, (error type, label of the first
    failing term))."""
    golden_rib = {r.key: r for r in golden.ribs}
    mutant_rib = {r.key: r for r in mutant.ribs}
    bits = []
    for t in suite.terms:
        stim = stimuli[t.label]
        gpath = Path(label=t.path.label, edges=tuple(golden_rib[r.key] for r in t.path.edges))
        mpath = Path(label=t.path.label, edges=tuple(mutant_rib[r.key] for r in t.path.edges))
        try:
            gv = execute_path(golden, gpath, stim).output
            mv = execute_path(mutant, mpath, stim).output
        except ExecutionError as e:
            return None, (type(e), t.label)
        if math.isnan(gv) or math.isnan(mv):
            bits.append(int(math.isnan(gv) != math.isnan(mv)))
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


# --- graphs before merging ------------------------------------------------------


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
