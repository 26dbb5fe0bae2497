"""Reference routes the tests check the library against.

Each oracle here works on materialized rows, terms or subsets, the plain
way, and reads nothing private of the code it checks: row-level CNF and
exoneration, the row-level ambiguity partition, a term-by-term response
vector, brute-force hitting sets and covers, and an unmerged fixture for
the merge pass.
"""

import math
from itertools import combinations

from rtgdiag import (AmbiguityGroup, ExecutionError, FaultDetectionTable, NoFailures,
                     NoResponse, Path, RTGraph, execute_path, make_rib)
from rtgdiag.fixtures import fig1_graph

TOLERANCE = 1e-9


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
