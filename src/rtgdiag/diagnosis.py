"""Diagnosis from a responded fault detection table.

The unit is the ``testsynth.Block`` path block of the table.  The rows of a
block are the product B1 x ... x Bm of its brackets, and a set hits every
row of that product iff it contains some whole Bi (Reiter 1987), so a
block whose rows all fail is one failing part, and a block whose rows all
pass adds its brackets to the exoneration set H.  Any other row (a row
given on its own, or a row of a block whose bits differ) is a part of its
own.  ``factor_clauses`` is the one builder of CNF clauses from the
failing parts: a part is one clause whose literals are its brackets, and
rows that together form a full product of per-fragment brackets are
factored into one bracket clause.  The clause family is turned into its
minimal DNF, i.e. the antichain of minimal hitting sets, by incremental
distribution with idempotence and absorption applied on the fly.  On a
path-uniform table (every term of a path gets the path's bit) that costs a
polynomial in the failing paths, not in their terms.  Removing candidates
touched by H ("strong" mode, the single-fault reading) leaves the reduced
diagnosis F'.

A diagnosis is a function of the blocks, columns, V, mode and cap, so
``diagnose`` keeps one verdict per (V, mode, cap) in the table's memo, as
a fault dictionary keeps one diagnosis per syndrome.  ``attach_response``
shares the memo with every responded copy, so a campaign against one table
diagnoses each distinct V once, and a repeat costs one hash of V.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations, product
from math import prod
from random import Random
from typing import Iterable, Sequence

from .errors import CandidateExplosion, EmptyDiagnosis, NoFailures, NoResponse
from .fdt import FaultDetectionTable
from .rtg import Rib, RTGraph, StatementId

DEFAULT_DNF_CAP = 10 ** 5
_INCONSISTENT = ("every candidate is exonerated; observations are inconsistent "
                 "with a single fault")
_UNRESPONDED = "the table has no response vector V to diagnose from"

Clause = frozenset  # of literals: a StatementId, or a bracket (a frozenset of them)
Term = frozenset  # of StatementId


@dataclass(frozen=True)
class CandidateDNF:
    """An antichain of candidate fault sets (no term contains another)."""

    terms: frozenset[Term]

    def sorted_terms(self) -> list[tuple[StatementId, ...]]:
        ordered = [tuple(sorted(t, key=lambda s: s.sort_key())) for t in self.terms]
        return sorted(ordered, key=lambda t: (len(t), [s.sort_key() for s in t]))

    def __str__(self) -> str:
        return " ∨ ".join(" ".join(s.label for s in t) for t in self.sorted_terms())


@dataclass(frozen=True, slots=True)
class AmbiguityGroup:
    """Statements indistinguishable at the available observation points:
    identical sets of covering paths.

    The signature of a table's group (``DiagnosisResult.ambiguity``) is the
    set of labels of the paths whose rows mark the members.  A graph's
    group (``ambiguity_groups``) is found without listing paths, and its
    signature is the set of fragments whose statements it holds: the group
    is covered by the paths through any one of them."""

    members: frozenset[StatementId]
    signature: frozenset[str]  # path labels (table) or fragments (graph)

    def sorted_members(self) -> tuple[StatementId, ...]:
        return tuple(sorted(self.members, key=lambda s: s.sort_key()))


@dataclass(frozen=True)
class DiagnosisResult:
    candidates: CandidateDNF  # F
    exonerated: frozenset[StatementId]  # H
    reduced: CandidateDNF  # F'
    mode: str  # "strong" | "weak"
    ambiguity: tuple[AmbiguityGroup, ...]  # groups containing F' statements

    def suspects(self) -> frozenset[StatementId]:
        out: set[StatementId] = set()
        for t in self.reduced.terms:
            out |= t
        return frozenset(out)


#: Brackets whose product is some rows of a table, all under one verdict:
#: a whole block, or one row as a tuple of singleton brackets.
Part = tuple


def _kept(t: FaultDetectionTable) -> dict:
    """The table's memo, kept for its blocks and columns: the ambiguity
    partition and one verdict per (V, mode, cap).  A copy holding other
    blocks or columns may share the memo (as ``dataclasses.replace`` makes
    one); it finds the memo made for the other pair and starts it afresh."""
    if t.memo.get("blocks") is not t.blocks or t.memo.get("columns") is not t.columns:
        t.memo.clear()
        t.memo.update(blocks=t.blocks, columns=t.columns)
    return t.memo


def _parts_by_verdict(t: FaultDetectionTable) -> tuple[list[Part], list[frozenset[StatementId]]]:
    """The failing parts (bit 1) and the statements marked by each passing
    part (bit 0), each in row order, in one pass over the blocks.  A block
    whose rows share one bit, each bracket on one fragment, is one part;
    each row of any other block is a part of its own.  Raises NoResponse
    when the table has no response vector V, and NoFailures when no row
    fails."""
    if t.response is None:
        raise NoResponse(_UNRESPONDED)
    failing: list[Part] = []
    passing: list[frozenset[StatementId]] = []
    for block, bits in t.block_bits():
        if bits and bits.count(bits[0]) == len(bits) \
                and all(len({s.fragment for s in b}) == 1 for b in block.brackets):
            if bits[0]:
                failing.append(block.brackets)
            else:
                passing.append(frozenset(chain.from_iterable(block.brackets)))
            continue
        for selection, bit in zip(product(*block.brackets), bits):
            if bit:
                failing.append(tuple(zip(selection)))
            else:
                passing.append(frozenset(selection))
    if not failing:
        raise NoFailures("response vector is all-zero; no fault detected")
    return failing, passing


def factor_clauses(parts: Sequence[Part]) -> list[Clause]:
    """The CNF clauses of the failing *parts* (whole blocks and single rows,
    as tuples of brackets), each full product of rows folded into one
    clause of bracket literals.

    Parts are grouped by the fragments they touch, keyed by each bracket's
    first member, in order of first appearance.  A group of one distinct
    part is the one clause of its brackets: a set hits every row of the
    product B1 x ... x Bm iff it contains some whole Bi.  Any other group is
    read from its distinct rows.  They are the product of their
    per-fragment brackets (the statements they mark on each fragment) when
    each row marks one statement per fragment and the rows number
    |B1| * ... * |Bm|; the group is then the one clause {B1, ..., Bm}, and
    otherwise each row is a clause of its own.  Exact for any table.
    """
    groups: dict[frozenset[str], list[Part]] = {}
    for part in parts:
        groups.setdefault(frozenset(b[0].fragment for b in part), []).append(part)
    out: list[Clause] = []
    for fragments, group in groups.items():
        clauses = {Clause(map(frozenset, p)) for p in group}
        if len(clauses) == 1:
            out.append(clauses.pop())
            continue
        rows = dict.fromkeys(frozenset(row) for p in group for row in product(*p))
        marked = frozenset().union(*rows)
        if (all(len(row) == len(fragments) for row in rows)
                and len(rows) == prod(Counter(s.fragment for s in marked).values())):
            out.append(Clause(frozenset(s for s in marked if s.fragment == f)
                              for f in fragments))
        else:
            out.extend(rows)
    return out


def _absorb(terms: Iterable[Term]) -> set[Term]:
    kept: list[Term] = []
    for t in sorted(set(terms), key=len):
        if not any(k <= t for k in kept):
            kept.append(t)
    return set(kept)


def cnf_to_min_dnf(clauses: Sequence[Clause], cap: int = DEFAULT_DNF_CAP) -> CandidateDNF:
    """Minimal DNF of a clause conjunction: all minimal hitting sets.

    A literal is a single statement, or a bracket (a frozenset, see
    factor_clauses) that stands for all of its statements.  Distributes
    one clause at a time; terms containing one of the clause's literals
    pass through, others are extended by each literal, and absorption
    prunes supersets after every step, which keeps the intermediate family
    an antichain instead of letting the raw product blow up.  More than
    *cap* terms after any clause raises CandidateExplosion.
    """
    if not clauses:
        raise NoFailures("empty clause family")
    partial: set[Term] = {Term()}
    for clause in clauses:
        literals = [lit if isinstance(lit, frozenset) else Term((lit,)) for lit in clause]
        grown: set[Term] = set()
        for term in partial:
            if any(lit <= term for lit in literals):
                grown.add(term)
            else:
                grown.update(term | lit for lit in literals)
        partial = _absorb(grown)
        if len(partial) > cap:
            raise CandidateExplosion(f"candidate DNF exceeds the cap of {cap} terms")
    return CandidateDNF(terms=frozenset(partial))


def _check_mode(mode: str) -> None:
    if mode not in ("strong", "weak"):
        raise ValueError(f"unknown exoneration mode {mode!r}")


def reduce_candidates(f: CandidateDNF, h: frozenset[StatementId],
                      mode: str = "strong") -> CandidateDNF:
    """Drop exonerated candidates: F' = F \\ H.

    Strong mode (single-fault assumption) drops every term containing any
    member of H; weak mode drops only terms entirely inside H.  Raises
    EmptyDiagnosis when nothing survives.
    """
    _check_mode(mode)
    if mode == "strong":
        kept = {t for t in f.terms if not (t & h)}
    else:
        kept = {t for t in f.terms if not (t <= h)}
    if not kept:
        raise EmptyDiagnosis(_INCONSISTENT)
    return CandidateDNF(terms=frozenset(kept))


def _table_groups(t: FaultDetectionTable) -> tuple[dict[StatementId, int],
                                                 list[AmbiguityGroup]]:
    """Every ambiguity group of the table, ordered by least member, and the
    index of each column's group.

    Path-level signature: the set of path labels whose rows mark the
    statement.  Exact for generalized tables and for complete-test extended
    tables (a path's terms jointly mark everything on the path).  The
    partition depends only on the blocks and columns, so it is one of the
    table's kept facts.
    """
    kept = _kept(t)
    if "ambiguity" in kept:
        return kept["ambiguity"]
    sig: dict[StatementId, set[str]] = {c: set() for c in t.columns}
    for block in t.blocks:
        if len(block):
            for m in chain.from_iterable(block.brackets):
                sig[m].add(block.path.label)
    by_sig: dict[frozenset[str], list[StatementId]] = {}
    for c, labels in sig.items():
        by_sig.setdefault(frozenset(labels), []).append(c)
    groups = sorted((AmbiguityGroup(members=frozenset(m), signature=w) for w, m in by_sig.items()),
                    key=lambda g: g.sorted_members()[0].sort_key())
    index = {c: i for i, g in enumerate(groups) for c in g.members}
    kept["ambiguity"] = index, groups
    return index, groups


def diagnose(t: FaultDetectionTable, mode: str = "strong",
             cap: int = DEFAULT_DNF_CAP) -> DiagnosisResult:
    """Full pipeline: factored clauses, minimal DNF (at most *cap* terms after
    each clause), exoneration, reduction.

    Attaches the ambiguity group(s) containing the surviving statements.
    Keeps the result, or the type and message of a NoFailures,
    EmptyDiagnosis or CandidateExplosion, in the table's memo under (V,
    *mode*, *cap*): a repeat returns that same result, or raises a new
    exception of that type and message.  ValueError for an unknown *mode*
    and NoResponse are raised before any lookup, and never kept.
    """
    _check_mode(mode)
    if t.response is None:
        raise NoResponse(_UNRESPONDED)
    key, memo = (t.response.bits, mode, cap), _kept(t)
    verdict = memo.get(key)
    if verdict is None:
        try:
            failing, passing = _parts_by_verdict(t)
            f = cnf_to_min_dnf(factor_clauses(failing), cap=cap)
            h = frozenset().union(*passing)
            reduced = reduce_candidates(f, h, mode=mode)
            index, groups = _table_groups(t)
            held = {index[s] for term in reduced.terms for s in term}
            verdict = DiagnosisResult(candidates=f, exonerated=h, reduced=reduced, mode=mode,
                                      ambiguity=tuple(groups[i] for i in sorted(held)))
        except (NoFailures, EmptyDiagnosis, CandidateExplosion) as e:
            verdict = type(e), str(e)
        verdict = memo.setdefault(key, verdict)
    if isinstance(verdict, DiagnosisResult):
        return verdict
    error, message = verdict
    raise error(message)


def diagnose_generalized(t: FaultDetectionTable) -> frozenset[StatementId]:
    """Per-path diagnosis: intersection of failing rows' marks minus the
    union of passing rows' marks.  The rows of a block all mark exactly
    the members of its one-statement brackets.  Raises EmptyDiagnosis when
    no statement is left."""
    if t.kind != "generalized":
        raise ValueError("diagnose_generalized needs a generalized table")
    failing, passing = _parts_by_verdict(t)
    common = [frozenset(chain.from_iterable(b for b in p if len(set(b)) == 1))
              for p in failing]
    suspects = frozenset.intersection(*common) - frozenset().union(*passing)
    if not suspects:
        raise EmptyDiagnosis(_INCONSISTENT)
    return suspects


#: Path-set fingerprints are weighted path sums modulo this prime, with
#: one weight per rib key drawn from a Random seeded with _FINGERPRINT_SEED.
_PRIME = (1 << 61) - 1
_FINGERPRINT_SEED = 1979

PathCounts = tuple[dict[str, int], dict[str, int], dict[str, dict[str, int]]]


def _path_counts(g: RTGraph, order: Sequence[str],
                 weight: dict[tuple[str, str, str], int] | None = None) -> PathCounts:
    """(into, out, reach): for each node u (in topological *order*) the
    paths from u to every node it reaches (u itself by the empty path),
    and those from the input to u and from u to the output.  Without
    *weight* each path counts 1, as exact ints; with it, each path counts
    the product of its ribs' weights, summed modulo _PRIME.  O(V * E)."""
    reach: dict[str, dict[str, int]] = {}
    for u in reversed(order):
        row = {u: 1}
        for rib in g.out_ribs(u):
            w = weight[rib.key] if weight else 1
            for v, n in reach.get(rib.dst, {}).items():
                row[v] = row.get(v, 0) + n * w
        reach[u] = {v: n % _PRIME for v, n in row.items()} if weight else row
    out = {u: row.get(g.output_node, 0) for u, row in reach.items()}
    return reach.get(g.input_node, {}), out, reach


def _covering_count(ribs: Sequence[Rib], counts: PathCounts,
                    weight: dict[tuple[str, str, str], int] | None = None) -> int:
    """How many input-output paths cross at least one of *ribs* (given in
    topological order of their sources), or with *weight* their weighted
    sum as in ``_path_counts``.  Each path is counted once, at the first of
    them it crosses: the paths reaching a rib's source that cross none of
    *ribs* are all paths there less those first crossing an earlier rib,
    which on a DAG is the only kind that can reach it."""
    into, out, reach = counts
    first: list[tuple[str, int]] = []  # (rib destination, paths first crossing the rib)
    total = 0
    for rib in ribs:
        n = into.get(rib.src, 0) - sum(m * reach.get(d, {}).get(rib.src, 0) for d, m in first)
        if weight:
            n = n * weight[rib.key] % _PRIME
        first.append((rib.dst, n))
        total += n * out.get(rib.dst, 0)
    return total % _PRIME if weight else total


def ambiguity_groups(g: RTGraph) -> list[AmbiguityGroup]:
    """Partition of all statement ids by identical covering-path sets,
    ordered by least member, without listing a path.

    Two statements are indistinguishable when every path containing one
    contains the other: with a single output observation, all terms of a
    path fail together whenever any statement on the path is faulty.  The
    statements of a fragment share its covering paths.  Fragments F and G
    cover the same paths iff N(F) = N(G) = N(F u G), where N counts the
    paths crossing a rib of the set (``_covering_count``).  Fragments are
    bucketed by N and by W, the sum over those paths of the product of
    seeded random rib weights modulo a prime: equal path sets have equal W,
    and different ones rarely do (Schwartz & Zippel).  Each fragment is
    confirmed against one member of a class in its bucket by the exact
    N(F u G), so a collision of W never merges two classes.  Fragments on
    no input-output path (N = 0) form one group.  Polynomial in the graph,
    however many paths it has.  Raises CyclicGraph.
    """
    order = g.acyclic_order()
    pos = {u: i for i, u in enumerate(order)}
    rng = Random(_FINGERPRINT_SEED)
    weight = {r.key: rng.randrange(1, _PRIME) for r in g.ribs}
    exact, fingerprint = _path_counts(g, order), _path_counts(g, order, weight)

    def by_source(rib: Rib) -> int:
        return pos.get(rib.src, len(pos))

    classes: dict[tuple[int, int], list[list[str]]] = {}  # (N, W) -> fragment classes
    for fragment in g.fragments:
        ribs = g.fragment_ribs(fragment)
        n = _covering_count(ribs, exact)
        bucket = classes.setdefault((n, _covering_count(ribs, fingerprint, weight)), [])
        for cls in bucket:
            union = sorted(g.fragment_ribs(cls[0]) + ribs, key=by_source)
            if not n or _covering_count(union, exact) == n:
                cls.append(fragment)
                break
        else:
            bucket.append([fragment])
    groups = [AmbiguityGroup(members=frozenset(chain.from_iterable(map(g.fragment_sids, cls))),
                             signature=frozenset(cls))
              for bucket in classes.values() for cls in bucket]
    return sorted(groups, key=lambda gr: gr.sorted_members()[0].sort_key())


# --- observation-point recommendation -----------------------------------------

def _segments(n_statements: int, cuts: frozenset[int]) -> list[int]:
    """Segment sizes of a rib with *n_statements* split after each ordinal
    in *cuts* (cut k separates ordinals <= k from ordinals > k)."""
    sizes = []
    prev = 0
    for c in sorted(cuts):
        sizes.append(c - prev)
        prev = c
    sizes.append(n_statements - prev)
    return [s for s in sizes if s > 0]


def _plan_cuts(lo: int, size: int, target: int) -> list[int]:
    """Cuts splitting the segment of *size* statements after ordinal *lo*
    into its ceil(size / target) blocks of at most *target*, in order.

    A segment needing k blocks is cut once, into floor(k/2) and ceil(k/2)
    blocks, at the cut nearest its middle that allows this, and each half
    is planned alone.  That makes k - 1 cuts, and no fewer cuts leave every
    block at most *target*.
    """
    k = -(-size // target)
    if k <= 1:
        return []
    left = min(max(size // 2, size - (k - k // 2) * target), (k // 2) * target)
    return (_plan_cuts(lo, left, target) + [lo + left]
            + _plan_cuts(lo + left, size - left, target))


def recommend_observation_points(g: RTGraph, target: int) -> list[tuple[str, int]]:
    """Insertion points that shrink every ambiguity group to *target*.

    Returns (fragment, insert-after-ordinal) pairs, ceil(n / target) - 1 of
    them for a fragment of n statements, which is the minimum.  All
    statements of a fragment share its covering paths, hence one ambiguity
    group, and the monitors standing between fragments already separate a
    group's fragments: every group splits into per-fragment blocks,
    whatever the paths, so every fragment is planned alone.
    """
    if target < 1:
        raise ValueError("target must be at least 1")
    return sorted(((fragment, cut) for fragment in g.fragments
                   for cut in _plan_cuts(0, len(g.fragment_sids(fragment)), target)),
                  key=lambda fc: (g.natural_keys[fc[0]], fc[1]))


def verify_minimal_insertions(g: RTGraph, target: int, proposed_count: int) -> bool:
    """Exhaustively check that no smaller insertion set reaches *target*."""
    sizes = {fragment: len(g.fragment_sids(fragment)) for fragment in g.fragments}
    positions = [(fragment, k) for fragment, n in sizes.items() for k in range(1, n)]

    def achieves(subset: tuple[tuple[str, int], ...]) -> bool:
        chosen: dict[str, set[int]] = {}
        for fragment, k in subset:
            chosen.setdefault(fragment, set()).add(k)
        return all(max(_segments(n, frozenset(chosen.get(fragment, ()))), default=0) <= target
                   for fragment, n in sizes.items())

    for k in range(proposed_count):
        for subset in combinations(positions, k):
            if achieves(subset):
                return False
    return True
