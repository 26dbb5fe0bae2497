"""Test synthesis: path enumeration, activation formulas, term expansion,
and the two covering problems (path cover and minimal diagnostic test).

A one-dimensional path is a simple input-to-output path; its activation
formula holds one bracket per rib listing that rib's opcodes.  Removing the
brackets (a Cartesian expansion that picks one statement per rib) yields the
complete test: every statement id of the graph is the selected statement of
at least one term.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import PathExplosion, TermExplosion, Uncoverable
from .rtg import RTGraph, Rib, StatementId, natural_key, subscript

DEFAULT_PATH_CAP = 10 ** 6
DEFAULT_TERM_CAP = 10 ** 6
DEFAULT_EXACT_CAP = 20


@dataclass(frozen=True, slots=True)
class Path:
    """A simple input-to-output path, labelled by its monitor sequence
    (internal nodes contribute their digits: X -> R1 -> R4 -> Y is X14Y)."""

    label: str
    edges: tuple[Rib, ...]

    @property
    def nodes(self) -> tuple[str, ...]:
        return (self.edges[0].src,) + tuple(r.dst for r in self.edges)

    @property
    def fragments(self) -> tuple[str, ...]:
        return tuple(r.fragment for r in self.edges)


@dataclass(frozen=True, slots=True)
class ActivationFormula:
    """Per-rib brackets for one path.

    Each bracket is the rib's selection list: its statement ids ordered by
    ascending opcode (then ordinal).  A rib with repeated opcodes contributes
    one selection per statement, so expansion still reaches every statement.
    """

    path: Path
    brackets: tuple[tuple[StatementId, ...], ...]

    def opcode_sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(sorted({s.opcode for s in b})) for b in self.brackets)

    def __str__(self) -> str:
        parts = ["(" + " ∨ ".join(str(c) for c in sorted({s.opcode for s in b})) + ")"
                 for b in self.brackets]
        return "[" + "".join(parts) + "]"


@dataclass(frozen=True, slots=True)
class TestTerm:
    """One statement selection per rib along a path."""

    __test__ = False  # pytest: not a test class

    path: Path
    selection: tuple[StatementId, ...]
    label: str

    @property
    def base_label(self) -> str:
        return "".join(str(s.opcode) for s in self.selection)

    @property
    def marks(self) -> frozenset[StatementId]:
        return frozenset(self.selection)


@dataclass(frozen=True, slots=True)
class TestSuite:
    __test__ = False  # pytest: not a test class

    terms: tuple[TestTerm, ...]
    origin: str  # "complete" | "minimal-cover" | "minimal-diagnostic"

    def labels(self) -> tuple[str, ...]:
        return tuple(t.label for t in self.terms)

    def by_label(self) -> dict[str, TestTerm]:
        return {t.label: t for t in self.terms}


def _node_short(g: RTGraph, name: str) -> str:
    node = g.node_by_name[name]
    if node.role != "internal":
        return name
    digits = "".join(ch for ch in name if ch.isdigit())
    return digits if digits else name


def enumerate_paths(g: RTGraph, path_cap: int = DEFAULT_PATH_CAP) -> list[Path]:
    """All simple input-to-output paths, ordered lexicographically by
    fragment sequence.  Raises PathExplosion past *path_cap* paths."""
    start, goal = g.input_node, g.output_node
    found: list[tuple[Rib, ...]] = []

    def walk(node: str, visited: set[str], edges: list[Rib]):
        if node == goal:
            found.append(tuple(edges))
            if len(found) > path_cap:
                raise PathExplosion(f"more than {path_cap} paths")
            return
        for rib in g.out_ribs(node):
            if rib.dst in visited:
                continue
            visited.add(rib.dst)
            edges.append(rib)
            walk(rib.dst, visited, edges)
            edges.pop()
            visited.remove(rib.dst)

    walk(start, {start}, [])
    found.sort(key=lambda edges: tuple(natural_key(r.fragment) for r in edges))

    labels = []
    for edges in found:
        nodes = (edges[0].src,) + tuple(r.dst for r in edges)
        labels.append("".join(_node_short(g, n) for n in nodes))
    counts = Counter(labels)
    occurrence: Counter = Counter()
    paths = []
    for label, edges in zip(labels, found):
        occurrence[label] += 1
        if counts[label] > 1:
            label += subscript(occurrence[label])
        paths.append(Path(label=label, edges=edges))
    return paths


def activation_formula(g: RTGraph, p: Path) -> ActivationFormula:
    """One bracket per rib holding the rib's opcode alternatives."""
    brackets = tuple(g.fragment_sids(r.fragment) for r in p.edges)
    return ActivationFormula(path=p, brackets=brackets)


def expand_terms(f: ActivationFormula, existing: Sequence[TestTerm] = (),
                 term_cap: int = DEFAULT_TERM_CAP) -> list[TestTerm]:
    """Remove the brackets: the Cartesian product of the selection lists.

    Labels concatenate the chosen opcode digits; a label already used by
    *existing* terms (or earlier in this expansion) gets an occurrence
    subscript.  Suite-level labelling is finalized by build_complete_test.
    """
    total = 1
    for b in f.brackets:
        total *= len(b)
    if total > term_cap:
        raise TermExplosion(f"expansion of {f.path.label} has {total} terms (cap {term_cap})")

    used = Counter(t.base_label for t in existing)
    out: list[TestTerm] = []
    for selection in itertools.product(*f.brackets):
        base = "".join(str(s.opcode) for s in selection)
        used[base] += 1
        label = base if used[base] == 1 else base + subscript(used[base])
        out.append(TestTerm(path=f.path, selection=tuple(selection), label=label))
    return out


def _finalize_labels(terms: list[TestTerm]) -> list[TestTerm]:
    # Terms on paths with three or more ribs always carry an occurrence
    # subscript (rows from overlapping long paths stay distinct at a glance);
    # short-path terms are subscripted only when their opcode string collides.
    bases = [t.base_label for t in terms]
    counts = Counter(bases)
    occurrence: Counter = Counter()
    out = []
    for t, base in zip(terms, bases):
        occurrence[base] += 1
        if counts[base] > 1 or len(t.path.edges) >= 3:
            label = base + subscript(occurrence[base])
        else:
            label = base
        out.append(TestTerm(path=t.path, selection=t.selection, label=label))
    return out


def build_complete_test(g: RTGraph, paths: Sequence[Path] | None = None,
                        term_cap: int = DEFAULT_TERM_CAP) -> TestSuite:
    """The complete test: every activation formula fully expanded."""
    if paths is None:
        paths = enumerate_paths(g)
    terms: list[TestTerm] = []
    for p in paths:
        terms.extend(expand_terms(activation_formula(g, p), term_cap=term_cap))
    return TestSuite(terms=tuple(_finalize_labels(terms)), origin="complete")


# --- covering problems -------------------------------------------------------

def _greedy_cover(universe: frozenset, candidates: list[tuple[str, frozenset]]) -> list[str]:
    chosen: list[str] = []
    covered: set = set()
    remaining = dict(candidates)
    while covered != universe:
        label, items = min(remaining.items(),
                           key=lambda kv: (-len(kv[1] - covered), natural_key(kv[0])))
        if not items - covered:
            missing = sorted(universe - covered, key=str)[0]
            raise Uncoverable(missing)
        chosen.append(label)
        covered |= items
        del remaining[label]
    return chosen


def _exact_cover(universe: frozenset, candidates: list[tuple[str, frozenset]]) -> list[str]:
    """Branch-and-bound minimum set cover, deterministic.

    Branches on the uncovered element with the fewest covering candidates;
    prefers the lexicographically (naturally) smallest label set on ties.
    """
    order = {label: i for i, (label, _) in enumerate(
        sorted(candidates, key=lambda kv: natural_key(kv[0])))}
    elem_cover: dict = {}
    for label, items in candidates:
        for e in items:
            elem_cover.setdefault(e, []).append(label)
    for e in universe:
        if e not in elem_cover:
            raise Uncoverable(e)
    by_label = dict(candidates)

    greedy = _greedy_cover(universe, candidates)
    best: list[str] = sorted(greedy, key=lambda l: order[l])
    best_key = (len(best), tuple(order[l] for l in best))

    def search(covered: frozenset, chosen: list[str]):
        nonlocal best, best_key
        if covered >= universe:
            key = (len(chosen), tuple(sorted(order[l] for l in chosen)))
            if key < best_key:
                best, best_key = sorted(chosen, key=lambda l: order[l]), key
            return
        if len(chosen) + 1 > best_key[0]:
            return
        remaining = universe - covered
        # cheap bound: one candidate can cover at most max_gain new elements
        max_gain = max(len(by_label[l] & remaining) for l in by_label)
        need = -(-len(remaining) // max_gain)
        if len(chosen) + need > best_key[0]:
            return
        elem = min(remaining, key=lambda e: (len(elem_cover[e]), str(e)))
        for label in sorted(elem_cover[elem], key=lambda l: order[l]):
            if label in chosen:
                continue
            chosen.append(label)
            search(covered | by_label[label], chosen)
            chosen.pop()

    search(frozenset(), [])
    return best


def _solve_cover(universe: frozenset, candidates: list[tuple[str, frozenset]],
                 exact_cap: int, method: str) -> tuple[list[str], bool]:
    if method == "greedy" or (method == "auto" and len(candidates) > exact_cap):
        return _greedy_cover(universe, candidates), False
    return _exact_cover(universe, candidates), True


def minimal_path_cover(g: RTGraph, paths: Sequence[Path],
                       exact_cap: int = DEFAULT_EXACT_CAP,
                       method: str = "auto") -> list[Path]:
    """A minimum-cardinality path subset covering all nodes and all edges.

    Exact (branch and bound) up to *exact_cap* paths, greedy beyond; pass
    ``method="greedy"`` or ``"exact"`` to force one.  Ties break toward
    naturally smaller path labels.
    """
    universe = frozenset(n.name for n in g.nodes) | frozenset(r.key for r in g.ribs)
    candidates = [(p.label, frozenset(p.nodes) | frozenset(r.key for r in p.edges))
                  for p in paths]
    chosen, _ = _solve_cover(universe, candidates, exact_cap, method)
    keep = set(chosen)
    return [p for p in paths if p.label in keep]


def minimal_diagnostic_test(suite: TestSuite, columns: Iterable[StatementId],
                            exact_cap: int = DEFAULT_EXACT_CAP,
                            method: str = "auto") -> TestSuite:
    """Minimum term subset whose selections cover every statement id.

    Raises Uncoverable when some statement id is selected by no term.
    """
    universe = frozenset(columns)
    candidates = [(t.label, frozenset(t.selection) & universe) for t in suite.terms]
    chosen, _ = _solve_cover(universe, candidates, exact_cap, method)
    keep = set(chosen)
    terms = tuple(t for t in suite.terms if t.label in keep)
    return TestSuite(terms=terms, origin="minimal-diagnostic")
