"""Test synthesis: path enumeration, activation formulas, term expansion,
and the two covering problems (path cover and minimal diagnostic test).

A one-dimensional path is a simple input-to-output path; its activation
formula holds one bracket per rib listing that rib's opcodes.  Removing the
brackets (a Cartesian expansion that picks one statement per rib) yields the
complete test: every statement id of the graph is the selected statement of
at least one term.

The one block type, of suites and tables alike, is ``Block``: a path, its
brackets and the labels of the items that form the bracket product, in
``itertools.product`` order.  The complete test holds one block per path,
and its extended table holds the same blocks; an item given on its own is
``Block.of`` its path, selection and label.  ``TestSuite.terms`` is a view
that builds the ``TestTerm`` objects only when they are read.
"""

from __future__ import annotations

import heapq
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, product, repeat
from math import prod
from typing import Callable, Iterable

from .errors import LengthMismatch, PathExplosion, TermExplosion, Uncoverable
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
        """The monitors passed, in order; () for a label-only path."""
        return tuple(r.src for r in self.edges[:1]) + tuple(r.dst for r in self.edges)

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
        return "[" + "".join("(" + " ∨ ".join(map(str, ops)) + ")"
                             for ops in self.opcode_sets()) + "]"


@dataclass(frozen=True, slots=True)
class TestTerm:
    """One statement selection per rib along a path."""

    __test__ = False  # pytest: not a test class

    path: Path
    selection: tuple[StatementId, ...]
    label: str


@dataclass(frozen=True, slots=True)
class Block:
    """The items of one path that form the product of its brackets: item i
    selects the i-th tuple of ``itertools.product(*brackets)`` and is
    labelled ``labels[i]``.  A table that knows no ribs holds the path as
    ``Path(label, ())``."""

    path: Path
    brackets: tuple[tuple[StatementId, ...], ...]
    labels: tuple[str, ...]

    @classmethod
    def of(cls, path: Path, selection: Iterable[StatementId], label: str) -> "Block":
        """One item, *selection* on *path*, as a block of singleton brackets."""
        return cls(path, tuple((s,) for s in selection), (label,))

    def __len__(self) -> int:
        return len(self.labels)


class BlockView(Sequence):
    """An immutable sequence held as path blocks, one ``item(path, selection,
    label)`` per label: *item* is ``TestTerm`` or ``fdt.TableRow.of``.  The
    length is known without expanding; the items are built on first access
    and kept.  Raises LengthMismatch unless every block has one label per
    tuple of its bracket product."""

    __slots__ = ("blocks", "_item", "_len", "_items")

    def __init__(self, blocks: Iterable[Block], item: Callable):
        self.blocks = tuple(blocks)
        self._item = item
        for b in self.blocks:
            if prod(map(len, b.brackets)) != len(b.labels):
                raise LengthMismatch(f"a block has {len(b.labels)} labels for a product "
                                     f"of {prod(map(len, b.brackets))} selections")
        self._len = sum(map(len, self.blocks))
        self._items: tuple | None = None

    def _expanded(self) -> tuple:
        if self._items is None:
            self._items = tuple(chain.from_iterable(
                map(self._item, repeat(b.path), product(*b.brackets), b.labels)
                for b in self.blocks))
        return self._items

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i):
        return self._expanded()[i]

    def __iter__(self):
        return iter(self._expanded())

    def __eq__(self, other) -> bool:
        if isinstance(other, BlockView):
            return (self._item == other._item and self.blocks == other.blocks
                    or self._expanded() == other._expanded())
        if isinstance(other, tuple):
            return self._expanded() == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._expanded())

    def __repr__(self) -> str:
        return f"BlockView({len(self.blocks)} blocks, {self._len} items)"

    def labels(self) -> tuple[str, ...]:
        """The label of every item, in order, without expanding."""
        return tuple(chain.from_iterable(b.labels for b in self.blocks))


@dataclass(frozen=True, slots=True)
class TestSuite:
    """Test terms in run order, held as path blocks.  *terms* may be given
    as any sequence of ``TestTerm``: each becomes ``Block.of`` it."""

    __test__ = False  # pytest: not a test class

    terms: BlockView  # of TestTerm

    def __post_init__(self) -> None:
        if not isinstance(self.terms, BlockView):
            object.__setattr__(self, "terms", BlockView(
                (Block.of(t.path, t.selection, t.label) for t in self.terms), TestTerm))

    @property
    def blocks(self) -> tuple[Block, ...]:
        return self.terms.blocks


def _node_short(name: str, role: str) -> str:
    if role != "internal":
        return name
    digits = "".join(ch for ch in name if ch.isdigit())
    return digits if digits else name


def enumerate_paths(g: RTGraph, path_cap: int = DEFAULT_PATH_CAP) -> list[Path]:
    """All simple input-to-output paths, ordered lexicographically by
    fragment sequence.  Raises PathExplosion past *path_cap* paths."""
    start, goal = g.input_node, g.output_node
    found: list[tuple[Rib, ...]] = []
    # Depth-first with an explicit stack: one iterator over the out-ribs of
    # the end node of each prefix of *edges*, so long paths need no frames.
    edges: list[Rib] = []
    visited = {start}
    stack = [iter(g.out_ribs(start))]
    while stack:
        rib = next(stack[-1], None)
        if rib is None:
            stack.pop()
            if edges:
                visited.remove(edges.pop().dst)
        elif rib.dst == goal:
            found.append((*edges, rib))
            if len(found) > path_cap:
                raise PathExplosion(f"more than {path_cap} paths")
        elif rib.dst not in visited:
            visited.add(rib.dst)
            edges.append(rib)
            stack.append(iter(g.out_ribs(rib.dst)))
    frag_key = {r.fragment: natural_key(r.fragment) for r in g.ribs}
    found.sort(key=lambda edges: tuple(frag_key[r.fragment] for r in edges))

    short = {n.name: _node_short(n.name, n.role) for n in g.nodes}
    labels = [short[edges[0].src] + "".join(short[r.dst] for r in edges) for edges in found]
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


def build_complete_test(g: RTGraph, paths: Sequence[Path] | None = None,
                        term_cap: int = DEFAULT_TERM_CAP) -> TestSuite:
    """The complete test: every activation formula fully expanded, one block
    per path.  Raises TermExplosion naming the first path whose expansion
    has more than *term_cap* terms.

    A term's label concatenates its opcode digits.  Terms on paths with
    three or more ribs always carry an occurrence subscript (rows from
    overlapping long paths stay distinct at a glance); short-path terms are
    subscripted only when their opcode string collides within the suite.
    """
    if paths is None:
        paths = enumerate_paths(g)
    formulas = [activation_formula(g, p) for p in paths]
    bases = []
    for f in formulas:
        total = prod(map(len, f.brackets))
        if total > term_cap:
            raise TermExplosion(f"expansion of {f.path.label} has {total} terms "
                                f"(cap {term_cap})")
        digits = [[str(s.opcode) for s in b] for b in f.brackets]
        bases.append(list(map("".join, product(*digits))))
    counts = Counter(chain.from_iterable(bases))
    subs = [subscript(n) for n in range(max(counts.values(), default=0) + 1)]
    occurrence: dict[str, int] = {}
    blocks = []
    for f, path_bases in zip(formulas, bases):
        always = len(f.path.edges) >= 3
        labels = []
        for base in path_bases:
            n = occurrence[base] = occurrence.get(base, 0) + 1
            labels.append(base + subs[n] if always or counts[base] > 1 else base)
        blocks.append(Block(f.path, f.brackets, tuple(labels)))
    return TestSuite(terms=BlockView(blocks, TestTerm))


# --- covering problems -------------------------------------------------------

def _greedy_cover(universe: frozenset, candidates: list[tuple[str, frozenset]]) -> list[str]:
    """Repeatedly take the candidate covering the most uncovered elements;
    ties go to the naturally smallest label, then to the earlier candidate.

    A lazy max-gain heap keyed (-gain, rank): gains only shrink as coverage
    grows, so an entry whose refreshed key still beats the heap top is the
    exact minimum over all remaining candidates.
    """
    by_label = dict(candidates)
    labels = sorted(by_label, key=natural_key)
    heap = [(-len(by_label[label]), rank) for rank, label in enumerate(labels)]
    heapq.heapify(heap)
    chosen: list[str] = []
    covered: set = set()
    while covered != universe:
        gain = 0
        while heap:
            _, rank = heapq.heappop(heap)
            gain = len(by_label[labels[rank]] - covered)
            if not heap or (-gain, rank) <= heap[0]:
                break
            heapq.heappush(heap, (-gain, rank))
        if not gain:
            missing = sorted(universe - covered, key=str)[0]
            raise Uncoverable(missing)
        chosen.append(labels[rank])
        covered |= by_label[labels[rank]]
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


def cover_is_exact(candidates: int, exact_cap: int) -> bool:
    """Whether a covering problem over *candidates* candidate sets is solved
    exactly (branch and bound) rather than greedily."""
    return candidates <= exact_cap


def _solve_cover(universe: frozenset, candidates: list[tuple[str, frozenset]],
                 exact_cap: int) -> list[str]:
    if cover_is_exact(len(candidates), exact_cap):
        return _exact_cover(universe, candidates)
    return _greedy_cover(universe, candidates)


def minimal_path_cover(g: RTGraph, paths: Sequence[Path],
                       exact_cap: int = DEFAULT_EXACT_CAP) -> list[Path]:
    """A minimum-cardinality path subset covering all nodes and all edges.

    Exact (branch and bound) up to *exact_cap* paths, greedy beyond, so
    ``exact_cap=0`` forces greedy and ``exact_cap=len(paths)`` exact.  Ties
    break toward naturally smaller path labels.
    """
    universe = frozenset(n.name for n in g.nodes) | frozenset(r.key for r in g.ribs)
    candidates = [(p.label, frozenset(p.nodes) | frozenset(r.key for r in p.edges))
                  for p in paths]
    keep = set(_solve_cover(universe, candidates, exact_cap))
    return [p for p in paths if p.label in keep]


def minimal_diagnostic_test(suite: TestSuite, columns: Iterable[StatementId],
                            exact_cap: int = DEFAULT_EXACT_CAP) -> TestSuite:
    """Minimum term subset whose selections cover every statement id, exact
    up to *exact_cap* terms and greedy beyond.

    Raises Uncoverable when some statement id is selected by no term.
    """
    universe = frozenset(columns)
    candidates = [(t.label, frozenset(t.selection) & universe) for t in suite.terms]
    keep = set(_solve_cover(universe, candidates, exact_cap))
    terms = tuple(t for t in suite.terms if t.label in keep)
    return TestSuite(terms=terms)
