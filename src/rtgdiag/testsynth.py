"""Test synthesis: path enumeration, activation formulas, term expansion,
and the two covering problems (path cover and minimal diagnostic test).

A one-dimensional path is a simple input-to-output path; its activation
formula is text, one bracket per rib listing that rib's opcodes.  Removing
the brackets (a Cartesian expansion that picks one statement per rib) yields
the complete test: every statement id of the graph is the selected statement
of at least one term.  A path block holds the brackets themselves, the ribs'
statement id tuples.

Suites and tables alike hold a tuple of ``Block``: a path, its brackets and
the labels of the items that form the bracket product, in
``itertools.product`` order.  The complete test holds one block per path,
and its extended table holds the same blocks; an item given on its own is
``Block.of`` its path, selection and label.  ``TestSuite.labels()`` reads
every label without building terms; ``TestSuite.terms`` builds the
``TestTerm`` objects anew on each read, and so do a table's rows.
"""

from __future__ import annotations

import heapq
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, product
from math import prod
from typing import Iterable, Iterator

from .errors import LengthMismatch, PathExplosion, TermExplosion, Uncoverable
from .rtg import RTGraph, Rib, StatementId, natural_key, subscript

DEFAULT_PATH_CAP = 10 ** 6
DEFAULT_TERM_CAP = 10 ** 6
_EXACT_LIMIT = 20


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
    ``Path(label, ())``.  Raises LengthMismatch unless there is one label
    per selection."""

    path: Path
    brackets: tuple[tuple[StatementId, ...], ...]
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if prod(map(len, self.brackets)) != len(self.labels):
            raise LengthMismatch(f"a block has {len(self.labels)} labels for a product "
                                 f"of {prod(map(len, self.brackets))} selections")

    @classmethod
    def of(cls, path: Path, selection: Iterable[StatementId], label: str) -> "Block":
        """One item, *selection* on *path*, as a block of singleton brackets."""
        return cls(path, tuple((s,) for s in selection), (label,))

    def __len__(self) -> int:
        return len(self.labels)

    def items(self) -> Iterator[tuple[tuple[StatementId, ...], str]]:
        """Each item's selection and label, in order."""
        return zip(product(*self.brackets), self.labels)


@dataclass(frozen=True, slots=True)
class TestSuite:
    """Test terms in run order, held as path blocks."""

    __test__ = False  # pytest: not a test class

    blocks: tuple[Block, ...]

    @property
    def terms(self) -> tuple[TestTerm, ...]:
        """Every term, built on each read."""
        return tuple(TestTerm(b.path, selection, label)
                     for b in self.blocks for selection, label in b.items())

    def labels(self) -> tuple[str, ...]:
        """The label of every term, in order, without building terms."""
        return tuple(chain.from_iterable(b.labels for b in self.blocks))


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
    keys = g.natural_keys
    found.sort(key=lambda edges: tuple(keys[r.fragment] for r in edges))

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


def activation_formula(g: RTGraph, p: Path) -> str:
    """*p*'s activation formula as text, a rib's opcodes per bracket: ``[(1)(1 ∨ 4)]``."""
    ops = (sorted({s.opcode for s in g.fragment_sids(r.fragment)}) for r in p.edges)
    return "[" + "".join("(" + " ∨ ".join(map(str, o)) + ")" for o in ops) + "]"


def build_complete_test(g: RTGraph, paths: Sequence[Path] | None = None,
                        term_cap: int = DEFAULT_TERM_CAP) -> TestSuite:
    """The complete test: every activation formula fully expanded, one block
    per path.  Raises TermExplosion naming the first path whose expansion
    has more than *term_cap* terms.

    A block's brackets are its ribs' ``g.fragment_sids`` tuples themselves
    (``fdt.table_text`` caches per bracket object): statement ids by opcode,
    then ordinal, one selection per statement where a rib repeats an opcode.

    A term's label concatenates its opcode digits.  Terms on paths with
    three or more ribs always carry an occurrence subscript (rows from
    overlapping long paths stay distinct at a glance); short-path terms are
    subscripted only when their opcode string collides within the suite.
    """
    if paths is None:
        paths = enumerate_paths(g)
    formulas = [tuple(g.fragment_sids(r.fragment) for r in p.edges) for p in paths]
    bases = []
    for p, brackets in zip(paths, formulas):
        total = prod(map(len, brackets))
        if total > term_cap:
            raise TermExplosion(f"expansion of {p.label} has {total} terms (cap {term_cap})")
        digits = [[str(s.opcode) for s in b] for b in brackets]
        bases.append(list(map("".join, product(*digits))))
    counts = Counter(chain.from_iterable(bases))
    subs = [subscript(n) for n in range(max(counts.values(), default=0) + 1)]
    occurrence: dict[str, int] = {}
    blocks = []
    for p, brackets, path_bases in zip(paths, formulas, bases):
        always = len(p.edges) >= 3
        labels = []
        for base in path_bases:
            n = occurrence[base] = occurrence.get(base, 0) + 1
            labels.append(base + subs[n] if always or counts[base] > 1 else base)
        blocks.append(Block(p, brackets, tuple(labels)))
    return TestSuite(tuple(blocks))


# --- the path cover: a minimum flow, labelled by counting ----------------------

def _spellings(g: RTGraph, order: Sequence[str], short: dict[str, str],
               text: str) -> dict[tuple[str, int], int]:
    """For each (node, offset) that some path prefix from the input reaches
    spelling ``text[:offset]``: how many ways lead on to the output
    spelling ``text[offset:]``.  O(V * len(text) * out-degree)."""
    s, t = g.input_node, g.output_node
    offsets: dict[str, set[int]] = {s: {len(short[s])}} if text.startswith(short[s]) else {}
    for u in order:
        if u == t:
            continue
        for i in offsets.get(u, ()):
            for r in g.out_ribs(u):
                if text.startswith(short[r.dst], i):
                    offsets.setdefault(r.dst, set()).add(i + len(short[r.dst]))
    ways: dict[tuple[str, int], int] = {}
    for u in reversed(order):
        for i in offsets.get(u, ()):
            ways[u, i] = int(i == len(text)) if u == t else sum(
                ways.get((r.dst, i + len(short[r.dst])), 0) for r in g.out_ribs(u)
                if text.startswith(short[r.dst], i))
    return ways


def _earlier(g: RTGraph, short: dict[str, str], ways: dict[tuple[str, int], int],
             text: str, edges: Sequence[Rib]) -> int:
    """How many paths spelling *text* come before *edges* in enumerate_paths
    order: by fragment natural keys, then depth-first ``out_ribs`` order.

    The paths whose key tuple equals that of *edges* so far are carried as
    counts per (node, offset, c), where c compares their ``out_ribs``
    positions with those of *edges* (-1, 0 or 1; 0 means the same ribs).
    A path is earlier once a rib's key is smaller, when it ends first, or
    when its keys tie throughout and c is -1.
    """
    t, keys = g.output_node, g.natural_keys
    earlier = 0
    states = {(g.input_node, len(short[g.input_node]), 0): 1}
    for p in edges:
        key = keys[p.fragment]
        here = next(j for j, r in enumerate(g.out_ribs(p.src)) if r is p)
        following: dict[tuple[str, int, int], int] = {}
        for (u, i, c), n in states.items():
            if u == t:
                earlier += n
                continue
            for j, r in enumerate(g.out_ribs(u)):
                w, after = short[r.dst], i + len(short[r.dst])
                if not (text.startswith(w, i) and ways.get((r.dst, after))):
                    continue
                k = keys[r.fragment]
                if k < key:
                    earlier += n * ways[r.dst, after]
                elif k == key:
                    state = (r.dst, after, c or (j > here) - (j < here))
                    following[state] = following.get(state, 0) + n
        states = following
    return earlier + sum(n for (u, _, c), n in states.items() if u == t and c < 0)


def _path_labels(g: RTGraph, order: Sequence[str],
                 walks: Iterable[tuple[Rib, ...]]) -> list[str]:
    """The label enumerate_paths gives each of *walks* (input-output rib
    sequences of the acyclic *g* in topological *order*), from counts
    alone: its node-short string S, with ``subscript(k)`` appended when
    other paths spell S too, k - 1 of them coming before it."""
    short = {n.name: _node_short(n.name, n.role) for n in g.nodes}
    spelled: dict[str, dict[tuple[str, int], int]] = {}
    labels = []
    for edges in walks:
        text = short[edges[0].src] + "".join(short[r.dst] for r in edges)
        if text not in spelled:
            spelled[text] = _spellings(g, order, short, text)
        ways = spelled[text]
        if ways[g.input_node, len(short[g.input_node])] > 1:
            text += subscript(1 + _earlier(g, short, ways, text, edges))
        labels.append(text)
    return labels


def minimal_path_cover(g: RTGraph) -> list[Path]:
    """A minimum set of input-output paths covering every node and rib,
    found without listing paths.

    On a DAG this is a minimum flow with lower bound 1 on every rib
    (Ntafos & Hakimi 1979): one unit goes through every rib and each node's
    surplus or shortfall along its first ribs to the output or from the
    input; the surplus is cancelled along output-to-input augmenting paths
    of the residual graph, which cross a rib backwards while its flow is
    above 1 and forwards always; and the flow is split into paths by
    walking from the input along the first ``out_ribs`` rib with flow
    left.  Of the minimum covers, that one is returned, in enumerate_paths
    order (fragment natural keys, then depth-first ``out_ribs`` order),
    each path labelled as enumerate_paths labels it.  Polynomial in the
    graph, however many paths it has.  Raises CyclicGraph, and Uncoverable
    naming a node or rib key that lies on no input-output path.
    """
    order = g.acyclic_order()
    s, t = g.input_node, g.output_node
    reached, leads = {s}, {t}
    for u in order:
        if u in reached and u != t:
            reached.update(r.dst for r in g.out_ribs(u))
    for u in reversed(order):
        if u != t and any(r.dst in leads for r in g.out_ribs(u)):
            leads.add(u)
    missing = [n.name for n in g.nodes if n.name not in reached or n.name not in leads]
    missing += [r.key for r in g.ribs if r.src not in reached or r.dst not in leads]
    if missing:
        raise Uncoverable(min(missing, key=str))

    first: dict[tuple[str, str, str], Rib] = {}  # a duplicate rib key is covered with the first
    for u in order:
        for r in g.out_ribs(u):
            first.setdefault(r.key, r)
    ribs = list(first.values())
    outs: dict[str, list[int]] = {u: [] for u in order}
    ins: dict[str, list[int]] = {u: [] for u in order}
    for e, r in enumerate(ribs):
        outs[r.src].append(e)
        ins[r.dst].append(e)
    flow = [1] * len(ribs)
    for v in order:
        surplus = len(ins[v]) - len(outs[v]) if v not in (s, t) else 0
        u = v
        while surplus > 0 and u != t:
            flow[outs[u][0]] += surplus
            u = ribs[outs[u][0]].dst
        while surplus < 0 and u != s:
            flow[ins[u][0]] -= surplus
            u = ribs[ins[u][0]].src
    while True:
        # breadth first from the output: (rib, +1) raises its flow, (rib, -1) lowers it
        via: dict[str, tuple[int, int]] = {}
        frontier = [t]
        while frontier and s not in via:
            ahead = []
            for u in frontier:
                for e, w, sign in chain(((e, ribs[e].src, -1) for e in ins[u] if flow[e] > 1),
                                        ((e, ribs[e].dst, 1) for e in outs[u])):
                    if w not in via and w != t:
                        via[w] = (e, sign)
                        ahead.append(w)
            frontier = ahead
        if s not in via:
            break
        steps, u = [], s
        while u != t:
            e, sign = via[u]
            steps.append((e, sign))
            u = ribs[e].dst if sign < 0 else ribs[e].src
        cancel = min(flow[e] - 1 for e, sign in steps if sign < 0)
        for e, sign in steps:
            flow[e] += sign * cancel

    walks = []
    while any(flow[e] for e in outs[s]):
        walk, u = [], s
        while u != t:
            e = next(e for e in outs[u] if flow[e])
            flow[e] -= 1
            walk.append(e)
            u = ribs[e].dst
        walks.append(walk)
    # rib indices follow out_ribs order at each node, so on ties of the
    # fragment keys they order paths depth first
    keys = g.natural_keys
    walks.sort(key=lambda walk: (tuple(keys[ribs[e].fragment] for e in walk), walk))
    edges = [tuple(ribs[e] for e in walk) for walk in walks]
    return [Path(label, walk) for label, walk in zip(_path_labels(g, order, edges), edges)]


# --- covering problems: the minimal diagnostic test ---------------------------
#
# A covering problem is a list of elements, every one of which is to be
# covered, and (label, mask) candidates: bit i of a mask stands for element i.

def _bits(elements: Iterable) -> dict:
    """The bit of each distinct element, 1 << i for the i-th first met."""
    return {e: 1 << i for i, e in enumerate(dict.fromkeys(elements))}


def _mask(bit: dict, items: Iterable) -> int:
    """The union of the bits of *items*; an item with no bit adds none."""
    m = 0
    for item in items:
        m |= bit.get(item, 0)
    return m


def _indices(mask: int) -> Iterator[int]:
    """The set bits of *mask*, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _greedy_cover(elements: Sequence, candidates: Sequence[tuple[str, int]]) -> list[str]:
    """Repeatedly take the candidate covering the most uncovered elements;
    ties go to the naturally smallest label, then to the earlier candidate.

    A lazy max-gain heap keyed (-gain, rank): gains only shrink as coverage
    grows, so an entry whose refreshed key still beats the heap top is the
    exact minimum over all remaining candidates.  A gain is one popcount.
    """
    universe = (1 << len(elements)) - 1
    by_label = dict(candidates)
    labels = sorted(by_label, key=natural_key)
    masks = [by_label[label] for label in labels]
    heap = [(-m.bit_count(), rank) for rank, m in enumerate(masks)]
    heapq.heapify(heap)
    chosen: list[str] = []
    covered = 0
    while covered != universe:
        gain = 0
        while heap:
            _, rank = heapq.heappop(heap)
            gain = (masks[rank] & ~covered).bit_count()
            if not heap or (-gain, rank) <= heap[0]:
                break
            heapq.heappush(heap, (-gain, rank))
        if not gain:
            raise Uncoverable(min((elements[i] for i in _indices(universe & ~covered)), key=str))
        chosen.append(labels[rank])
        covered |= masks[rank]
    return chosen


def _exact_cover(elements: Sequence, candidates: Sequence[tuple[str, int]]) -> list[str]:
    """Branch-and-bound minimum set cover, deterministic.

    Branches on the uncovered element with the fewest covering candidates;
    prefers the lexicographically (naturally) smallest label set on ties.
    The greedy cover is the first bound, and raises Uncoverable.
    """
    universe = (1 << len(elements)) - 1
    by_label = dict(candidates)
    order = {label: i for i, label in enumerate(sorted(by_label, key=natural_key))}
    elem_cover: list[list[str]] = [[] for _ in elements]
    for label, m in by_label.items():
        for i in _indices(m):
            elem_cover[i].append(label)
    best: list[str] = sorted(_greedy_cover(elements, candidates), key=order.get)
    best_key = (len(best), tuple(order[l] for l in best))

    def search(covered: int, chosen: list[str]):
        nonlocal best, best_key
        if covered == universe:
            key = (len(chosen), tuple(sorted(order[l] for l in chosen)))
            if key < best_key:
                best, best_key = sorted(chosen, key=order.get), key
            return
        if len(chosen) + 1 > best_key[0]:
            return
        remaining = universe & ~covered
        elem = min(_indices(remaining), key=lambda i: (len(elem_cover[i]), str(elements[i])))
        for label in sorted(elem_cover[elem], key=order.get):
            chosen.append(label)
            search(covered | by_label[label], chosen)
            chosen.pop()

    search(0, [])
    return best


def cover_is_exact(candidates: int) -> bool:
    """Whether a covering problem over *candidates* candidate sets is solved
    exactly (branch and bound) rather than greedily."""
    return candidates <= _EXACT_LIMIT


def minimal_diagnostic_test(suite: TestSuite, columns: Iterable[StatementId]) -> TestSuite:
    """Minimum term subset whose selections cover every statement id: exact
    when ``cover_is_exact`` holds for the suite's term count, greedy beyond.

    Raises Uncoverable when some statement id is selected by no term.
    """
    bit = _bits(columns)
    items = [(b.path, selection, label) for b in suite.blocks for selection, label in b.items()]
    candidates = [(label, _mask(bit, selection)) for _, selection, label in items]
    cover = _exact_cover if cover_is_exact(len(candidates)) else _greedy_cover
    keep = set(cover(list(bit), candidates))
    return TestSuite(tuple(Block.of(path, selection, label)
                           for path, selection, label in items if label in keep))
