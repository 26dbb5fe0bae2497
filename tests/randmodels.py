"""Seeded random model generators and brute-force oracles for the tests.

The oracles here enumerate exhaustively and stay independent of the library
code paths they check.
"""

from itertools import combinations
from random import Random

from rtgdiag import Node, RTGraph, make_rib
from rtgdiag.simulator import FaultSpec

# --- brute-force oracles -----------------------------------------------------


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


# --- random clause families ----------------------------------------------------


def random_clause_family(rng: Random):
    """Clause family over at most 20 statements, at most 8 clauses.

    Mostly small universes; large universes get few clauses to keep the
    exhaustive oracle fast.
    """
    if rng.random() < 0.8:
        n = rng.randint(3, 10)
        m = rng.randint(1, 8)
    else:
        n = rng.randint(11, 20)
        m = rng.randint(1, 4)
    pool = [f"s{i:02d}" for i in range(n)]
    clauses = []
    for _ in range(m):
        size = rng.randint(1, min(4, n))
        clauses.append(frozenset(rng.sample(pool, size)))
    return clauses


# --- random DAG models -----------------------------------------------------------

_CONSTANTS = (2.0, 3.0, 5.0, 0.5, 7.0, 1.5, 2.5)


def _random_rib_specs(rng: Random, src: str, max_statements: int):
    """A chain-value statement sequence: reads the inflowing variable,
    threads temporaries, and writes the accumulator last."""
    n = rng.randint(1, max_statements)
    inflow = "x" if src == "X" else "acc"
    specs = []
    prev = inflow
    for i in range(n):
        target = "acc" if i == n - 1 else f"t{i + 1}"
        if rng.random() < 0.15:
            specs.append((5, target, (prev,)))
        else:
            opcode = rng.choice((1, 2, 3, 4))
            specs.append((opcode, target, (prev, rng.choice(_CONSTANTS))))
        prev = target
    return specs


def random_dag_model(rng: Random, max_internal: int = 3, max_fragments: int = 6,
                     max_statements: int = 3) -> RTGraph:
    """A valid single-input single-output DAG with chain-value ribs.

    Every fragment is one edge; values flow x -> acc -> ... -> Y so faults
    anywhere on an executed path propagate to the output generically.
    """
    k = rng.randint(0, max_internal)
    names = ["X"] + [f"R{i}" for i in range(1, k + 1)] + ["Y"]
    edges = set(zip(names, names[1:]))  # spine keeps every node on a path
    candidates = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]
                  if (a, b) not in edges]
    rng.shuffle(candidates)
    # favor parallel structure: chains make every fault co-occur with every
    # fragment, which starves the diagnosis properties of passing tests
    for pair in candidates:
        if len(edges) >= max_fragments or rng.random() < 0.1:
            break
        edges.add(pair)

    nodes = [Node("X", "input")]
    nodes += [Node(n, "internal") for n in names[1:-1]]
    nodes.append(Node("Y", "output"))
    ribs = []
    ordered = sorted(edges, key=lambda e: (names.index(e[0]), names.index(e[1])))
    for i, (src, dst) in enumerate(ordered, start=1):
        ribs.append(make_rib(f"I{i}", src, dst, _random_rib_specs(rng, src, max_statements)))
    return RTGraph(nodes=tuple(nodes), ribs=tuple(ribs))


def ladder_model(k: int) -> RTGraph:
    """A k-stage ladder X -> R1 -> ... -> Y: two parallel ribs of two
    statements per stage, so 2^k paths and 4^k complete-test terms."""
    names = ["X"] + [f"R{i}" for i in range(1, k)] + ["Y"]
    nodes = [Node("X", "input")]
    nodes += [Node(n, "internal") for n in names[1:-1]]
    nodes.append(Node("Y", "output"))
    ribs = []
    for i in range(1, k + 1):
        inflow = "x" if i == 1 else "acc"
        src, dst = names[i - 1], names[i]
        ribs.append(make_rib(f"I{2 * i - 1}", src, dst,
                             [(1, "t1", (inflow, i + 0.5)), (2, "acc", ("t1", 2.0))]))
        ribs.append(make_rib(f"I{2 * i}", src, dst,
                             [(2, "t1", (inflow, i + 1.5)), (4, "acc", ("t1", 4.0))]))
    return RTGraph(nodes=tuple(nodes), ribs=tuple(ribs))


def random_mutation(rng: Random, g: RTGraph) -> FaultSpec | None:
    """A single-statement mutation: opcode swap within {1,3} or {2,4}, or a
    constant perturbation.  None when the graph offers no mutable statement."""
    options = []
    for fragment in g.fragments:
        for s in g.statements_of(fragment):
            if s.opcode in (1, 2, 3, 4):
                options.append((fragment, s))
            elif any(not isinstance(o, str) for o in s.operands):
                options.append((fragment, s))
    if not options:
        return None
    fragment, s = rng.choice(options)
    swap = {1: 3, 3: 1, 2: 4, 4: 2}
    if s.opcode in swap and rng.random() < 0.7:
        return FaultSpec(fragment=fragment, ordinal=s.ordinal, opcode=swap[s.opcode])
    consts = [i for i, o in enumerate(s.operands) if not isinstance(o, str)]
    if not consts:
        return FaultSpec(fragment=fragment, ordinal=s.ordinal, opcode=swap[s.opcode])
    idx = rng.choice(consts)
    delta = rng.choice((1.0, 2.0, 0.75))
    return FaultSpec(fragment=fragment, ordinal=s.ordinal,
                     constant=float(s.operands[idx]) + delta, operand_index=idx)
