"""Seeded random models, clause families and programs for the tests.

The oracles that check the library against them are in ``reference.py``.
"""

from random import Random

from rtgdiag import Node, RTGraph, Stimuli, Stimulus, default_stimuli, make_rib
from rtgdiag.simulator import FaultSpec

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


def free_variable_model(rng: Random) -> RTGraph:
    """A random DAG model whose ribs read and write a small pool of
    variables in any order, with a constant on either side of an
    operation, so that paths read variables no earlier rib assigns, read
    a variable before their own rib assigns it, divide by an input, and
    now and then hold an opcode outside the alphabet."""
    g = random_dag_model(rng, max_statements=4)
    pool = ("x", "acc", "t1", "w")
    ribs = []
    for r in g.ribs:
        specs = []
        for _ in r.statements:
            opcode = 9 if rng.random() < 0.02 else rng.choice((1, 2, 3, 4, 4, 5))
            operands = [rng.choice(pool)]
            if opcode != 5:
                operands.insert(rng.randrange(2), rng.choice(pool + _CONSTANTS))
            specs.append((opcode, rng.choice(pool), tuple(operands)))
        ribs.append(make_rib(r.fragment, r.src, r.dst, specs))
    return g.with_ribs(ribs)


def forcing_values(g: RTGraph) -> tuple[float, ...]:
    """Input values that drive *g*'s operations out of range: zero and each
    constant of the graph with both signs (so ``x - c`` and ``c / x`` meet
    zero), values whose products overflow to inf, the infinities (sin of
    inf) and NaN."""
    constants = {o for r in g.ribs for s in r.statements for o in s.operands
                 if not isinstance(o, str)}
    return (0.0, *sorted(constants | {-c for c in constants}), 1e308, -1e308,
            float("inf"), float("-inf"), float("nan"))


def split_stimuli(suite, stimuli: Stimuli) -> Stimuli:
    """*stimuli* with the last term of every multi-term path moved to other
    inputs, so one path carries two distinct input bindings."""
    out = {}
    last = {}
    for t in suite.terms:
        last.setdefault(t.path.label, []).append(t)
    for terms in last.values():
        if len(terms) > 1:
            t = terms[-1]
            env = {k: v * 2.5 + 0.75 for k, v in stimuli[t.label].env.items()}
            out[t.label] = Stimulus(env=env)
    return stimuli.overriding(out)


def split_default_stimuli(g, suite):
    return split_stimuli(suite, default_stimuli(g, suite))


def forced_stimuli(g, suite) -> Stimuli:
    """The default stimuli with every third term overridden: its input takes
    the forcing values of *g* in turn (zero, the constants, overflow, inf
    and NaN)."""
    stimuli = default_stimuli(g, suite)
    values = forcing_values(g)
    overrides = {}
    for i, label in enumerate(suite.labels()[::3]):
        env = dict(stimuli[label].env)
        if env:
            env[next(iter(env))] = values[i % len(values)]
        overrides[label] = Stimulus(env=env)
    return stimuli.overriding(overrides)


def sparse_stimuli(g, suite) -> Stimuli:
    """The default stimuli with every third term, from the second, left
    short of inputs: by turns it binds none, or only its first variable.
    Permissive runs default the rest to 0.0."""
    stimuli = default_stimuli(g, suite)
    return stimuli.overriding({
        label: Stimulus(env=dict(list(stimuli[label].env.items())[:i % 2]))
        for i, label in enumerate(suite.labels()[1::3])})


#: (stimuli of a graph and its suite, permissive) pairs that the seeded
#: equivalence tests run every catalogue mutant under.
STIMULI_KINDS = {"default": (default_stimuli, False), "split": (split_default_stimuli, False),
                 "forced": (forced_stimuli, False), "permissive": (sparse_stimuli, True)}


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


def if_chain_program(shape: tuple[int, ...] = (5, 5, 5, 5), seed: int = 0) -> str:
    """``.swl`` source of consecutive if-chains guarded on x, chain c having
    ``shape[c]`` arms of one to three statements, then ``F = a<last> * 2``.

    Lowered, every arm is a fragment and the paths are the product of the
    arm counts (625 for the default shape).
    """
    rng = Random(seed)
    lines = ["input x;"]
    for c, arms in enumerate(shape, start=1):
        inflow = "x" if c == 1 else f"a{c - 1}"
        cuts = [i * 10 // arms for i in range(1, arms)]
        for a in range(arms):
            expr = inflow
            for _ in range(rng.randint(1, 3)):
                expr = f"({expr} {rng.choice('+-*/')} {rng.choice(_CONSTANTS)})"
            body = f"{{ a{c} = {expr}; }}"
            if a == 0:
                lines.append(f"if (x < {cuts[0]}) {body}")
            elif a == arms - 1:
                lines.append(f"else {body}")
            else:
                lines.append(f"else if (x >= {cuts[a - 1]} && x < {cuts[a]}) {body}")
    lines += [f"F = a{len(shape)} * 2;", "output F;", ""]
    return "\n".join(lines)


def _constant_form(rng: Random, c: int) -> str:
    """*c* written as a constant expression that evaluates to exactly c."""
    return rng.choice((f"{c}", f"({2 * c} / 2)", f"({c + 3} - 3)", f"(sin(0) + {c})",
                       f"({c} * 1)", f"-(-{c})"))


def _rich_expression(rng: Random, inflow: str) -> str:
    """An expression reading *inflow* once, built from binary operations
    with constants on either side, unary minus, sin(...) and constant
    subexpressions.  Divisors are always nonzero constants."""
    expr = inflow
    for _ in range(rng.randint(1, 3)):
        k = rng.choice(_CONSTANTS)
        form = rng.randrange(6)
        if form == 0:
            expr = f"({expr} {rng.choice('+-*/')} {k})"
        elif form == 1:
            expr = f"({k} {rng.choice('+-*')} {expr})"
        elif form == 2:
            expr = f"-{expr}" if expr[0] == "(" else f"-({expr})"
        elif form == 3:
            expr = f"sin({expr})"
        elif form == 4:
            expr = f"({expr} {rng.choice('+-*/')} ({k} {rng.choice('+*')} {rng.choice(_CONSTANTS)}))"
        else:
            expr = f"({expr} {rng.choice('+-')} sin({k}))"
    return expr


def expression_chain_program(shape: tuple[int, ...] = (3, 4), seed: int = 0) -> str:
    """``.swl`` source shaped like :func:`if_chain_program` (chain c has
    ``shape[c]`` arms, each at least 2, guarded on x at the integer cuts
    ``i * 10 // arms``), whose arm bodies also use unary minus, ``sin(...)``
    and constant subexpressions, and whose guard bounds are constant
    expressions, some compared with x on the right.

    Every arm writes ``a<c>`` from ``a<c-1>`` (x for the first chain) and a
    final segment writes the output, so each path has its own node sequence.
    """
    rng = Random(seed)

    def below(c: int) -> str:
        bound = _constant_form(rng, c)
        return f"x < {bound}" if rng.random() < 0.5 else f"{bound} > x"

    def at_least(c: int) -> str:
        bound = _constant_form(rng, c)
        return f"x >= {bound}" if rng.random() < 0.5 else f"{bound} <= x"

    lines = ["input x;"]
    for c, arms in enumerate(shape, start=1):
        inflow = "x" if c == 1 else f"a{c - 1}"
        cuts = [i * 10 // arms for i in range(1, arms)]
        for a in range(arms):
            body = f"{{ a{c} = {_rich_expression(rng, inflow)}; }}"
            if a == 0:
                lines.append(f"if ({below(cuts[0])}) {body}")
            elif a == arms - 1:
                lines.append(f"else {body}")
            else:
                lines.append(f"else if ({at_least(cuts[a - 1])} && {below(cuts[a])}) {body}")
    lines += [f"F = a{len(shape)} * 2;", "output F;", ""]
    return "\n".join(lines)


def single_rib_graph() -> RTGraph:
    """X -I1-> Y with the one statement f = x + 3."""
    return RTGraph(
        nodes=(Node("X", "input"), Node("Y", "output")),
        ribs=(make_rib("I1", "X", "Y", [(1, "f", ("x", 3.0))]),),
    )


def chain_model(n: int) -> RTGraph:
    """A single path X -> R1 -> ... -> Y of *n* one-statement ribs."""
    names = ["X"] + [f"R{i}" for i in range(1, n)] + ["Y"]
    nodes = [Node("X", "input")] + [Node(m, "internal") for m in names[1:-1]]
    nodes.append(Node("Y", "output"))
    ribs = [make_rib(f"I{i}", names[i - 1], names[i],
                     [(1, "acc", ("x" if i == 1 else "acc", 1.0))]) for i in range(1, n + 1)]
    return RTGraph(nodes=tuple(nodes), ribs=tuple(ribs))


def two_rib_fragment_graph() -> RTGraph:
    """X -I1-> R -I1-> Y plus X -I2-> Y: the path through R runs fragment
    I1's two statements on both of its ribs."""
    specs = [(1, "t1", ("x", 1.5)), (2, "x", ("t1", 2.0))]
    return RTGraph(nodes=(Node("X", "input"), Node("R", "internal"), Node("Y", "output")),
                   ribs=(make_rib("I1", "X", "R", specs), make_rib("I1", "R", "Y", specs),
                         make_rib("I2", "X", "Y", [(3, "x", ("x", 0.5))])))
