"""Seeded input generators for the benchmark workloads.

Every generator takes a ``random.Random`` and returns plain data (graph
JSON documents, ``.swl`` source text, fault spec strings) together with the
structural facts the oracles need.  Nothing here imports rtgdiag: the
program under test receives only the generated files and fault specs.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

# Opcodes of the register-transfer alphabet: 1 sum, 2 mul, 3 sub, 4 div, 5 sin.
SWAPS = {1: 3, 3: 1, 2: 4, 4: 2}


def stmt(ordinal: int, opcode: int, target: str, operands) -> dict:
    return {"ordinal": ordinal, "opcode": opcode, "target": target,
            "operands": [{"var": o} if isinstance(o, str) else {"const": float(o)}
                         for o in operands]}


def graph_doc(node_names: list[str], ribs: list[tuple[str, str, str, list]]) -> dict:
    """Graph JSON with X as input, Y as output and the rest internal."""
    roles = {"X": "input", "Y": "output"}
    return {
        "nodes": [{"name": n, "role": roles.get(n, "internal")} for n in node_names],
        "ribs": [{"fragment": f, "src": s, "dst": d,
                  "statements": [stmt(i, op, t, ops) for i, (op, t, ops) in
                                 enumerate(specs, start=1)]}
                 for f, s, d, specs in ribs],
    }


# --- ladder ------------------------------------------------------------------

# Positive, non-unit constants: golden values never reach exactly 0 and a
# mul/div swap always changes a statement's value, so no fault is masked.
_LADDER_CONSTS = (0.5, 0.75, 1.25, 1.5, 1.75, 2.25, 2.5, 3.0)


@dataclass(frozen=True)
class Ladder:
    """k stages; stage i has fragments I(2i-1) and I(2i) in parallel."""

    k: int
    doc: dict


def ladder(rng: Random, k: int) -> Ladder:
    names = ["X"] + [f"R{i}" for i in range(1, k)] + ["Y"]
    ribs = []
    for i in range(1, k + 1):
        inflow = "x" if i == 1 else "acc"
        for fragment in (f"I{2 * i - 1}", f"I{2 * i}"):
            if rng.random() < 0.15:
                first = (5, "t1", (inflow,))
            else:
                first = (rng.choice((1, 2, 4)), "t1", (inflow, rng.choice(_LADDER_CONSTS)))
            second = (rng.choice((1, 2, 4)), "acc", ("t1", rng.choice(_LADDER_CONSTS)))
            ribs.append((fragment, names[i - 1], names[i], [first, second]))
    return Ladder(k=k, doc=graph_doc(names, ribs))


def ladder_faults(rng: Random, lad: Ladder, count: int) -> list[str]:
    """*count* seeded single-statement faults as CLI specs, no two adjacent
    ones equal."""
    ribs = lad.doc["ribs"]
    out: list[str] = []
    while len(out) < count:
        rib = rng.choice(ribs)
        s = rng.choice([s for s in rib["statements"] if s["opcode"] != 5])
        if rng.random() < 0.7:
            spec = f"{rib['fragment']}:{s['ordinal']}:op={SWAPS[s['opcode']]}"
        else:
            const = s["operands"][1]["const"] + rng.choice((0.25, 0.5, 1.0))
            spec = f"{rib['fragment']}:{s['ordinal']}:const={const!r}"
        if not out or out[-1] != spec:
            out.append(spec)
    return out


# --- random DAG models (campaign) ----------------------------------------------

_DAG_CONSTS = (2.0, 3.0, 5.0, 0.5, 7.0, 1.5, 2.5)


def _chain_specs(rng: Random, src: str, n: int) -> list:
    """*n* chain-value statements: read the inflow, thread temporaries, write acc."""
    prev = "x" if src == "X" else "acc"
    specs = []
    for i in range(n):
        target = "acc" if i == n - 1 else f"t{i + 1}"
        if rng.random() < 0.15:
            specs.append((5, target, (prev,)))
        else:
            specs.append((rng.choice((1, 2, 3, 4)), target, (prev, rng.choice(_DAG_CONSTS))))
        prev = target
    return specs


def random_dag(shape: Random, rng: Random, max_internal: int = 3, max_fragments: int = 8,
               max_statements: int = 4) -> dict:
    """A single-input single-output DAG, one fragment per edge, with a spine
    X -> R1 -> ... -> Y so every node lies on a path.

    *shape* draws the topology and the statement count of each rib, *rng*
    the opcodes and constants: a fixed *shape* stream gives every seed the
    same amount of work per model."""
    k = shape.randint(0, max_internal)
    names = ["X"] + [f"R{i}" for i in range(1, k + 1)] + ["Y"]
    edges = set(zip(names, names[1:]))
    candidates = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]
                  if (a, b) not in edges]
    shape.shuffle(candidates)
    for pair in candidates:
        if len(edges) >= max_fragments or shape.random() < 0.1:
            break
        edges.add(pair)
    ordered = sorted(edges, key=lambda e: (names.index(e[0]), names.index(e[1])))
    ribs = [(f"I{i}", s, d, _chain_specs(rng, s, shape.randint(1, max_statements)))
            for i, (s, d) in enumerate(ordered, start=1)]
    return graph_doc(names, ribs)


# --- .swl programs (testability) ---------------------------------------------------

@dataclass(frozen=True)
class Arm:
    lo: float | None  # guard x >= lo (None: unbounded below)
    hi: float | None  # guard x < hi (None: unbounded above)
    ops: tuple  # ((opcode, const) | (5, None), ...) applied left to right


@dataclass(frozen=True)
class SwlProgram:
    """``input x;`` then one if-chain per entry of ``chains`` (chain c assigns
    a<c> from the previous chain's value), then ``F = a<C> * 2;``."""

    chains: tuple[tuple[Arm, ...], ...]
    text: str

    @property
    def paths(self) -> int:
        n = 1
        for chain in self.chains:
            n *= len(chain)
        return n


_SYMBOL = {1: "+", 2: "*", 3: "-", 4: "/"}
_SWL_CONSTS = (0.5, 1.25, 1.5, 2.0, 2.5, 3.0, 0.75)


def _arm_expr(inflow: str, ops) -> str:
    expr = inflow
    for opcode, const in ops:
        expr = f"sin({expr})" if opcode == 5 else f"({expr} {_SYMBOL[opcode]} {const!r})"
    return expr


def swl_program(rng: Random, shape: tuple[int, ...]) -> SwlProgram:
    """One program whose chain c has ``shape[c]`` arms guarded on x."""
    chains = []
    lines = ["# generated benchmark program", "input x;"]
    for c, arms in enumerate(shape, start=1):
        cuts = sorted(rng.sample(range(5, 96), arms - 1))
        bounds = [None] + [v / 10 for v in cuts] + [None]
        inflow = "x" if c == 1 else f"a{c - 1}"
        chain = []
        for a in range(arms):
            ops = []
            for _ in range(rng.randint(1, 4)):
                if rng.random() < 0.15:
                    ops.append((5, None))
                else:
                    ops.append((rng.choice((1, 2, 3, 4)), rng.choice(_SWL_CONSTS)))
            arm = Arm(lo=bounds[a], hi=bounds[a + 1], ops=tuple(ops))
            chain.append(arm)
            body = f"{{ a{c} = {_arm_expr(inflow, arm.ops)}; }}"
            if a == 0:
                lines.append(f"if (x < {arm.hi!r}) {body}")
            elif a == arms - 1:
                lines.append(f"else {body}")
            else:
                lines.append(f"else if (x >= {arm.lo!r} && x < {arm.hi!r}) {body}")
        chains.append(tuple(chain))
    lines += [f"F = a{len(shape)} * 2.0;", "output F;", ""]
    return SwlProgram(chains=tuple(chains), text="\n".join(lines))
