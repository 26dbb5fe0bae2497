"""Independent oracles: a small evaluator of graph statements and the checks
each workload applies to one operation's output.

The evaluator reads the generated graph JSON directly and implements the
five-opcode semantics itself; it never calls ``simulator.execute_path``.
A row of a fault detection table fails exactly when its path's golden and
mutant outputs differ beyond the documented relative tolerance 1e-9.
"""

from __future__ import annotations

import functools
import itertools
import math
import re

REL_TOL = 1e-9
_SUBSCRIPT = str.maketrans("0123456789", "₀₁₂₃₄₅₆₇₈₉")


class EvalError(Exception):
    """The evaluator itself hit an undefined operation (x/0, sin of inf)."""


def apply_op(opcode: int, values) -> float:
    a = values[0]
    if opcode == 5:
        if not math.isfinite(a):
            raise EvalError(f"sin({a})")
        return math.sin(a)
    b = values[1]
    if opcode == 1:
        return a + b
    if opcode == 2:
        return a * b
    if opcode == 3:
        return a - b
    if opcode == 4:
        if b == 0.0:
            raise EvalError("division by zero")
        return a / b
    raise EvalError(f"opcode {opcode}")


def path_output(ribs, env: dict) -> float:
    """Value at the last rib's destination after running every statement of
    *ribs* (graph JSON rib dicts) in order, starting from *env*."""
    env = dict(env)
    for rib in ribs:
        for s in rib["statements"]:
            values = [env[o["var"]] if "var" in o else o["const"] for o in s["operands"]]
            env[s["target"]] = apply_op(s["opcode"], values)
    return env[ribs[-1]["statements"][-1]["target"]]


def differs(golden: float, mutant: float) -> bool:
    if math.isnan(golden) or math.isnan(mutant):
        return math.isnan(golden) != math.isnan(mutant)
    return abs(golden - mutant) > REL_TOL * max(1.0, abs(golden))


def parse_fault(spec: str) -> tuple[str, int, str, float]:
    """'I5:3:op=3' -> ('I5', 3, 'op', 3.0); 'I5:1:const=2.5' -> (..., 'const', 2.5)."""
    fragment, ordinal, mutation = spec.split(":", 2)
    kind, _, value = mutation.partition("=")
    return fragment, int(ordinal), kind, float(value)


def mutate_doc(doc: dict, fragment: str, ordinal: int, kind: str, value: float,
               operand_index: int | None = None) -> dict:
    """The graph JSON with one statement changed on every rib of *fragment*."""
    ribs = []
    for rib in doc["ribs"]:
        if rib["fragment"] == fragment:
            statements = []
            for s in rib["statements"]:
                if s["ordinal"] == ordinal:
                    s = dict(s)
                    if kind == "op":
                        s["opcode"] = int(value)
                    else:
                        idx = operand_index if operand_index is not None else next(
                            i for i, o in enumerate(s["operands"]) if "const" in o)
                        operands = list(s["operands"])
                        operands[idx] = {"const": value}
                        s["operands"] = operands
                statements.append(s)
            rib = dict(rib, statements=statements)
        ribs.append(rib)
    return dict(doc, ribs=ribs)


def statement_labels(fragment: str, statements) -> dict[int, str]:
    """Display label of each statement ordinal: fragment + opcode digit, with
    an occurrence subscript when the fragment repeats that opcode."""
    out = {}
    for s in statements:
        same = [t["ordinal"] for t in statements if t["opcode"] == s["opcode"]]
        label = f"{fragment}{s['opcode']}"
        if len(same) > 1:
            label += str(same.index(s["ordinal"]) + 1).translate(_SUBSCRIPT)
        out[s["ordinal"]] = label
    return out


def _dnf_terms(line: str) -> set[frozenset[str]]:
    body = line.split("=", 1)[1].strip()
    return {frozenset(term.split()) for term in body.split(" ∨ ")} if body else set()


# --- ladder ---------------------------------------------------------------------

def check_ladder(doc: dict, k: int, spec: str, exit_code: int, text: str) -> dict:
    """Check one ``rtgdiag all`` verdict on a ladder graph.

    Expected: V has one bit per term in path order (paths in binary order of
    the A/B choice per stage, 2^k terms each), F is exactly {faulty rib} plus
    one full-stage set per other stage, and F' is exactly the faulty rib.
    """
    fragment, ordinal, kind, value = parse_fault(spec)
    mutant = mutate_doc(doc, fragment, ordinal, kind, value)
    stages = [(doc["ribs"][2 * i], doc["ribs"][2 * i + 1]) for i in range(k)]
    mstages = [(mutant["ribs"][2 * i], mutant["ribs"][2 * i + 1]) for i in range(k)]
    expected: list[int] = []
    for choice in itertools.product((0, 1), repeat=k):
        g = path_output([stages[i][c] for i, c in enumerate(choice)], {"x": 1.0})
        m = path_output([mstages[i][c] for i, c in enumerate(choice)], {"x": 1.0})
        expected.extend([1 if differs(g, m) else 0] * 2 ** k)

    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("Ti\\Ij"))
    rows = []
    for line in lines[start + 1:]:
        if not line.strip():
            break
        rows.append(int(line.split()[-1]))
    problems = []
    if rows != expected:
        problems.append("V differs from the evaluator")
    failing = sum(expected)
    labels = {r["fragment"]: statement_labels(r["fragment"], r["statements"])
              for r in doc["ribs"]}
    fprime: set[frozenset[str]] = set()
    dnf: set[frozenset[str]] = set()
    if failing:
        if exit_code != 1:
            problems.append(f"exit code {exit_code}, expected 1")
        fline = next((line for line in lines if line.startswith("F  = ")), "")
        pline = next((line for line in lines if line.startswith("F' = ")), "")
        dnf, fprime = _dnf_terms(fline), _dnf_terms(pline)
        stage = next(i for i, (a, b) in enumerate(stages) if fragment in
                     (a["fragment"], b["fragment"]))
        faulty = frozenset(labels[fragment].values())
        want_f = {faulty} | {frozenset(labels[a["fragment"]].values())
                             | frozenset(labels[b["fragment"]].values())
                             for i, (a, b) in enumerate(stages) if i != stage}
        if dnf != want_f:
            problems.append("F is not {faulty rib} plus the other full stages")
        if fprime != {faulty}:
            problems.append("F' is not exactly the faulty rib")
    elif exit_code != 0:
        problems.append(f"exit code {exit_code} with nothing detected")
    mutated = labels[fragment][ordinal]
    return {"problems": problems,
            "localized": any(mutated in t for t in fprime),
            "sizes": {"paths": 2 ** k, "terms": len(expected), "rows": len(rows),
                      "clauses": failing, "dnf_terms": len(dnf),
                      "fprime_statements": len(set().union(*fprime)) if fprime else 0,
                      "statements": 4 * k}}


# --- campaign -------------------------------------------------------------------

def expected_bits(doc: dict, mutant: dict, rows) -> list[int]:
    """Per-row expected bit; *rows* are (rib keys of the path, stimulus env)."""
    by_key = {(r["fragment"], r["src"], r["dst"]): r for r in doc["ribs"]}
    mby_key = {(r["fragment"], r["src"], r["dst"]): r for r in mutant["ribs"]}
    cache: dict = {}
    out = []
    for keys, env in rows:
        memo = (keys, tuple(sorted(env.items())))
        if memo not in cache:
            g = path_output([by_key[k] for k in keys], env)
            m = path_output([mby_key[k] for k in keys], env)
            cache[memo] = 1 if differs(g, m) else 0
        out.append(cache[memo])
    return out


def check_campaign(doc: dict, rows, fault, bits, result, error) -> dict:
    """Check one mutant's verdict.

    *rows* are (rib keys, env, fragments of the path, selected (fragment,
    ordinal) pairs) per table row; *bits* is the program's V (None when it
    raised); *result* the diagnosis (None when diagnose raised *error*).
    Where criterion 07's non-masking precondition holds (exactly the rows
    through the faulty fragment fail, and every statement of every other
    fragment is marked by a passing row), F' must lie inside the faulty
    fragment and contain the mutated statement.
    """
    from rtgdiag.errors import EmptyDiagnosis, NoFailures

    kind = "op" if fault.opcode is not None else "const"
    value = fault.opcode if fault.opcode is not None else fault.constant
    mutant = mutate_doc(doc, fault.fragment, fault.ordinal, kind, value, fault.operand_index)
    problems = []
    try:
        want = expected_bits(doc, mutant, [(r[0], r[1]) for r in rows])
    except EvalError as e:
        # the evaluator cannot produce a value: the program must fail typed
        if bits is not None or error is None:
            problems.append(f"evaluator raised {e}; program did not fail typed")
        return {"problems": problems, "localized": False, "nonmasked": False}
    if bits is None:
        return {"problems": [f"run failed: {error!r}"], "localized": False,
                "nonmasked": False}
    if list(bits) != want:
        problems.append("V differs from the evaluator")
    covering = [1 if fault.fragment in r[2] else 0 for r in rows]
    passing = set().union(*(r[3] for r, b in zip(rows, want) if b == 0))
    others = {(r["fragment"], s["ordinal"]) for r in doc["ribs"]
              for s in r["statements"] if r["fragment"] != fault.fragment}
    nonmasked = want == covering and others <= passing
    localized = False
    if not any(want):
        if not isinstance(error, NoFailures):
            problems.append("all-zero V did not end as NoFailures")
    elif result is None:
        if not isinstance(error, EmptyDiagnosis) or nonmasked:
            problems.append(f"diagnose failed: {error!r}")
    else:
        problems += _check_dnf(rows, want, result)
        suspects = {(s.fragment, s.ordinal) for t in result.reduced.terms for s in t}
        localized = (fault.fragment, fault.ordinal) in suspects
        if nonmasked:
            if any(f != fault.fragment for f, _ in suspects):
                problems.append("F' leaves the faulty fragment")
            if not localized:
                problems.append("F' misses the mutated statement")
    return {"problems": problems, "localized": localized, "nonmasked": nonmasked}


def minimal_hitting_sets(clauses) -> set[frozenset]:
    """Every minimal hitting set of *clauses*, by depth-first search over
    bit masks: branch on the members of the first clause not yet hit, never
    revisit a member an earlier branch took, and drop a branch once a chosen
    member has no clause that it alone hits (it can never become minimal)."""
    return _minimal_hitting_sets(frozenset(map(frozenset, clauses)))


@functools.lru_cache(maxsize=4096)
def _minimal_hitting_sets(clauses: frozenset) -> set[frozenset]:
    members = sorted(set().union(*clauses))
    bit = {m: 1 << i for i, m in enumerate(members)}
    masks = sorted({sum(bit[m] for m in c) for c in clauses}, key=int.bit_count)
    family: list[int] = []
    for c in masks:
        if not any(k & c == k for k in family):
            family.append(c)
    found: list[int] = []

    def grow(chosen: int, banned: int) -> None:
        if chosen and not all(
                any(c & chosen == b for c in family)
                for b in (1 << i for i in range(chosen.bit_length()) if chosen >> i & 1)):
            return
        unhit = next((c for c in family if not c & chosen), None)
        if unhit is None:
            found.append(chosen)
            return
        options = unhit & ~banned
        while options:
            b = options & -options
            options ^= b
            grow(chosen | b, banned)
            banned |= b

    grow(0, 0)
    return {frozenset(m for m in members if bit[m] & chosen) for chosen in found}


def _check_dnf(rows, bits, result) -> list[str]:
    """F: exactly the minimal hitting sets of the failing rows' marks, found
    here independently; H: the passing rows' marks; F' (strong mode): the
    minimal hitting sets disjoint from H."""
    def pairs(terms):
        return {frozenset((s.fragment, s.ordinal) for s in t) for t in terms}

    want_f = minimal_hitting_sets(r[3] for r, b in zip(rows, bits) if b)
    h = set().union(*(r[3] for r, b in zip(rows, bits) if not b))
    problems = []
    if pairs(result.candidates.terms) != want_f:
        problems.append("F is not the family of minimal hitting sets")
    if {(s.fragment, s.ordinal) for s in result.exonerated} != h:
        problems.append("H is not the passing rows' statements")
    if pairs(result.reduced.terms) != {t for t in want_f if not t & h}:
        problems.append("F' is not the minimal hitting sets without the exonerated ones")
    return problems


# --- swl testability ------------------------------------------------------------

def _swl_layout(prog) -> tuple[list[list[str]], list[list[str]], str]:
    """Node names and fragment ids per chain arm, and the final fragment,
    in the frontend's creation order (R1, R2, ... and I1, I2, ...)."""
    nodes, frags, n = [], [], 0
    for chain in prog.chains:
        nodes.append([f"R{n + a + 1}" for a in range(len(chain))])
        frags.append([f"I{n + a + 1}" for a in range(len(chain))])
        n += len(chain)
    return nodes, frags, f"I{n + 1}"


def path_labels(prog) -> dict[str, tuple[int, ...]]:
    """Path label -> arm choice per chain, labelled by monitor digits with an
    occurrence subscript on repeated labels, in fragment order."""
    nodes, _, _ = _swl_layout(prog)
    choices = list(itertools.product(*(range(len(c)) for c in prog.chains)))
    raw = ["X" + "".join(nodes[c][a][1:] for c, a in enumerate(ch)) + "Y" for ch in choices]
    counts: dict[str, int] = {}
    for label in raw:
        counts[label] = counts.get(label, 0) + 1
    seen: dict[str, int] = {}
    out = {}
    for label, ch in zip(raw, choices):
        seen[label] = seen.get(label, 0) + 1
        if counts[label] > 1:
            label += str(seen[label]).translate(_SUBSCRIPT)
        out[label] = ch
    return out


def evaluate_swl(prog, x: float) -> float:
    value = x
    for chain in prog.chains:
        arm = next(a for a in chain if (a.lo is None or x >= a.lo)
                   and (a.hi is None or x < a.hi))
        for opcode, const in arm.ops:
            value = apply_op(opcode, (value,) if opcode == 5 else (value, const))
    return value * 2.0


_LABEL = re.compile(r"^(I\d+?)(\d)[₀-₉]*$")


def check_swl(prog, labels: dict, cover: dict, testability: dict, executed) -> dict:
    """*executed* pairs (x, execute_program output) for seeded x values."""
    problems = []
    nodes, frags, final = _swl_layout(prog)
    covered_nodes, covered_ribs = {"X", "Y"}, set()
    for label in cover["selected"]:
        choice = labels.get(label)
        if choice is None:
            problems.append(f"unknown path {label}")
            continue
        prev = "X"
        for c, a in enumerate(choice):
            covered_nodes.add(nodes[c][a])
            covered_ribs.add((frags[c][a], prev))
            prev = nodes[c][a]
        covered_ribs.add((final, prev))
    all_nodes = {"X", "Y"} | {n for row in nodes for n in row}
    all_ribs = {(frags[0][a], "X") for a in range(len(nodes[0]))}
    for c in range(1, len(nodes)):
        all_ribs |= {(frags[c][a], p) for a in range(len(nodes[c])) for p in nodes[c - 1]}
    all_ribs |= {(final, p) for p in nodes[-1]}
    if covered_nodes != all_nodes or covered_ribs != all_ribs:
        problems.append("path cover misses a node or rib")

    sizes = {f: len(arm.ops) for chain, fs in zip(prog.chains, frags)
             for arm, f in zip(chain, fs)}
    sizes[final] = 1
    cuts: dict[str, set[int]] = {}
    for ins in testability["insertions"]:
        cuts.setdefault(ins["fragment"], set()).add(ins["after_ordinal"])
    target = testability["target"]
    for f, n in sizes.items():
        bounds = [0] + sorted(cuts.get(f, ())) + [n]
        if any(not 0 < c < n for c in cuts.get(f, ())) or \
                max(b - a for a, b in zip(bounds, bounds[1:])) > target:
            problems.append(f"insertions leave {f} above the target")
    if len(testability["insertions"]) != sum(-(-n // target) - 1 for n in sizes.values()):
        problems.append("insertion count is not the minimum")
    reached = not problems
    groups = [{_LABEL.match(label).group(1) for label in g} for g in testability["groups"]]
    if any(len(g) != 1 for g in groups) or len(groups) != len(sizes):
        problems.append("ambiguity groups are not one per fragment")

    for x, out in executed:
        want = evaluate_swl(prog, x)
        if differs(want, out):
            problems.append(f"execute_program({x}) = {out}, evaluator {want}")
    return {"problems": problems, "localized": reached,
            "sizes": {"paths": prog.paths, "terms": 0, "rows": 0, "clauses": 0,
                      "dnf_terms": 0, "fprime_statements": 0,
                      "statements": sum(sizes.values())}}
