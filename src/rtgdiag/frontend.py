"""Mini-language frontend: parsing and lowering to a register-transfer graph.

The language (``.swl`` files, ``#`` comments) covers what a small piecewise
numeric routine needs: ``input x;`` declarations, assignments over
``+ - * /``, unary minus, ``sin(...)``, parentheses, numeric literals, the
predefined constant ``PI`` (3.14159), if / else-if / else chains guarded by
``&&``-conjoined comparisons, and a final ``output F;``.

Lowering produces three-address statements restricted to the registered
opcode alphabet (unary minus becomes multiplication by -1).  Observation
points are placed at the input node, after every if-chain arm, and at the
output node; node names are X, R1, R2, ... and Y in creation order.
Constant subexpressions are folded at parse time unless folding is disabled
(the unfolded form keeps e.g. PI/3 as an explicit division statement).
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, NamedTuple, Union

from .errors import (DivisionByZero, ExecutionError, ParseError, UnboundVariable,
                     UndefinedVariable, UnsupportedOperation)
from .intervals import IntervalSet
from .rtg import (BINARY_OPS, OP_ALPHABET, Node, OpCode, Rib, RTGraph, Statement,
                  make_statements, merge_equivalent_ribs)

PI_VALUE = 3.14159


class Relation(NamedTuple):
    holds: Callable[[float, float], bool]
    mirror: str  # the same comparison with its sides swapped


#: The relational operators of guards, by source symbol.
RELATIONS: dict[str, Relation] = {
    "<": Relation(operator.lt, ">"), "<=": Relation(operator.le, ">="),
    ">": Relation(operator.gt, "<"), ">=": Relation(operator.ge, "<="),
}


# --- AST ---------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float
    line: int = 0
    col: int = 0


@dataclass(frozen=True)
class Var:
    name: str
    line: int = 0
    col: int = 0


# Operation nodes name their alphabet opcode and operands; parse-time folding,
# ``evaluate`` (guard bounds, program execution) and lowering go through them.

@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    lhs: "Expr"
    rhs: "Expr"
    line: int = 0
    col: int = 0

    def operation(self) -> tuple[OpCode, tuple["Expr", ...]]:
        return BINARY_OPS[self.op], (self.lhs, self.rhs)


@dataclass(frozen=True)
class Neg:
    operand: "Expr"
    line: int = 0
    col: int = 0

    def operation(self) -> tuple[OpCode, tuple["Expr", ...]]:
        return OP_ALPHABET[2], (self.operand, _MINUS_ONE)  # x * -1


@dataclass(frozen=True)
class Sin:
    operand: "Expr"
    line: int = 0
    col: int = 0

    def operation(self) -> tuple[OpCode, tuple["Expr", ...]]:
        return OP_ALPHABET[5], (self.operand,)


Expr = Union[Num, Var, BinOp, Neg, Sin]
_MINUS_ONE = Num(-1.0)


@dataclass(frozen=True)
class Comparison:
    lhs: Expr
    relop: str  # < <= > >=
    rhs: Expr


@dataclass(frozen=True)
class Guard:
    comparisons: tuple[Comparison, ...]


@dataclass(frozen=True)
class Assignment:
    target: str
    expr: Expr
    line: int = 0
    col: int = 0


@dataclass(frozen=True)
class Arm:
    guard: Guard | None  # None for an else arm
    body: tuple[Assignment, ...]
    line: int = 0


@dataclass(frozen=True)
class IfChain:
    arms: tuple[Arm, ...]
    line: int = 0


@dataclass(frozen=True)
class Program:
    inputs: tuple[str, ...]
    body: tuple[Union[Assignment, IfChain], ...]
    output: str


def evaluate(e: Expr, env: Mapping[str, float]) -> float:
    """The value of *e* with its variables read from *env*.

    Raises UnboundVariable for a variable *env* lacks, and an operation's
    ExecutionError completed with the operation's source location.
    """
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        if e.name not in env:
            raise UnboundVariable(e.name)
        return env[e.name]
    op, operands = e.operation()
    values = [evaluate(o, env) for o in operands]
    try:
        return op.fn(*values)
    except ExecutionError as err:
        raise err.at(f"line {e.line}, column {e.col}")


# --- tokenizer ---------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<NUMBER>\d+\.\d*|\.\d+|\d+)
  | (?P<ID>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<LE><=)|(?P<GE>>=)|(?P<AND>&&)
  | (?P<LT><)|(?P<GT>>)|(?P<ASSIGN>=)
  | (?P<PLUS>\+)|(?P<MINUS>-)|(?P<STAR>\*)|(?P<SLASH>/)
  | (?P<LPAREN>\()|(?P<RPAREN>\))|(?P<LBRACE>\{)|(?P<RBRACE>\})
  | (?P<SEMI>;)
  | (?P<COMMENT>\#[^\n]*)
  | (?P<NL>\n)
  | (?P<WS>[ \t\r]+)
  | (?P<MISMATCH>.)
""", re.VERBOSE)

_KEYWORDS = {"input", "output", "if", "else", "sin"}


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        value = m.group()
        col = m.start() - line_start + 1
        if kind == "NL":
            line += 1
            line_start = m.end()
            continue
        if kind in ("WS", "COMMENT"):
            continue
        if kind == "MISMATCH":
            raise ParseError(f"unexpected character {value!r}", line, col)
        if kind == "ID" and value in _KEYWORDS:
            kind = value.upper()
        tokens.append(Token(kind, value, line, col))
    tokens.append(Token("EOF", "", line, 1))
    return tokens


# --- parser ------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[Token], fold: bool):
        self.tokens = tokens
        self.pos = 0
        self.fold = fold

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def eat(self, kind: str) -> Token:
        tok = self.cur
        if tok.kind != kind:
            raise ParseError(f"unexpected {tok.kind} {tok.text!r}", tok.line, tok.col,
                             expected=(kind,))
        self.pos += 1
        return tok

    def program(self) -> Program:
        inputs: list[str] = []
        body: list[Union[Assignment, IfChain]] = []
        output: str | None = None
        while self.cur.kind != "EOF":
            if self.cur.kind == "INPUT":
                self.eat("INPUT")
                inputs.append(self.eat("ID").text)
                self.eat("SEMI")
            elif self.cur.kind == "OUTPUT":
                tok = self.eat("OUTPUT")
                if output is not None:
                    raise ParseError("duplicate output declaration", tok.line, tok.col)
                output = self.eat("ID").text
                self.eat("SEMI")
            elif output is not None:
                tok = self.cur
                raise ParseError("output declaration must be last", tok.line, tok.col)
            else:
                body.append(self.statement())
        if output is None:
            tok = self.cur
            raise ParseError("missing output declaration", tok.line, tok.col,
                             expected=("output",))
        return Program(inputs=tuple(inputs), body=tuple(body), output=output)

    def statement(self) -> Union[Assignment, IfChain]:
        if self.cur.kind == "IF":
            return self.if_chain()
        if self.cur.kind == "ID":
            return self.assignment()
        tok = self.cur
        raise ParseError(f"unexpected {tok.kind} {tok.text!r}", tok.line, tok.col,
                         expected=("assignment", "if"))

    def assignment(self) -> Assignment:
        name = self.eat("ID")
        self.eat("ASSIGN")
        expr = self.expression()
        self.eat("SEMI")
        return Assignment(target=name.text, expr=expr, line=name.line, col=name.col)

    def if_chain(self) -> IfChain:
        first = self.eat("IF")
        arms = [self.guarded_arm()]
        while self.cur.kind == "ELSE":
            self.eat("ELSE")
            if self.cur.kind == "IF":
                self.eat("IF")
                arms.append(self.guarded_arm())
            else:
                arms.append(Arm(guard=None, body=self.arm_body(), line=self.cur.line))
                break
        return IfChain(arms=tuple(arms), line=first.line)

    def guarded_arm(self) -> Arm:
        line = self.cur.line
        self.eat("LPAREN")
        guard = self.guard()
        self.eat("RPAREN")
        return Arm(guard=guard, body=self.arm_body(), line=line)

    def arm_body(self) -> tuple[Assignment, ...]:
        if self.cur.kind == "LBRACE":
            self.eat("LBRACE")
            body = []
            while self.cur.kind != "RBRACE":
                body.append(self.assignment())
            self.eat("RBRACE")
            if not body:
                tok = self.cur
                raise ParseError("empty arm body", tok.line, tok.col)
            return tuple(body)
        return (self.assignment(),)

    def guard(self) -> Guard:
        comparisons = [self.comparison()]
        while self.cur.kind == "AND":
            self.eat("AND")
            comparisons.append(self.comparison())
        return Guard(comparisons=tuple(comparisons))

    def comparison(self) -> Comparison:
        lhs = self.expression()
        tok = self.cur
        if tok.text not in RELATIONS:
            raise ParseError(f"unexpected {tok.kind} {tok.text!r}", tok.line, tok.col,
                             expected=tuple(RELATIONS))
        self.pos += 1
        rhs = self.expression()
        return Comparison(lhs=lhs, relop=tok.text, rhs=rhs)

    def expression(self) -> Expr:
        node = self.term()
        while self.cur.kind in ("PLUS", "MINUS"):
            tok = self.cur
            self.pos += 1
            node = self._fold(BinOp(tok.text, node, self.term(), tok.line, tok.col))
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.cur.kind in ("STAR", "SLASH"):
            tok = self.cur
            self.pos += 1
            node = self._fold(BinOp(tok.text, node, self.factor(), tok.line, tok.col))
        return node

    def factor(self) -> Expr:
        tok = self.cur
        if tok.kind == "NUMBER":
            self.pos += 1
            return Num(float(tok.text), tok.line, tok.col)
        if tok.kind == "MINUS":
            self.pos += 1
            inner = self.factor()
            # a negated literal is just a negative constant, in either mode
            if isinstance(inner, Num):
                return Num(-inner.value, tok.line, tok.col)
            return Neg(inner, tok.line, tok.col)
        if tok.kind == "SIN":
            self.pos += 1
            self.eat("LPAREN")
            inner = self.expression()
            self.eat("RPAREN")
            return self._fold(Sin(inner, tok.line, tok.col))
        if tok.kind == "ID":
            self.pos += 1
            if tok.text == "PI":
                return Num(PI_VALUE, tok.line, tok.col)
            return Var(tok.text, tok.line, tok.col)
        if tok.kind == "LPAREN":
            self.pos += 1
            inner = self.expression()
            self.eat("RPAREN")
            return inner
        raise ParseError(f"unexpected {tok.kind} {tok.text!r}", tok.line, tok.col,
                         expected=("number", "identifier", "sin", "("))

    def _fold(self, node: Union[BinOp, Sin]) -> Expr:
        if not self.fold or not all(isinstance(o, Num) for o in node.operation()[1]):
            return node
        try:
            return Num(evaluate(node, {}), node.line, node.col)
        except DivisionByZero:
            raise ParseError("constant division by zero", node.line, node.col) from None


def parse_program(text: str, fold: bool = True) -> Program:
    """Parse mini-language source into a Program AST.

    Constant subexpressions (including sin of a constant) are folded unless
    ``fold=False``; the predefined constant PI and negated literals always
    resolve to numbers.  Raises ParseError with position information, or
    UndefinedVariable for use-before-assignment (a variable counts as
    defined once any earlier branch may have assigned it).
    """
    program = _Parser(tokenize(text), fold=fold).program()
    _check_defined(program)
    return program


def _expr_vars(e: Expr) -> set[str]:
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Num):
        return set()
    return set().union(*(_expr_vars(o) for o in e.operation()[1]))


def _check_defined(p: Program) -> None:
    defined = set(p.inputs)

    def check_expr(e: Expr, local: set[str]):
        for name in sorted(_expr_vars(e) - local):
            raise UndefinedVariable(name, e.line)

    for item in p.body:
        if isinstance(item, Assignment):
            check_expr(item.expr, defined)
            defined.add(item.target)
        else:
            assigned_by_some_arm: set[str] = set()
            for arm in item.arms:
                if arm.guard is not None:
                    for cmp_ in arm.guard.comparisons:
                        check_expr(cmp_.lhs, defined)
                        check_expr(cmp_.rhs, defined)
                local = set(defined)
                for a in arm.body:
                    check_expr(a.expr, local)
                    local.add(a.target)
                assigned_by_some_arm |= local - defined
            defined |= assigned_by_some_arm
    if p.output not in defined:
        raise UndefinedVariable(p.output)


# --- lowering ----------------------------------------------------------------

def fresh_names(used: set[str]) -> Iterator[str]:
    """Temporary-name supply t1, t2, ... skipping names the program uses."""
    i = 0
    while True:
        i += 1
        name = f"t{i}"
        if name not in used:
            yield name


def lower_expression(e: Expr) -> tuple[list[Statement], "str | float"]:
    """Lower an expression post-order to alphabet statements.

    Returns (statements, result operand); a bare literal or variable lowers
    to no statements, the operand being consumed by the parent.  Unary minus
    of a non-literal becomes multiplication by -1.  For commutative opcodes
    a constant left operand is swapped to the right.
    """
    specs: list[tuple[int, str, tuple]] = []
    result = _lower(e, fresh_names(_expr_vars(e)), specs)
    return list(make_statements(specs)), result


def _lower(e: Expr, fresh: Iterator[str], specs: list) -> "str | float":
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return e.name
    op, operands = e.operation()
    args = [_lower(o, fresh, specs) for o in operands]
    if op.code in (1, 2) and isinstance(args[0], float) and isinstance(args[1], str):
        args.reverse()
    t = next(fresh)
    specs.append((op.code, t, tuple(args)))
    return t


def lower_assignment(a: Assignment, fresh: Iterator[str]) -> list[tuple[int, str, tuple]]:
    """Lower one assignment; the final statement targets the assigned name."""
    specs: list[tuple[int, str, tuple]] = []
    _lower(a.expr, fresh, specs)
    if not specs:
        raise UnsupportedOperation(
            f"line {a.line}: assignment {a.target} = ... performs no operation; "
            "the alphabet has no copy instruction")
    opcode, _, operands = specs[-1]
    specs[-1] = (opcode, a.target, operands)
    return specs


# --- graph construction --------------------------------------------------------

@dataclass
class SourceMap:
    """Locations, guard regions, and merge keys for a lowered program."""

    statements: dict[tuple[str, int], tuple[int, int]] = field(default_factory=dict)
    constraints: dict[str, dict[str, IntervalSet]] = field(default_factory=dict)
    source_keys: dict[str, object] = field(default_factory=dict)

    def path_constraints(self, fragments: "tuple[str, ...] | list[str]"
                         ) -> list[dict[str, IntervalSet]]:
        return [self.constraints[f] for f in fragments if f in self.constraints]


def _shape_events(p: Program) -> list[tuple]:
    events: list[tuple] = []
    pending: list[Assignment] = []
    for item in p.body:
        if isinstance(item, Assignment):
            pending.append(item)
        else:
            if pending:
                events.append(("segment", tuple(pending)))
                pending = []
            events.append(("chain", item))
    if pending:
        events.append(("segment", tuple(pending)))
    return events


def layout(p: Program) -> list[tuple]:
    """Assign observation-point names to the program's shape.

    Returns events ("segment", assignments, dst) and ("chain", chain, dsts)
    where dst names follow the construction order R1, R2, ... with the final
    event terminating at Y.  Program execution uses the same plan, so traces
    and graph observations share node names.
    """
    events = _shape_events(p)
    out: list[tuple] = []
    node_i = 0
    for idx, ev in enumerate(events):
        last = idx == len(events) - 1
        if ev[0] == "segment":
            if last:
                dst = "Y"
            else:
                node_i += 1
                dst = f"R{node_i}"
            out.append(("segment", ev[1], dst))
        else:
            chain: IfChain = ev[1]
            dsts = []
            for _arm in chain.arms:
                if last:
                    dsts.append("Y")
                else:
                    node_i += 1
                    dsts.append(f"R{node_i}")
            out.append(("chain", chain, dsts))
    return out


def _const_eval(e: Expr) -> float | None:
    """The value of a constant expression; None when it reads a variable or
    divides by zero (a guard bound that is not representable)."""
    try:
        return evaluate(e, {})
    except (UnboundVariable, DivisionByZero):
        return None


def _guard_regions(guard: Guard) -> dict[str, IntervalSet] | None:
    """Guard as per-variable interval regions; None when not representable
    (only var-versus-constant comparisons are)."""
    regions: dict[str, IntervalSet] = {}
    for cmp_ in guard.comparisons:
        if isinstance(cmp_.lhs, Var):
            bound = _const_eval(cmp_.rhs)
            if bound is None:
                return None
            var, relop = cmp_.lhs.name, cmp_.relop
        elif isinstance(cmp_.rhs, Var):
            bound = _const_eval(cmp_.lhs)
            if bound is None:
                return None
            var, relop = cmp_.rhs.name, RELATIONS[cmp_.relop].mirror
        else:
            return None
        region = IntervalSet.from_comparison(relop, bound)
        regions[var] = regions.get(var, IntervalSet.full()).intersect(region)
    return regions


def _effective_constraints(chain: IfChain) -> list[dict[str, IntervalSet] | None]:
    """Per-arm reachable regions: own guard intersected with the complement
    of every earlier arm's guard.  Exact only when each earlier guard
    constrains a single variable; otherwise arms report None (unknown)."""
    out: list[dict[str, IntervalSet] | None] = []
    priors: list[dict[str, IntervalSet] | None] = []
    for arm in chain.arms:
        own = _guard_regions(arm.guard) if arm.guard is not None else {}
        effective: dict[str, IntervalSet] | None
        if own is None:
            effective = None
        else:
            effective = dict(own)
            for prior in priors:
                if prior is None or len(prior) > 1:
                    effective = None
                    break
                if not prior:
                    continue
                (var, region), = prior.items()
                have = effective.get(var, IntervalSet.full())
                effective[var] = have.intersect(region.complement())
        out.append(effective)
        priors.append(own)
    return out


def build_rtg(p: Program) -> tuple[RTGraph, SourceMap]:
    """Lower a program to its register-transfer graph.

    Each if-chain arm becomes one rib per predecessor node, all copies
    sharing a fragment id and converging on the arm's end node; maximal
    straight-line segments become single ribs; the final event terminates
    at the output node.  The result is already in merged form and passes
    validate_graph.
    """
    plan = layout(p)
    if not plan:
        raise UnsupportedOperation("program body lowers to no statements")

    used = set(p.inputs) | {p.output}
    for item in p.body:
        for a in (item,) if isinstance(item, Assignment) else tuple(
                x for arm in item.arms for x in arm.body):
            used.add(a.target)
            used |= _expr_vars(a.expr)
    fresh = fresh_names(used)

    smap = SourceMap()
    nodes: list[Node] = [Node("X", "input")]
    ribs: list[Rib] = []
    current = ["X"]
    frag_i = 0

    def add_fragment(assignments: tuple[Assignment, ...], dst: str, key: object) -> str:
        nonlocal frag_i
        frag_i += 1
        fid = f"I{frag_i}"
        specs: list[tuple[int, str, tuple]] = []
        spans: list[tuple[int, int]] = []
        for a in assignments:
            stmts = lower_assignment(a, fresh)
            specs.extend(stmts)
            spans.extend([(a.line, a.col)] * len(stmts))
        statements = make_statements(specs)
        for s, span in zip(statements, spans):
            smap.statements[(fid, s.ordinal)] = span
        smap.source_keys[fid] = key
        if dst not in {n.name for n in nodes}:
            nodes.append(Node(dst, "output" if dst == "Y" else "internal"))
        for src in current:
            ribs.append(Rib(fragment=fid, src=src, dst=dst, statements=statements))
        return fid

    for idx, ev in enumerate(plan):
        if ev[0] == "segment":
            _, assignments, dst = ev
            add_fragment(assignments, dst, ("segment", idx))
            current = [dst]
        else:
            _, chain, dsts = ev
            if chain.arms[-1].guard is not None:
                raise UnsupportedOperation(
                    f"line {chain.line}: if-chain needs an else arm to lower to a graph")
            constraints = _effective_constraints(chain)
            for ai, (arm, dst) in enumerate(zip(chain.arms, dsts)):
                fid = add_fragment(arm.body, dst, ("arm", idx, ai))
                if constraints[ai] is not None:
                    smap.constraints[fid] = constraints[ai]
            current = list(dict.fromkeys(dsts))

    if "Y" not in {n.name for n in nodes}:
        raise UnsupportedOperation("program never reaches the output node")
    g = RTGraph(nodes=tuple(nodes), ribs=tuple(ribs))
    return merge_equivalent_ribs(g, smap.source_keys), smap
