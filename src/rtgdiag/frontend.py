"""Mini-language frontend: parsing and lowering to a register-transfer graph.

The language (``.swl`` files, ``#`` comments) covers what a small piecewise
numeric routine needs: ``input x;`` declarations, assignments over
``+ - * /``, unary minus, ``sin(...)``, parentheses, numeric literals, the
predefined constant ``PI`` (3.14159), if / else-if / else chains guarded by
``&&``-conjoined comparisons, and a final ``output F;``.  Literals and
identifiers are ASCII (digits ``0-9``, letters ``A-Za-z``, ``_``): a
character that starts no token, such as a non-ASCII digit, is a ParseError.
Each input is declared once.

Expressions have one operation node, ``Op``, which names its alphabet
opcode: ``a + b`` is ``Op(sum, (a, b))``, ``sin(e)`` is ``Op(sin, (e,))``
and unary minus of a non-literal is ``Op(mul, (e, -1))``.  Constant
subexpressions are folded at parse time unless folding is disabled (the
unfolded form keeps e.g. PI/3 as an explicit division statement).

A program runs as steps (``layout``): each if-chain is a step, and so is
each maximal run of assignments, as a chain of one unguarded arm.  The
use-before-assignment check, lowering and program execution walk the same
steps.  Lowering produces three-address statements restricted to the
registered opcode alphabet, whose constant operands must be finite.
Observation points are placed at the input node, after every arm of a
step, and at the output node; node names are X, R1, R2, ... and Y in
creation order.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from itertools import count, groupby
from typing import Iterator, Mapping, NamedTuple, Union

from .errors import (DivisionByZero, ExecutionError, NonFiniteValue, ParseError,
                     UnboundVariable, UndefinedVariable, UnsupportedOperation)
from .intervals import RELATIONS, IntervalSet, meet
from .rtg import (BINARY_OPS, OP_ALPHABET, Node, OpCode, Rib, RTGraph, Statement,
                  make_statements)

PI_VALUE = 3.14159


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


@dataclass(frozen=True)
class Op:
    """An alphabet operation applied to its operands.  Parse-time folding,
    ``evaluate`` (guard bounds, program execution) and lowering read it."""

    code: OpCode
    operands: tuple["Expr", ...]
    line: int = 0
    col: int = 0


Expr = Union[Num, Var, Op]


@dataclass(frozen=True)
class Comparison:
    lhs: Expr
    relop: str  # < <= > >=
    rhs: Expr


@dataclass(frozen=True)
class Assignment:
    target: str
    expr: Expr
    line: int = 0
    col: int = 0


@dataclass(frozen=True)
class Arm:
    guard: tuple[Comparison, ...] | None  # conjoined; None for an else arm
    body: tuple[Assignment, ...]


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
    values = [evaluate(o, env) for o in e.operands]
    try:
        return e.code.fn(*values)
    except ExecutionError as err:
        raise err.at(f"line {e.line}, column {e.col}")


def layout(p: Program) -> list[tuple[IfChain, list[str]]]:
    """The program as steps: (chain, end node of each arm) pairs.

    A maximal run of assignments is a chain of one unguarded arm.  End nodes
    are named R1, R2, ... in construction order, except that every arm of
    the last step ends at Y.  Program execution uses the same plan, so
    traces and graph observations share node names.
    """
    names = (f"R{i}" for i in count(1))
    steps: list[tuple[IfChain, list[str]]] = []
    for kind, items in groupby(p.body, type):
        if kind is Assignment:
            run = tuple(items)
            items = [IfChain(arms=(Arm(guard=None, body=run),), line=run[0].line)]
        steps.extend((chain, [next(names) for _ in chain.arms]) for chain in items)
    if steps:
        chain, ends = steps[-1]
        steps[-1] = (chain, ["Y"] * len(ends))
    return steps


# --- tokenizer ---------------------------------------------------------------

#: One match per token: the whitespace, newlines and comments before it are
#: skipped inside the match, and the empty match at the end of the text is
#: EOF.  Every class is ASCII: a non-ASCII digit or letter is a MISMATCH.
_TOKEN_RE = re.compile(r"""
    (?:[ \t\r\n]+|\#[^\n]*)*
    (?:
      (?P<NUMBER>[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)
    | (?P<ID>[A-Za-z_][A-Za-z_0-9]*)
    | (?P<LE><=)|(?P<GE>>=)|(?P<AND>&&)
    | (?P<LT><)|(?P<GT>>)|(?P<ASSIGN>=)
    | (?P<PLUS>\+)|(?P<MINUS>-)|(?P<STAR>\*)|(?P<SLASH>/)
    | (?P<LPAREN>\()|(?P<RPAREN>\))|(?P<LBRACE>\{)|(?P<RBRACE>\})
    | (?P<SEMI>;)
    | (?P<EOF>\Z)
    | (?P<MISMATCH>.)
    )
""", re.VERBOSE)

_KEYWORDS = {"input", "output", "if", "else", "sin"}


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    """The tokens of *text*, ending with EOF (column 1 of the last line).

    One regex match per token, whose kind is the alternative that matched;
    the line advances by the newlines in the span skipped before it.  O(n)
    in the length of the text.  Raises ParseError at an unexpected
    character.
    """
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        value = m[kind]
        skipped, end = m.span()
        start = end - len(value)
        if start != skipped:
            newlines = text.count("\n", skipped, start)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", skipped, start) + 1
        if kind == "ID":
            if value in _KEYWORDS:
                kind = value.upper()
        elif kind == "EOF":
            break
        elif kind == "MISMATCH":
            raise ParseError(f"unexpected character {value!r}", line, start - line_start + 1)
        tokens.append(Token(kind, value, line, start - line_start + 1))
    tokens.append(Token("EOF", "", line, 1))
    return tokens


# --- parser ------------------------------------------------------------------

#: Binding level of each binary operator token; higher binds tighter.
_LEVELS = {"PLUS": 0, "MINUS": 0, "STAR": 1, "SLASH": 1}


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
                tok = self.eat("INPUT")
                name = self.eat("ID").text
                if name in inputs:
                    raise ParseError(f"duplicate input declaration {name}", tok.line, tok.col)
                inputs.append(name)
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
                arms.append(Arm(guard=None, body=self.arm_body()))
                break
        return IfChain(arms=tuple(arms), line=first.line)

    def guarded_arm(self) -> Arm:
        self.eat("LPAREN")
        guard = self.guard()
        self.eat("RPAREN")
        return Arm(guard=guard, body=self.arm_body())

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

    def guard(self) -> tuple[Comparison, ...]:
        comparisons = [self.comparison()]
        while self.cur.kind == "AND":
            self.eat("AND")
            comparisons.append(self.comparison())
        return tuple(comparisons)

    def comparison(self) -> Comparison:
        lhs = self.expression()
        tok = self.cur
        if tok.text not in RELATIONS:
            raise ParseError(f"unexpected {tok.kind} {tok.text!r}", tok.line, tok.col,
                             expected=tuple(RELATIONS))
        self.pos += 1
        rhs = self.expression()
        return Comparison(lhs=lhs, relop=tok.text, rhs=rhs)

    def expression(self, level: int = 0) -> Expr:
        """Precedence climbing: operators binding at *level* or tighter,
        left-associative."""
        node = self.factor()
        while _LEVELS.get(self.cur.kind, -1) >= level:
            tok = self.cur
            self.pos += 1
            rhs = self.expression(_LEVELS[tok.kind] + 1)
            node = self._fold(Op(BINARY_OPS[tok.text], (node, rhs), tok.line, tok.col))
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
            return Op(BINARY_OPS["*"], (inner, Num(-1.0)), tok.line, tok.col)
        if tok.kind == "SIN":
            self.pos += 1
            self.eat("LPAREN")
            inner = self.expression()
            self.eat("RPAREN")
            return self._fold(Op(OP_ALPHABET[5], (inner,), tok.line, tok.col))
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

    def _fold(self, node: Op) -> Expr:
        if not self.fold or not all(isinstance(o, Num) for o in node.operands):
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
    return set().union(*(_expr_vars(o) for o in e.operands))


def _check_defined(p: Program) -> None:
    defined = set(p.inputs)

    def check_expr(e: Expr, local: set[str]):
        for name in sorted(_expr_vars(e) - local):
            raise UndefinedVariable(name, e.line)

    for chain, _ in layout(p):
        assigned_by_some_arm: set[str] = set()
        for arm in chain.arms:
            for cmp_ in arm.guard or ():
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
    to no statements, the operand being consumed by the parent.  For
    commutative opcodes a constant left operand is swapped to the right.  A
    non-finite constant operand raises NonFiniteValue naming its location.
    """
    specs: list[tuple[int, str, tuple]] = []
    result = _lower(e, fresh_names(_expr_vars(e)), specs)
    return list(make_statements(specs)), result


def _lower(e: Expr, fresh: Iterator[str], specs: list) -> "str | float":
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return e.name
    args = [_lower(o, fresh, specs) for o in e.operands]
    for o in e.operands:
        if isinstance(o, Num) and not math.isfinite(o.value):
            raise NonFiniteValue(f"non-finite constant {o.value}").at(
                f"line {o.line}, column {o.col}")
    op = e.code
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
    """Guard regions of a lowered program, by fragment id."""

    constraints: dict[str, dict[str, IntervalSet]] = field(default_factory=dict)

    def path_constraints(self, fragments: "tuple[str, ...] | list[str]"
                         ) -> list[dict[str, IntervalSet]]:
        return [self.constraints[f] for f in fragments if f in self.constraints]


def _const_eval(e: Expr) -> float | None:
    """The value of a constant expression; None when it reads a variable or
    divides by zero (a guard bound that is not representable)."""
    try:
        return evaluate(e, {})
    except (UnboundVariable, DivisionByZero):
        return None


def _guard_regions(guard: tuple[Comparison, ...]) -> dict[str, IntervalSet] | None:
    """Guard as per-variable interval regions; None when not representable
    (only var-versus-constant comparisons are)."""
    comparisons = []
    for cmp_ in guard:
        if isinstance(cmp_.lhs, Var):
            var, relop, bound = cmp_.lhs.name, cmp_.relop, _const_eval(cmp_.rhs)
        elif isinstance(cmp_.rhs, Var):
            var, relop, bound = cmp_.rhs.name, RELATIONS[cmp_.relop].mirror, _const_eval(cmp_.lhs)
        else:
            return None
        if bound is None:
            return None
        comparisons.append({var: IntervalSet.from_comparison(relop, bound)})
    return meet(comparisons)


def _effective_constraints(chain: IfChain) -> list[dict[str, IntervalSet] | None]:
    """Per-arm reachable regions: own guard intersected with the complement
    of every earlier arm's guard.  Exact only when each earlier guard
    constrains a single variable; otherwise arms report None (unknown).  A
    bound that is inf or NaN makes its comparison every real or none, as
    the program decides it.

    The complements of the earlier guards are kept as one running region
    per variable, so a chain costs O(arms * variables) IntervalSet
    operations."""
    out: list[dict[str, IntervalSet] | None] = []
    excluded: dict[str, IntervalSet] | None = {}  # None once an earlier guard is unknown
    for arm in chain.arms:
        own = _guard_regions(arm.guard) if arm.guard is not None else {}
        out.append(None if own is None or excluded is None else meet((own, excluded)))
        if own is None or len(own) > 1:
            excluded = None
        elif own and excluded is not None:
            (var, region), = own.items()
            excluded = meet((excluded, {var: region.complement()}))
    return out


def build_rtg(p: Program) -> tuple[RTGraph, SourceMap]:
    """Lower a program to its register-transfer graph.

    Each arm of a step becomes one rib per predecessor node, all copies
    sharing a fragment id and converging on the arm's end node, so a run of
    assignments becomes a single rib; the last step terminates at the
    output node.  Fragments are numbered I1, I2, ... in step and arm order.
    The graph needs no merge pass (``merge_equivalent_ribs``): the copies
    of one arm are given one fragment id here, and two arms never share
    one, since each (step, arm) is its own piece of source.  The result
    passes validate_graph.
    """
    plan = layout(p)
    if not plan:
        raise UnsupportedOperation("program body lowers to no statements")

    used = set(p.inputs) | {p.output}
    for chain, _ in plan:
        for arm in chain.arms:
            for a in arm.body:
                used.add(a.target)
                used |= _expr_vars(a.expr)
    fresh = fresh_names(used)

    smap = SourceMap()
    nodes: list[Node] = [Node("X", "input")]
    ribs: list[Rib] = []
    current = ["X"]
    fids = (f"I{n}" for n in count(1))
    for chain, ends in plan:
        if chain.arms[-1].guard is not None:
            raise UnsupportedOperation(
                f"line {chain.line}: if-chain needs an else arm to lower to a graph")
        for arm, dst, regions in zip(chain.arms, ends, _effective_constraints(chain)):
            fid = next(fids)
            if regions:
                smap.constraints[fid] = regions
            statements = make_statements(spec for a in arm.body
                                         for spec in lower_assignment(a, fresh))
            if nodes[-1].name != dst:
                nodes.append(Node(dst, "output" if dst == "Y" else "internal"))
            ribs.extend(Rib(fragment=fid, src=src, dst=dst, statements=statements)
                        for src in current)
        current = list(dict.fromkeys(ends))

    return RTGraph(nodes=tuple(nodes), ribs=tuple(ribs)), smap
