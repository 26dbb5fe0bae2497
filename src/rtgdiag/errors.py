"""Exception types shared across the toolkit."""


class RtgError(Exception):
    """Base class for all rtgdiag errors."""


class UnsupportedOperation(RtgError):
    """An expression needs an operation outside the registered alphabet."""


class ParseError(RtgError):
    """Syntax error in a mini-language source file."""

    def __init__(self, message: str, line: int, column: int, expected: tuple = ()):
        self.line = line
        self.column = column
        self.expected = expected
        detail = f"line {line}, column {column}: {message}"
        if expected:
            detail += " (expected " + " or ".join(expected) + ")"
        super().__init__(detail)


class UndefinedVariable(RtgError):
    """A variable is used before any branch could have assigned it."""

    def __init__(self, name: str, line: int = 0):
        self.name = name
        self.line = line
        super().__init__(f"undefined variable '{name}'" + (f" at line {line}" if line else ""))


class PathExplosion(RtgError):
    """Path enumeration exceeded the configured cap."""


class CyclicGraph(RtgError):
    """A graph whose paths are counted has a cycle."""


class TermExplosion(RtgError):
    """Bracket expansion exceeded the configured cap."""


class Uncoverable(RtgError):
    """A covering problem has an element no candidate set contains."""

    def __init__(self, element):
        self.element = element
        super().__init__(f"element {element} is covered by no candidate")


class SchemaError(RtgError):
    """A graph or table JSON document lacks a key, holds a value of the
    wrong type, or names an unknown label; or a response vector holds a
    bit that is not 0 or 1."""

    @classmethod
    def field(cls, doc: str, obj, key: str, *kinds: type):
        """``obj[key]`` when *obj* is an object whose *key* holds one of
        *kinds* (never a bool); *doc* names the document in the message."""
        if not isinstance(obj, dict):
            raise cls(f"{doc}: expected an object with key {key!r}, got {type(obj).__name__}")
        if key not in obj:
            raise cls(f"{doc}: missing key {key!r}")
        value = obj[key]
        if not isinstance(value, kinds) or isinstance(value, bool):
            expected = " or ".join(k.__name__ for k in kinds)
            raise cls(f"{doc}: {key!r} holds {type(value).__name__}, expected {expected}")
        return value


class UsageError(RtgError):
    """A command-line flag or environment setting is malformed."""


class LengthMismatch(RtgError):
    """A response vector's length differs from the table's row count, or a
    block's labels from the size of its bracket product."""


class ExecutionError(RtgError):
    """Base class for runtime evaluation failures."""

    def at(self, where: str) -> "ExecutionError":
        """This error, its message completed with the location *where*."""
        self.args = (f"{self} in {where}",)
        return self


class DivisionByZero(ExecutionError):
    """Division by zero during statement or expression evaluation."""


class NonFiniteValue(ExecutionError):
    """An operation outside its domain received an infinite or NaN operand,
    or a lowered statement would hold one as a constant."""


class UnboundVariable(ExecutionError):
    """A variable was read before any binding existed for it."""

    def __init__(self, names):
        if isinstance(names, str):
            names = (names,)
        self.names = tuple(names)
        super().__init__("unbound variable(s): " + ", ".join(self.names))


class NoSuchStatement(RtgError):
    """A fault spec targets a fragment/ordinal that does not exist."""


class ArityMismatch(RtgError):
    """An opcode substitution would change the statement's arity."""


class NoOpMutation(RtgError):
    """A mutation leaves the target statement unchanged."""


class InvalidMutation(RtgError):
    """A fault spec is malformed or inapplicable to its target."""


class GraphMismatch(RtgError):
    """Golden and mutant graphs do not share a topology, or a suite path
    crosses a rib the golden graph lacks."""


class InvalidTolerance(RtgError):
    """A comparison tolerance is negative, infinite or NaN."""


class MissingStimulus(RtgError):
    """The stimuli given are not the ``Stimuli`` of the suite that runs."""


class InfeasiblePath(RtgError):
    """A path's guard constraints have an empty solution set."""


class NoResponse(RtgError):
    """A table that is diagnosed has no response vector bound."""


class NoFailures(RtgError):
    """The response vector is all-zero: no fault was detected."""


class EmptyDiagnosis(RtgError):
    """Exoneration removed every candidate term."""


class CandidateExplosion(RtgError):
    """Candidate DNF grew beyond the configured cap."""
