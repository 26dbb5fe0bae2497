"""One-dimensional interval sets for guard constraint solving.

Used to turn chains of comparisons like ``x < 2`` / ``x >= 2 && x < 12``
into solvable regions, including the implicit complement an ``else`` arm
imposes.  Only closed-form operations on a single variable are supported.
"""

from __future__ import annotations

from dataclasses import dataclass

INF = float("inf")


@dataclass(frozen=True)
class Interval:
    lo: float
    lo_open: bool
    hi: float
    hi_open: bool

    def is_empty(self) -> bool:
        if self.lo > self.hi:
            return True
        if self.lo == self.hi and (self.lo_open or self.hi_open):
            return True
        return False


FULL = Interval(-INF, True, INF, True)


@dataclass(frozen=True)
class IntervalSet:
    """A finite union of disjoint intervals, kept sorted."""

    parts: tuple[Interval, ...]

    @staticmethod
    def full() -> "IntervalSet":
        return IntervalSet((FULL,))

    @staticmethod
    def from_comparison(relop: str, bound: float) -> "IntervalSet":
        if relop == "<":
            return IntervalSet((Interval(-INF, True, bound, True),))
        if relop == "<=":
            return IntervalSet((Interval(-INF, True, bound, False),))
        if relop == ">":
            return IntervalSet((Interval(bound, True, INF, True),))
        if relop == ">=":
            return IntervalSet((Interval(bound, False, INF, True),))
        raise ValueError(f"unsupported relational operator {relop!r}")

    def is_empty(self) -> bool:
        return not self.parts

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        parts = []
        for a in self.parts:
            for b in other.parts:
                # on ties the open bound is the more restrictive one
                lo, lo_open = max((a.lo, a.lo_open), (b.lo, b.lo_open))
                hi, hi_closed = min((a.hi, not a.hi_open), (b.hi, not b.hi_open))
                piece = Interval(lo, lo_open, hi, not hi_closed)
                if not piece.is_empty():
                    parts.append(piece)
        parts.sort(key=lambda p: (p.lo, p.lo_open))
        return IntervalSet(tuple(parts))

    def complement(self) -> "IntervalSet":
        if not self.parts:
            return IntervalSet.full()
        parts = []
        cursor, cursor_open = -INF, True
        for p in sorted(self.parts, key=lambda p: (p.lo, p.lo_open)):
            gap = Interval(cursor, cursor_open, p.lo, not p.lo_open)
            if not gap.is_empty():
                parts.append(gap)
            cursor, cursor_open = p.hi, not p.hi_open
        tail = Interval(cursor, cursor_open, INF, True)
        if not tail.is_empty():
            parts.append(tail)
        return IntervalSet(tuple(parts))

    def pick(self) -> float:
        """A representative point: midpoint of the first bounded component,
        bound+-1 toward the unbounded side, 1.0 when fully unbounded."""
        if not self.parts:
            raise ValueError("empty interval set has no points")
        p = self.parts[0]
        if p.lo == -INF and p.hi == INF:
            return 1.0
        if p.lo == -INF:
            return p.hi - 1.0
        if p.hi == INF:
            return p.lo + 1.0
        if p.lo == p.hi:
            return p.lo
        return (p.lo + p.hi) / 2.0

    def contains(self, x: float) -> bool:
        for p in self.parts:
            lo_ok = x > p.lo if p.lo_open else x >= p.lo
            hi_ok = x < p.hi if p.hi_open else x <= p.hi
            if lo_ok and hi_ok:
                return True
        return False
