"""Regions of the real line for guard constraint solving.

Used to turn chains of comparisons like ``x < 2`` / ``x >= 2 && x < 12``
into solvable regions, including the implicit complement an ``else`` arm
imposes.  A region is its sorted cuts, membership flipping at each: a cut
``(v, 0)`` lies just below ``v`` and ``(v, 1)`` just above it.  A
comparison against an inf or NaN bound is decided whole, as the program
decides it: every real when ``op(0.0, bound)`` holds, else none.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, NamedTuple


class Relation(NamedTuple):
    holds: Callable[[float, float], bool]
    mirror: str  # the same comparison with its sides swapped
    side: int  # of the cut at the bound
    below: bool  # whether the reals below the cut hold


#: The relational operators of guards, by source symbol.
RELATIONS: dict[str, Relation] = {
    "<": Relation(operator.lt, ">", 0, True), "<=": Relation(operator.le, ">=", 1, True),
    ">": Relation(operator.gt, "<", 1, False), ">=": Relation(operator.ge, "<=", 0, False),
}


@dataclass(frozen=True)
class IntervalSet:
    """Ascending finite cuts, and whether the reals below the first are in.
    The form is canonical; ``IntervalSet(())`` is the empty region."""

    cuts: tuple[tuple[float, int], ...]
    inside: bool = False

    @staticmethod
    def full() -> "IntervalSet":
        return IntervalSet((), True)

    @staticmethod
    def from_comparison(relop: str, bound: float) -> "IntervalSet":
        if relop not in RELATIONS:
            raise ValueError(f"unsupported relational operator {relop!r}")
        relation = RELATIONS[relop]
        if not math.isfinite(bound):
            return IntervalSet((), relation.holds(0.0, bound))
        return IntervalSet(((bound, relation.side),), relation.below)

    def is_empty(self) -> bool:
        return not (self.cuts or self.inside)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        mine, theirs = set(self.cuts), set(other.cuts)
        a, b, cuts = self.inside, other.inside, []
        for cut in sorted(mine | theirs):
            was = a and b
            a, b = a ^ (cut in mine), b ^ (cut in theirs)
            if (a and b) != was:
                cuts.append(cut)
        return IntervalSet(tuple(cuts), self.inside and other.inside)

    def complement(self) -> "IntervalSet":
        return IntervalSet(self.cuts, not self.inside)

    def pick(self) -> float:
        """A finite point of the first interval that has one: 1.0, bound -/+ 1
        toward an unbounded side, or the midpoint, if the interval holds it;
        else the float inside nearest its finite lower (else upper) bound.
        ValueError when the region holds no finite float."""
        edges = (((-math.inf, 1),) * self.inside + self.cuts
                 + ((math.inf, 0),) * ((len(self.cuts) + self.inside) % 2))
        for lower, upper in zip(edges[::2], edges[1::2]):
            (lo, lo_side), (hi, hi_side) = lower, upper
            if lo == -math.inf:
                x = 1.0 if hi == math.inf else hi - 1.0
                nearest = hi if hi_side else math.nextafter(hi, -math.inf)
            else:
                x = lo + 1.0 if hi == math.inf else (lo + hi) / 2
                if math.isinf(x):  # lo + hi overflowed
                    x = lo / 2 + hi / 2
                nearest = math.nextafter(lo, math.inf) if lo_side else lo
            for point in (x, nearest):
                if lower < (point, 0.5) < upper:
                    return point
        raise ValueError("region holds no finite point")

    def contains(self, x: float) -> bool:
        return math.isfinite(x) and self.inside != bisect_left(self.cuts, (x, 0.5)) % 2


def meet(region_maps: Iterable[Mapping[str, IntervalSet]]) -> dict[str, IntervalSet]:
    """Per-variable intersection; a map not naming a variable leaves it free."""
    out: dict[str, IntervalSet] = {}
    for regions in region_maps:
        for var, region in regions.items():
            out[var] = out[var].intersect(region) if var in out else region
    return out
