"""Laws of the interval sets that ``pick_stimulus`` reads as guard regions.

Regions are drawn the way guards build them: comparisons against a few
shared bounds (so ties between open and closed ends are common), closed
under intersection and complement.  On such sets ``complement`` is an
involution and ``intersect`` is commutative and idempotent, exactly, cut
for cut; membership is checked on the bounds and on real points between and
beyond them.

Seeded regions from bounds that include 1e17, 1e308, the largest float and
pairs of adjacent floats are checked two ways: against the piece form in
``tests/reference.py`` (finite bounds: emptiness, membership and, where the
piece form's point lies in its region, ``pick``), and against the
comparisons they were built from (any bound, inf and NaN included).  Every
``pick`` is a finite point of its region.
"""

import math
import operator
import sys
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rtgdiag.intervals import IntervalSet

import reference

BOUNDS = (-2.0, 0.0, 0.5, 2.0)
POINTS = sorted({*BOUNDS, -3.0, -1.0, 0.25, 1.0, 3.0})

comparisons = st.builds(IntervalSet.from_comparison,
                        st.sampled_from(("<", "<=", ">", ">=")), st.sampled_from(BOUNDS))
regions = st.recursive(
    comparisons | st.just(IntervalSet.full()) | st.just(IntervalSet(())),
    lambda inner: st.one_of(st.builds(IntervalSet.complement, inner),
                            st.builds(IntervalSet.intersect, inner, inner)),
    max_leaves=6)


@given(regions)
def test_complement_is_an_involution(a):
    assert a.complement().complement() == a
    for x in POINTS:
        assert a.complement().contains(x) != a.contains(x)


@given(regions, regions)
def test_intersect_is_commutative(a, b):
    both = a.intersect(b)
    assert both == b.intersect(a)
    for x in POINTS:
        assert both.contains(x) == (a.contains(x) and b.contains(x))


@given(regions)
def test_intersect_is_idempotent(a):
    assert a.intersect(a) == a


# --- seeded: the cut form against the piece form, and against the comparisons ---

MAX = sys.float_info.max
FINITE = (-2.0, 0.0, 0.5, 2.0, 1.0, math.nextafter(1.0, 2.0), 1e17, -1e17, 1e308, -1e308,
          1.7e308, MAX, -MAX, math.nextafter(MAX, 0.0))
NON_FINITE = (math.inf, -math.inf, math.nan)
HOLDS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
PROBES = sorted({p for b in FINITE for p in (b, math.nextafter(b, -math.inf),
                                             math.nextafter(b, math.inf), b - 1.0, b + 1.0)}
                - {math.inf, -math.inf})
PROBES += [a / 2 + b / 2 for a, b in zip(PROBES, PROBES[1:])]


def drawn(rng: Random, bounds, depth: int = 5):
    """A region built as guards build them, as (cut form, piece form, the
    predicate it stands for)."""
    kind = rng.randrange(4) if depth else 0
    if kind <= 1:
        relop, bound = rng.choice(tuple(HOLDS)), rng.choice(bounds)
        return (IntervalSet.from_comparison(relop, bound),
                reference.IntervalSet.from_comparison(relop, bound),
                lambda x: HOLDS[relop](x, bound))
    a, ref_a, in_a = drawn(rng, bounds, depth - 1)
    if kind == 2:
        return a.complement(), ref_a.complement(), lambda x: not in_a(x)
    b, ref_b, in_b = drawn(rng, bounds, depth - 1)
    return a.intersect(b), ref_a.intersect(ref_b), lambda x: in_a(x) and in_b(x)


def test_finite_bounds_match_the_piece_form():
    rng = Random(5)
    for _ in range(2000):
        region, ref, _ = drawn(rng, FINITE)
        assert region.is_empty() == ref.is_empty()
        assert [region.contains(x) for x in PROBES] == [ref.contains(x) for x in PROBES]
        if not ref.is_empty() and ref.contains(ref.pick()):
            assert region.pick() == ref.pick()


def test_every_region_is_its_comparisons_and_picks_a_finite_point_of_itself():
    # inf and NaN bounds are decided whole: x < inf holds for every real, x < nan for none
    rng = Random(6)
    for _ in range(2000):
        region, _, holds = drawn(rng, FINITE + NON_FINITE)
        assert [region.contains(x) for x in PROBES] == [holds(x) for x in PROBES]
        try:
            x = region.pick()
        except ValueError:
            assert not any(map(holds, PROBES))
        else:
            assert math.isfinite(x) and region.contains(x) and holds(x)


@pytest.mark.parametrize("bound", NON_FINITE, ids=("inf", "-inf", "nan"))
@pytest.mark.parametrize("relop", tuple(HOLDS))
def test_a_non_finite_bound_is_every_real_or_none(relop, bound):
    expected = IntervalSet.full() if HOLDS[relop](0.0, bound) else IntervalSet(())
    assert IntervalSet.from_comparison(relop, bound) == expected


def _between(lo, hi):
    return IntervalSet.from_comparison(">", lo).intersect(IntervalSet.from_comparison("<", hi))


@pytest.mark.parametrize("region, point", [
    (IntervalSet.from_comparison(">", 1e17), math.nextafter(1e17, math.inf)),
    (IntervalSet.from_comparison("<", -1e17), math.nextafter(-1e17, -math.inf)),
    (IntervalSet.from_comparison("<=", 1e17), 1e17),
    (_between(1e308, 1.7e308), 1e308 / 2 + 1.7e308 / 2),
    (IntervalSet.from_comparison(">=", MAX), MAX),
    (_between(1.0, 3.0).intersect(_between(2.0, 5.0).complement()), 1.5),
], ids=("above 1e17", "below -1e17", "at most 1e17", "midpoint past the float range",
        "the largest float", "first interval"))
def test_pick_is_the_nearest_float_inside_when_the_candidate_rounds_out(region, point):
    assert region.pick() == point
    assert region.contains(point)


@pytest.mark.parametrize("region", [
    IntervalSet.from_comparison(">", MAX),
    IntervalSet.from_comparison("<", -MAX),
    _between(1.0, math.nextafter(1.0, 2.0)),
], ids=("above the largest float", "below the lowest float", "between adjacent floats"))
def test_a_region_without_a_finite_float_has_no_pick(region):
    assert not region.is_empty()
    with pytest.raises(ValueError):
        region.pick()
