"""Laws of the interval sets that ``pick_stimulus`` reads as guard regions.

Regions are drawn the way guards build them: comparisons against a few
shared bounds (so ties between open and closed ends are common), closed
under intersection and complement.  On such sets ``complement`` is an
involution and ``intersect`` is commutative and idempotent, exactly, part
for part; membership is checked on the bounds and on real points between and
beyond them.
"""

from hypothesis import given
from hypothesis import strategies as st

from rtgdiag.intervals import IntervalSet

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
