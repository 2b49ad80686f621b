from hypothesis import given, settings, strategies as st

from fingerbound.core import Point, PointSet
from fingerbound.geometry import (
    first_violation,
    is_arborally_satisfied,
    minimum_supersets,
    unsatisfied_pairs,
)


def ps(*pairs):
    return PointSet(pairs)


class TestSatisfied:
    def test_two_point_rectangle_is_empty(self):
        assert not is_arborally_satisfied(ps((1, 1), (2, 2)))

    def test_corner_point_satisfies(self):
        assert is_arborally_satisfied(ps((1, 1), (2, 2), (2, 1)))

    def test_collinear_column(self):
        assert is_arborally_satisfied(ps((5, 1), (5, 2), (5, 3)))

    def test_collinear_row(self):
        assert is_arborally_satisfied(ps((1, 4), (2, 4), (9, 4)))

    def test_empty_and_singleton(self):
        assert is_arborally_satisfied(ps())
        assert is_arborally_satisfied(ps((3, 7)))

    def test_boundary_point_counts(self):
        # witness sits on the rectangle edge, sharing a coordinate with a corner
        assert is_arborally_satisfied(ps((1, 1), (3, 3), (3, 1), (1, 3)))


class TestUnsatisfiedPairs:
    def test_single_violation(self):
        assert unsatisfied_pairs(ps((1, 1), (2, 2))) == [(Point(1, 1), Point(2, 2))]

    def test_no_violation(self):
        assert unsatisfied_pairs(ps((1, 1), (2, 2), (2, 1))) == []

    def test_three_violations_in_order(self):
        # each of the three rectangles checked by hand: all empty
        got = unsatisfied_pairs(ps((1, 1), (3, 2), (2, 3)))
        assert got == [
            (Point(1, 1), Point(3, 2)),
            (Point(1, 1), Point(2, 3)),
            (Point(3, 2), Point(2, 3)),
        ]


# random point sets: both routes must agree
points_strategy = st.sets(
    st.tuples(st.integers(1, 9), st.integers(1, 9)), min_size=0, max_size=14
)


@settings(max_examples=400, deadline=None)
@given(points_strategy)
def test_sweep_agrees_with_pair_oracle(pairs):
    pset = PointSet(Point(k, t) for k, t in pairs)
    assert is_arborally_satisfied(pset) == (unsatisfied_pairs(pset) == [])


@settings(max_examples=150, deadline=None)
@given(points_strategy)
def test_first_violation_is_a_real_violation(pairs):
    pset = PointSet(Point(k, t) for k, t in pairs)
    witness = first_violation(pset)
    if witness is None:
        assert unsatisfied_pairs(pset) == []
    else:
        p, q = witness
        assert p in pset and q in pset
        assert p.key != q.key and p.time != q.time
        assert not pset.has_third_point_in_rect(p, q)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 20), st.lists(st.integers(1, 20), min_size=1, max_size=8))
def test_degenerate_lines_always_satisfied(fixed, varying):
    column = PointSet(Point(fixed, t) for t in varying)
    row = PointSet(Point(k, fixed) for k in varying)
    assert is_arborally_satisfied(column)
    assert is_arborally_satisfied(row)


def test_minimum_supersets_yields_every_smallest_and_stops():
    base = [Point(1, 1), Point(2, 2)]
    found = list(minimum_supersets(base, [Point(2, 1), Point(1, 2)]))
    assert found == [ps((1, 1), (2, 2), (2, 1)), ps((1, 1), (2, 2), (1, 2))]
