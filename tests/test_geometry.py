import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from fingerbound.core import Point, PointSet
from fingerbound.geometry import (
    RowSweep,
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


@settings(max_examples=300, deadline=None)
@given(points_strategy)
def test_row_sweep_agrees_with_first_violation(pairs):
    # checked and committed row by row, the carried state fails first at
    # the row of the earliest later corner of any empty rectangle
    pset = PointSet(Point(k, t) for k, t in pairs)
    sweep = RowSweep(max(pset.max_key, 1))
    witness = None
    for t in pset.times:
        witness = sweep.violation(pset.row_keys(t), t)
        if witness is not None:
            break
        sweep.commit(pset.row_keys(t), t)
    assert witness == first_violation(pset)
    bad = unsatisfied_pairs(pset)
    assert (witness is None) == (bad == [])
    if witness is not None:
        assert witness[1].time == min(q.time for _, q in bad)


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


def _plain_minimum_supersets(base, free):
    """The reference: whole candidate sets, every combination of every size."""
    for size in range(len(free) + 1):
        found = [c for c in (PointSet(base + list(combo)) for combo in combinations(free, size))
                 if is_arborally_satisfied(c)]
        if found:
            return found
    return []


def test_pruned_search_matches_plain_enumeration():
    # n <= 5, m <= 4: one base point per row plus up to two more, and the
    # free grid points kept whole or thinned to a half or a quarter
    rng = random.Random(20261018)
    for _ in range(2000):
        n, m = rng.randint(1, 5), rng.randint(1, 4)
        base = {Point(rng.randint(1, n), t) for t in range(1, m + 1)}
        base |= {Point(rng.randint(1, n), rng.randint(1, m)) for _ in range(rng.randint(0, 2))}
        base = sorted(base, key=lambda p: (p.time, p.key))
        keep = rng.choice((1.0, 0.5, 0.25))
        free = [Point(k, t) for t in range(1, m + 1) for k in range(1, n + 1)
                if Point(k, t) not in base and rng.random() < keep]
        expect = _plain_minimum_supersets(base, free)
        assert list(minimum_supersets(base, free)) == expect, (base, free)
        if not free:
            continue
        # the same search on top of the carried rows before the first free time
        start = free[0].time
        sweep = RowSweep(5)
        early = PointSet(p for p in base if p.time < start)
        if sweep.sweep((t, early.row_keys(t)) for t in early.times) is not None:
            assert expect == []
            continue
        carried = (sweep.time, sweep.last[:], sweep.tree.tree[:])
        later = [p for p in base if p.time >= start]
        got = list(minimum_supersets(later, free, sweep))
        assert got == [PointSet(p for p in c if p.time >= start) for c in expect]
        assert (sweep.time, sweep.last, sweep.tree.tree) == carried


def test_minimum_supersets_needs_time_major_free():
    with pytest.raises(ValueError, match="time-major"):
        list(minimum_supersets([Point(1, 1)], [Point(1, 3), Point(2, 2)]))


def test_minimum_supersets_rejects_points_the_sweep_covers():
    sweep = RowSweep(3)
    sweep.commit([2], 1)
    with pytest.raises(ValueError):
        list(minimum_supersets([Point(1, 1)], [], sweep))
    with pytest.raises(ValueError):
        list(minimum_supersets([Point(4, 2)], [], sweep))
