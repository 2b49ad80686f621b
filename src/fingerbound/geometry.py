"""Arboral-satisfaction predicate and diagnostics over point sets.

A point set is arborally satisfied when every closed axis-aligned rectangle
spanned by two points with distinct keys and distinct times contains a third
point of the set. Boundary points count as witnesses; only the two defining
corners are excluded. Pairs sharing a key or a time span no rectangle and
impose no constraint.

Two routes are provided. `unsatisfied_pairs` checks every pair against the
definition directly and lists the violations. `is_arborally_satisfied` runs a
row sweep that reduces the pair condition to one range-maximum comparison per
row point and side:

    at row time t, for a row point y and its open key gap up to the nearest
    same-row point (or keyspace boundary), the set is violated exactly when
    some previously touched key in the gap has a last-touch time later than
    the last touch of y's own column.

Everything farther out is witnessed by the nearest same-row point, blocked
gap keys are witnessed by their blockers, and stale column points are
witnessed by their successors in the same column, so the gap maximum is the
only comparison left. The two routes are cross-checked in the test suite.

`minimum_supersets` is the one exhaustive search over point additions: the
greedy minimum-row oracle, the exact optimum and the uniqueness check of the
minimality suite all take their answers from it.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, Sequence

from .core import Point, PointSet
from .segtree import MaxSegTree


def is_arborally_satisfied(pset: PointSet) -> bool:
    """True iff the point set is arborally satisfied."""
    return first_violation(pset) is None


def first_violation(pset: PointSet) -> tuple[Point, Point] | None:
    """A witness pair spanning an empty rectangle, or None if satisfied.

    The first component is the earlier point. Which violating pair is
    returned is an implementation detail; use `unsatisfied_pairs` for the
    complete lexicographic listing.
    """
    if len(pset) < 2:
        return None
    tree = MaxSegTree(pset.max_key)
    last = [0] * (pset.max_key + 1)
    for t in pset.times:
        row = pset.row_keys(t)
        for i, y in enumerate(row):
            own = last[y]
            left_bound = row[i - 1] if i > 0 else 0
            right_bound = row[i + 1] if i + 1 < len(row) else pset.max_key + 1
            # the witness is the gap's latest key nearest to y; no key in
            # the gap is later than gap_max (tree leaf j is key j + 1)
            gap_max = tree.max_in(left_bound, y - 2)
            if gap_max > own:
                z = tree.rightmost_above(y - 2, gap_max - 1) + 1
                return Point(z, last[z]), Point(y, t)
            gap_max = tree.max_in(y, right_bound - 2)
            if gap_max > own:
                z = tree.leftmost_above(y, gap_max - 1) + 1
                return Point(z, last[z]), Point(y, t)
        for y in row:
            last[y] = t
            tree.raise_to(y - 1, t)
    return None


def minimum_supersets(base: list[Point], free: Sequence[Point]) -> Iterator[PointSet]:
    """Every arborally satisfied superset of `base` that adds the fewest
    points of `free`.

    Tries subsets of `free` by increasing size, in `itertools.combinations`
    order, yields each satisfied superset of the first size that has one,
    then stops. Exhaustive: meant for tiny instances.
    """
    for size in range(len(free) + 1):
        found = False
        for combo in combinations(free, size):
            candidate = PointSet(base + list(combo))
            if is_arborally_satisfied(candidate):
                found = True
                yield candidate
        if found:
            return


def unsatisfied_pairs(pset: PointSet) -> list[tuple[Point, Point]]:
    """Every unordered pair spanning an empty rectangle.

    Points are ordered by (time, key) inside each pair and pairs are listed
    lexicographically in that order. Empty iff `is_arborally_satisfied`.
    """
    pts = sorted(pset, key=lambda p: (p.time, p.key))
    bad: list[tuple[Point, Point]] = []
    for i, p in enumerate(pts):
        for q in pts[i + 1 :]:
            if p.key == q.key or p.time == q.time:
                continue
            if not pset.has_third_point_in_rect(p, q):
                bad.append((p, q))
    return bad
