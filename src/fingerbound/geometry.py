"""Arboral-satisfaction predicate and diagnostics over point sets.

A point set is arborally satisfied when every closed axis-aligned rectangle
spanned by two points with distinct keys and distinct times contains a third
point of the set. Boundary points count as witnesses; only the two defining
corners are excluded. Pairs sharing a key or a time span no rectangle and
impose no constraint.

Two routes are provided. `unsatisfied_pairs` is the definition itself: it
reads no index, checks each pair against every other point of the set and
lists the violations. `is_arborally_satisfied` runs a row sweep over the
ranks of the set's keys that reduces the pair condition to one range-maximum
test per open gap of a row:

    at row time t, for an open key gap between neighbouring row points (or
    a row point and the keyspace boundary), the set is violated exactly
    when some previously touched key in the gap has a last-touch time later
    than the last touch of the earlier-touched bounding row point's column.

Everything farther out is witnessed by the nearest same-row point, blocked
gap keys are witnessed by their blockers, and stale column points are
witnessed by their successors in the same column, so that comparison is the
only one left: the gap's maximum last-touch time against that threshold
(`RowSweep.failing_gap`). Only a failing gap needs its witness, the gap's
key nearest the earlier-touched neighbour among those touched later: the
first record of the staircase seen from that neighbour, which
`RowSweep.violation` takes from the one staircase walk, `staircase`, the
function greedy binds as its row (`greedy.greedy_row`).
`staircase_reference` is its O(n) scan, kept for differential testing. The
two satisfaction routes are cross-checked in the test suite.

So row t's verdict depends only on row t's keys and the last-touch times of
the rows before it. `RowSweep` carries those times from row to row: it checks
one row against them (`failing_gap`, unchecked, or `violation`, checked, for
the witness), then folds the row in (`commit`, checked, or `_fold` for a row
its caller built). The sweep is causal, which the exhaustive oracles rely on.
It is also the state greedy reads: `greedy.GreedyState` is a `RowSweep` that
folds each row it emits and logs it. Only this module reads the sweep's tree,
the max segment tree whose leaves are the times, their one copy; a row's time
is above every committed one, so a fold raises each of its leaves and climbs
only until it meets an ancestor the row has already raised.

`RowSweep.completions` is the one exhaustive search: the rows of the next
time that hold a given key and a given number of other keys and pass
`failing_gap`. The greedy minimum-row oracle (`greedy.brute_min_row`, with
its uniqueness check) takes them for one row on greedy's own state, and the
exact optimum (`opt.opt_satisfied_superset`) row by row, folding each
into a copy of the sweep. Each row is a sorted key list, so no caller builds
a point set to search.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations
from operator import lt
from typing import Iterator, Sequence

from .core import (Key, Point, PointSet, check_built_size, check_key, check_type, first_bad,
                   ints_within, rank_keys)
from .errors import KeyOutOfRangeError


class RowSweep:
    """Last-touch time of each key 1..n (0 for never) after the committed
    rows, up to row `time`, held as the leaves of a heap-ordered max segment
    tree: key k is node `size + k - 1` of `tree`, each internal node holds
    the maximum of its subtree, and padding leaves past n stay 0. Rows are
    sorted key lists, committed in increasing time.

    The staircase walk (`staircase`) reads this tree. The gap test
    (`failing_gap`) reads each row key's leaf once and makes one bottom-up
    pass over each gap's leaves, O(log gap), stopped at the first node
    above the gap's threshold, or none if the threshold is the root's
    maximum; `violation` takes a failing gap's witness from the walk."""

    __slots__ = ("n", "size", "time", "tree")

    def __init__(self, n: int):
        check_built_size(n, "a row sweep")
        self.n = n
        self.size = 1 << (n - 1).bit_length()
        self.time = 0
        self.tree = [0] * (2 * self.size)

    def copy(self) -> "RowSweep":
        """An independent sweep of the same type over the same rows."""
        other = object.__new__(type(self))
        other.n, other.size, other.time, other.tree = self.n, self.size, self.time, self.tree[:]
        return other

    def last_touch(self, k: Key) -> int:
        """Key k's last-touch time, 0 if never touched; k in 1..n, checked."""
        k = check_key(k, self.n)
        return self.tree[self.size + k - 1]

    def failing_gap(self, row: Sequence[Key]) -> tuple[Key, Key] | None:
        """The bounds (prev, y) of the sorted row's first open gap, in key
        order, that holds a key touched later than the earlier-touched of
        its bounding row keys, or None; prev is 0 and y is n + 1 at the
        keyspace ends, which bound nothing, so an empty row passes.
        Unchecked, like `_fold`: the row's keys must rise strictly in 1..n."""
        tree = self.tree
        base = self.size - 1
        top = tree[1]
        prev, last = 0, top  # prev's last touch: top past the keyspace end
        for y in row:
            now = tree[base + y]
            if y - prev > 1:
                thr = now if now < last else last
                if thr < top:
                    lo = base + prev + 1  # the leaves of keys prev + 1 .. y - 1
                    hi = base + y - 1
                    while lo <= hi:
                        if lo & 1:
                            if tree[lo] > thr:
                                return prev, y
                            lo += 1
                        if not hi & 1:
                            if tree[hi] > thr:
                                return prev, y
                            hi -= 1
                        lo >>= 1
                        hi >>= 1
            prev, last = y, now
        # the last gap, keys prev + 1 .. n and the 0 padding past n, ends its
        # level: its pass stops at a leftmost node, reached past the right edge
        if last < top:
            lo = base + prev + 1
            while lo & (lo - 1):
                if lo & 1:
                    if tree[lo] > last:
                        return prev, self.n + 1
                    lo += 1
                lo >>= 1
        return None

    def violation(self, row: Sequence[Key], t: int) -> tuple[Point, Point] | None:
        """A pair spanning an empty rectangle that the sorted row t would
        form with the committed rows, earlier point first, or None: the
        first failing gap's first record of the `staircase` seen from its
        earlier-touched neighbour, with that neighbour's row point. Raises
        unless `commit` would take row t and its keys rise strictly."""
        self._check_row(row, t)
        if (i := first_bad(row, lambda ks: all(map(lt, ks, ks[1:])))) is not None:
            raise ValueError(f"key {row[i]} does not rise above key {row[i - 1]} in row {t}")
        gap = self.failing_gap(row)
        if gap is None:
            return None
        prev, y = gap
        tree = self.tree
        base = self.size - 1
        if prev and (y > self.n or tree[base + prev] <= tree[base + y]):
            near, step = prev, 1  # the walk's first record right of prev
        else:
            near, step = y, -1  # the walk's first record left of y
        stairs = staircase(self, near)
        z = stairs[bisect_left(stairs, near) + step]
        return Point(z, tree[base + z]), Point(near, t)

    def completions(self, x: Key, extra: int) -> Iterator[list[Key]]:
        """The rows of time `time + 1` that hold x and exactly `extra` other
        keys and pass `failing_gap`, each sorted, in `itertools.combinations`
        order of the other keys. x in 1..n and extra, a non-negative int
        (not a bool), checked. The sweep is not changed. Exhaustive: meant
        for tiny n."""
        x = check_key(x, self.n)
        if type(extra) is not int or extra < 0:
            raise ValueError(f"extra must be a non-negative integer, got {extra!r}")
        others = [k for k in range(1, self.n + 1) if k != x]
        rows = (sorted((x, *keys)) for keys in combinations(others, extra))
        return (row for row in rows if self.failing_gap(row) is None)

    def commit(self, row: Sequence[Key], t: int) -> None:
        """Fold row t in: its keys were last touched at t. Raises before any
        write unless `_check_row` passes."""
        self._check_row(row, t)
        self._fold(row, t)

    def _check_row(self, row: Sequence[Key], t: int) -> None:
        """Raise unless t is an int after the committed rows and every key, in
        any order, is an int in 1..n (`core.ints_within`); a bool is neither."""
        if type(t) is not int:
            raise ValueError(f"row time must be an integer, got {t!r}")
        if t <= self.time:
            raise ValueError(f"row {t} does not follow committed row {self.time}")
        if row and not ints_within(row, 1, self.n):
            k = row[first_bad(row, lambda ks: ints_within(ks, 1, self.n))]
            fault = "is not an integer" if type(k) is not int else f"outside [1, {self.n}]"
            raise KeyOutOfRangeError(f"key {k!r} {fault} in row {t}")

    def _fold(self, row: Sequence[Key], t: int) -> None:
        """`commit`, unchecked, for a row its caller built in 1..n at a time
        after the committed rows. Each leaf is raised to t, and so is each
        ancestor, up to the first already at t."""
        tree = self.tree
        base = self.size - 1
        for i in row:
            i += base
            tree[i] = t
            i >>= 1
            while i and tree[i] < t:
                tree[i] = t
                i >>= 1
        self.time = t


def staircase(sweep: RowSweep, x: Key) -> list[Key]:
    """The staircase seen from key x, sorted: x and, on each side, every key
    touched later than x and than each key between them. The sweep is not
    changed. Greedy's row for an access to x (`greedy.greedy_row`).

    Each side's walk finds its strict records of last-touch time nearest
    first, each searched from the leaf past the last: a node no later than
    the threshold climbs while a left (right) child and passes the search
    on, and a later one descends to its nearest leaf."""
    try:
        n, t, size = sweep.n, sweep.tree, sweep.size
    except AttributeError:  # checked only here, so a sweep's access pays for no check
        check_type(sweep, RowSweep, "sweep")
        raise
    if type(x) is not int or not 0 < x <= n:
        x = check_key(x, n)
    top = t[1]
    leaf = size + x - 1
    row = []
    i, thr = leaf, t[leaf]
    while thr < top and i > size:  # the left walk, stopped at key 1's leaf
        i -= 1
        while t[i] <= thr:
            if not i & (i - 1):  # leftmost node of its level
                break
            while not i & 1:
                i >>= 1
            i -= 1
        else:
            while i < size:
                i = 2 * i + 1
                if t[i] <= thr:
                    i -= 1
            row.append(i - size + 1)
            thr = t[i]
            continue
        break
    row.reverse()  # nearest first, into key order
    row.append(x)
    end = size + n - 1  # key n's leaf; padding leaves past it stay 0, never a record
    i, thr = leaf, t[leaf]
    while thr < top and i < end:  # the right walk, already in key order
        i += 1
        while t[i] <= thr:
            if not (i + 1) & i:  # rightmost node of its level
                break
            while i & 1:
                i >>= 1
            i += 1
        else:
            while i < size:
                i <<= 1
                if t[i] <= thr:
                    i += 1
            row.append(i - size + 1)
            thr = t[i]
            continue
        break
    return row


def staircase_reference(sweep: RowSweep, x: Key) -> list[Key]:
    """O(n) prefix-maximum scan implementing the same staircase rule."""
    check_type(sweep, RowSweep, "sweep")
    x = check_key(x, sweep.n)
    last = sweep.tree[sweep.size - 1:]  # last[k] is key k's last-touch time
    left, right = [], []
    for side, keys in ((left, range(x - 1, 0, -1)), (right, range(x + 1, sweep.n + 1))):
        best = last[x]
        for y in keys:
            if last[y] > best:
                side.append(y)
                best = last[y]
    return [*reversed(left), x, *right]


def is_arborally_satisfied(pset: PointSet) -> bool:
    """True iff the point set is arborally satisfied."""
    return first_violation(pset) is None


def first_violation(pset: PointSet) -> tuple[Point, Point] | None:
    """A witness pair spanning an empty rectangle, or None if satisfied.

    The first component is the earlier point. Which violating pair is
    returned is an implementation detail; use `unsatisfied_pairs` for the
    complete lexicographic listing.
    """
    check_type(pset, PointSet, "pset")
    if len(pset) < 2:
        return None
    # satisfaction depends only on key order: sweep the ranks of the set's
    # keys, as many as the distinct keys, in sorted rows that need no checks
    keys, rank = rank_keys({k for k, _ in pset.points})
    sweep = RowSweep(len(keys))
    for t in pset.times:
        row = [rank[k] for k in pset.row_keys(t)]
        if sweep.failing_gap(row) is not None:  # only the failing row pays for the checks
            return tuple(Point(keys[r - 1], s) for r, s in sweep.violation(row, t))
        sweep._fold(row, t)
    return None


def unsatisfied_pairs(pset: PointSet) -> list[tuple[Point, Point]]:
    """Every unordered pair spanning an empty rectangle, by the definition:
    each pair with distinct keys and times against every other point.

    Points are ordered by (time, key) inside each pair and pairs are listed
    lexicographically in that order. Empty iff `is_arborally_satisfied`.
    """
    check_type(pset, PointSet, "pset")
    pts = list(pset)
    bad: list[tuple[Point, Point]] = []
    for i, p in enumerate(pts):
        for q in pts[i + 1 :]:
            if p.key == q.key or p.time == q.time:
                continue
            # time-major order puts p's time below q's
            lo, hi = sorted((p.key, q.key))
            if not any(lo <= r.key <= hi and p.time <= r.time <= q.time
                       for r in pts if r != p and r != q):
                bad.append((p, q))
    return bad
