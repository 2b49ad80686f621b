"""Greedy arborally-satisfied-set execution in the geometric model.

The algorithm sweeps access times 1..m. At each time t it places the accessed
point (s_t, t) plus the minimal set of extra points on row t that keeps the
emitted set arborally satisfied. The touched keys admit a staircase
characterization: scanning away from the accessed key x, a previously touched
key is touched again exactly when its last-touch time strictly exceeds both
the last-touch time of every touched key between it and x, and the last-touch
time of x itself. Untouched keys are never touched and never block. Both
strictness conditions come from the closed-rectangle convention: on a tie the
nearer key's point lies on the boundary of the farther pair's rectangle, and
a key dominated by x's own column is witnessed by the point (x, last(x)).
This is exactly the unique minimum completion, which the exhaustive
`brute_min_row` oracle confirms on small instances.

Cost of an access = number of points placed on its row.

A run's record is a `GreedyRun`: each row's cost and the emitted keys as
one flat log, read as rows, points, a point set or a cost `core.Column`.

`greedy_sweep`, behind every greedy run, reads each row off a tree of row
fragments (`_sweep_fragments`), the touched keys being the strict records
of last-touch time, which are an ancestor path in a tree ordered by last
touch (Demaine, Harmon, Iacono, Kane and Pătraşcu, SODA 2009). A node is a
run of keys of one emitted row that no later row separates, so they share
one time, with a child slot in each gap; every child was touched before its
parent. Descending to the accessed key x, each strict ancestor gives its
keys just left and right of x's slot, and x's own node, which ties with x,
gives none: O(log) a touched key. The row becomes the root, over the parts
of the nodes it split. A part that covers at least half of its row's lists
stays a view of them, and a smaller one is copied, so a key is copied
O(log) times between touches. Each slot a part leaves is cleared, so a list
holds only live subtrees and memory grows with the d distinct keys touched,
not with n. The sweep reads the keys only by their order, so it runs on the
caller's keys with no ranks.

`GreedyState` is the online, copyable state that the oracles step: the
satisfaction checker's sweep, a `geometry.RowSweep` (a max segment tree
whose leaves are the last-touch times), that folds each emitted row and is
the `GreedyRun` of its rows so far. Each step makes one module-level
`greedy_row` call, so a wrapper on it sees every row the state steps and
none of the checker's witness searches, which call the same walk,
`geometry.staircase`, by its geometry name: both sides in one frame, O(log
gap) per touched key, gap keys past the previous one. The state is also the
reference the batch sweep is held to: its rows equal the sweep's on every
trace the tests and `verify --suite differential` run.
`greedy_row_reference` (`geometry.staircase_reference`) is a plain O(n)
prefix-maximum scan kept for differential testing, and `brute_min_row` is
the exhaustive minimum-cardinality oracle for tiny instances: the first
`RowSweep.completions` of the row by increasing count of other keys,
searched on the caller's sweep over the earlier rows (greedy's own state),
which also confirms that minimum is unique.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate, chain, count, islice, repeat
from typing import Iterator, Sequence

from .bounds import MAX_ENUM_N
from .core import AccessSequence, Column, Key, PointSet, check_type
from .errors import TooLargeError
from .geometry import (RowSweep, staircase as greedy_row,
                       staircase_reference as greedy_row_reference)


class GreedyRun:
    """Greedy's record of a run: `per_row_cost`, the length of each row, and
    the emitted points as one flat list of keys, each row's keys sorted."""

    def __init__(self, per_row_cost: list[int], log: list[Key]):
        self.per_row_cost = per_row_cost
        self._log = log

    def rows(self) -> Iterator[tuple[int, list[Key]]]:
        """Emitted rows as (time, sorted keys) pairs in time order."""
        log, cost = self._log, self.per_row_cost
        return ((t, log[end - c:end])
                for t, c, end in zip(count(1), cost, accumulate(cost)))

    def points(self) -> Iterator[tuple[int, Key]]:
        """Emitted points as (time, key) pairs in (time, key) order, from an
        iterator that runs in C: each row's time repeated once per key."""
        return zip(chain.from_iterable(map(repeat, count(1), self.per_row_cost)), self._log)

    def emitted(self) -> PointSet:
        return PointSet((k, t) for t, k in self.points())

    def cost_report(self) -> Column:
        return Column(tuple(self.per_row_cost))


class GreedyState(RowSweep, GreedyRun):
    """Greedy's sweep state: a `RowSweep` over the emitted rows that is also
    the `GreedyRun` of those rows so far.

    `copy()` returns an independent `GreedyState`, row costs and log too, so
    an online run can branch: each copy steps on from the same prefix.
    """

    __slots__ = ("_log", "per_row_cost")

    def __init__(self, n: int):
        RowSweep.__init__(self, n)
        GreedyRun.__init__(self, [], [])

    def copy(self) -> "GreedyState":
        other = super().copy()
        other._log = self._log[:]
        other.per_row_cost = self.per_row_cost[:]
        return other

    def step(self, x: Key) -> list[Key]:
        """Process the next access: emit its row's keys and update touch times."""
        row = greedy_row(self, x)
        self._fold(row, self.time + 1)
        self._log.extend(row)
        self.per_row_cost.append(len(row))
        return row


def greedy_sweep(seq: AccessSequence) -> GreedyRun:
    """Run greedy on seq and return its run, over seq's keys.

    The run is `_sweep_fragments` over the accesses as given, a tree of row
    fragments searched in O(log) a touched key: it reads the keys only by
    order, so it needs no ranks and no key map, and holds O(d) memory for
    the d distinct keys, whatever n is. Its costs and log are those of
    `GreedyState(seq.n)` stepped on the same keys, which `verify --suite
    differential` and the tests check.
    """
    check_type(seq, AccessSequence, "seq")
    return GreedyRun(*_sweep_fragments(seq.accesses, True))


def _sweep_fragments(accesses: Sequence[Key],
                     track_points: bool) -> tuple[list[int], list[Key] | None]:
    """Greedy's run over the keys, each row read off a tree of row fragments:
    its `per_row_cost` and, if `track_points`, its flat key log, else None.

    A node `[keys, kids, lo, hi]` is a fragment: `keys[lo:hi]`, keys of one
    emitted row that no later row separates, so they share one last-touch
    time, and their child slots `kids[lo:hi + 1]`, each None or a subtree of
    the keys between its neighbours. Every child was touched before its
    parent, so the root is the last row. Descending to x by bisection, each
    strict ancestor's keys just left and right of x's slot are later than
    everything between them and x: they are exactly the staircase's records,
    nearest the root outermost. x's own node ties with x and gives none.

    The row becomes the root. Its slots hold, in key order, the part of each
    ancestor beyond its record on that side, and x's node split around x;
    each part keeps its subtrees, so the touch order holds. A part with no
    key is its one child. A part that covers at least half of its lists
    stays a view of them, so no list is more than twice what it holds live,
    and a smaller one is copied, so a key is copied O(log) times between
    touches and a row costs O(touched · log) amortized. Each slot a part
    leaves, and each path slot, is set to None in the lists it leaves, so a
    list refers only to live subtrees and memory stays O(d) for the d
    distinct keys touched.
    """
    per_row_cost: list[int] = []
    log: list[Key] | None = [] if track_points else None
    root = None
    for x in accesses:
        row, kids, right, right_kids = [], [], [], []  # each side outermost first
        node = root
        while node is not None:
            keys, slots, lo, hi = node
            i = bisect_left(keys, x, lo, hi)
            if i < hi and keys[i] == x:
                kids.append(_part(keys, slots, lo, i))
                kids.append(_part(keys, slots, i + 1, hi))
                break
            if i > lo:
                row.append(keys[i - 1])
                kids.append(_part(keys, slots, lo, i - 1))
            if i < hi:
                right.append(keys[i])
                right_kids.append(_part(keys, slots, i + 1, hi))
            node = slots[i]
            slots[i] = None
        else:  # x was never touched: its slot is empty
            kids += (None, None)
        row.append(x)
        right.reverse()
        row += right
        right_kids.reverse()
        kids += right_kids
        # a list, not a tuple: freed tuples of this size wait on a free
        # list, which kept the arenas of a dead tree from being released
        root = [row, kids, 0, len(row)]
        per_row_cost.append(len(row))
        if log is not None:
            log += row
    return per_row_cost, log


def _part(keys: list[Key], slots: list, a: int, b: int):
    """The fragment of `keys[a:b]` with slots `slots[a:b + 1]`, which the
    caller's fragment gives up: its one child if it has no key, else a view
    of the lists if it covers at least half of them, else a copy. The lists
    keep no slot the result no longer views."""
    if a == b:
        kid = slots[a]
        slots[a] = None
        return kid
    if 2 * (b - a) >= len(keys):
        return [keys, slots, a, b]
    part = [keys[a:b], slots[a:b + 1], 0, b - a]
    slots[a:b + 1] = repeat(None, b - a + 1)
    return part


def greedy_execute(seq: AccessSequence) -> tuple[PointSet, Column]:
    """Run the full sweep; returns the emitted point set and per-row costs."""
    run = greedy_sweep(seq)
    return run.emitted(), run.cost_report()


def greedy_cost(seq: AccessSequence) -> Column:
    """Per-row costs only: the sweep builds no key log (for long runs)."""
    check_type(seq, AccessSequence, "seq")
    return Column(tuple(_sweep_fragments(seq.accesses, False)[0]))


def brute_min_row(state: RowSweep, x: Key) -> list[Key]:
    """Smallest completion of the row after `state`'s rows that contains x,
    sorted.

    The first of `RowSweep.completions` with 0, 1, ... other keys, searched
    on `state`, which is not changed. Raises `ValueError` if a second
    completion of that size exists. Exhaustive, so n past `bounds.MAX_ENUM_N`
    raises `TooLargeError` before any search.
    """
    check_type(state, RowSweep, "state")
    if state.n > MAX_ENUM_N:  # the search grows about 14-fold with each 4 more keys
        raise TooLargeError(f"brute_min_row is guarded to n <= {MAX_ENUM_N}, got n={state.n}")
    for extra in range(state.n):  # the full row, n - 1 other keys, always passes
        found = list(islice(state.completions(x, extra), 2))
        if len(found) > 1:
            raise ValueError(f"row {state.time + 1} has two minimum completions containing {x}")
        if found:
            return found[0]
