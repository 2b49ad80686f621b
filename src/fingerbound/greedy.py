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

The sweep state is the satisfaction checker's: `GreedyState` is a
`geometry.RowSweep` (a max segment tree whose leaves are the last-touch
times) that folds each emitted row and keeps a log of the rows.

`greedy_sweep`, behind every greedy run, steps that state over the ranks of
the accessed keys (`core.rank_keys`), not over the keys 1..n, so its memory
grows with the d distinct keys accessed and not with n. `greedy_row` is the
package's one staircase walk, `geometry.staircase`, which also finds the
satisfaction checker's witnesses: both sides in one frame, O(log gap) per
touched key, gap ranks past the previous one, O(log d) at worst (O(log n)
stepped on the keys). Its row is sorted, and the sweep raises it once,
unchecked: x is checked, and every other key is a leaf the walks found.
Each access makes one `GreedyState.step` and one module-level `greedy_row`
call, so a wrapper on either sees every row, and none of the checker's
witness searches, which call the walk by its geometry name.
`greedy_row_reference` (`geometry.staircase_reference`) is a plain O(n)
prefix-maximum scan kept for differential testing, and `brute_min_row` is
the exhaustive minimum-cardinality oracle for tiny instances: the first
`RowSweep.completions` of the row by increasing count of other keys,
searched on the caller's sweep over the earlier rows (greedy's own state),
which also confirms that minimum is unique.
"""

from __future__ import annotations

from itertools import accumulate, chain, count, islice, repeat
from typing import Iterator

from .core import AccessSequence, CostReport, Key, PointSet, check_type, rank_keys
from .geometry import (RowSweep, staircase as greedy_row,
                       staircase_reference as greedy_row_reference)


class GreedyState(RowSweep):
    """Greedy's sweep state: a `RowSweep` over the emitted rows, plus their
    log.

    The emitted points are logged as one flat list of keys, each row's keys
    sorted; `per_row_cost` gives the row lengths. track_points=False drops
    the log (long cost-only runs). `copy()` returns an independent
    `GreedyState` with the row costs and, if tracked, the log, so an online
    run can branch: each copy steps on from the same prefix.
    """

    __slots__ = ("_log", "per_row_cost")

    def __init__(self, n: int, track_points: bool = True):
        super().__init__(n)
        self._log: list[Key] | None = [] if track_points else None
        self.per_row_cost: list[int] = []

    def copy(self) -> "GreedyState":
        other = super().copy()
        other._log = None if self._log is None else self._log[:]
        other.per_row_cost = self.per_row_cost[:]
        return other

    def step(self, x: Key) -> list[Key]:
        """Process the next access: emit its row's keys and update touch times."""
        row = greedy_row(self, x)
        self._fold(row, self.time + 1)
        if self._log is not None:
            self._log.extend(row)
        self.per_row_cost.append(len(row))
        return row

    def _tracked_log(self) -> list[Key]:
        if self._log is None:
            raise ValueError("point tracking was disabled for this state")
        return self._log

    def rows(self) -> Iterator[tuple[int, list[Key]]]:
        """Emitted rows as (time, sorted keys) pairs in time order."""
        log = self._tracked_log()
        cost = self.per_row_cost
        return ((t, log[end - c:end])
                for t, c, end in zip(count(1), cost, accumulate(cost)))

    def points(self) -> Iterator[tuple[int, Key]]:
        """Emitted points as (time, key) pairs in (time, key) order, from an
        iterator that runs in C: each row's time repeated once per key."""
        log = self._tracked_log()
        return zip(chain.from_iterable(map(repeat, count(1), self.per_row_cost)), log)

    def emitted(self) -> PointSet:
        return PointSet((k, t) for t, k in self.points())

    def cost_report(self) -> CostReport:
        return CostReport(tuple(self.per_row_cost))


def greedy_sweep(seq: AccessSequence, track_points: bool = True) -> GreedyState:
    """Run the full sweep and return its final state.

    The sweep runs on the ranks 1..d of the d distinct accessed keys, and
    its rows are those of the keys themselves, rank for key. A key never
    accessed keeps last-touch time 0, while every staircase threshold is a
    last-touch time, so at least 0, that a key must beat with a strict `>`:
    such a key is never touched and never blocks a key beyond it, so
    leaving it out changes no row. The staircase rule reads nothing else of
    the keys but their order, which the ranks keep.

    Its costs are those of `GreedyState(seq.n)` stepped on the keys, and its
    `rows()`, `points()` and `emitted()` report the keys, mapped back from
    the ranks by one `map` over the flat log. Its sweep (`n`, `tree` and
    `last_touch`) stays over the ranks, so its `step` and `commit` raise.
    """
    check_type(seq, AccessSequence, "seq")
    keys, rank = rank_keys(seq.accesses)
    state = GreedyState(len(keys), track_points)
    for r in map(rank.__getitem__, seq.accesses):
        state.step(r)
    if track_points:
        key_of = [0, *keys]  # rank r is key key_of[r]
        state._log = list(map(key_of.__getitem__, state._log))
    state.__class__ = _RankedGreedyState
    return state


class _RankedGreedyState(GreedyState):
    """`greedy_sweep`'s result: its log holds the keys but its sweep their
    ranks, which stepping on would read as keys, so `step` and `commit` raise."""

    __slots__ = ()

    def step(self, *_) -> list[Key]:
        raise ValueError("this greedy sweep ran on the ranks of its keys; it cannot step on")

    commit = step


def greedy_execute(seq: AccessSequence) -> tuple[PointSet, CostReport]:
    """Run the full sweep; returns the emitted point set and per-row costs."""
    state = greedy_sweep(seq)
    return state.emitted(), state.cost_report()


def greedy_cost(seq: AccessSequence) -> CostReport:
    """Per-row costs only, skipping point-set assembly (for long runs)."""
    return greedy_sweep(seq, track_points=False).cost_report()


def brute_min_row(state: RowSweep, x: Key) -> list[Key]:
    """Smallest completion of the row after `state`'s rows that contains x,
    sorted.

    The first of `RowSweep.completions` with 0, 1, ... other keys, searched
    on `state`, which is not changed. Raises `ValueError` if a second
    completion of that size exists. Exhaustive: meant for n at most about 12.
    """
    check_type(state, RowSweep, "state")
    for extra in range(state.n):  # the full row, n - 1 other keys, always passes
        found = list(islice(state.completions(x, extra), 2))
        if len(found) > 1:
            raise ValueError(f"row {state.time + 1} has two minimum completions containing {x}")
        if found:
            return found[0]
