"""RowSweep's max segment tree: greedy's staircase walks (`greedy_row`) and
last-touch reads against brute-force scans of the last-touch times, and the
batched row raise against raising one leaf at a time.

Sizes cover every n up to 33 and both sides of 64 and 128, so the padding
leaves past n and every climb to the edge of a level are exercised."""

import pytest

from fingerbound.errors import BadKeyspaceError, KeyOutOfRangeError
from fingerbound.geometry import RowSweep
from fingerbound.greedy import greedy_row
from fingerbound.workloads import Splitmix64

SIZES = list(range(1, 34)) + [63, 64, 65, 127, 128, 129]


def raise_one(sweep, k, t):
    """The per-leaf raise: set key k's leaf to t and climb while an ancestor
    is below t."""
    tree = sweep.tree
    i = sweep.size + k - 1
    tree[i] = t
    i >>= 1
    while i and tree[i] < t:
        tree[i] = t
        i >>= 1


def seeded_rows(n, seed):
    """A sweep committed rows of one to four distinct keys, one row per time,
    so many keys tie and some stay untouched; beside it the same rows raised
    one leaf at a time, and each key's last touch (times[k - 1] is key k)
    after every row."""
    rng = Splitmix64(seed)
    sweep, one_by_one = RowSweep(n), RowSweep(n)
    times = [0] * n
    for t in range(1, n + 1):
        row = sorted({rng.below(n) + 1 for _ in range(rng.below(4) + 1)})
        sweep.commit(row, t)
        for k in row:
            raise_one(one_by_one, k, t)
            times[k - 1] = t
        yield sweep, one_by_one, times


def strict_records(times, keys, last):
    """The keys of `keys`, scanned in order, whose last-touch time beats
    `last` and that of every key scanned before them."""
    out = []
    for j in keys:
        if times[j - 1] > last:
            out.append(j)
            last = times[j - 1]
    return out


def assert_records_match_scans(sweep, times):
    n = len(times)
    for k in range(1, n + 1):
        last = times[k - 1]
        assert sweep.last_touch(k) == last
        # greedy's row is both staircases, each the scan's strict records
        left_scan = strict_records(times, range(k - 1, 0, -1), last)
        right_scan = strict_records(times, range(k + 1, n + 1), last)
        assert greedy_row(sweep, k) == [*reversed(left_scan), k, *right_scan]


@pytest.mark.parametrize("n", SIZES)
def test_queries_match_scans(n):
    assert_records_match_scans(RowSweep(n), [0] * n)
    for sweep, _, times in seeded_rows(n, 1000 + n):
        assert_records_match_scans(sweep, times)


@pytest.mark.parametrize("n", SIZES)
def test_row_raise_matches_raising_each_leaf(n):
    for sweep, one_by_one, _ in seeded_rows(n, 2000 + n):
        assert sweep.tree == one_by_one.tree


def test_rejects_empty_tree():
    with pytest.raises(BadKeyspaceError, match="keyspace size must be a positive integer, got 0"):
        RowSweep(0)


def test_rejects_non_integer_size():
    with pytest.raises(BadKeyspaceError,
                       match=r"keyspace size must be a positive integer, got 2\.5"):
        RowSweep(2.5)


@pytest.mark.parametrize("k", [0, -3, 5, True], ids=["zero", "negative", "n+1", "bool"])
def test_last_touch_rejects_keys_outside_the_keyspace(k):
    sweep = RowSweep(4)
    sweep.commit([3], 1)  # unchecked, key 0 would read internal node 3: time 1
    with pytest.raises(KeyOutOfRangeError):
        sweep.last_touch(k)
