"""MaxSegTree queries against brute-force scans of the leaf values.

Sizes cover every n up to 33 and both sides of 64 and 128, so the padding
leaves past n - 1 and every climb to the edge of a level are exercised."""

import pytest

from fingerbound.errors import BadKeyspaceError
from fingerbound.segtree import MaxSegTree
from fingerbound.workloads import Splitmix64

SIZES = list(range(1, 34)) + [63, 64, 65, 127, 128, 129]


def seeded_tree(n, seed):
    """A tree whose leaves are raised one at a time: leaves only go up, some
    stay at 0 and many share a value. values[k - 1] is leaf k."""
    rng = Splitmix64(seed)
    tree = MaxSegTree(n)
    values = [0] * n
    for _ in range(2 * n):
        k = rng.below(n) + 1
        values[k - 1] += rng.below(3)
        tree.raise_all([k], values[k - 1])
    return tree, values


def raise_one(tree, k, v):
    """The per-leaf raise: set leaf k to v and climb while an ancestor is
    below v."""
    t = tree.tree
    idx = tree.size + k - 1
    t[idx] = v
    idx >>= 1
    while idx and t[idx] < v:
        t[idx] = v
        idx >>= 1


def seeded_rows(n, seed):
    """A tree raised the way greedy raises it, a whole row of distinct
    leaves at a time to a new maximum, the row's time; and beside it the
    same rows raised one leaf at a time."""
    rng = Splitmix64(seed)
    tree, one_by_one = MaxSegTree(n), MaxSegTree(n)
    values = [0] * n
    for t in range(1, n + 1):
        row = sorted({rng.below(n) + 1 for _ in range(rng.below(4) + 1)})
        tree.raise_all(row, t)
        for k in row:
            raise_one(one_by_one, k, t)
            values[k - 1] = t
    return tree, one_by_one, values


def assert_queries_match_scans(tree, values):
    n = len(values)
    for thr in range(-1, max(values) + 1):
        for bound in range(-1, n + 3):
            below = [k for k in range(1, n + 1) if k <= bound and values[k - 1] > thr]
            above = [k for k in range(1, n + 1) if k >= bound and values[k - 1] > thr]
            assert tree.rightmost_above(bound, thr) == (below[-1] if below else 0)
            assert tree.leftmost_above(bound, thr) == (above[0] if above else 0)


@pytest.mark.parametrize("n", SIZES)
def test_queries_match_scans(n):
    assert_queries_match_scans(*seeded_tree(n, 1000 + n))


@pytest.mark.parametrize("n", SIZES)
def test_row_raise_matches_raising_each_leaf(n):
    tree, one_by_one, values = seeded_rows(n, 2000 + n)
    assert tree.tree == one_by_one.tree
    assert tree.tree[tree.size:tree.size + n] == values
    assert_queries_match_scans(tree, values)


def test_rejects_empty_tree():
    with pytest.raises(BadKeyspaceError, match="keyspace size must be a positive integer, got 0"):
        MaxSegTree(0)


def test_rejects_non_integer_size():
    with pytest.raises(BadKeyspaceError,
                       match=r"keyspace size must be a positive integer, got 2\.5"):
        MaxSegTree(2.5)
