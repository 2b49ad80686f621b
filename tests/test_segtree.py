"""MaxSegTree queries against brute-force scans of the leaf values.

Sizes cover every n up to 33 and both sides of 64 and 128, so the padding
leaves past n - 1 and every climb to the edge of a level are exercised."""

import pytest

from fingerbound.errors import BadKeyspaceError
from fingerbound.segtree import MaxSegTree
from fingerbound.workloads import Splitmix64

SIZES = list(range(1, 34)) + [63, 64, 65, 127, 128, 129]


def seeded_tree(n, seed):
    """A tree raised the way greedy raises it: leaves only go up, some stay
    at 0 and many share a value."""
    rng = Splitmix64(seed)
    tree = MaxSegTree(n)
    values = [0] * n
    for _ in range(2 * n):
        i = rng.below(n)
        values[i] += rng.below(3)
        tree.raise_to(i, values[i])
    return tree, values


@pytest.mark.parametrize("n", SIZES)
def test_queries_match_scans(n):
    tree, values = seeded_tree(n, 1000 + n)
    for thr in range(-1, max(values) + 1):
        for bound in range(-2, n + 2):
            below = [i for i in range(n) if i <= bound and values[i] > thr]
            above = [i for i in range(n) if i >= bound and values[i] > thr]
            assert tree.rightmost_above(bound, thr) == (below[-1] if below else -1)
            assert tree.leftmost_above(bound, thr) == (above[0] if above else -1)


def test_rejects_empty_tree():
    with pytest.raises(BadKeyspaceError, match="keyspace size must be a positive integer, got 0"):
        MaxSegTree(0)


def test_rejects_non_integer_size():
    with pytest.raises(BadKeyspaceError,
                       match=r"keyspace size must be a positive integer, got 2\.5"):
        MaxSegTree(2.5)
