"""Max segment tree over rank space, used as the staircase index.

Leaf k holds key k's last-touch time (0 = never touched), and each internal
node the maximum of its subtree. That answers greedy's staircase walk and
the satisfaction sweep's gap check: the rightmost leaf of a prefix, or the
leftmost of a suffix, above a threshold. A threshold at or above the root is
an O(1) miss; other searches go outward from the end of their range, O(log
gap) for a hit gap leaves away and O(log n) at worst.
"""

from __future__ import annotations

from .core import check_size


class MaxSegTree:
    """Leaf k in 1..n is node size + k - 1 of the heap-ordered `tree`."""

    __slots__ = ("n", "size", "tree")

    def __init__(self, n: int):
        check_size(n)
        self.n = n
        self.size = 1 << (n - 1).bit_length() if n > 1 else 1
        self.tree = [0] * (2 * self.size)

    def copy(self) -> "MaxSegTree":
        other = MaxSegTree.__new__(MaxSegTree)
        other.n, other.size, other.tree = self.n, self.size, self.tree[:]
        return other

    def raise_all(self, leaves: list[int], v: int) -> None:
        """Raise each of the leaves to v, not below any of their values; each
        climb stops at the first ancestor already at v or above."""
        t = self.tree
        base = self.size - 1
        for i in leaves:
            i += base
            t[i] = v
            i >>= 1
            while i and t[i] < v:
                t[i] = v
                i >>= 1

    def rightmost_above(self, hi: int, thr: int) -> int:
        """Rightmost leaf in [1, hi] with value > thr, or 0. From leaf hi, a
        failing node climbs while it is a left child and passes the search
        to its left sibling; a hit descends to its nearest leaf."""
        t = self.tree
        if t[1] <= thr:
            return 0
        if hi > self.n:
            hi = self.n
        if hi < 1:
            return 0
        size = self.size
        i = hi + size - 1
        while t[i] <= thr:
            if not i & (i - 1):  # leftmost node of its level
                return 0
            while not i & 1:
                i >>= 1
            i -= 1
        while i < size:
            i = 2 * i + 1
            if t[i] <= thr:
                i -= 1
        return i - size + 1

    def leftmost_above(self, lo: int, thr: int) -> int:
        """Leftmost leaf in [lo, n] with value > thr, or 0."""
        t = self.tree
        if t[1] <= thr:
            return 0
        if lo < 1:
            lo = 1
        if lo > self.n:
            return 0
        size = self.size
        i = lo + size - 1
        while t[i] <= thr:
            if not (i + 1) & i:  # rightmost node of its level
                return 0
            while i & 1:
                i >>= 1
            i += 1
        while i < size:
            i <<= 1
            if t[i] <= thr:
                i += 1
        return i - size + 1
