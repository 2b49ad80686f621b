"""Max segment tree over rank space, used as the staircase index.

Leaves hold last-touch times (0 = never touched). Internal nodes hold the
maximum of their subtree, which answers the two directional threshold
queries behind greedy's staircase walk and the satisfaction sweep's gap
check: rightmost leaf in a prefix with value above a threshold, and leftmost
leaf in a suffix with value above a threshold. Both search outward from the
end of their range: O(log gap) for a hit gap leaves away, O(log n) at worst.
"""

from __future__ import annotations

from .core import check_size


class MaxSegTree:
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

    def raise_to(self, i: int, v: int) -> None:
        """Set leaf i to v; v must not be below the current value."""
        t = self.tree
        idx = self.size + i
        t[idx] = v
        idx >>= 1
        while idx and t[idx] < v:
            t[idx] = v
            idx >>= 1

    def rightmost_above(self, hi: int, thr: int) -> int:
        """Rightmost leaf index in [0, hi] with value > thr, or -1. From
        leaf hi, a failing node climbs while it is a left child and passes
        the search to its left sibling; a hit descends to its nearest leaf."""
        if hi >= self.n:
            hi = self.n - 1
        if hi < 0:
            return -1
        t = self.tree
        size = self.size
        i = hi + size
        while t[i] <= thr:
            if not i & (i - 1):  # leftmost node of its level
                return -1
            while not i & 1:
                i >>= 1
            i -= 1
        while i < size:
            i = 2 * i + 1
            if t[i] <= thr:
                i -= 1
        return i - size

    def leftmost_above(self, lo: int, thr: int) -> int:
        """Leftmost leaf index in [lo, n-1] with value > thr, or -1."""
        if lo < 0:
            lo = 0
        if lo > self.n - 1:
            return -1
        t = self.tree
        size = self.size
        i = lo + size
        while t[i] <= thr:
            if not (i + 1) & i:  # rightmost node of its level
                return -1
            while i & 1:
                i >>= 1
            i += 1
        while i < size:
            i <<= 1
            if t[i] <= thr:
                i += 1
        return i - size
