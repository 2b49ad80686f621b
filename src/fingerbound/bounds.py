"""Weighted finger bound, static-finger cost, and tree/weight equivalences.

The per-access bound term for consecutive accesses prev -> cur under a weight
assignment w is

    1 + log2( sum of w over the closed key interval [prev, cur]
              / min(w_prev, w_cur) )

which is always at least 1 because the interval contains both endpoints. With
all-equal weights the term collapses to 1 + log2(|cur - prev| + 1), the
unweighted finger term, which `weighted_df_bound` evaluates directly when it
is given no weights. Logs are base 2 throughout so tests are deterministic.

The equivalence constructions map a static tree to weights (w_i = c^-depth_i)
and weights back to a tree by recursive weighted-median splits, which
guarantees depth(i) <= log2(W_total / w_i) + 1.

Every static tree comes from one of two places. A root-of-interval rule gives
the root of the subtree over each key interval: `SHAPE_ROOTS` holds the named
shapes' rules (balanced and the two spines), and `tree_from_weights` uses the
weighted median. `shape_children` applies a rule eagerly, for `StaticTree`,
`tree_from_weights` and the reference splay; `SplayTree` applies a named rule
lazily, node by node; `best_static_finger_cost` applies the leftmost
optimal root of its interval DP.

The best static finger tree comes from an O(n^3) interval DP (Knuth,
*Optimum binary search trees*, Acta Inf. 1971, without his monotone-root
speedup, which does not hold for finger costs). A pair's finger path holds
the nodes whose subtree interval holds exactly one of its ends, plus their
lowest common ancestor, so the total cost splits over subtree intervals;
`best_static_finger_cost` gives the recurrence. Taking the leftmost optimal
root of every interval reproduces the first minimum of the enumeration in
`iter_bsts`, which yields every shape over 1..n in turn, in one set of
arrays it rewrites in place, and stays as the DP's exhaustive oracle.
"""

from __future__ import annotations

import math
import operator
import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Iterable, Iterator, Sequence

from .core import (AccessSequence, Column, Key, WeightAssignment, check_built_size, check_key,
                   check_size, check_type, first_bad, ints_within)
from .errors import (
    BadBaseError,
    DimensionMismatchError,
    KeyOutOfRangeError,
    TooLargeError,
)

# The root a named shape gives the subtree over keys [lo, hi], lo <= hi. A
# shape over 1..n is its rule applied to [1, n], then to each side.
SHAPE_ROOTS = {
    "balanced": lambda lo, hi: (lo + hi) // 2,
    "left_spine": lambda lo, hi: hi,
    "right_spine": lambda lo, hi: lo,
}
INITIAL_SHAPES = tuple(SHAPE_ROOTS)
START_SELF = "self"
START_ROOT = "root"
MAX_ENUM_N = 12
MAX_STATIC_N = 768  # a walk trace at m = 2e4 takes 7-9 s (2-core VM, Python 3.11)


@dataclass(frozen=True)
class StaticTree:
    """An explicit BST shape over keys 1..n with precomputed depths.

    left/right/parent are 1-indexed arrays (entry 0 unused, 0 = absent);
    depth[root] = 0. Every key 1..n must be reached from the root, each
    inside the key interval of its subtree.
    """

    n: int
    root: Key
    left: tuple[int, ...]
    right: tuple[int, ...]
    parent: tuple[int, ...] = field(init=False, repr=False, compare=False)
    depth: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_size(self.n)
        if len(self.left) != self.n + 1 or len(self.right) != self.n + 1:
            raise DimensionMismatchError("left/right arrays must have length n + 1")
        root, left, right = self.root, self.left, self.right
        if not ints_within((root,), 1, self.n):
            fault = "is not an integer key" if type(root) is not int else f"outside [1, {self.n}]"
            raise KeyOutOfRangeError(f"root {root!r} {fault}")
        for side, children in (("left", left), ("right", right)):
            k = first_bad(children, lambda cs: ints_within(cs, 0, self.n))
            if k is not None:
                c = children[k]
                fault = "is not an integer key" if type(c) is not int else f"outside [0, {self.n}]"
                raise KeyOutOfRangeError(f"{side}[{k}] = {c!r} {fault}")
        parent = [0] * (self.n + 1)
        depth = [0] * (self.n + 1)
        # One walk down from the root, each node with the key interval its
        # subtree must cover. A node inside its interval splits the rest of
        # it between its children, so the intervals on the stack are disjoint
        # and no key is reached twice: the shape is a BST over 1..n exactly
        # when every node lies in its interval and n keys are reached.
        stack = [(root, 1, self.n)]
        reached = 0
        while stack:
            node, lo, hi = stack.pop()
            if not lo <= node <= hi:
                raise ValueError(f"key {node} lies outside its subtree's interval [{lo}, {hi}]")
            reached += 1
            if l := left[node]:
                parent[l] = node
                depth[l] = depth[node] + 1
                stack.append((l, lo, node - 1))
            if r := right[node]:
                parent[r] = node
                depth[r] = depth[node] + 1
                stack.append((r, node + 1, hi))
        if reached != self.n:
            raise ValueError(f"tree reaches {reached} of its {self.n} keys")
        object.__setattr__(self, "parent", tuple(parent))
        object.__setattr__(self, "depth", tuple(depth))

    @classmethod
    def balanced(cls, n: int) -> "StaticTree":
        """Root (1 + n) // 2, each subtree split at its lower median."""
        return _ruled_tree(n, SHAPE_ROOTS["balanced"])

    @classmethod
    def left_spine(cls, n: int) -> "StaticTree":
        """Root n, every left child one key smaller."""
        return _ruled_tree(n, SHAPE_ROOTS["left_spine"])

    @classmethod
    def right_spine(cls, n: int) -> "StaticTree":
        """Root 1, every right child one key larger."""
        return _ruled_tree(n, SHAPE_ROOTS["right_spine"])

    def path_nodes(self, a: Key, b: Key) -> int:
        """Number of nodes on the unique tree path from a to b, inclusive."""
        a = check_key(a, self.n)
        b = check_key(b, self.n)
        return _finger_costs(self, (a, b))[1]


def shape_rule(shape: str) -> Callable[[int, int], int]:
    """The root-of-interval rule of a named shape, one of `INITIAL_SHAPES`."""
    try:
        return SHAPE_ROOTS[shape]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise ValueError(f"initial shape must be one of {INITIAL_SHAPES}, got {shape!r}") from None


def shape_children(n: int, root_of: Callable[[int, int], int]) -> tuple[int, list[int], list[int]]:
    """Root and 1-indexed left/right child lists (entry 0 unused, 0 = absent)
    of the tree over keys 1..n whose subtree over each key interval [lo, hi]
    has root root_of(lo, hi), a key in [lo, hi]."""
    check_built_size(n, "an eagerly built tree")
    left = [0] * (n + 1)
    right = [0] * (n + 1)
    root = root_of(1, n)
    stack = [(1, n, root)]
    while stack:
        lo, hi, k = stack.pop()
        if lo < k:
            left[k] = c = root_of(lo, k - 1)
            stack.append((lo, k - 1, c))
        if k < hi:
            right[k] = c = root_of(k + 1, hi)
            stack.append((k + 1, hi, c))
    return root, left, right


def _ruled_tree(n: int, root_of: Callable[[int, int], int]) -> StaticTree:
    root, left, right = shape_children(n, root_of)
    return StaticTree(n, root, tuple(left), tuple(right))


def wdf_term(w: WeightAssignment, prev: Key, cur: Key) -> float:
    """Single weighted finger term for the access pair prev -> cur."""
    check_type(w, WeightAssignment, "w")
    pair = AccessSequence(w.n, (check_key(prev, w.n), check_key(cur, w.n)))
    return weighted_df_bound(pair, w).per_access[1]


def weighted_df_bound(
    seq: AccessSequence, w: WeightAssignment | None, start: str = START_SELF
) -> Column:
    """Per-access weighted finger terms over a whole sequence.

    start="self" treats the first access as its own finger (t_1 = 1);
    start="root" charges the first access 1 + log2(W_total / w_first).
    A repeated key costs exactly 1, which a prefix-sum difference need not
    reproduce. `seq` has already checked every key against its n.

    w=None means equal weights, in closed form with no per-key structure:
    1 + log2(|s_i - s_{i-1}| + 1), and 1 + log2(n) for a root start. For
    n < 2^53 these are bit for bit the terms at weights (1.0,) * n.
    """
    check_type(seq, AccessSequence, "seq")
    if w is not None:
        check_type(w, WeightAssignment, "w")
        if w.n != seq.n:
            raise DimensionMismatchError(f"weights cover {w.n} keys but sequence has n={seq.n}")
    if start not in (START_SELF, START_ROOT):
        raise ValueError(f"start must be '{START_SELF}' or '{START_ROOT}', got {start!r}")
    log2, inf = math.log2, math.inf
    if w is None:
        keys = seq.accesses
        first = 1.0 if start == START_SELF else 1.0 + log2(seq.n)
        return Column((first, *[1.0 + log2(abs(b - a) + 1) for a, b in zip(keys, keys[1:])]))
    prefix, weights = w.prefix, w.weights
    prev = seq.accesses[0] if start == START_SELF else 0  # 0: the root, spanning all keys
    terms = []
    for cur in seq.accesses:
        if cur == prev:
            terms.append(1.0)
            continue
        if prev:
            a, b = weights[prev - 1], weights[cur - 1]
            span = prefix[cur] - prefix[prev - 1] if prev < cur else prefix[prev] - prefix[cur - 1]
            low = a if a < b else b  # min(a, b) without the cost of a call
        else:
            span, low = w.total, weights[cur - 1]
        term = 1.0 + log2(span / low)
        if term == inf:  # a quotient past the float range
            term = 1.0 + log2(span) - log2(low)
        terms.append(term)
        prev = cur
    return Column(tuple(terms))


def dynamic_finger_bound(seq: AccessSequence) -> Column:
    """Equal-weights specialization: t_i = 1 + log2(|s_i - s_{i-1}| + 1)."""
    return weighted_df_bound(seq, None)


def static_finger_cost(tree: StaticTree, seq: AccessSequence) -> Column:
    """Cost of serving a sequence on a fixed tree, walking from the previous
    accessed node; the first access walks from the root. Costs count nodes,
    so a repeated access costs 1."""
    check_type(tree, StaticTree, "tree")
    check_type(seq, AccessSequence, "seq")
    if tree.n != seq.n:
        raise DimensionMismatchError(f"tree has n={tree.n} but sequence has n={seq.n}")
    return Column(tuple(_finger_costs(tree, seq.accesses)))


def weights_from_tree(tree: StaticTree, base: float = 2.0) -> WeightAssignment:
    """w_i = base^(-depth_i): deeper keys get geometrically lighter. The base
    must be a float-sized number above 1, small enough that no weight
    underflows or vanishes in the prefix sums; else `BadBaseError`."""
    check_type(tree, StaticTree, "tree")
    if not isinstance(base, (int, float)) or not 1.0 < base <= sys.float_info.max:
        raise BadBaseError(f"base must be a number above 1, got {base!r}")
    try:
        return WeightAssignment(tuple(base ** -tree.depth[k] for k in range(1, tree.n + 1)))
    except ValueError as exc:  # a weight underflowed, or vanished in the prefix sums
        raise BadBaseError(
            f"base {base:g} is too large for a tree of depth {max(tree.depth)}: {exc}") from exc


def tree_from_weights(w: WeightAssignment) -> StaticTree:
    """Recursive weighted-median construction.

    The root of the subtree over [a, b] is the smallest key r with
    range_weight(a, r) >= range_weight(a, b) / 2; ties therefore break toward
    the smaller key. Both child intervals carry at most half the interval
    weight, giving depth(i) <= log2(W_total / w_i) + 1.
    """
    check_type(w, WeightAssignment, "w")
    prefix = w.prefix

    def median(lo: int, hi: int) -> int:
        below, top = prefix[lo - 1], prefix[hi]
        mid = (below + top) / 2.0
        if mid == math.inf:
            # the sum passed the float range; halving so large a float is exact
            mid = below / 2.0 + top / 2.0
        return bisect_left(prefix, mid, lo, hi + 1)

    return _ruled_tree(w.n, median)


def _finger_costs(tree: StaticTree, accesses: Sequence[int]) -> list[int]:
    """Per-access node counts of the finger walk on a tree: root to the
    first key, then previous key to current key through their lowest common
    ancestor, found by the key-interval walk from the root."""
    root, left, right, depth = tree.root, tree.left, tree.right, tree.depth
    prev = accesses[0]
    costs = [depth[prev] + 1]
    for cur in accesses[1:]:
        if cur == prev:
            costs.append(1)
            continue
        lo, hi = (prev, cur) if prev < cur else (cur, prev)
        node = root
        while node < lo or node > hi:
            node = left[node] if node > hi else right[node]
        costs.append(depth[prev] + depth[cur] - 2 * depth[node] + 1)
        prev = cur
    return costs


def iter_bsts(n: int) -> Iterator[StaticTree]:
    """All BSTs over 1..n in deterministic order: the exhaustive oracle for
    `best_static_finger_cost`. Roots ascend, then left subtrees vary before
    right ones, recursively; so the right spine comes first and the left
    spine last. Each is built in the same left and right lists, rewritten
    in place. Guarded to n <= MAX_ENUM_N, checked at the call."""
    check_size(n)
    if n > MAX_ENUM_N:
        raise TooLargeError(f"BST enumeration is guarded to n <= {MAX_ENUM_N}, got n={n}")
    left = [0] * (n + 1)
    right = [0] * (n + 1)

    def shapes(lo: int, hi: int) -> Iterable[int]:
        # The roots of the shapes over [lo, hi], each once the lists hold it; 0 for none.
        if lo < hi:
            return roots(lo, hi)
        if lo == hi:
            left[lo] = right[lo] = 0
            return (lo,)
        return (0,)

    def roots(lo: int, hi: int) -> Iterator[int]:
        for r in range(lo, hi + 1):
            for left[r] in shapes(lo, r - 1):
                for right[r] in shapes(r + 1, hi):
                    yield r

    return (StaticTree(n, root, tuple(left), tuple(right)) for root in shapes(1, n))


def best_static_finger_cost(seq: AccessSequence) -> tuple[StaticTree, int]:
    """Optimal static finger tree for a sequence, with its cost, by an
    O(n^3) interval DP; guarded to n <= MAX_STATIC_N.

    A node lies on the finger path of a pair a != b exactly when its subtree
    interval holds one of a and b, or it is their lowest common ancestor, the
    root of the smallest subtree holding both. The first access costs one
    per subtree holding s_1, and a repeated access costs 1. So with X(i, j)
    the pairs a != b with exactly one end in [i, j], and [s_1 in [i, j]] 1
    or 0, the cost of the best subtree over [i, j] without its LCA terms is

        D[i][j] = X(i, j) + [s_1 in [i, j]] + min_r (D[i][r-1] + D[r+1][j])

    over roots r in [i, j], with D = 0 on an empty interval. The total is
    D[1][n] plus 1 for each of the m - 1 pairs: its LCA, or its one node if
    a = b. X = E - 2P: E counts the pair ends inside [i, j] from one prefix
    sum, and P the pairs with both ends inside by inclusion-exclusion over
    the next shorter intervals. Ties go to the leftmost root at each
    interval. The cost splits into the root's term
    plus the two subtrees' costs, and `iter_bsts` runs roots ascending, then
    left shapes, then right ones, so this is its first minimum.
    """
    check_type(seq, AccessSequence, "seq")
    n, accesses = seq.n, seq.accesses
    if n > MAX_STATIC_N:
        raise TooLargeError(
            f"best static tree search is guarded to n <= {MAX_STATIC_N}, got n={n}")
    ends = [0] * (n + 1)
    pairs: dict[tuple[int, int], int] = {}
    for a, b in zip(accesses, accesses[1:]):
        if a != b:
            ends[a] += 1
            ends[b] += 1
            key = (a, b) if a < b else (b, a)
            pairs[key] = pairs.get(key, 0) + 1
    ends = list(accumulate(ends))
    first = accesses[0]
    # row[i] holds D[i][i-1], D[i][i], ... and col[j] holds D[j+1][j],
    # D[j][j], ..., each up to the intervals done; inside[i] is P(i, i +
    # size - 1) and shorter[i] is P(i, i + size - 2)
    row = [[0] for _ in range(n + 1)]
    col = [[0] for _ in range(n + 1)]
    inside = [0] * (n + 2)
    shorter = inside
    add = operator.add
    for size in range(1, n + 1):
        shorter, inside = inside, [
            inside[i] + inside[i + 1] - shorter[i + 1] + pairs.get((i, i + size - 1), 0)
            for i in range(n + 2 - size)]
        for i in range(1, n + 2 - size):
            j = i + size - 1
            cost = (ends[j] - ends[i - 1] - 2 * inside[i] + (i <= first <= j)
                    + min(map(add, row[i], reversed(col[j]))))
            row[i].append(cost)
            col[j].append(cost)

    def leftmost_root(lo: int, hi: int) -> int:
        split = list(map(add, row[lo], col[hi][hi - lo::-1]))
        return lo + split.index(min(split))

    return _ruled_tree(n, leftmost_root), row[1][n] + len(accesses) - 1
