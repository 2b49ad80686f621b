"""Weighted finger bound, static-finger cost, and tree/weight equivalences.

The per-access bound term for consecutive accesses prev -> cur under a weight
assignment w is

    1 + log2( sum of w over the closed key interval [prev, cur]
              / min(w_prev, w_cur) )

which is always at least 1 because the interval contains both endpoints. With
all-equal weights the term collapses to 1 + log2(|cur - prev| + 1), the
unweighted finger term. Logs are base 2 throughout so tests are deterministic.

The equivalence constructions map a static tree to weights (w_i = c^-depth_i)
and weights back to a tree by recursive weighted-median splits, which
guarantees depth(i) <= log2(W_total / w_i) + 1.

`SHAPE_ROOTS` holds the one rule behind the named initial shapes (balanced
and the two spines): the root each gives the subtree over a key interval.
`shape_children` applies it eagerly, for `StaticTree` and the reference
splay; `SplayTree` applies it lazily, node by node.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from .core import (AccessSequence, BoundReport, CostReport, Key, WeightAssignment, check_key,
                   first_bad)
from .errors import (
    BadBaseError,
    BadKeyspaceError,
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


@dataclass(frozen=True)
class StaticTree:
    """An explicit BST shape over keys 1..n with precomputed depths.

    left/right/parent are 1-indexed arrays (entry 0 unused, 0 = absent);
    depth[root] = 0. In-order traversal must yield 1..n.
    """

    n: int
    root: Key
    left: tuple[int, ...]
    right: tuple[int, ...]
    parent: tuple[int, ...] = field(init=False, repr=False, compare=False)
    depth: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise BadKeyspaceError(f"tree size must be positive, got {self.n}")
        if len(self.left) != self.n + 1 or len(self.right) != self.n + 1:
            raise DimensionMismatchError("left/right arrays must have length n + 1")
        if type(self.root) is not int:
            raise KeyOutOfRangeError(f"root {self.root!r} is not an integer key")
        if not 1 <= self.root <= self.n:
            raise KeyOutOfRangeError(f"root {self.root} outside [1, {self.n}]")
        for side, children in (("left", self.left), ("right", self.right)):
            k = first_bad(children, lambda cs: set(map(type, cs)) == {int}
                          and 0 <= min(cs) and max(cs) <= self.n)
            if k is not None:
                c = children[k]
                fault = "is not an integer key" if type(c) is not int else f"outside [0, {self.n}]"
                raise KeyOutOfRangeError(f"{side}[{k}] = {c!r} {fault}")
        parent = [0] * (self.n + 1)
        depth = [0] * (self.n + 1)
        order: list[int] = []
        # Iterative in-order traversal; also fills parent/depth and validates
        # that the shape is a BST over exactly 1..n.
        stack: list[tuple[int, bool]] = [(self.root, False)]
        seen = 0
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            seen += 1
            if seen > self.n:
                raise ValueError("tree structure has a cycle or duplicate links")
            l, r = self.left[node], self.right[node]
            if r:
                parent[r] = node
                depth[r] = depth[node] + 1
                stack.append((r, False))
            stack.append((node, True))
            if l:
                parent[l] = node
                depth[l] = depth[node] + 1
                stack.append((l, False))
        if order != list(range(1, self.n + 1)):
            raise ValueError("in-order traversal must yield 1..n")
        object.__setattr__(self, "parent", tuple(parent))
        object.__setattr__(self, "depth", tuple(depth))

    @classmethod
    def balanced(cls, n: int) -> "StaticTree":
        """Root (1 + n) // 2, each subtree split at its lower median."""
        root, left, right = shape_children(n, "balanced")
        return cls(n, root, tuple(left), tuple(right))

    @classmethod
    def left_spine(cls, n: int) -> "StaticTree":
        """Root n, every left child one key smaller."""
        root, left, right = shape_children(n, "left_spine")
        return cls(n, root, tuple(left), tuple(right))

    @classmethod
    def right_spine(cls, n: int) -> "StaticTree":
        """Root 1, every right child one key larger."""
        root, left, right = shape_children(n, "right_spine")
        return cls(n, root, tuple(left), tuple(right))

    def path_nodes(self, a: Key, b: Key) -> int:
        """Number of nodes on the unique tree path from a to b, inclusive."""
        check_key(a, self.n)
        check_key(b, self.n)
        return _finger_costs(self.root, self.left, self.right, self.depth, (a, b))[1]


def shape_rule(shape: str) -> Callable[[int, int], int]:
    """The root-of-interval rule of a named shape, one of `INITIAL_SHAPES`."""
    if shape not in SHAPE_ROOTS:
        raise ValueError(f"initial shape must be one of {INITIAL_SHAPES}, got {shape!r}")
    return SHAPE_ROOTS[shape]


def shape_children(n: int, shape: str) -> tuple[int, list[int], list[int]]:
    """Root and 1-indexed left/right child lists (entry 0 unused, 0 = absent)
    of a named shape over keys 1..n, one of `INITIAL_SHAPES`."""
    root_of = shape_rule(shape)
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


def wdf_term(w: WeightAssignment, prev: Key, cur: Key) -> float:
    """Single weighted finger term for the access pair prev -> cur."""
    check_key(prev, w.n)
    check_key(cur, w.n)
    pair = AccessSequence(w.n, (operator.index(prev), operator.index(cur)))
    return weighted_df_bound(pair, w).per_access[1]


def weighted_df_bound(
    seq: AccessSequence, w: WeightAssignment, start: str = START_SELF
) -> BoundReport:
    """Per-access weighted finger terms over a whole sequence.

    start="self" treats the first access as its own finger (t_1 = 1);
    start="root" charges the first access 1 + log2(W_total / w_first).
    A repeated key costs exactly 1, which a prefix-sum difference need not
    reproduce. `seq` has already checked every key against its n.
    """
    if w.n != seq.n:
        raise DimensionMismatchError(f"weights cover {w.n} keys but sequence has n={seq.n}")
    if start not in (START_SELF, START_ROOT):
        raise ValueError(f"start must be '{START_SELF}' or '{START_ROOT}', got {start!r}")
    prefix, weights, log2 = w.prefix, w.weights, math.log2
    prev = seq.accesses[0]
    terms = [1.0 if start == START_SELF else 1.0 + log2(w.total / weights[prev - 1])]
    for cur in seq.accesses[1:]:
        if cur == prev:
            terms.append(1.0)
            continue
        lo, hi = (prev, cur) if prev < cur else (cur, prev)
        terms.append(1.0 + log2((prefix[hi] - prefix[lo - 1])
                                / min(weights[prev - 1], weights[cur - 1])))
        prev = cur
    if math.inf in terms:
        # a quotient past the float range: the difference of the two logs
        keys = (seq.accesses[0], *seq.accesses)
        for i, term in enumerate(terms):
            if term == math.inf:
                prev, cur = keys[i], keys[i + 1]
                lo, hi = (prev, cur) if prev < cur else (cur, prev)
                total = prefix[hi] - prefix[lo - 1] if i else w.total
                terms[i] = 1.0 + log2(total) - log2(min(weights[prev - 1], weights[cur - 1]))
    return BoundReport(tuple(terms))


def dynamic_finger_bound(seq: AccessSequence) -> BoundReport:
    """Equal-weights specialization: t_i = 1 + log2(|s_i - s_{i-1}| + 1)."""
    return weighted_df_bound(seq, WeightAssignment.equal(seq.n), START_SELF)


def static_finger_cost(tree: StaticTree, seq: AccessSequence) -> CostReport:
    """Cost of serving a sequence on a fixed tree, walking from the previous
    accessed node; the first access walks from the root. Costs count nodes,
    so a repeated access costs 1."""
    if tree.n != seq.n:
        raise DimensionMismatchError(f"tree has n={tree.n} but sequence has n={seq.n}")
    return CostReport(tuple(
        _finger_costs(tree.root, tree.left, tree.right, tree.depth, seq.accesses)))


def weights_from_tree(tree: StaticTree, base: float = 2.0) -> WeightAssignment:
    """w_i = base^(-depth_i): deeper keys get geometrically lighter."""
    if not base > 1.0:
        raise BadBaseError(f"base must exceed 1, got {base}")
    return WeightAssignment(tuple(base ** -tree.depth[k] for k in range(1, tree.n + 1)))


def tree_from_weights(w: WeightAssignment) -> StaticTree:
    """Recursive weighted-median construction.

    The root of the subtree over [a, b] is the smallest key r with
    range_weight(a, r) >= range_weight(a, b) / 2; ties therefore break toward
    the smaller key. Both child intervals carry at most half the interval
    weight, giving depth(i) <= log2(W_total / w_i) + 1.
    """
    n = w.n
    prefix = w.prefix
    left = [0] * (n + 1)
    right = [0] * (n + 1)
    root = 0
    stack: list[tuple[int, int, int, bool]] = [(1, n, 0, False)]
    while stack:
        lo, hi, par, is_right = stack.pop()
        if lo > hi:
            continue
        target = (prefix[lo - 1] + prefix[hi]) / 2.0
        r = bisect_left(prefix, target, lo, hi + 1)
        if par == 0:
            root = r
        elif is_right:
            right[par] = r
        else:
            left[par] = r
        stack.append((lo, r - 1, r, False))
        stack.append((r + 1, hi, r, True))
    return StaticTree(n, root, tuple(left), tuple(right))


def _interval_shapes(lo: int, hi: int, memo: dict) -> tuple:
    """All BST shapes over [lo, hi] as nested (root, left, right) tuples."""
    if lo > hi:
        return (None,)
    key = (lo, hi)
    got = memo.get(key)
    if got is not None:
        return got
    out = []
    for r in range(lo, hi + 1):
        for ls in _interval_shapes(lo, r - 1, memo):
            for rs in _interval_shapes(r + 1, hi, memo):
                out.append((r, ls, rs))
    memo[key] = tuple(out)
    return memo[key]


def _shape_arrays(n: int, shape: tuple) -> tuple[int, list[int], list[int], list[int]]:
    left = [0] * (n + 1)
    right = [0] * (n + 1)
    depth = [0] * (n + 1)
    root = shape[0]
    stack = [(shape, 0)]
    while stack:
        (r, ls, rs), d = stack.pop()
        depth[r] = d
        if ls is not None:
            left[r] = ls[0]
            stack.append((ls, d + 1))
        if rs is not None:
            right[r] = rs[0]
            stack.append((rs, d + 1))
    return root, left, right, depth


def _finger_costs(root: int, left: Sequence[int], right: Sequence[int],
                  depth: Sequence[int], accesses: Sequence[int]) -> list[int]:
    """Per-access node counts of the finger walk on a tree given as arrays:
    root to the first key, then previous key to current key through their
    lowest common ancestor, found by the key-interval walk from the root."""
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
    """All BSTs over 1..n in deterministic (root-ascending) order."""
    if n > MAX_ENUM_N:
        raise TooLargeError(f"BST enumeration is guarded to n <= {MAX_ENUM_N}, got {n}")
    memo: dict = {}
    for shape in _interval_shapes(1, n, memo):
        root, left, right, _ = _shape_arrays(n, shape)
        yield StaticTree(n, root, tuple(left), tuple(right))


def best_static_finger_cost(seq: AccessSequence) -> tuple[StaticTree, int]:
    """Exhaustively optimal static finger tree for a sequence, with its cost.

    Enumerates all Catalan(n) shapes; guarded to n <= 12. Ties go to the
    first shape in enumeration order.
    """
    n = seq.n
    if n > MAX_ENUM_N:
        raise TooLargeError(f"static-tree search is guarded to n <= {MAX_ENUM_N}, got n={n}")
    memo: dict = {}
    best_total = None
    best_shape = None
    for shape in _interval_shapes(1, n, memo):
        root, left, right, depth = _shape_arrays(n, shape)
        total = sum(_finger_costs(root, left, right, depth, seq.accesses))
        if best_total is None or total < best_total:
            best_total = total
            best_shape = shape
    root, left, right, _ = _shape_arrays(n, best_shape)
    return StaticTree(n, root, tuple(left), tuple(right)), best_total
