"""Static trees from the root-of-interval builder and the BST enumerator,
each against a plain recursive reference written here."""

import tracemalloc
from bisect import bisect_left

import pytest

from fingerbound.bounds import (
    StaticTree,
    best_static_finger_cost,
    iter_bsts,
    shape_children,
    static_finger_cost,
    tree_from_weights,
)
from fingerbound.core import AccessSequence, WeightAssignment
from fingerbound.errors import BadKeyspaceError
from fingerbound.greedy import greedy_cost
from fingerbound.workloads import Splitmix64, WorkloadSpec, generate


def reference_shapes(lo, hi):
    """Every BST over [lo, hi] as (root, {key: (left, right)}): roots
    ascending, then left shapes, then right shapes."""
    if lo > hi:
        return [(0, {})]
    return [(r, {r: (ls, rs), **lk, **rk})
            for r in range(lo, hi + 1)
            for ls, lk in reference_shapes(lo, r - 1)
            for rs, rk in reference_shapes(r + 1, hi)]


def reference_median_tree(weights):
    """Weighted-median tree as (root, {key: (left, right)}): the root over
    [a, b] is the smallest r whose prefix weight from a reaches half of
    [a, b]'s weight, with the prefix sums and midpoint formed as floats."""
    prefix = [0.0]
    for x in weights:
        prefix.append(prefix[-1] + x)

    def build(lo, hi):
        if lo > hi:
            return 0, {}
        r = bisect_left(prefix, (prefix[lo - 1] + prefix[hi]) / 2.0, lo, hi + 1)
        ls, lk = build(lo, r - 1)
        rs, rk = build(r + 1, hi)
        return r, {r: (ls, rs), **lk, **rk}

    return build(1, len(weights))


def links(tree):
    return tree.root, {k: (tree.left[k], tree.right[k]) for k in range(1, tree.n + 1)}


class TestEnumerator:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_recursive_reference_in_order(self, n):
        trees = list(iter_bsts(n))
        assert [links(t) for t in trees] == reference_shapes(1, n)
        assert links(trees[0]) == links(StaticTree.right_spine(n))
        assert links(trees[-1]) == links(StaticTree.left_spine(n))

    @pytest.mark.parametrize("n", [0, -2, 2.0, "3", True])
    def test_bad_size(self, n):
        with pytest.raises(BadKeyspaceError, match="keyspace size must be a positive integer"):
            iter_bsts(n)

    def test_best_static_is_first_minimum(self):
        rng = Splitmix64(61)
        seqs = [AccessSequence(4, (3,)), AccessSequence(5, (2,) * 6), AccessSequence(1, (1, 1))]
        for _ in range(40):
            n = rng.below(7) + 1
            seqs.append(AccessSequence(n, tuple(rng.below(n) + 1 for _ in range(rng.below(12) + 1))))
        for seq in seqs:
            costs = [(static_finger_cost(t, seq).total, t) for t in iter_bsts(seq.n)]
            low = min(c for c, _ in costs)
            first = next(t for c, t in costs if c == low)
            tree, total = best_static_finger_cost(seq)
            assert total == low
            assert links(tree) == links(first)
            assert tree.depth == first.depth

    def test_interval_dp_is_first_minimum_up_to_n8(self):
        # the DP's leftmost optimal roots give the enumeration's first
        # minimum; each n's trees are enumerated once for all its sequences
        rng = Splitmix64(73)
        by_n = {n: [AccessSequence(n, (n,) * 5),              # constant
                    AccessSequence(n, ((n + 1) // 2,)),       # single access
                    AccessSequence(n, (1, n) * 4),            # two keys alternating
                    AccessSequence(n, (n // 2 + 1, 1) * 3)]
                for n in range(1, 9)}
        for _ in range(160):
            n = rng.below(8) + 1
            m = rng.below(20) + 1
            by_n[n].append(AccessSequence(n, tuple(rng.below(n) + 1 for _ in range(m))))
        for n, seqs in by_n.items():
            firsts = [None] * len(seqs)
            for tree in iter_bsts(n):
                for i, seq in enumerate(seqs):
                    total = static_finger_cost(tree, seq).total
                    if firsts[i] is None or total < firsts[i][0]:
                        firsts[i] = (total, tree)
            for seq, (low, first) in zip(seqs, firsts):
                tree, total = best_static_finger_cost(seq)
                assert total == low, seq.accesses
                assert links(tree) == links(first), seq.accesses
                assert tree.depth == first.depth

    def test_search_memory_stays_small(self):
        rng = Splitmix64(67)
        seq = AccessSequence(10, tuple(rng.below(10) + 1 for _ in range(30)))
        tracemalloc.start()
        try:
            best_static_finger_cost(seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 500_000


class TestBuilder:
    def test_median_tree_matches_recursive_reference(self):
        rng = Splitmix64(71)
        for _ in range(300):
            n = rng.below(24) + 1
            weights = tuple(float(rng.below(4) + 1) for _ in range(n))
            assert links(tree_from_weights(WeightAssignment(weights))) == \
                reference_median_tree(weights)

    @pytest.mark.parametrize("weights", [
        (5e-324,) * 5,                       # halving a subnormal addend rounds
        (5e-324, 1e-323, 5e-324, 1.5e-323, 5e-324, 5e-324, 1e-323),
        (5e-324, 1e-323, 3.0, 7.5),
    ])
    def test_median_keeps_the_sum_midpoint(self, weights):
        assert links(tree_from_weights(WeightAssignment(weights))) == \
            reference_median_tree(weights)

    def test_median_of_a_sum_past_the_float_range(self):
        # the total 1.7e308 is finite, but prefix sums 0 + 1.7e308 and
        # 1e308 + 1.7e308 are not; each interval's root must stay inside it
        tree = tree_from_weights(WeightAssignment((1e308, 7e307)))
        assert links(tree) == (1, {1: (0, 2), 2: (0, 0)})
        tree = tree_from_weights(WeightAssignment((5e307, 5e307, 5e307)))
        assert links(tree) == (2, {1: (0, 0), 2: (1, 3), 3: (0, 0)})

    @pytest.mark.parametrize("n", [2.0, "3", None, True])
    def test_static_tree_rejects_non_integer_size(self, n):
        with pytest.raises(BadKeyspaceError, match="keyspace size must be a positive integer"):
            StaticTree(n, 1, (0, 0, 0), (0, 2, 0))
        with pytest.raises(BadKeyspaceError, match="keyspace size must be a positive integer"):
            StaticTree.balanced(n)

    @pytest.mark.parametrize("n", [0, -3])
    def test_builder_rejects_non_positive_size(self, n):
        with pytest.raises(BadKeyspaceError):
            StaticTree.left_spine(n)
        with pytest.raises(BadKeyspaceError):
            shape_children(n, lambda lo, hi: lo)


class TestBestStaticAtScale:
    """The interval DP at n = 256, far past the enumeration's n <= 12."""

    @pytest.mark.parametrize("spec, greedy_total, best_total, ratio", [
        (WorkloadSpec("walk", 256, 2000, seed=1, d=8), 6041, 8038, 0.7516),
        (WorkloadSpec("zipf_finger", 256, 2000, seed=1, theta=2.5), 4414, 5314, 0.8306),
    ])
    def test_greedy_over_best_static_pinned(self, spec, greedy_total, best_total, ratio):
        seq = generate(spec)
        tree, total = best_static_finger_cost(seq)
        assert total == best_total
        assert static_finger_cost(tree, seq).total == total
        assert total <= static_finger_cost(StaticTree.balanced(256), seq).total
        assert greedy_cost(seq).total == greedy_total
        assert round(greedy_total / best_total, 4) == ratio

