import math
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from fingerbound.core import AccessSequence, WeightAssignment
from fingerbound.bounds import (
    StaticTree,
    best_static_finger_cost,
    dynamic_finger_bound,
    iter_bsts,
    static_finger_cost,
    tree_from_weights,
    weighted_df_bound,
    weights_from_tree,
    wdf_term,
)
from fingerbound.errors import (
    BadBaseError,
    DimensionMismatchError,
    KeyOutOfRangeError,
    TooLargeError,
)
from fingerbound.verify import check_best_static
from fingerbound.workloads import Splitmix64

weights_strategy = st.lists(st.floats(min_value=0.25, max_value=4.0), min_size=1, max_size=32)


class TestWdfTerm:
    def test_equal_weights_full_span(self):
        w = WeightAssignment((1.0,) * 4)
        assert wdf_term(w, 1, 4) == pytest.approx(3.0, rel=1e-15)

    def test_same_key_is_exactly_one(self):
        w = WeightAssignment((0.3, 7.0, 0.1))
        assert wdf_term(w, 2, 2) == 1.0

    def test_skewed_pair(self):
        w = WeightAssignment((8.0, 1.0))
        assert wdf_term(w, 2, 1) == pytest.approx(1 + math.log2(9), rel=1e-12)

    def test_out_of_range(self):
        with pytest.raises(KeyOutOfRangeError):
            wdf_term(WeightAssignment((1.0,) * 3), 1, 4)

    def test_quotient_past_the_float_range_stays_finite(self):
        # W / min(w) = 1e10 / 5e-324 overflows; its log2 is about 1107.2
        w = WeightAssignment((5e-324, 1e10))
        expect = 1.0 + math.log2(1e10) - math.log2(5e-324)
        assert wdf_term(w, 1, 2) == wdf_term(w, 2, 1) == expect
        assert 1108.2 < expect < 1108.3
        root = weighted_df_bound(AccessSequence(2, (1, 2)), w, "root").per_access
        assert root == (expect, expect)

    def test_overflowing_terms_fall_back_in_place(self):
        # W / min(w) overflows for the root term, over W = 1e300, and for the
        # pairs 1 -> 2 and 3 -> 1, over W near 1e10, but not for 2 -> 3
        w = WeightAssignment((5e-324, 1e10, 2.0, 1e300))
        assert w.total / 5e-324 == w.range_weight(1, 3) / 5e-324 == math.inf
        terms = weighted_df_bound(AccessSequence(4, (1, 2, 3, 1, 1)), w, "root").per_access
        logs = [1.0 + math.log2(span) - math.log2(5e-324)
                for span in (w.total, w.range_weight(1, 2), w.range_weight(1, 3))]
        assert terms == (*logs[:2], 1.0 + math.log2(w.range_weight(2, 3) / 2.0), logs[2], 1.0)

    def test_integer_like_keys(self):
        np = pytest.importorskip("numpy")
        w = WeightAssignment((8.0, 1.0))
        assert wdf_term(w, np.int64(2), np.int64(1)) == wdf_term(w, 2, 1)
        with pytest.raises(KeyOutOfRangeError, match="key 3 outside"):
            wdf_term(w, np.int64(3), 1)

    @given(weights_strategy, st.data())
    def test_at_least_one_and_symmetric(self, ws, data):
        w = WeightAssignment(tuple(ws))
        a = data.draw(st.integers(1, w.n))
        b = data.draw(st.integers(1, w.n))
        t = wdf_term(w, a, b)
        assert t >= 1.0
        assert t == wdf_term(w, b, a)

    def test_monotone_in_gap(self):
        # widening the access gap never decreases the term, provided the new
        # far endpoint is no heavier (a lighter far endpoint would also shrink
        # the denominator, so the unrestricted statement cannot hold)
        rng = Splitmix64(17)
        checked = 0
        while checked < 200:
            n = rng.below(40) + 3
            w = WeightAssignment(tuple(0.25 + rng.unit() for _ in range(n)))
            prev = rng.below(n) + 1
            near = rng.below(n) + 1
            far = rng.below(n) + 1
            if not (abs(far - prev) > abs(near - prev)):
                continue
            if (far - prev) * (near - prev) <= 0 or w.weight(far) > w.weight(near):
                continue
            assert wdf_term(w, prev, far) >= wdf_term(w, prev, near) - 1e-12
            checked += 1

    def test_monotone_in_gap_equal_weights(self):
        w = WeightAssignment((1.0,) * 64)
        terms = [wdf_term(w, 10, 10 + g) for g in range(0, 54)]
        assert terms == sorted(terms)


class TestWeightedBound:
    def test_three_access_example(self):
        rep = weighted_df_bound(AccessSequence(2, (1, 2, 1)), WeightAssignment((1.0,) * 2))
        assert rep.per_access == (1.0, 2.0, 2.0)
        assert rep.total == pytest.approx(5.0)

    def test_constant_sequence_totals_m(self):
        w = WeightAssignment((0.2, 5.0, 1.0))
        rep = weighted_df_bound(AccessSequence(3, (2,) * 9), w)
        assert rep.total == pytest.approx(9.0)

    def test_root_start(self):
        rep = weighted_df_bound(AccessSequence(4, (1, 4)), WeightAssignment((1.0,) * 4), "root")
        assert rep.per_access == (3.0, 3.0)
        assert rep.total == pytest.approx(6.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            weighted_df_bound(AccessSequence(3, (1,)), WeightAssignment((1.0,) * 4))

    def test_bad_start(self):
        with pytest.raises(ValueError):
            weighted_df_bound(AccessSequence(2, (1,)), WeightAssignment((1.0,) * 2), "middle")


class TestDynamicFinger:
    def test_adjacent_step(self):
        rep = dynamic_finger_bound(AccessSequence(4, (3, 4)))
        assert rep.per_access[1] == 2.0

    def test_constant(self):
        assert dynamic_finger_bound(AccessSequence(5, (5, 5, 5))).total == pytest.approx(3.0)

    def test_power_of_two_plus_one_span(self):
        n = 2 ** 4 + 1
        rep = dynamic_finger_bound(AccessSequence(n, (1, n)))
        assert rep.per_access[1] == pytest.approx(1 + math.log2(17), rel=1e-12)

    @given(st.data())
    def test_equals_equal_weights_exactly(self, data):
        n = data.draw(st.integers(1, 64))
        acc = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=32))
        seq = AccessSequence(n, tuple(acc))
        ones = WeightAssignment((1.0,) * n)
        a = dynamic_finger_bound(seq)
        assert a == weighted_df_bound(seq, None) == weighted_df_bound(seq, ones)
        root = weighted_df_bound(seq, None, "root")
        assert root == weighted_df_bound(seq, ones, "root")
        # closed form, bit-for-bit
        expect = tuple(
            1.0 if i == 0 else 1.0 + math.log2(abs(acc[i] - acc[i - 1]) + 1)
            for i in range(len(acc))
        )
        assert a.per_access == expect
        assert root.per_access == (1.0 + math.log2(n), *expect[1:])


class TestStaticFingerCost:
    def test_perfect_tree(self):
        tree = StaticTree.balanced(3)
        rep = static_finger_cost(tree, AccessSequence(3, (1, 3)))
        assert rep.per_access == (2, 3)
        assert rep.total == 5

    def test_repeated_access_costs_one(self):
        tree = StaticTree.balanced(7)
        rep = static_finger_cost(tree, AccessSequence(7, (5, 5)))
        assert rep.per_access[1] == 1

    def test_right_spine(self):
        tree = StaticTree.right_spine(3)
        rep = static_finger_cost(tree, AccessSequence(3, (1, 3)))
        assert rep.per_access == (1, 3)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            static_finger_cost(StaticTree.balanced(3), AccessSequence(4, (1,)))

    def test_path_cost_is_symmetric_walk(self):
        rng = Splitmix64(23)
        for _ in range(50):
            n = rng.below(30) + 2
            tree = tree_from_weights(WeightAssignment(tuple(0.25 + rng.unit() for _ in range(n))))
            a = rng.below(n) + 1
            b = rng.below(n) + 1
            assert tree.path_nodes(a, b) == tree.path_nodes(b, a)
            # node count on the explicit parent-walk path
            ancestors = {a}
            node = a
            while tree.parent[node]:
                node = tree.parent[node]
                ancestors.add(node)
            node, up = b, 0
            while node not in ancestors:
                node = tree.parent[node]
                up += 1
            expect = up + 1 + tree.depth[a] - tree.depth[node]
            assert tree.path_nodes(a, b) == expect


class TestTreeWeightEquivalence:
    def test_weights_from_perfect_tree(self):
        assert weights_from_tree(StaticTree.balanced(3)).weights == (0.5, 1.0, 0.5)

    def test_weights_from_single_node(self):
        assert weights_from_tree(StaticTree.balanced(1), 3.0).weights == (1.0,)

    def test_weights_from_left_spine(self):
        assert weights_from_tree(StaticTree.left_spine(3)).weights == (0.25, 0.5, 1.0)

    def test_bad_base(self):
        with pytest.raises(BadBaseError):
            weights_from_tree(StaticTree.balanced(3), 1.0)

    # a base past the float range is rejected before any power is taken
    @pytest.mark.parametrize("base", ["2", None, pytest.param(10**400, id="10**400"),
                                      math.inf, math.nan])
    def test_non_number_base(self, base):
        with pytest.raises(BadBaseError, match="^base must be a number above 1, got "):
            weights_from_tree(StaticTree.balanced(3), base)

    @pytest.mark.parametrize("base", [pytest.param(10**308, id="10**308"), sys.float_info.max])
    def test_finite_base_near_the_float_range(self, base):
        assert weights_from_tree(StaticTree.balanced(1), base).weights == (1.0,)

    # a finite base can still make weights the prefix sums cannot hold
    @pytest.mark.parametrize("tree, base, message", [
        (StaticTree.balanced(3), 10**308,
         "base 1e+308 is too large for a tree of depth 1: weight 3 vanishes in the prefix sum"),
        (StaticTree.left_spine(2000), 2.0, "base 2 is too large for a tree of depth 1999: "
         "weight 1 must be a finite positive number, got 0.0"),
    ], ids=["balanced3-10**308", "left_spine2000-2.0"])
    def test_base_too_large_for_the_tree(self, tree, base, message):
        with pytest.raises(BadBaseError, match="^" + re.escape(message)) as exc:
            weights_from_tree(tree, base)
        assert type(exc.value.__cause__) is ValueError

    def test_median_tree_equal_weights(self):
        tree = tree_from_weights(WeightAssignment((1.0,) * 3))
        assert tree.root == 2
        assert tree.left[2] == 1 and tree.right[2] == 3

    def test_median_tree_heavy_first_key(self):
        tree = tree_from_weights(WeightAssignment((4.0, 1.0, 1.0)))
        assert tree.root == 1
        assert tree.right[1] == 2

    def test_median_tree_single(self):
        assert tree_from_weights(WeightAssignment((1.0,))).root == 1


class TestBestStatic:
    def test_repeated_key_prefers_that_root(self):
        tree, total = best_static_finger_cost(AccessSequence(2, (1, 1, 1, 1)))
        assert total == 4
        assert tree.root == 1

    def test_alternating_pair(self):
        seq = AccessSequence(3, (1, 2) * 5)
        tree, total = best_static_finger_cost(seq)
        # right spine wins: first access costs 1, each switch walks 2 nodes
        assert total == 19
        assert tree.parent[2] == 1 or tree.parent[1] == 2

    def test_single_access(self):
        tree, total = best_static_finger_cost(AccessSequence(3, (2,)))
        assert total == 1
        assert tree.root == 2

    def test_guard(self):
        with pytest.raises(TooLargeError, match="guarded to n <= 768, got n=769"):
            best_static_finger_cost(AccessSequence(769, (1,)))

    def test_agrees_with_direct_recomputation(self):
        assert check_best_static(Splitmix64(47)) == 10


def test_iter_bsts_counts_catalan():
    catalan = [1, 1, 2, 5, 14, 42, 132]
    for n in range(1, 7):
        assert sum(1 for _ in iter_bsts(n)) == catalan[n]


def test_static_tree_validation():
    for n, root, left, right, message in [
        # in-order violation: root 1 with left child 2
        (2, 1, (0, 2, 0), (0, 0, 0), "key 2 lies outside its subtree's interval [1, 0]"),
        # unreachable key
        (2, 1, (0, 0, 0), (0, 0, 0), "tree reaches 1 of its 2 keys"),
        # a cycle: 1 -> 2 -> 1
        (2, 1, (0, 0, 0), (0, 2, 1), "key 1 lies outside its subtree's interval [3, 2]"),
        # key 3 hangs under 4 and again under 1
        (4, 2, (0, 0, 1, 0, 3), (0, 3, 4, 0, 0), "key 3 lies outside its subtree's interval [2, 1]"),
        # in-order violation below the root: 3 left of 2 under root 4
        (4, 4, (0, 0, 3, 0, 2), (0, 0, 0, 0, 0), "key 3 lies outside its subtree's interval [1, 1]"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            StaticTree(n, root, left, right)


@pytest.mark.parametrize("spine", [StaticTree.left_spine, StaticTree.right_spine])
def test_deep_spines_build_without_recursion(spine):
    tree = spine(4096)
    assert sorted(tree.depth[1:]) == list(range(4096))
    assert tree.depth[tree.root] == 0


@pytest.mark.parametrize("left, right, entry", [
    ((0, 0, 0), (0, 5, 0), "right[1] = 5"),
    ((0, 0, -1), (0, 2, 0), "left[2] = -1"),
    ((0, 0, 0), (3, 2, 0), "right[0] = 3"),
])
def test_static_tree_rejects_out_of_range_child(left, right, entry):
    with pytest.raises(KeyOutOfRangeError, match=re.escape(f"{entry} outside [0, 2]")):
        StaticTree(2, 1, left, right)


@pytest.mark.parametrize("root, left, right, entry", [
    (1, (0, 0, 0), (0, 2.0, 0), "right[1] = 2.0"),
    (1, (0, 0, None), (0, 2, 0), "left[2] = None"),
    (1, (0, 0, 0), (True, 2, 0), "right[0] = True"),
    (1.0, (0, 0, 0), (0, 2, 0), "root 1.0"),
])
def test_static_tree_rejects_non_integer_entry(root, left, right, entry):
    with pytest.raises(KeyOutOfRangeError, match=re.escape(f"{entry} is not an integer key")):
        StaticTree(2, root, left, right)
