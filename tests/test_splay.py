import pytest

from fingerbound import verify
from fingerbound.bounds import SHAPE_ROOTS, StaticTree, shape_children
from fingerbound.core import AccessSequence
from fingerbound.errors import BadKeyspaceError, KeyOutOfRangeError
from fingerbound.splay import (
    INITIAL_SHAPES,
    SplayTree,
    run_splay,
    run_splay_reference,
)
from fingerbound.workloads import Splitmix64, WorkloadSpec, generate


def links(tree: SplayTree) -> dict:
    """Each key's parent, left and right keys (0 for none): the tree's shape."""
    out, stack = {}, [tree.root]
    while stack:
        node = stack.pop()
        kids = [node.left, node.right]
        out[node.key] = tuple(0 if v is None else v.key for v in [node.parent] + kids)
        stack += [v for v in kids if v is not None]
    return out


class TestAccess:
    def test_single_node(self):
        tree = SplayTree(1)
        assert tree.access(1) == 1
        assert tree.in_order() == [1]

    def test_zig_zig_from_right_spine(self):
        tree = SplayTree(3, "right_spine")
        assert tree.access(3) == 3
        assert tree.root.key == 3
        assert tree.root.left.key == 2
        assert tree.root.left.left.key == 1

    def test_accessing_root_changes_nothing(self):
        tree = SplayTree(7, "balanced")
        root = tree.root.key
        assert tree.access(root) == 1
        assert tree.root.key == root

    def test_out_of_range(self):
        with pytest.raises(KeyOutOfRangeError):
            SplayTree(3).access(4)

    @pytest.mark.parametrize("key", [0, 8, True, 2.5, "3"])
    def test_rejected_key_leaves_the_tree_as_it_was(self, key):
        tree = SplayTree(7, "left_spine")
        for k in (3, 6, 1):
            tree.access(k)
        before = (tree.root, tree.rotations, links(tree), tree.in_order())
        with pytest.raises(KeyOutOfRangeError):
            tree.access(key)
        assert (tree.root, tree.rotations, links(tree), tree.in_order()) == before


class TestBuild:
    @pytest.mark.parametrize("n", [2.5, 3.0, True, "3", None])
    def test_non_integer_size(self, n):
        with pytest.raises(BadKeyspaceError, match="keyspace size must be a positive integer"):
            SplayTree(n)

    @pytest.mark.parametrize("n", [0, -4])
    def test_non_positive_size(self, n):
        with pytest.raises(BadKeyspaceError,
                           match=f"keyspace size must be a positive integer, got {n}"):
            SplayTree(n)

    def test_fresh_tree_is_the_named_shape(self):
        for n in range(1, 70):
            for initial in INITIAL_SHAPES:
                tree = SplayTree(n, initial)
                left, right = [0] * (n + 1), [0] * (n + 1)
                stack = [tree.root]
                while stack:
                    node = stack.pop()
                    for children, child in ((left, node.left), (right, node.right)):
                        if child is not None:
                            assert child.parent is node
                            children[node.key] = child.key
                            stack.append(child)
                assert tree.root.parent is None
                assert (tree.root.key, left, right) == shape_children(n, SHAPE_ROOTS[initial])

    @pytest.mark.parametrize("key", [1, 2**40, 2**39])
    def test_huge_keyspace_first_access(self, key):
        # an eager build of 2^40 nodes would not fit in memory
        n = 2**40
        lo, hi, depth = 1, n, 0
        mid = (lo + hi) // 2
        while mid != key:
            if key < mid:
                hi = mid - 1
            else:
                lo = mid + 1
            mid = (lo + hi) // 2
            depth += 1
        assert depth == {1: 39, 2**40: 40, 2**39: 0}[key]
        tree = SplayTree(n)
        assert tree.access(key) == depth + 1
        assert tree.rotations == depth
        assert tree.root.key == key
        assert tree.access(key) == 1


class TestRunSplay:
    def test_repeated_key_formula(self):
        # depth_initial(k) + 1 for the first access, then 1 each
        for initial, depth1 in (("balanced", 2), ("left_spine", 6), ("right_spine", 0)):
            rep = run_splay(AccessSequence(7, (1,) * 10), initial)
            assert rep.total == depth1 + 1 + 9

    def test_first_access_balanced(self):
        rep = run_splay(AccessSequence(7, (1,)), "balanced")
        assert rep.per_access == (3,)

    def test_sequential_left_spine_frozen(self):
        # frozen from a calibration run; stays linear (5n for n=64)
        rep = run_splay(AccessSequence(64, tuple(range(1, 65))), "left_spine")
        assert rep.total == 320

    def test_bad_initial(self):
        with pytest.raises(ValueError):
            run_splay(AccessSequence(3, (1,)), "bushy")
        with pytest.raises(ValueError):
            SplayTree(3, "bushy")
        with pytest.raises(ValueError):
            run_splay_reference(AccessSequence(3, (1,)), "bushy")

    # a name of any other type, unhashable ones too, is an unknown shape
    @pytest.mark.parametrize("initial", [[1], None, 3])
    def test_non_string_initial(self, initial):
        seq = AccessSequence(3, (1,))
        for run in (run_splay, run_splay_reference, lambda _, shape: SplayTree(3, shape)):
            with pytest.raises(ValueError, match="^initial shape must be one of "):
                run(seq, initial)

    def test_first_access_costs_static_depth_plus_one(self):
        for n in range(1, 34):
            for initial in INITIAL_SHAPES:
                depth = getattr(StaticTree, initial)(n).depth
                for k in range(1, n + 1):
                    seq = AccessSequence(n, (k,))
                    assert run_splay(seq, initial).per_access == (depth[k] + 1,)
                    assert run_splay_reference(seq, initial).per_access == (depth[k] + 1,)


def test_reference_agrees_sampled():
    # the differential suite's check, on a seed of its own
    assert verify.check_splay_reference(Splitmix64(9)) == 500


@pytest.mark.parametrize("initial", ["left_spine", "right_spine"])
@pytest.mark.parametrize("order", ["sequential", "reversed", "random"])
def test_deep_spines_agree_with_reference(initial, order):
    # the differential suite reaches n <= 128; a spine of 2000 keys splays
    # paths up to 2000 nodes long
    n = 2000
    keys = {"sequential": tuple(range(1, n + 1)), "reversed": tuple(range(n, 0, -1)),
            "random": Splitmix64(5).keys(n, n)}[order]
    seq = AccessSequence(n, keys)
    rep = run_splay(seq, initial)
    assert rep == run_splay_reference(seq, initial)
    tree = SplayTree(n, initial)
    assert tuple(map(tree.access, keys)) == rep.per_access
    assert tree.rotations == rep.total - seq.m


def test_far_uniform_trace_agrees_with_reference():
    # the differential suite reaches n <= 128 on a balanced start; uniform
    # keys over 2^16 reach deep into the lazily built tree
    seq = generate(WorkloadSpec("uniform", 2**16, 2000, seed=4))
    rep = run_splay(seq)
    assert rep == run_splay_reference(seq)
    tree = SplayTree(seq.n)
    assert tuple(map(tree.access, seq.accesses)) == rep.per_access
    assert tree.rotations == rep.total - seq.m


def test_run_rejects_a_list_of_keys():
    with pytest.raises(TypeError, match="^seq must be an AccessSequence, got list$"):
        run_splay([1, 2, 3])
