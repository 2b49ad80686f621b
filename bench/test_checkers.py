"""Hand-worked cases for the benchmark's independent checkers.

Run with `python3 -m pytest bench/test_checkers.py`; they need only the
standard library and pytest.
"""

import math

import pytest

from checkers import (
    best_static_cost,
    children_from_parents,
    equal_terms,
    first_empty_rectangle,
    static_finger_costs,
    staircase_costs,
    tree_arrays,
    weighted_terms,
)


def test_staircase_single_and_repeated_keys():
    assert staircase_costs([5]) == [1]
    # A repeat touches only its own column: nothing is newer than it.
    assert staircase_costs([5, 5, 5]) == [1, 1, 1]


def test_staircase_hand_worked():
    # t=2, x=1: key 2 (time 1) beats x's time 0, key 3 is untouched -> {1, 2}.
    # t=3, x=3: key 2 (time 2) is a record; key 1 (time 2) ties it -> {3, 2}.
    assert staircase_costs([2, 1, 3]) == [1, 2, 2]
    # t=4, x=1 (own time 2): key 2 (time 3) is a record, key 3 (time 3) ties.
    assert staircase_costs([1, 2, 3, 1]) == [1, 2, 2, 2]
    # t=3, x=2 sits between 1 (time 1) and 3 (time 2): both are records.
    assert staircase_costs([1, 3, 2]) == [1, 2, 3]


def test_empty_rectangle_found_and_witnessed():
    assert first_empty_rectangle([(1, 1), (2, 2)]) == ((1, 1), (2, 2))
    # (1, 2) lies on the boundary of the rectangle, which counts.
    assert first_empty_rectangle([(1, 1), (2, 2), (1, 2)]) is None
    # Points on one row or one column span no rectangle.
    assert first_empty_rectangle([(1, 1), (2, 1), (3, 1)]) is None
    assert first_empty_rectangle([(4, 1), (4, 2)]) is None
    # (1,1)-(3,2) is witnessed by (2,1); (2,1)-(3,2) is not.
    assert first_empty_rectangle([(1, 1), (3, 2), (2, 1)]) == ((2, 1), (3, 2))


def test_equal_terms():
    # |4-4|+1 = 1, |1-4|+1 = 4, |9-1|+1 = 9
    assert equal_terms([4, 4, 1, 9]) == [1.0, 1.0, 3.0, 1.0 + math.log2(9)]


def test_weighted_terms_avoid_cancellation():
    w = [1e15, 0.3, 0.3, 0.3]
    # The range 2..3 weighs 0.6 and the lighter end 0.3: the term is exactly 2.
    assert weighted_terms(w, [2, 3], "self") == [1.0, 2.0]
    assert weighted_terms(w, [2, 3], "root")[0] == 1.0 + math.log2((1e15 + 0.9) / 0.3)


def test_weighted_terms_hand_worked():
    w = [1.0, 2.0, 4.0, 8.0]
    # root start: W/w_1 = 15; 1->4 spans 15 over min 1; 4->3 spans 12 over 4.
    assert weighted_terms(w, [1, 4, 3], "root") == [
        1.0 + math.log2(15.0), 1.0 + math.log2(15.0), 1.0 + math.log2(3.0)]
    assert weighted_terms(w, [2, 2], "self") == [1.0, 1.0]


def test_static_finger_costs_on_balanced_three():
    # Root 2 with children 1 and 3.
    parent = [0, 2, 0, 2]
    depth = [0, 1, 0, 1]
    # 1 from the root: 2 nodes; 1->3 via 2: 3; 3->3: 1; 3->2: 2.
    assert static_finger_costs(parent, depth, [1, 3, 3, 2]) == [2, 3, 1, 2]


def test_best_static_cost_hand_worked():
    # For 1,3,1,3 the best tree hangs 3 under 1 (1 + 2 + 2 + 2 = 7); the
    # balanced tree pays 2 + 3 + 3 + 3 = 11.
    assert best_static_cost(3, [1, 3, 1, 3]) == 7
    assert best_static_cost(1, [1, 1]) == 2
    # 2,2,2 is best served with 2 at the root.
    assert best_static_cost(3, [2, 2, 2]) == 3
    with pytest.raises(ValueError):
        best_static_cost(8, [1])


def test_tree_arrays_and_parent_round_trip():
    # Root 3, left child 1, whose right child is 2.
    left = [0, 0, 0, 1]
    right = [0, 2, 0, 0]
    parent, depth = tree_arrays(3, left, right, 3)
    assert parent == [0, 3, 1, 0]
    assert depth == [0, 1, 2, 0]
    assert children_from_parents(3, parent) == (left, right, 3)


def test_tree_arrays_rejects_non_bst():
    # Root 1 with left child 2 breaks the key order.
    with pytest.raises(ValueError):
        tree_arrays(2, [0, 2, 0], [0, 0, 0], 1)
    with pytest.raises(ValueError):
        children_from_parents(2, [0, 0, 0])
