import re
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from fingerbound import verify
from fingerbound.core import AccessSequence, Point, PointSet
from fingerbound.errors import KeyOutOfRangeError
from fingerbound.greedy import greedy_execute, greedy_row
from fingerbound.geometry import (
    RowSweep,
    first_violation,
    is_arborally_satisfied,
    unsatisfied_pairs,
)
from fingerbound.workloads import Splitmix64


def ps(*pairs):
    return PointSet(pairs)


class TestSatisfied:
    def test_two_point_rectangle_is_empty(self):
        assert not is_arborally_satisfied(ps((1, 1), (2, 2)))

    def test_corner_point_satisfies(self):
        assert is_arborally_satisfied(ps((1, 1), (2, 2), (2, 1)))

    def test_collinear_column(self):
        assert is_arborally_satisfied(ps((5, 1), (5, 2), (5, 3)))

    def test_collinear_row(self):
        assert is_arborally_satisfied(ps((1, 4), (2, 4), (9, 4)))

    def test_empty_and_singleton(self):
        assert is_arborally_satisfied(ps())
        assert is_arborally_satisfied(ps((3, 7)))

    def test_boundary_point_counts(self):
        # witness sits on the rectangle edge, sharing a coordinate with a corner
        assert is_arborally_satisfied(ps((1, 1), (3, 3), (3, 1), (1, 3)))


class TestUnsatisfiedPairs:
    def test_single_violation(self):
        assert unsatisfied_pairs(ps((1, 1), (2, 2))) == [(Point(1, 1), Point(2, 2))]

    def test_no_violation(self):
        assert unsatisfied_pairs(ps((1, 1), (2, 2), (2, 1))) == []

    def test_three_violations_in_order(self):
        # each of the three rectangles checked by hand: all empty
        got = unsatisfied_pairs(ps((1, 1), (3, 2), (2, 3)))
        assert got == [
            (Point(1, 1), Point(3, 2)),
            (Point(1, 1), Point(2, 3)),
            (Point(3, 2), Point(2, 3)),
        ]


# random point sets: both routes must agree
points_strategy = st.sets(
    st.tuples(st.integers(1, 9), st.integers(1, 9)), min_size=0, max_size=14
)


@settings(max_examples=400, deadline=None)
@given(points_strategy)
def test_sweep_agrees_with_pair_oracle(pairs):
    pset = PointSet(Point(k, t) for k, t in pairs)
    assert is_arborally_satisfied(pset) == (unsatisfied_pairs(pset) == [])


def test_sweep_routes_check():
    assert verify.check_sweep_routes(Splitmix64(70)) == 816


@settings(max_examples=150, deadline=None)
@given(points_strategy)
def test_first_violation_is_a_real_violation(pairs):
    pset = PointSet(Point(k, t) for k, t in pairs)
    witness = first_violation(pset)
    if witness is None:
        assert unsatisfied_pairs(pset) == []
    else:
        p, q = witness
        assert p in pset and q in pset
        assert p.key != q.key and p.time != q.time
        assert (p, q) in unsatisfied_pairs(pset)


def test_first_violation_is_sized_by_distinct_keys():
    # the sweep runs over key ranks, so a far key costs no memory
    far = ps((1, 1), (2**40, 2))
    assert first_violation(far) == (Point(1, 1), Point(2**40, 2))
    assert unsatisfied_pairs(far) == [first_violation(far)]


@settings(max_examples=300, deadline=None)
@given(points_strategy)
def test_row_sweep_agrees_with_first_violation(pairs):
    # checked and committed row by row, the carried state fails first at
    # the row of the earliest later corner of any empty rectangle
    pset = PointSet(Point(k, t) for k, t in pairs)
    sweep = RowSweep(max((k for k, _ in pairs), default=1))
    witness = None
    for t in pset.times:
        witness = sweep.violation(pset.row_keys(t), t)
        if witness is not None:
            break
        sweep.commit(pset.row_keys(t), t)
    assert witness == first_violation(pset)
    bad = unsatisfied_pairs(pset)
    assert (witness is None) == (bad == [])
    if witness is not None:
        assert witness[1].time == min(q.time for _, q in bad)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 20), st.lists(st.integers(1, 20), min_size=1, max_size=8))
def test_degenerate_lines_always_satisfied(fixed, varying):
    column = PointSet(Point(fixed, t) for t in varying)
    row = PointSet(Point(k, fixed) for k in varying)
    assert is_arborally_satisfied(column)
    assert is_arborally_satisfied(row)


def test_completions_yield_every_passing_row():
    sweep = RowSweep(3)
    # on an empty sweep every row passes
    assert list(sweep.completions(2, 1)) == [[1, 2], [2, 3]]
    sweep.commit([2], 1)
    # (1, 2) spans an empty rectangle with (2, 1) unless (2, 2) joins it;
    # past the n - 1 other keys there is no row
    assert [list(sweep.completions(1, extra)) for extra in (0, 1, 2, 3, 2**70)] == [
        [], [[1, 2]], [[1, 2, 3]], [], []]


def test_completions_match_the_definition():
    # seeded sweeps of up to 4 satisfied rows over n <= 5; for every x and
    # every count of other keys, the rows holding x that leave no
    # unsatisfied pair with the committed points, in `combinations` order
    rng = Splitmix64(20261020)
    for _ in range(300):
        n = rng.below(5) + 1
        sweep = RowSweep(n)
        points = []
        for t in range(1, rng.below(5) + 1):
            while True:
                bits = rng.below(2**n - 1) + 1
                row = [k for k in range(1, n + 1) if bits >> (k - 1) & 1]
                if sweep.violation(row, t) is None:
                    break
            sweep.commit(row, t)
            points += [Point(k, t) for k in row]
        carried = (sweep.time, sweep.tree[:])
        t = sweep.time + 1
        for x in range(1, n + 1):
            others = [k for k in range(1, n + 1) if k != x]
            for extra in range(n):
                expect = [sorted((x, *keys)) for keys in combinations(others, extra)
                          if not unsatisfied_pairs(
                              PointSet([*points, *(Point(k, t) for k in (x, *keys))]))]
                assert list(sweep.completions(x, extra)) == expect, (points, x, extra)
        assert (sweep.time, sweep.tree) == carried


@pytest.mark.parametrize("check, most", [
    (verify.check_greedy_minimality, 25_761),
    (verify.check_opt_dominance, 25_945),
])
def test_search_checks_rows_not_subsets(monkeypatch, check, most):
    # the row checks these self-checks made with the search's row-level
    # pruning; a search that checked the rows of every subset makes more
    calls = 0
    failing_gap = RowSweep.failing_gap

    def counted(self, row):
        nonlocal calls
        calls += 1
        return failing_gap(self, row)

    monkeypatch.setattr(RowSweep, "failing_gap", counted)
    check()
    assert 0 < calls <= most


@pytest.mark.parametrize("extra", [-1, True, 1.0, "1", None])
def test_completions_name_a_bad_extra(extra):
    with pytest.raises(ValueError, match=rf"^extra must be a non-negative integer, "
                                         rf"got {re.escape(repr(extra))}$"):
        RowSweep(3).completions(1, extra)


def test_commit_folds_keys_in_any_order():
    sweep = RowSweep(3)
    sweep.commit([3, 1], 1)
    assert [sweep.last_touch(k) for k in (1, 2, 3)] == [1, 0, 1]


# rows that neither `commit` nor `violation` takes, on a sweep over n = 4 at time 2
BAD_ROWS = [
    (3, [1, 9], KeyOutOfRangeError, r"^key 9 outside \[1, 4\] in row 3$"),
    (3, [0, 3], KeyOutOfRangeError, r"^key 0 outside \[1, 4\] in row 3$"),
    (2, [1, 3], ValueError, r"^row 2 does not follow committed row 2$"),
    (2.5, [1, 3], ValueError, r"^row time must be an integer, got 2\.5$"),
    (3.0, [1, 3], ValueError, r"^row time must be an integer, got 3\.0$"),
    (True, [1, 3], ValueError, r"^row time must be an integer, got True$"),
    (3, [1, 2.5], KeyOutOfRangeError, r"^key 2\.5 is not an integer in row 3$"),
    (3, [True], KeyOutOfRangeError, r"^key True is not an integer in row 3$"),
    (3, [1, "2"], KeyOutOfRangeError, r"^key '2' is not an integer in row 3$"),
]
BAD_ROW_IDS = ["key past n", "key 0", "stale time", "float time", "integral float time",
               "bool time", "float key", "bool key", "str key"]


@pytest.mark.parametrize("t, keys, error, message", BAD_ROWS, ids=BAD_ROW_IDS)
def test_commit_checks_a_row_before_any_write(t, keys, error, message):
    sweep = RowSweep(4)
    sweep.commit([1, 2, 3, 4], 1)
    sweep.commit([2], 2)
    before = (sweep.time, sweep.tree[:])
    with pytest.raises(error, match=message):
        sweep.commit(keys, t)
    assert (sweep.time, sweep.tree) == before


@pytest.mark.parametrize("t, keys, error, message", BAD_ROWS + [
    (3, [0], KeyOutOfRangeError, r"^key 0 outside \[1, 4\] in row 3$"),
    (3, [3, 1], ValueError, r"^key 1 does not rise above key 3 in row 3$"),
    (3, [1, 1], ValueError, r"^key 1 does not rise above key 1 in row 3$"),
    (3, (1, 2, 4, 3), ValueError, r"^key 3 does not rise above key 4 in row 3$"),
], ids=[*BAD_ROW_IDS, "key 0 alone", "falling keys", "repeated key", "falling last key"])
def test_violation_refuses_a_row_it_cannot_judge(t, keys, error, message):
    # unchecked, key 0 read an internal node, [3, 1] named the gap (1, 5)
    # and [1, 1] was judged as [1]
    sweep = RowSweep(4)
    sweep.commit([2], 1)
    sweep.commit([3], 2)
    before = (sweep.time, sweep.tree[:])
    with pytest.raises(error, match=message):
        sweep.violation(keys, t)
    assert (sweep.time, sweep.tree) == before
    assert sweep.violation([1], 3) == (Point(2, 1), Point(1, 3))


@pytest.mark.parametrize("points, calls", [
    (greedy_execute(AccessSequence(8, (3, 1, 4, 1, 5, 2, 6, 5, 3, 5)))[0], 0),
    ([(1, 1), (2, 1), (3, 1), (2, 2), (3, 3), (1, 4)], 1),
], ids=["greedy's rows", "a failing third row"])
def test_first_violation_checks_only_the_failing_row(monkeypatch, points, calls):
    # every row passes `failing_gap`, unchecked; only a failing one is
    # handed to the checked `violation` for its witness
    made = []
    violation = RowSweep.violation

    def counted(self, row, t):
        made.append(t)
        return violation(self, row, t)

    monkeypatch.setattr(RowSweep, "violation", counted)
    assert (first_violation(PointSet(points)) is None) == (calls == 0)
    assert len(made) == calls


class CountedReads(list):
    """A tree that counts its item reads."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_witness_of_a_far_gap_reads_o_log_n_nodes():
    # one key touched at the far end of 2^16: the failing gap is keys 2..n,
    # and its witness, key n, is found by the staircase walk from key 1, not
    # by a scan of the gap
    n = 2**16
    sweep = RowSweep(n)
    sweep.commit([n], 1)
    sweep.tree = CountedReads(sweep.tree)
    assert sweep.violation([1], 2) == ((n, 1), (1, 2))
    assert sweep.tree.reads <= 4 * n.bit_length()  # 54 reads; a scan of the gap reads 131,089


def open_gaps_by_scan(sweep, row):
    """Each open gap (prev, y) of the sorted row in key order, with its
    earlier-touched row neighbour, that neighbour's last touch (the gap's
    threshold) and the gap's keys touched later, by a scan of every key's
    last touch. An empty row has no gap."""
    n = sweep.n
    last = [0, *map(sweep.last_touch, range(1, n + 1))]
    prev = 0
    for y in (*row, n + 1) if row else ():
        if y - prev > 1:
            near = y if prev == 0 or (y <= n and last[y] < last[prev]) else prev
            late = [k for k in range(prev + 1, y) if last[k] > last[near]]
            yield (prev, y), near, last[near], late
        prev = y


def test_gap_test_matches_the_definition():
    # seeded sweeps of up to 8 greedy rows over n <= 12, each followed by
    # random sorted candidate rows: `violation` is None exactly when the
    # candidate leaves no unsatisfied pair, and otherwise the first failing
    # gap's key nearest its earlier-touched neighbour, by the scan;
    # `failing_gap` names that gap
    rng = Splitmix64(29)
    seen = dict.fromkeys(("left end", "right end", "inside", "threshold at the maximum"), 0)
    for _ in range(400):
        n = rng.below(12) + 1
        sweep = RowSweep(n)
        points = []
        for t in range(1, rng.below(9) + 1):
            row = greedy_row(sweep, rng.below(n) + 1)
            sweep.commit(row, t)
            points += [Point(k, t) for k in row]
        t = sweep.time + 1
        top = sweep.time  # the root's maximum
        for _ in range(3):
            bits = rng.below(2**n)
            row = [k for k in range(1, n + 1) if bits >> (k - 1) & 1]
            gaps = list(open_gaps_by_scan(sweep, row))
            fails = [(gap, near, late) for gap, near, _, late in gaps if late]
            gap, witness = None, None
            if fails:
                gap, near, late = fails[0]
                z = min(late) if near == gap[0] else max(late)
                witness = Point(z, sweep.last_touch(z)), Point(near, t)
                seen["left end" if gap[0] == 0 else "right end" if gap[1] > n else "inside"] += 1
            seen["threshold at the maximum"] += any(top and thr == top for _, _, thr, _ in gaps)
            pset = PointSet([*points, *(Point(k, t) for k in row)])
            assert sweep.failing_gap(row) == gap, (points, row)
            assert sweep.violation(row, t) == witness, (points, row)
            assert (witness is None) == (unsatisfied_pairs(pset) == []), (points, row)
    assert all(seen.values()), seen


def test_completions_reject_a_key_outside_the_keyspace():
    sweep = RowSweep(3)
    sweep.commit([2], 1)
    for x in (0, 4, True, 2.0):
        with pytest.raises(KeyOutOfRangeError):
            sweep.completions(x, 0)
    # a far key fails the keyspace check before the search builds anything
    tracemalloc.start()
    try:
        with pytest.raises(KeyOutOfRangeError, match=re.escape("key 134217728 outside [1, 2]")):
            RowSweep(2).completions(2**27, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


@pytest.mark.parametrize("check, calls", [
    (verify.check_greedy_minimality, 25_761),
    (verify.check_opt_dominance, 16_721),
])
def test_oracles_make_pinned_row_checks(monkeypatch, check, calls):
    # the exact work of the two exhaustive oracles' self-checks, one
    # `failing_gap` call per row they try
    made = 0
    failing_gap = RowSweep.failing_gap

    def counted(self, row):
        nonlocal made
        made += 1
        return failing_gap(self, row)

    monkeypatch.setattr(RowSweep, "failing_gap", counted)
    check()
    assert made == calls


# The gap rule, on hand-built rows: rows 1.. are committed, and the last row
# is checked against them. Each case is also run mirrored (key k -> n + 1 - k),
# which swaps the left and right record searches.
GAP_CASES = [
    # gap key 2 touched later than both neighbours
    (3, [[1, 2, 3], [2]], [1, 3], True),
    # gap key 2 touched later than the earlier neighbour 1 only
    (3, [[1, 2, 3], [2, 3], [3]], [1, 3], True),
    # the later neighbour 3 is the search's hit, on the gap's far end
    (3, [[1, 2, 3], [3]], [1, 3], False),
    # neighbours 2 and 4 tie, so the hit is key 5, past the far neighbour
    (5, [[1, 2, 3, 4, 5], [5]], [2, 4, 5], False),
    # a row holding key 1: the gap up to the keyspace end holds later key 3
    (3, [[1, 2, 3], [3]], [1], True),
    # a row holding key 1 and key n, whose gap key is no later than either
    (3, [[2], [1, 2, 3]], [1, 3], False),
    # keys 1 and n alone
    (1, [[1]], [1], False),
    # an empty row, after touched rows and on a fresh sweep
    (3, [[1, 2, 3], [2]], [], False),
    (3, [], [], False),
]


@pytest.mark.parametrize("mirror", [False, True])
@pytest.mark.parametrize("n, earlier, row, violated", GAP_CASES)
def test_gap_rule_on_hand_built_rows(n, earlier, row, violated, mirror):
    if mirror:
        earlier = [sorted(n + 1 - k for k in keys) for keys in earlier]
        row = sorted(n + 1 - k for k in row)
    sweep = RowSweep(n)
    for t, keys in enumerate(earlier, start=1):
        assert sweep.violation(keys, t) is None
        sweep.commit(keys, t)
    t = len(earlier) + 1
    pset = PointSet(Point(k, s) for s, keys in enumerate([*earlier, row], start=1)
                    for k in keys)
    bad = sweep.violation(row, t)
    assert (bad is not None) == violated
    if bad is None:
        assert unsatisfied_pairs(pset) == []
    else:
        p, q = bad
        assert p in pset and q in pset and q.time == t
        assert p.key != q.key and p.time < q.time
        assert (p, q) in unsatisfied_pairs(pset)


def test_row_sweep_holds_one_array():
    # 2^21 tree nodes of 8 bytes each come to 16.8 MB; a second list of the
    # last-touch times would add 8.4 MB
    tracemalloc.start()
    try:
        RowSweep(2**20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 17 * 10**6
