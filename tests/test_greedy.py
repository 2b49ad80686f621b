import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from fingerbound import geometry, greedy, verify
from fingerbound.bounds import MAX_ENUM_N
from fingerbound.core import AccessSequence, Point, PointSet, check_key
from fingerbound.errors import BadKeyspaceError, KeyOutOfRangeError, TooLargeError
from fingerbound.geometry import RowSweep, first_violation, is_arborally_satisfied
from fingerbound.greedy import (
    GreedyState,
    brute_min_row,
    greedy_cost,
    greedy_execute,
    greedy_row,
    greedy_sweep,
)
from fingerbound.workloads import Splitmix64, WorkloadSpec, generate


class Index:
    """An integer-like key: an object with `__index__` and no arithmetic."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __repr__(self):
        return f"Index({self.value})"


def state_after(n, accesses):
    state = GreedyState(n)
    for x in accesses:
        state.step(x)
    return state


class TestGreedyRow:
    def test_staircase_blocks_older_key(self):
        # 1 touched at t=1, then greedy on 2 touches [1, 2]; key 1 now blocks
        # nothing newer than key 2, so accessing 3 touches [2, 3]
        state = state_after(3, [1, 2])
        assert greedy_row(state, 3) == [2, 3]

    def test_empty_history(self):
        state = GreedyState(5)
        assert greedy_row(state, 5) == [5]

    def test_untouched_keys_never_block(self):
        state = state_after(3, [3])
        assert greedy_row(state, 1) == [1, 3]

    def test_own_column_dominates(self):
        # after (1, 2, 1) .. at t=3 the rectangle to (2,2) is witnessed by
        # (1,2), so key 2 must not be touched; confirmed by brute_min_row
        state = state_after(2, [1, 2])
        assert greedy_row(state, 1) == [1]

    def test_out_of_range(self):
        state = GreedyState(3)
        with pytest.raises(KeyOutOfRangeError):
            greedy_row(state, 4)

    @pytest.mark.parametrize("x", [True, 2.0, 0, 4, Index(0), Index(4)],
                             ids=["bool", "float", "zero", "n+1", "index zero", "index n+1"])
    def test_key_guard_raises_check_keys_error(self, x):
        state = state_after(3, [1, 3])
        with pytest.raises(KeyOutOfRangeError) as expected:
            check_key(x, 3)
        with pytest.raises(KeyOutOfRangeError, match=f"^{re.escape(str(expected.value))}$"):
            greedy_row(state, x)

    def test_key_guard_accepts_an_index_int(self):
        state = state_after(3, [1, 3])
        row = greedy_row(state, Index(2))
        assert row == greedy_row(state, 2) == [1, 2, 3]
        assert all(type(k) is int for k in row)
        assert state.step(Index(2)) == row

    def test_rows_match_brute_force_oracle(self):
        for n, accesses, x, expect in [
            (2, [1], 2, [1, 2]),
            (5, [], 4, [4]),
            (3, [1, 2], 3, [2, 3]),
            (3, [1, 2, 1], 3, [1, 2, 3]),
        ]:
            state = state_after(n, accesses)
            assert greedy_row(state, x) == expect
            assert brute_min_row(state, x) == expect


class TestGreedyExecute:
    def test_repeated_access_touches_only_itself(self):
        points, cost = greedy_execute(AccessSequence(3, (2, 2, 2)))
        assert points == PointSet([(2, 1), (2, 2), (2, 3)])
        assert cost.total == 3

    def test_sequential_three(self):
        points, cost = greedy_execute(AccessSequence(3, (1, 2, 3)))
        assert cost.per_access == (1, 2, 2)
        assert cost.total == 5
        assert points.row_keys(2) == (1, 2)
        assert points.row_keys(3) == (2, 3)

    def test_far_jump(self):
        # rows {3}, {1,3}; the stated rows sum to 3 points
        points, cost = greedy_execute(AccessSequence(3, (3, 1)))
        assert points.row_keys(1) == (3,)
        assert points.row_keys(2) == (1, 3)
        assert cost.total == 3

    def test_greedy_cost_matches_execute(self):
        seq = AccessSequence(8, (5, 2, 7, 2, 8, 1))
        _, cost = greedy_execute(seq)
        assert greedy_cost(seq).per_access == cost.per_access

    def test_points_flatten_the_rows(self):
        state = greedy_sweep(generate(WorkloadSpec("uniform", 30, 80, seed=9)))
        assert list(state.points()) == [(t, k) for t, row in state.rows() for k in row]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_execution_properties(data):
    n = data.draw(st.integers(1, 24))
    accesses = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=40))
    seq = AccessSequence(n, tuple(accesses))
    points, cost = greedy_execute(seq)
    # satisfaction
    assert is_arborally_satisfied(points)
    # superset of the access points, every row pays at least 1
    for t, k in enumerate(seq, start=1):
        assert Point(k, t) in points
    assert all(c >= 1 for c in cost.per_access)
    assert sum(cost.per_access) == len(points)
    # determinism
    again, cost2 = greedy_execute(seq)
    assert again == points and cost2.per_access == cost.per_access
    # online prefix consistency
    t = data.draw(st.integers(1, seq.m))
    pre_points, pre_cost = greedy_execute(seq.prefix(t))
    assert pre_cost.per_access == cost.per_access[:t]
    assert pre_points.points == frozenset(p for p in points if p.time <= t)


def test_fast_path_matches_reference_scan():
    # the differential suite's check, on a seed of its own
    assert verify.check_greedy_fast_path(Splitmix64(2024)) == 306


def test_state_is_the_sweep_over_its_rows():
    # the greedy state holds exactly the last-touch state a plain RowSweep
    # reaches by committing greedy's logged rows
    rng = Splitmix64(77)
    for _ in range(60):
        n, m = rng.below(40) + 1, rng.below(60)
        state = GreedyState(n)
        for _ in range(m):
            state.step(rng.below(n) + 1)
        sweep = RowSweep(n)
        for t, row in state.rows():
            sweep.commit(row, t)
        assert state.time == sweep.time == m
        assert state.tree == sweep.tree


def test_search_on_the_state_leaves_it_unchanged():
    rng = Splitmix64(5)
    for _ in range(40):
        n = rng.below(5) + 1
        state = GreedyState(n)
        for _ in range(rng.below(5)):
            state.step(rng.below(n) + 1)
        before = (list(state.rows()), state.per_row_cost[:], state.tree[:], state.time)
        x = rng.below(n) + 1
        row = greedy_row(state, x)
        assert list(state.completions(x, len(row) - 1)) == [row]
        assert all(list(state.completions(x, extra)) == [] for extra in range(len(row) - 1))
        assert brute_min_row(state, x) == greedy_row(state, x)
        assert (list(state.rows()), state.per_row_cost, state.tree, state.time) == before


@pytest.mark.parametrize("cls", [RowSweep, GreedyState])
def test_sweep_states_reject_empty_keyspace(cls):
    with pytest.raises(BadKeyspaceError, match="keyspace size must be a positive integer, got 0"):
        cls(0)


@pytest.mark.parametrize("cls", [RowSweep, GreedyState])
@pytest.mark.parametrize("n", [2.5, "3", True, None])
def test_sweep_states_reject_non_integer_keyspace(cls, n):
    with pytest.raises(BadKeyspaceError, match="keyspace size must be a positive integer"):
        cls(n)


@pytest.mark.parametrize("cls", [RowSweep, GreedyState])
@pytest.mark.parametrize("n, row", [(4, [0]), (4, [5]), (5, [2, 7])],
                         ids=["zero", "n+1", "padding"])
def test_commit_rejects_keys_outside_the_keyspace(cls, n, row):
    # key 7 of n = 5 has a padding leaf of the tree, key 5 of n = 4 none
    state = cls(n)
    state.commit([1, n], 1)
    before = (state.time, state.tree[:])
    bad = row[0] if row[0] < 1 else row[-1]
    with pytest.raises(KeyOutOfRangeError, match=rf"^key {bad} outside \[1, {n}\] in row 2$"):
        state.commit(row, 2)
    assert (state.time, state.tree) == before


@pytest.mark.parametrize("cls", [RowSweep, GreedyState])
def test_commit_rejects_an_inner_key_outside_the_keyspace(cls):
    # the unsorted row's bad key sits between its in-range ends; unchecked,
    # key 0 would write time 1 into internal node 3
    state = cls(4)
    tree = state.tree[:]
    with pytest.raises(KeyOutOfRangeError, match=r"^key 0 outside \[1, 4\] in row 1$"):
        state.commit([2, 0, 3], 1)
    assert (state.time, state.tree) == (0, tree)


def test_copy_is_an_independent_greedy_state():
    def fields(state):
        return (state.time, state.tree[:], state.per_row_cost[:], list(state.rows()))

    state = GreedyState(6)
    for x in (3, 1, 5, 3):
        state.step(x)
    before = fields(state)
    other = state.copy()
    assert type(other) is GreedyState
    assert fields(other) == before
    for x in (6, 2):
        other.step(x)
    assert fields(state) == before
    for x in (6, 2):
        state.step(x)
    assert fields(state) == fields(other)


def test_minimality_suite_names_the_first_wrong_prefix(monkeypatch):
    # greedy's row for prefix (2, 1) over n = 3 gains key 3; the walk checks
    # every n < 3 and the subtree of (1,) first, so (2, 1) is the first failure
    row = greedy.greedy_row

    def wrong_row(state, x):
        keys = row(state, x)
        if state.n == 3 and state.time == 1 and state.last_touch(2) == 1 and x == 1:
            keys.append(3)
        return keys

    monkeypatch.setattr(greedy, "greedy_row", wrong_row)
    report = verify.run_suite("minimality")
    assert not report.passed
    assert report.details == [
        "row mismatch at t=2 of (2, 1): greedy [1, 2, 3] vs oracle [1, 2]"]


def test_minimality_suite_reports_a_second_minimum(monkeypatch):
    completions = RowSweep.completions

    def twice(self, x, extra):
        return list(completions(self, x, extra))[:1] * 2

    monkeypatch.setattr(RowSweep, "completions", twice)
    with pytest.raises(ValueError, match="row 1 has two minimum completions containing 1"):
        brute_min_row(GreedyState(1), 1)
    report = verify.run_suite("minimality")
    assert not report.passed
    assert report.details == ["non-unique minimal row at t=1 of (1,)"]


def drop_farthest(row):
    """A greedy row rule that loses the touched key farthest from x."""
    def dropped(state, x):
        keys = row(state, x)
        if len(keys) > 1:
            keys.remove(max(keys, key=lambda k: abs(k - x)))
        return keys
    return dropped


@pytest.mark.parametrize("broken", [False, True])
def test_satisfaction_on_greedys_sweep_matches_the_replay(monkeypatch, broken):
    # the pair found while greedy commits its rows is the one the point-set
    # check finds on its emitted points, violated or not
    if broken:
        monkeypatch.setattr(greedy, "greedy_row", drop_farthest(greedy.greedy_row))
    rng = Splitmix64(89)
    violated = 0
    for _ in range(300):
        n = rng.below(24) + 1
        seq = AccessSequence(n, tuple(rng.below(n) + 1 for _ in range(rng.below(60) + 1)))
        state, bad = verify._greedy_violation(seq)
        assert bad == first_violation(state.emitted()), seq.accesses
        violated += bad is not None
    assert (violated > 100) if broken else violated == 0


def test_greedy_row_is_the_geometry_walk(monkeypatch):
    # one walk, bound under greedy's names; a patch of greedy's name does not
    # reach the checker, which calls the walk by its geometry name
    assert greedy.greedy_row is geometry.staircase
    assert greedy.greedy_row_reference is geometry.staircase_reference
    monkeypatch.setattr(greedy, "greedy_row", drop_farthest(greedy.greedy_row))
    sweep = RowSweep(3)
    sweep.commit([3], 1)
    assert sweep.violation([1], 2) == (Point(3, 1), Point(1, 2))


def test_satisfaction_suite_catches_a_dropped_staircase_key(monkeypatch):
    monkeypatch.setattr(greedy, "greedy_row", drop_farthest(greedy.greedy_row))
    with pytest.raises(verify.CheckFailure,
                       match=r"^violating pair \(Point\(key=\d+, time=\d+\), Point"):
        verify.check_greedy_satisfied(Splitmix64(1))


def missing_access(row):
    row.remove(2)


def repeated_key(row):
    row.insert(1, row[1])


def swapped_keys(row):
    row[0], row[-1] = row[-1], row[0]


@pytest.mark.parametrize("fault, message", [
    (missing_access, r"access point \(2,3\) missing on \(1, 3, 2\)"),
    (repeated_key, r"row 3 repeats or misorders keys on \(1, 3, 2\)"),
    (swapped_keys, r"row 3 repeats or misorders keys on \(1, 3, 2\)"),
])
def test_satisfaction_suite_catches_each_row_fault(monkeypatch, fault, message):
    # every random sequence is 1, 3, 2 over n = 3, and its row 3, [1, 2, 3],
    # loses its access, repeats key 2 or swaps keys 1 and 3; no such row
    # spans an empty rectangle, so the row checks are what fail
    monkeypatch.setattr(verify, "_random_sequence",
                        lambda rng, n, m: AccessSequence(3, (1, 3, 2)))
    row_rule = greedy.greedy_row

    def faulty(state, x):
        row = row_rule(state, x)
        if state.time == 2:
            fault(row)
        return row

    monkeypatch.setattr(greedy, "greedy_row", faulty)
    with pytest.raises(verify.CheckFailure, match=rf"^{message}$"):
        verify.check_greedy_satisfied(Splitmix64(1))


class TestBruteMinRow:
    def test_needs_the_witness_column(self):
        sweep = RowSweep(2)
        sweep.commit([1], 1)
        assert brute_min_row(sweep, 2) == [1, 2]

    def test_empty_set(self):
        assert brute_min_row(RowSweep(5), 4) == [4]

    def test_three_key_case(self):
        # rows [1], [1, 2]
        assert brute_min_row(state_after(3, [1, 2]), 3) == [2, 3]

    def test_refuses_a_keyspace_past_the_enumeration_guard(self):
        # refused before the search, which grows about 14-fold each 4 keys
        assert brute_min_row(GreedyState(MAX_ENUM_N), 1) == [1]
        with pytest.raises(TooLargeError,
                           match="^brute_min_row is guarded to n <= 12, got n=13$"):
            brute_min_row(GreedyState(13), 1)

    @pytest.mark.parametrize("x", [0, 4])
    def test_rejects_keys_outside_the_sweep(self, x):
        with pytest.raises(KeyOutOfRangeError):
            brute_min_row(state_after(3, [1, 2]), x)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sweep_on_sparse_keys_is_greedy_on_their_ranks(data):
    # a few distinct keys spread over a keyspace of up to 2^40 keys
    n = data.draw(st.one_of(st.integers(1, 64), st.integers(65, 2**40)))
    keys = sorted(data.draw(st.sets(st.integers(1, n), min_size=1, max_size=8)))
    accesses = data.draw(st.lists(st.sampled_from(keys), min_size=1, max_size=40))
    seq = AccessSequence(n, tuple(accesses))
    state = greedy_sweep(seq)
    used = sorted(set(accesses))
    on_ranks = state_after(len(used), [used.index(x) + 1 for x in accesses])
    rows = [(t, [used[r - 1] for r in row]) for t, row in on_ranks.rows()]
    assert state.per_row_cost == on_ranks.per_row_cost
    assert greedy_cost(seq).per_access == tuple(on_ranks.per_row_cost)
    assert list(state.rows()) == rows
    if n <= 64:
        on_keys = state_after(n, accesses)
        assert on_keys.per_row_cost == state.per_row_cost
        assert list(on_keys.rows()) == rows


def test_sweep_memory_grows_with_distinct_keys():
    # 200 accesses over 2^20 keys; a sweep over every key holds about 24 MB
    seq = generate(WorkloadSpec("uniform", 2**20, 200, seed=3))
    tracemalloc.start()
    try:
        greedy_cost(seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def fragment_paths(n):
    """Traces that split and regrow the sweep's row fragments over 1..n:
    passes that cut one whole-keyspace row a key at a time, zigzags, and a
    stride permutation whose rows reach across the keyspace."""
    up, down = list(range(1, n + 1)), list(range(n, 0, -1))
    return {"sequential": up * 3, "reversed": down * 3, "zigzag": (up + down) * 2,
            "stride": [7919 * i % n + 1 for i in range(n)]}


def assert_sweep_is_the_state(seq):
    # the batch sweep against the oracles' online state, stepped on seq's keys
    run, state = greedy_sweep(seq), state_after(seq.n, seq.accesses)
    assert run.per_row_cost == state.per_row_cost
    assert list(run.rows()) == list(state.rows())


@pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 65, 1023, 1024, 1025])
@pytest.mark.parametrize("path", ["sequential", "reversed", "zigzag", "stride"])
def test_sweep_matches_the_state_on_fragment_paths(path, n):
    assert_sweep_is_the_state(AccessSequence(n, tuple(fragment_paths(n)[path])))


@pytest.mark.parametrize("n", [256, 4096])
@pytest.mark.parametrize("kind, extra", [("bit_reversal", {}), ("walk", {"d": 3}),
                                         ("zipf_finger", {"theta": 1.2})])
def test_sweep_matches_the_state_on_generated_traces(kind, extra, n):
    m = n if kind == "bit_reversal" else 3000  # bit_reversal is one permutation
    assert_sweep_is_the_state(generate(WorkloadSpec(kind, n, m, seed=4, **extra)))


def test_sweep_matches_the_state_on_huge_keys():
    # keys far past any built keyspace: the sweep reads them only by order,
    # so its rows are the state's on their ranks, mapped back
    keys = sorted([10**20, 3, 10**20 - 1, 7 * 10**17, 2**64 + 1, 10**19])
    rng = Splitmix64(12)
    ranks = [rng.below(len(keys)) + 1 for _ in range(300)]
    run = greedy_sweep(AccessSequence(10**20, tuple(keys[r - 1] for r in ranks)))
    state = state_after(len(keys), ranks)
    assert run.per_row_cost == state.per_row_cost
    assert list(run.rows()) == [(t, [keys[r - 1] for r in row]) for t, row in state.rows()]


def test_sweep_memory_stays_linear_in_distinct_keys():
    # the tracemalloc peak per distinct key of a cost-only run stays under
    # 400 bytes; a fragment list that kept the slots of subtrees it no
    # longer views held some 9 times that on a far uniform trace
    n = 2**14
    for seq in (generate(WorkloadSpec("uniform", 2**16, 2 * 10**4, seed=1)),
                AccessSequence(n, tuple(range(1, n + 1)) * 2)):
        tracemalloc.start()
        try:
            greedy_cost(seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 400 * len(set(seq.accesses))
    # one pass builds a chain of 2^17 fragments, one per key, freed on return
    n = 2**17
    assert greedy_cost(AccessSequence(n, tuple(range(1, n + 1)))).total == 2 * n - 1


def test_sweep_on_ranks_does_not_step_on():
    # the run of keys 50, 10, 90 holds no sweep: a step or a search on it
    # would read keys it never built, as greedy_row(run, 2) would read key 2
    run = greedy_sweep(AccessSequence(100, (50, 10, 90)))
    assert type(run) is greedy.GreedyRun
    assert not isinstance(run, RowSweep)
    assert not hasattr(run, "step")
    with pytest.raises(TypeError, match="^sweep must be a RowSweep, got GreedyRun$"):
        greedy_row(run, 2)
    with pytest.raises(TypeError, match="^state must be a RowSweep, got GreedyRun$"):
        brute_min_row(run, 2)
    assert list(run.rows()) == [(1, [50]), (2, [10, 50]), (3, [50, 90])]
    assert run.per_row_cost == [1, 2, 2]


def test_row_matches_reference_scan_on_a_far_uniform_trace():
    # the differential suite reaches n <= 1025; uniform keys over 4096 walk
    # staircases across the whole keyspace
    seq = generate(WorkloadSpec("uniform", 4096, 300, seed=8))
    state = GreedyState(seq.n)
    for x in seq:
        assert greedy_row(state, x) == greedy.greedy_row_reference(state, x)
        state.step(x)


@pytest.mark.parametrize("run", [greedy_cost, greedy_sweep, greedy_execute])
def test_runs_reject_a_list_of_keys(run):
    with pytest.raises(TypeError, match="^seq must be an AccessSequence, got list$"):
        run([1, 2, 3])
