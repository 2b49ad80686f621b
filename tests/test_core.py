import math
import os
import re

import pytest
from hypothesis import given, settings, strategies as st

from fingerbound.bounds import (
    SHAPE_ROOTS,
    StaticTree,
    best_static_finger_cost,
    dynamic_finger_bound,
    shape_children,
    static_finger_cost,
    tree_from_weights,
    wdf_term,
    weighted_df_bound,
    weights_from_tree,
)
from fingerbound.core import (
    MAX_BUILT_N,
    AccessSequence,
    Column,
    Point,
    PointSet,
    WeightAssignment,
    check_built_size,
    first_bad,
)
from fingerbound.geometry import (RowSweep, first_violation, is_arborally_satisfied,
                                  staircase_reference, unsatisfied_pairs)
from fingerbound.greedy import (GreedyState, brute_min_row, greedy_row, greedy_row_reference,
                               greedy_sweep)
from fingerbound.harness import fit
from fingerbound.opt import opt_satisfied_superset
from fingerbound.splay import SplayTree, run_splay, run_splay_reference
from fingerbound.errors import (
    BadKeyspaceError,
    EmptySequenceError,
    KeyOutOfRangeError,
    TooLargeError,
)
from fingerbound.workloads import Splitmix64, generate, write_trace, write_weights
from test_greedy import Index


class TestValidateSequence:
    def test_valid_input_passes_through(self):
        seq = AccessSequence(2, [2, 1, 2])
        assert seq.n == 2
        assert seq.m == 3
        assert seq.accesses == (2, 1, 2)

    def test_out_of_range_key(self):
        with pytest.raises(KeyOutOfRangeError):
            AccessSequence(2, [3])

    def test_empty_input(self):
        with pytest.raises(EmptySequenceError):
            AccessSequence(5, [])

    def test_bad_n(self):
        with pytest.raises(BadKeyspaceError):
            AccessSequence(0, [1])
        with pytest.raises(BadKeyspaceError, match="got True"):
            AccessSequence(True, [1])

    @pytest.mark.parametrize("t, expect", [
        (2, (1, 2)), (1, (1,)), (3, (1, 2, 3)),
        (0, None), (-1, None), (4, None), (True, None), (2.0, None),
    ], ids=["2", "1", "m", "zero", "minus_one", "past_m", "bool", "float"])
    def test_prefix(self, t, expect):
        # a length outside 1..m is refused, not sliced as Python would
        seq = AccessSequence(3, [1, 2, 3])
        if expect is None:
            with pytest.raises(ValueError, match=re.escape(
                    f"prefix length must be an integer in [1, 3], got {t!r}") + "$"):
                seq.prefix(t)
        else:
            assert seq.prefix(t).accesses == expect

    @pytest.mark.parametrize("accs, named", [
        ([1, 0, 9, 2.5], "access 2: key 0 "),
        ([1, 2.5, 9, 0], "access 2: key 2.5 "),
        ([2, 3, 1, 4], "access 4: key 4 "),
        ([1, "1", 0], "access 2: key '1' "),
        ([1, True, 2], "access 2: key True "),
    ])
    def test_first_bad_access_is_named(self, accs, named):
        # an int key is out of range; a key of any other type (2.5, '1',
        # True) is named as not an integer
        fault = "outside [1, 3]" if named.split()[-1].isdigit() else "is not an integer"
        with pytest.raises(KeyOutOfRangeError, match=re.escape(named + fault) + "$"):
            AccessSequence(3, accs)


class TestCheckKey:
    CALLERS = {
        "splay": lambda k: SplayTree(10).access(k),
        "path_nodes": lambda k: StaticTree.balanced(10).path_nodes(k, 3),
        "greedy_row": lambda k: greedy_row(GreedyState(10), k),
        "weight": lambda k: WeightAssignment((1.0,) * 10).weight(k),
    }

    @pytest.mark.parametrize("caller", CALLERS)
    @pytest.mark.parametrize("key", [2.5, 2.0, "2", None, True])
    def test_non_integer_key_is_rejected(self, caller, key):
        with pytest.raises(KeyOutOfRangeError, match=f"key {key!r} is not an integer"):
            self.CALLERS[caller](key)

    @pytest.mark.parametrize("caller", CALLERS)
    def test_integer_keys_still_pass(self, caller):
        self.CALLERS[caller](2)
        with pytest.raises(KeyOutOfRangeError, match="key 11 outside"):
            self.CALLERS[caller](11)

    @staticmethod
    def _swept():
        state = GreedyState(5)
        for x in (2, 4, 1):
            state.step(x)
        return state

    # each takes `key`, which makes its key arguments from the ints 1..5
    ENTRY_POINTS = {
        "weight": lambda key: WeightAssignment((1.0, 2.0, 3.0, 4.0, 5.0)).weight(key(4)),
        "range_weight": lambda key: WeightAssignment((1.0, 2.0, 3.0, 4.0, 5.0)).range_weight(
            key(4), key(2)),
        "last_touch": lambda key: TestCheckKey._swept().last_touch(key(2)),
        "completions": lambda key: list(TestCheckKey._swept().completions(key(3), 1)),
        "splay_access": lambda key: SplayTree(5).access(key(5)),
        "staircase_reference": lambda key: staircase_reference(TestCheckKey._swept(), key(3)),
        "path_nodes": lambda key: StaticTree.balanced(5).path_nodes(key(1), key(5)),
        "wdf_term": lambda key: wdf_term(WeightAssignment((1.0, 2.0, 3.0, 4.0, 5.0)), key(1),
                                         key(5)),
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_index_key_is_used_as_its_int(self, entry):
        # the int that check_key returns is the key each entry point goes on with
        call = self.ENTRY_POINTS[entry]
        assert call(Index) == call(int)
        with pytest.raises(KeyOutOfRangeError, match="key True is not an integer"):
            call(lambda k: True)


class TestRangeWeight:
    def test_all_ones(self):
        w = WeightAssignment((1.0,) * 4)
        assert w.range_weight(1, 4) == 4.0

    def test_single_key(self):
        w = WeightAssignment((1.0,) * 4)
        assert w.range_weight(3, 3) == 1.0

    def test_order_free_sum(self):
        # 0.5 + 2 + 0.25, verified against the naive loop below
        w = WeightAssignment((0.5, 2.0, 0.25))
        assert w.range_weight(3, 1) == pytest.approx(2.75, rel=1e-15)
        assert w.range_weight(3, 1) == w.range_weight(1, 3)

    def test_out_of_range(self):
        w = WeightAssignment((1.0,) * 3)
        with pytest.raises(KeyOutOfRangeError):
            w.range_weight(0, 2)
        with pytest.raises(KeyOutOfRangeError):
            w.range_weight(1, 4)

    @given(st.lists(st.floats(min_value=0.5, max_value=2.0), min_size=1, max_size=64),
           st.data())
    def test_matches_naive_summation(self, weights, data):
        w = WeightAssignment(tuple(weights))
        a = data.draw(st.integers(1, w.n))
        b = data.draw(st.integers(1, w.n))
        naive = sum(w.weights[k - 1] for k in range(min(a, b), max(a, b) + 1))
        assert w.range_weight(a, b) == pytest.approx(naive, rel=1e-12)

    def test_additivity(self):
        rng = Splitmix64(5)
        for _ in range(200):
            n = rng.below(50) + 2
            w = WeightAssignment(tuple(0.5 + 1.5 * rng.unit() for _ in range(n)))
            a = rng.below(n) + 1
            c = rng.below(n - a + 1) + a
            if a == c:
                continue
            b = rng.below(c - a) + a
            whole = w.range_weight(a, c)
            split = w.range_weight(a, b) + w.range_weight(b + 1, c)
            assert whole == pytest.approx(split, rel=1e-12)


class TestWeights:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            WeightAssignment((1.0, 0.0))
        with pytest.raises(ValueError):
            WeightAssignment((1.0, -2.0))

    def test_rejects_vanishing_prefix(self):
        with pytest.raises(ValueError):
            WeightAssignment((1e300, 1e-300))

    def test_error_names_the_first_bad_weight(self):
        with pytest.raises(ValueError, match="weight 2 vanishes"):
            WeightAssignment((1.0, 1e-17, -1.0))
        with pytest.raises(ValueError, match="weight 2 must be a finite positive number"):
            WeightAssignment((1.0, float("nan"), 1e-17))
        with pytest.raises(ValueError, match="weight 3 must be a finite positive number"):
            WeightAssignment((1e300, 1e300, float("inf")))

    @pytest.mark.parametrize("weights, i", [((None,), 1), ((1.0, 2.0, [3.0]), 3)])
    def test_a_weight_of_the_wrong_type_is_named(self, weights, i):
        with pytest.raises(TypeError, match=rf"^weight {i} must be a real number, got "):
            WeightAssignment(weights)

    def test_a_string_weight_is_named(self):
        # still a ValueError, which read_weights turns into its line's error
        with pytest.raises(ValueError, match=r"^weight 2 must be a real number, got 'x'$"):
            WeightAssignment((1.0, "x"))
        assert WeightAssignment(("1.5", " 2 ")).weights == (1.5, 2.0)

    def test_prefix_is_the_running_sum(self):
        rng = Splitmix64(7)
        ws = tuple(rng.unit() + 1e-3 for _ in range(500))
        acc, expect = 0.0, [0.0]
        for w in ws:
            acc += w
            expect.append(acc)
        assert WeightAssignment(ws).prefix == tuple(expect)
        assert WeightAssignment((1.0,) * 5).prefix == (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)

    def test_total(self):
        assert WeightAssignment((0.5, 2.0, 0.25)).total == pytest.approx(2.75)


SEQ = AccessSequence(3, (1, 3, 2))
TREE = StaticTree.balanced(3)


@pytest.mark.parametrize("call, message", [
    (lambda: weighted_df_bound([1, 3], None), "seq must be an AccessSequence, got list"),
    (lambda: weighted_df_bound(SEQ, [1.0] * 3), "w must be a WeightAssignment, got list"),
    (lambda: dynamic_finger_bound([1, 3]), "seq must be an AccessSequence, got list"),
    (lambda: wdf_term([1.0] * 3, 1, 2), "w must be a WeightAssignment, got list"),
    (lambda: static_finger_cost(TREE, [1, 3]), "seq must be an AccessSequence, got list"),
    (lambda: static_finger_cost([2, 1, 3], SEQ), "tree must be a StaticTree, got list"),
    (lambda: best_static_finger_cost([1, 3]), "seq must be an AccessSequence, got list"),
    (lambda: tree_from_weights([1.0] * 3), "w must be a WeightAssignment, got list"),
    (lambda: weights_from_tree([2, 1, 3]), "tree must be a StaticTree, got list"),
    (lambda: opt_satisfied_superset([1, 3]), "seq must be an AccessSequence, got list"),
    (lambda: run_splay([1, 3]), "seq must be an AccessSequence, got list"),
    (lambda: run_splay_reference([1, 3]), "seq must be an AccessSequence, got list"),
    (lambda: generate(None), "spec must be a WorkloadSpec, got NoneType"),
    (lambda: write_trace([1], os.devnull), "seq must be an AccessSequence, got list"),
    (lambda: write_weights([1.0], os.devnull), "w must be a WeightAssignment, got list"),
    (lambda: unsatisfied_pairs([(1, 1), (2, 2)]), "pset must be a PointSet, got list"),
    (lambda: is_arborally_satisfied([(1, 1), (2, 2)]), "pset must be a PointSet, got list"),
    (lambda: is_arborally_satisfied([(1, 1)]), "pset must be a PointSet, got list"),
    (lambda: first_violation([(1, 1), (2, 2)]), "pset must be a PointSet, got list"),
    (lambda: fit(None, None), "cost_series must be a Sequence, got NoneType"),
    (lambda: fit([1.0], None), "bound_series must be a Sequence, got NoneType"),
    (lambda: brute_min_row([0, 0], 1), "state must be a RowSweep, got list"),
    (lambda: brute_min_row(greedy_sweep(SEQ), 1), "state must be a RowSweep, got GreedyRun"),
    (lambda: greedy_row(None, 1), "sweep must be a RowSweep, got NoneType"),
    (lambda: greedy_row([0, 0], 1), "sweep must be a RowSweep, got list"),
    (lambda: greedy_row(greedy_sweep(SEQ), 1), "sweep must be a RowSweep, got GreedyRun"),
    (lambda: greedy_row_reference(None, 1), "sweep must be a RowSweep, got NoneType"),
    (lambda: greedy_row_reference([0, 0], 1), "sweep must be a RowSweep, got list"),
    (lambda: greedy_row_reference(greedy_sweep(SEQ), 1),
     "sweep must be a RowSweep, got GreedyRun"),
], ids=["wdf_seq", "wdf_w", "dynamic_finger", "wdf_term", "static_finger_seq",
        "static_finger_tree", "best_static", "tree_from_weights", "weights_from_tree",
        "opt", "splay", "splay_reference", "generate", "write_trace", "write_weights",
        "unsatisfied_pairs", "is_satisfied", "is_satisfied_one_point", "first_violation",
        "fit_cost", "fit_bound", "brute_min_row", "brute_min_row_run", "greedy_row_none",
        "greedy_row_list", "greedy_row_run", "greedy_row_reference_none",
        "greedy_row_reference_list", "greedy_row_reference_run"])
def test_entry_points_reject_the_wrong_type(call, message):
    with pytest.raises(TypeError, match=f"^{message}$"):
        call()


class TestPointSet:
    def test_deduplicates(self):
        ps = PointSet([(1, 1), (1, 1), (2, 3)])
        assert len(ps) == 2

    def test_indices(self):
        ps = PointSet([(3, 1), (1, 1), (3, 2)])
        assert ps.row_keys(1) == (1, 3)
        assert ps.times == (1, 2)

    def test_iteration_is_time_major(self):
        ps = PointSet([(2, 2), (1, 1), (3, 1)])
        assert list(ps) == [Point(1, 1), Point(3, 1), Point(2, 2)]

    def test_rejects_bad_coordinates(self):
        with pytest.raises(ValueError):
            PointSet([(0, 1)])
        with pytest.raises(ValueError):
            PointSet([(1, 0)])
        with pytest.raises(ValueError, match=re.escape("point (2.9, 1) ")):
            PointSet([(1, 2), (2.9, 1)])
        # bools, bare numbers and triples are not (key, time) pairs
        with pytest.raises(ValueError, match=re.escape("point (True, 1) ")):
            PointSet([(True, 1), (2, 2)])
        with pytest.raises(ValueError, match="point 5 needs positive integer coordinates"):
            PointSet([5])
        with pytest.raises(ValueError, match=re.escape("point (1, 2, 3) ")):
            PointSet([(1, 2, 3)])


def test_cost_report_total():
    assert Column((1, 2, 2)).total == 5
    assert len(Column((1, 2, 2))) == 3


@pytest.mark.parametrize("produce", [
    lambda: greedy_sweep(SEQ).cost_report(),
    lambda: run_splay(SEQ),
    lambda: run_splay_reference(SEQ),
    lambda: static_finger_cost(TREE, SEQ),
    lambda: weighted_df_bound(SEQ, WeightAssignment((1.0, 2.0, 3.0))),
    lambda: dynamic_finger_bound(SEQ),
], ids=["greedy", "splay", "splay_reference", "static_finger", "wdf", "dynamic_finger"])
def test_every_per_access_result_is_a_column(produce):
    column = produce()
    assert type(column) is Column
    assert len(column) == SEQ.m


# odd values for any argument: none, the wrong container or scalar, a bool,
# an int past the float range and a NaN
PROBES = [None, [], "x", -1, 1.5, True, 10**400, math.nan]


def test_public_callables_raise_only_the_documented_errors(tmp_path, monkeypatch):
    # each public callable, given a probe alone, first of two arguments, or
    # second after a valid sequence, either works or raises a TypeError or a
    # ValueError; only the two readers may raise an OSError
    import fingerbound

    monkeypatch.chdir(tmp_path)  # write_trace(SEQ, "x") writes a file x
    escaped = []
    for name in fingerbound.__all__:
        call = getattr(fingerbound, name)
        if not callable(call):
            continue
        allowed = (TypeError, ValueError)
        if name in ("read_trace", "read_weights"):
            allowed += (OSError,)
        for v in PROBES:
            for args in ((v,), (v, SEQ), (SEQ, v)):
                try:
                    call(*args)
                except allowed:
                    pass
                except Exception as exc:
                    escaped.append(f"{name}{args}: {type(exc).__name__}: {exc}")
    assert escaped == []


def test_public_names_are_unique_and_resolve():
    import fingerbound

    assert len(fingerbound.__all__) == len(set(fingerbound.__all__))
    for name in fingerbound.__all__:
        assert hasattr(fingerbound, name), name


class TestFirstBad:
    @staticmethod
    def below(limit):
        return lambda xs: max(xs) < limit

    def test_accepted_column_costs_one_call(self):
        calls = []
        assert first_bad((1, 2, 3), lambda xs: calls.append(xs) or True) is None
        assert calls == [(1, 2, 3)]

    def test_names_the_first_rejected_entry(self):
        assert first_bad((1, 5, 2, 9), self.below(5)) == 1
        assert first_bad((9,), self.below(5)) == 0
        assert first_bad([1, 2, 3, 4, 5, 6, 7], self.below(7)) == 6

    def test_conversion_and_acceptance_together(self):
        # the earlier of a value out of range and a line that is no number
        ints = lambda rows: max(map(int, rows)) < 5
        assert first_bad(["1", "7", "x"], ints) == 1
        assert first_bad(["1", "x", "7"], ints) == 1
        assert first_bad(["1", "2", "x"], ints) == 2
        assert first_bad(["1", "2"], lambda rows: [][len(rows)]) == 0  # IndexError

    def test_relational_check(self):
        rising = lambda xs: all(a < b for a, b in zip(xs, xs[1:]))
        assert first_bad((1, 2, 3, 3, 0), rising) == 3
        assert first_bad((1, 2, 4), rising) is None

    @settings(max_examples=100, derandomize=True, database=None)
    @given(st.lists(st.integers(0, 9), min_size=1, max_size=40), st.integers(0, 10))
    def test_matches_the_loop(self, xs, limit):
        expect = next((i for i, x in enumerate(xs) if not x < limit), None)
        assert first_bad(xs, self.below(limit)) == expect


class TestWeightRange:
    def test_total_past_the_float_range_is_named(self):
        with pytest.raises(ValueError, match="weight 2 takes the prefix sum past the float range"):
            WeightAssignment((1e308, 1e308))
        with pytest.raises(ValueError, match="weight 3 takes the prefix sum past"):
            WeightAssignment((1.0, 1e308, 1e308, -1.0))
        assert WeightAssignment((1e308, 7e307)).total < math.inf

    def test_number_past_the_float_range_is_named(self):
        # float() of such an int raises OverflowError; the vector names it
        with pytest.raises(ValueError, match="^weight 1 is past the float range; rescale"):
            WeightAssignment((10**400,))
        with pytest.raises(ValueError, match="^weight 3 is past the float range; rescale"):
            WeightAssignment((1.0, 2, 10**400, -1.0))


class TestBuiltSize:
    # each structure that builds an entry per key, checked before it builds
    BUILDERS = {
        "row_sweep": RowSweep,
        "greedy": GreedyState,
        "shape_children": lambda n: shape_children(n, SHAPE_ROOTS["balanced"]),
        "static_tree": StaticTree.right_spine,
        "left_spine_splay": lambda n: SplayTree(n, "left_spine"),
        "right_spine_splay": lambda n: SplayTree(n, "right_spine"),
    }

    @pytest.mark.parametrize("n", [2.5, "3", True, 0])
    def test_needs_a_positive_integer_size(self, n):
        with pytest.raises(BadKeyspaceError,
                           match=re.escape(f"keyspace size must be a positive integer, got {n!r}")):
            check_built_size(n, "a test structure")

    def test_huge_keyspace_is_a_typed_error(self):
        # n past the guard fails before any allocation
        check_built_size(MAX_BUILT_N, "a test structure")
        for n in (MAX_BUILT_N + 1, 10**20):
            with pytest.raises(TooLargeError, match=re.escape(
                    f"a test structure is guarded to n <= {MAX_BUILT_N}, got n={n}")):
                check_built_size(n, "a test structure")

    @pytest.mark.parametrize("builder", BUILDERS)
    @pytest.mark.parametrize("n", [MAX_BUILT_N + 1, 10**20])
    def test_builders_refuse_a_huge_keyspace(self, builder, n):
        with pytest.raises(TooLargeError, match=f"guarded to n <= {MAX_BUILT_N}, got n={n}$"):
            self.BUILDERS[builder](n)
