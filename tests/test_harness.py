import re

import pytest

from fingerbound.core import AccessSequence, WeightAssignment
from fingerbound.errors import DimensionMismatchError
from fingerbound.harness import FitResult, fit, run_experiment
from fingerbound.workloads import Splitmix64, WorkloadSpec, generate


def loop_fit(cost_series, bound_series):
    """The fit as a plain per-row loop, for exact comparison."""
    cum_c, cum_b = [], []
    tc = tb = 0.0
    for c, b in zip(cost_series, bound_series):
        tc += c
        tb += b
        cum_c.append(tc)
        cum_b.append(tb)
    ratio = tc / tb
    k = len(cum_c)
    if k == 1:
        return FitResult(ratio=ratio, slope=ratio, intercept=0.0, r2=1.0)
    mx = sum(cum_b) / k
    my = sum(cum_c) / k
    sxx = sum((x - mx) ** 2 for x in cum_b)
    syy = sum((y - my) ** 2 for y in cum_c)
    sxy = sum((x - mx) * (y - my) for x, y in zip(cum_b, cum_c))
    if sxx == 0.0:
        return FitResult(ratio, 0.0, my, 1.0 if syy == 0.0 else 0.0)
    slope = sxy / sxx
    r2 = 1.0 if syy == 0.0 else min(1.0, (sxy * sxy) / (sxx * syy))
    return FitResult(ratio, slope, my - slope * mx, r2)


class TestFit:
    def test_identical_series(self):
        fr = fit([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert fr.slope == pytest.approx(1.0)
        assert fr.intercept == pytest.approx(0.0, abs=1e-12)
        assert fr.r2 == pytest.approx(1.0)
        assert fr.ratio == pytest.approx(1.0)

    def test_doubled_series(self):
        fr = fit([2.0, 4.0, 2.0, 6.0], [1.0, 2.0, 1.0, 3.0])
        assert fr.slope == pytest.approx(2.0)
        assert fr.ratio == pytest.approx(2.0)
        assert fr.r2 == pytest.approx(1.0)

    def test_r2_within_unit_interval(self):
        fr = fit([1.0, 5.0, 2.0, 9.0], [1.0, 1.0, 4.0, 2.0])
        assert 0.0 <= fr.r2 <= 1.0

    def test_mismatched_lengths(self):
        with pytest.raises(DimensionMismatchError):
            fit([1.0], [1.0, 2.0])

    def test_empty_series(self):
        with pytest.raises(DimensionMismatchError, match="^series are empty$"):
            fit([], [])

    @pytest.mark.parametrize("bound", [[0.0, 0.0], [1.0, -1.0], [-2.0]])
    def test_bound_total_must_be_positive(self, bound):
        with pytest.raises(ValueError, match="bound total must be positive"):
            fit([1.0] * len(bound), bound)

    @pytest.mark.parametrize("cost, bound, entry", [
        ([float("nan"), 1.0], [1.0, 1.0], "cost[0] = nan"),
        ([1.0, float("inf")], [1.0, 1.0], "cost[1] = inf"),
        ([1.0, 2.0, 3.0], [1.0, 1.0, float("-inf")], "bound[2] = -inf"),
    ])
    def test_non_finite_values_are_named(self, cost, bound, entry):
        with pytest.raises(ValueError, match=re.escape(f"{entry} is not finite")):
            fit(cost, bound)

    def test_single_row(self):
        fr = fit([3.0], [2.0])
        assert fr.ratio == pytest.approx(1.5)
        assert fr.r2 == 1.0

    def test_int_too_large_for_a_float_is_named(self):
        with pytest.raises(ValueError, match=re.escape("cost[0] = 1000")) as exc:
            fit([10**400], [1.0])
        assert str(exc.value).endswith("is not finite")
        with pytest.raises(ValueError, match=re.escape("bound[1] = -1000")):
            fit([1, 1], [1.0, -10**400])

    @pytest.mark.parametrize("seed", range(8))
    def test_equals_the_loop_exactly(self, seed):
        rng = Splitmix64(seed)
        for k in (1, 2, 3, 50, 1000):
            costs = [rng.below(40) + 1 for _ in range(k)]  # ints, as the algorithms give
            bounds = [1.0 + 20 * rng.unit() for _ in range(k)]
            floats = [c * rng.unit() for c in costs]
            assert fit(costs, bounds) == loop_fit(costs, bounds)
            assert fit(floats, bounds) == loop_fit(floats, bounds)
            assert fit(bounds, bounds) == loop_fit(bounds, bounds)

    def test_equals_the_loop_on_constant_and_huge_series(self):
        for costs, bounds in [([5] * 7, [2.0] * 7), ([2**60 + 1] * 3, [1.0, 2.0, 3.0]),
                              ([-0.0, 0.0, 1e-300], [5e-324, 1e16, 1.0])]:
            assert fit(costs, bounds) == loop_fit(costs, bounds)
        # a constant cumulative bound leaves no spread to regress on: slope 0
        # at the mean cost, r2 1 only if the cumulative cost is constant too
        assert fit([1, 2, 3], [2.0, 0.0, 0.0]) == loop_fit([1, 2, 3], [2.0, 0.0, 0.0]) == (
            FitResult(ratio=3.0, slope=0.0, intercept=10 / 3, r2=0.0))
        assert fit([4, 0], [2.0, 0.0]) == FitResult(ratio=2.0, slope=0.0, intercept=4.0, r2=1.0)


class TestFitRange:
    @pytest.mark.parametrize("cost, bound", [
        ([1e300, 1e300], [1.0, 1.0]),  # a centred square overflows
        ([1e308, 1e308, 1.0], [1.0, 1.0, 1.0]),  # the cumulative cost overflows
        ([1.0, 2.0], [1e308, 1e308]),  # the cumulative bound overflows
    ])
    def test_series_past_the_float_range_are_a_value_error(self, cost, bound):
        with pytest.raises(ValueError, match="leave the float range in the fit"):
            fit(cost, bound)


class TestRunExperiment:
    def test_greedy_sequential_ratio(self):
        seq = generate(WorkloadSpec("sequential", 1000, 1000))
        cost, bound, fr = run_experiment(seq, "greedy")
        # greedy pays exactly 2 per access after the first; the unweighted
        # finger term for a unit step is exactly 2 as well
        assert cost.total == 2 * 1000 - 1
        assert fr.ratio == pytest.approx(1.0, rel=1e-12)
        assert fr.ratio <= 1.5

    def test_splay_single_key_trace(self):
        seq = AccessSequence(7, (1,) * 100)
        cost, bound, fr = run_experiment(seq, "splay", initial="balanced")
        assert cost.total == 102
        assert bound.total == pytest.approx(100.0)
        assert 1.0 <= fr.ratio <= 1.1

    def test_weight_scaling_leaves_fit_unchanged(self):
        seq = generate(WorkloadSpec("walk", 64, 300, seed=5, d=4))
        w = WeightAssignment(tuple(0.5 + (k % 7) * 0.25 for k in range(64)))
        _, _, a = run_experiment(seq, "greedy", w)
        _, _, b = run_experiment(seq, "greedy", w.scaled(1000.0))
        assert b.ratio == pytest.approx(a.ratio, rel=1e-9)
        assert b.slope == pytest.approx(a.slope, rel=1e-9)
        assert b.r2 == pytest.approx(a.r2, rel=1e-9)

    def test_unknown_algo(self):
        with pytest.raises(ValueError):
            run_experiment(AccessSequence(2, (1,)), "avl")
