"""Experiment driver: run an algorithm, evaluate its bound, fit constants.

Constant fitting works on cumulative cost and cumulative bound series, since
amortized bounds only constrain prefix sums. The fit reports the totals
quotient plus a least-squares slope/intercept/r2 of cumulative cost against
cumulative bound.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate, islice

from .core import (AccessSequence, BoundReport, CostReport, WeightAssignment, check_type,
                   first_bad)
from .errors import DimensionMismatchError
from .bounds import START_SELF, weighted_df_bound
from .greedy import greedy_cost
from .splay import run_splay

ALGORITHMS = ("greedy", "splay")


@dataclass(frozen=True)
class FitResult:
    ratio: float
    slope: float
    intercept: float
    r2: float


def fit(cost_series: Sequence[float], bound_series: Sequence[float]) -> FitResult:
    """Fit cumulative cost against cumulative bound. Every value must be
    finite, the bound total positive, and the fit's sums of centred squares
    within the float range."""
    check_type(cost_series, Sequence, "cost_series")
    check_type(bound_series, Sequence, "bound_series")
    if len(cost_series) != len(bound_series):
        raise DimensionMismatchError(
            f"series lengths differ: {len(cost_series)} vs {len(bound_series)}"
        )
    if not cost_series:
        raise DimensionMismatchError("series are empty")
    for name, series in (("cost", cost_series), ("bound", bound_series)):
        # an int too large for a float makes `isfinite` raise, and counts as bad
        bad = first_bad(series, lambda vs: all(map(math.isfinite, vs)))
        if bad is not None:
            raise ValueError(f"{name}[{bad}] = {series[bad]!r} is not finite")
    # cumulative sums from 0.0, so int costs add as floats
    cum_c = list(islice(accumulate(cost_series, initial=0.0), 1, None))
    cum_b = list(islice(accumulate(bound_series, initial=0.0), 1, None))
    tc, tb = cum_c[-1], cum_b[-1]
    if not tb > 0:
        raise ValueError(f"bound total must be positive, got {tb!r}")
    ratio = tc / tb
    k = len(cum_c)
    if k == 1:
        return FitResult(ratio=ratio, slope=ratio, intercept=0.0, r2=1.0)
    mx = sum(cum_b) / k
    my = sum(cum_c) / k
    try:
        sxx = sum((x - mx) ** 2 for x in cum_b)
        syy = sum((y - my) ** 2 for y in cum_c)
        sxy = sum((x - mx) * (y - my) for x, y in zip(cum_b, cum_c))
    except OverflowError:  # a centred square past the float range
        sxx = syy = sxy = math.inf
    if not (math.isfinite(sxx * syy) and math.isfinite(sxy * sxy)):
        raise ValueError("the cumulative series leave the float range in the fit; rescale them")
    if sxx == 0.0:
        slope = 0.0
        intercept = my
        r2 = 1.0 if syy == 0.0 else 0.0
    else:
        slope = sxy / sxx
        intercept = my - slope * mx
        r2 = 1.0 if syy == 0.0 else min(1.0, (sxy * sxy) / (sxx * syy))
    return FitResult(ratio=ratio, slope=slope, intercept=intercept, r2=r2)


def run_experiment(
    seq: AccessSequence,
    algo: str,
    weights: WeightAssignment | None = None,
    start: str = START_SELF,
    initial: str = "balanced",
) -> tuple[CostReport, BoundReport, FitResult]:
    """Execute one algorithm on a sequence and fit its cost to the bound.

    weights=None means equal weights. `initial` only matters for splay.
    """
    if algo not in ALGORITHMS:
        raise ValueError(f"algo must be one of {ALGORITHMS}, got {algo!r}")
    cost = greedy_cost(seq) if algo == "greedy" else run_splay(seq, initial)
    bound = weighted_df_bound(seq, weights, start)
    return cost, bound, fit(cost.per_access, bound.per_access)
