"""Exact minimum arborally satisfied superset for tiny instances.

Takes the first answer of `geometry.minimum_supersets` over the grid
{1..n} x {1..m}, searched on an empty `RowSweep(n)`: it tries the added
points by increasing count, so the accesses plus the first points it adds
form a satisfied superset of provably minimum size, the one witness built
as a `PointSet`. The grid points are listed time-major, so the search
checks each row once its added points are chosen and skips every extension
of a choice whose row fails: a row's verdict depends only on the rows at or
before it. Guarded to n, m <= 5; the grid blow-up is factorial beyond that.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import AccessSequence, Point, PointSet
from .errors import TooLargeError
from .geometry import RowSweep, minimum_supersets

MAX_N = 5
MAX_M = 5


@dataclass(frozen=True)
class OptResult:
    """Minimum superset size together with one witness set."""

    size: int
    witness: PointSet = field(repr=False)


def opt_satisfied_superset(seq: AccessSequence) -> OptResult:
    if seq.n > MAX_N or seq.m > MAX_M:
        raise TooLargeError(
            f"exact optimum is guarded to n <= {MAX_N}, m <= {MAX_M}; got n={seq.n}, m={seq.m}"
        )
    base = [Point(k, t) for t, k in enumerate(seq, start=1)]
    taken = set(base)
    free = [
        Point(k, t)
        for t in range(1, seq.m + 1)
        for k in range(1, seq.n + 1)
        if Point(k, t) not in taken
    ]
    added = next(minimum_supersets(base, free, RowSweep(seq.n)))
    return OptResult(len(base) + len(added), PointSet(base + added))
