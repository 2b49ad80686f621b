"""Exact minimum arborally satisfied superset for tiny instances.

A depth-first search over rows: row t is one of the `RowSweep.completions` of
access t, by increasing count of other keys, folded into a copy of the sweep
over the rows before it, and a failed row drops every extension through it. The
search deepens iteratively on `spare`, the total of other keys the rows may
add, from 0 up, and the last row takes exactly the keys still spare. So the
first total that completes row m is the least, and the accesses plus those rows
form a satisfied superset of provably minimum size, m + spare: the one witness
built as a `PointSet`. Guarded to n, m <= 5: the search is exponential in n·m.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count

from .core import AccessSequence, Key, Point, PointSet, check_type
from .errors import TooLargeError
from .geometry import RowSweep

MAX_N = 5
MAX_M = 5


@dataclass(frozen=True)
class OptResult:
    """Minimum superset size together with one witness set."""

    size: int
    witness: PointSet = field(repr=False)


def opt_satisfied_superset(seq: AccessSequence) -> OptResult:
    check_type(seq, AccessSequence, "seq")
    if seq.n > MAX_N or seq.m > MAX_M:
        raise TooLargeError(
            f"exact optimum is guarded to n <= {MAX_N}, m <= {MAX_M}; got n={seq.n}, m={seq.m}"
        )
    accesses = seq.accesses
    m = len(accesses)

    def rows_after(sweep: RowSweep, spare: int) -> list[list[Key]] | None:
        # the rows after the sweep's, holding `spare` other keys in all; every
        # smaller total has failed, so the last row takes all that is left
        t = sweep.time + 1
        for extra in range(spare + 1) if t < m else (spare,):
            for row in sweep.completions(accesses[t - 1], extra):
                if t == m:
                    return [row]
                later = sweep.copy()
                later._fold(row, t)
                rest = rows_after(later, spare - extra)
                if rest is not None:
                    return [row, *rest]
        return None

    for spare in count():
        rows = rows_after(RowSweep(seq.n), spare)
        if rows is not None:
            witness = PointSet(Point(k, t) for t, row in enumerate(rows, start=1) for k in row)
            return OptResult(m + spare, witness)
