"""Shared data model: rank-space keys, access sequences, weights, points.

Keys are dense integers 1..n. Arbitrary ordered key types are expected to be
mapped to ranks before they reach this layer; everything downstream depends
only on key order. `rank_keys` is the one map from keys to the ranks among
those present, for the structures that need only the keys in use, and
`ints_within` and `sums_rise` the one check of each kind of input column.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate, count, islice
from operator import lt
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    BadKeyspaceError,
    EmptySequenceError,
    KeyOutOfRangeError,
    TooLargeError,
)

Key = int

# The largest keyspace for a structure that holds an entry per key. A row
# sweep (`geometry.RowSweep`, so a direct `greedy.GreedyState(n)`) takes 16
# bytes a key, so n = 2^26 needs 1 GiB. `greedy.greedy_sweep` and
# `geometry.first_violation` size theirs by the distinct keys instead.
# It also bounds a generated trace's length (`workloads.WorkloadSpec`'s m):
# at 2^26 accesses the key tuple alone takes 0.5 GiB.
MAX_BUILT_N = 2 ** 26


def check_size(n: int) -> None:
    """Raise `BadKeyspaceError` unless n is an int (not a bool) with n >= 1."""
    if type(n) is not int or n < 1:
        raise BadKeyspaceError(f"keyspace size must be a positive integer, got {n!r}")


def check_built_size(n: int, what: str) -> None:
    """`check_size` for `what`, a structure about to build an entry per key,
    which also raises `TooLargeError` past MAX_BUILT_N, before it allocates."""
    check_size(n)
    if n > MAX_BUILT_N:
        raise TooLargeError(f"{what} is guarded to n <= {MAX_BUILT_N}, got n={n}")


def check_key(k: Key, n: int) -> int:
    """k as an int; raise `KeyOutOfRangeError` unless k is an integer with
    1 <= k <= n. Integer-like keys (those with `__index__`, such as numpy
    ints) pass; a bool does not."""
    if type(k) is not int:
        try:
            if isinstance(k, bool):
                raise TypeError
            k = operator.index(k)
        except TypeError:
            raise KeyOutOfRangeError(f"key {k!r} is not an integer") from None
    if not 1 <= k <= n:
        raise KeyOutOfRangeError(f"key {k} outside [1, {n}]")
    return k


def check_type(value: object, cls: type, name: str) -> None:
    """Raise `TypeError` naming the argument `name` unless value is a `cls`:
    the type check at the library's entry points."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise TypeError(f"{name} must be {article} {cls.__name__}, got {type(value).__name__}")


def rank_keys(keys: Iterable[Key]) -> tuple[list[Key], dict[Key, int]]:
    """The sorted distinct values of `keys`, and the map from each of them
    to its 1-based rank among them, built once for the caller to read."""
    distinct = sorted(set(keys))
    return distinct, dict(zip(distinct, count(1)))


def ints_within(column: Sequence, lo: int, hi: int) -> bool:
    """True iff the non-empty column holds only ints (not bools) in [lo, hi]: the key
    check of `AccessSequence`, `bounds.StaticTree`, `geometry.RowSweep`, `workloads.read_trace`."""
    return set(map(type, column)) == {int} and lo <= min(column) and max(column) <= hi


def sums_rise(sums: Sequence[float]) -> bool:
    """True iff the running sums rise strictly to a finite total; from 0.0, iff every weight
    is finite and positive, none vanishes in them and their total stays in the float range:
    the weight check of `WeightAssignment` and `workloads.read_weights`."""
    return all(map(lt, sums, islice(sums, 1, None))) and sums[-1] < math.inf


def first_bad(column: Sequence, accept: Callable[[Sequence], object]) -> int | None:
    """Index of the first entry of a non-empty column that `accept` rejects,
    or None, at the cost of one call, when it accepts the whole column.

    `accept` judges a column in builtin passes (`map`, `min`/`max`, `all`)
    and rejects by returning a false value or by raising `ValueError`,
    `TypeError`, `OverflowError` or `IndexError`, as on an entry it cannot
    convert. It must reject every column that starts with one it rejects:
    the shortest rejected prefix is then found in O(log len) more calls,
    and its last entry is the earliest to fail conversion or acceptance.
    """
    def rejects(part: Sequence) -> bool:
        try:
            return not accept(part)
        except (IndexError, OverflowError, TypeError, ValueError):
            return True

    if not rejects(column):
        return None
    return bisect_left(range(len(column)), True, key=lambda i: rejects(column[:i + 1]))


@dataclass(frozen=True)
class AccessSequence:
    """A validated stream of key accesses s_1..s_m over the keyspace 1..n."""

    n: int
    accesses: tuple[Key, ...]

    def __post_init__(self):
        check_size(self.n)
        accs = tuple(self.accesses)
        object.__setattr__(self, "accesses", accs)
        if not accs:
            raise EmptySequenceError("access sequence is empty")
        bad = first_bad(accs, lambda ks: ints_within(ks, 1, self.n))
        if bad is not None:
            fault = "is not an integer" if type(accs[bad]) is not int else f"outside [1, {self.n}]"
            raise KeyOutOfRangeError(f"access {bad + 1}: key {accs[bad]!r} {fault}")

    @property
    def m(self) -> int:
        return len(self.accesses)

    def __len__(self) -> int:
        return len(self.accesses)

    def __iter__(self) -> Iterator[Key]:
        return iter(self.accesses)

    def prefix(self, t: int) -> "AccessSequence":
        """First t accesses as a sequence over the same keyspace."""
        return AccessSequence(self.n, self.accesses[:t])


@dataclass(frozen=True)
class WeightAssignment:
    """Strictly positive per-key weights with prefix sums for range queries.

    prefix[k] holds the sum of the first k weights, prefix[0] = 0. Prefix
    entries must be strictly increasing and finite, which rules out weights
    so skewed that they vanish in the running sum, and a total past the
    float range.
    """

    weights: tuple[float, ...]
    prefix: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        weights = tuple(self.weights)
        try:
            ws = tuple(map(float, weights))
        except (OverflowError, TypeError, ValueError) as exc:
            i = first_bad(weights, lambda part: tuple(map(float, part)))
            if isinstance(exc, TypeError):  # an entry `float` refuses, such as None
                raise TypeError(f"weight {i + 1} must be a real number, "
                                f"got {type(weights[i]).__name__}") from None
            if isinstance(exc, ValueError):  # a string `float` cannot parse
                raise ValueError(f"weight {i + 1} must be a real number, "
                                 f"got {weights[i]!r}") from None
            # an int or fraction past the float range
            raise ValueError(f"weight {i + 1} is past the float range; "
                             "rescale the vector") from None
        if not ws:
            raise BadKeyspaceError("weight vector is empty")
        object.__setattr__(self, "weights", ws)
        prefix = tuple(accumulate(ws, initial=0.0))
        i = first_bad(prefix, sums_rise)
        if i is not None:  # prefix[i] is the first bad sum, and weight i broke it
            w = ws[i - 1]
            if not 0.0 < w < math.inf:
                raise ValueError(f"weight {i} must be a finite positive number, got {w!r}")
            fault = ("takes the prefix sum past the float range" if prefix[i] == math.inf
                     else "vanishes in the prefix sum")
            raise ValueError(f"weight {i} {fault}; rescale the vector")
        object.__setattr__(self, "prefix", prefix)

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def total(self) -> float:
        return self.prefix[-1]

    def weight(self, k: Key) -> float:
        k = check_key(k, self.n)
        return self.weights[k - 1]

    def range_weight(self, a: Key, b: Key) -> float:
        a = check_key(a, self.n)
        b = check_key(b, self.n)
        lo, hi = (a, b) if a <= b else (b, a)
        return self.prefix[hi] - self.prefix[lo - 1]

    def scaled(self, alpha: float) -> "WeightAssignment":
        return WeightAssignment(tuple(w * alpha for w in self.weights))


class Point(NamedTuple):
    """A (key, time) point in the geometric access model."""

    key: Key
    time: int


class PointSet:
    """Immutable set of distinct points, the input format of the geometric
    checks.

    Coordinates are positive integers (anything `operator.index` accepts but a bool).
    Rows are held in increasing time, each as its sorted keys. Iteration
    order is (time, key), which every listing operation relies on for
    determinism.
    """

    __slots__ = ("_points", "_rows")

    def __init__(self, points: Iterable[Point]):
        pts = frozenset(map(_point, points))
        rows: dict[int, list[int]] = {}
        for k, t in pts:
            rows.setdefault(t, []).append(k)
        self._points = pts
        self._rows = {t: tuple(sorted(rows[t])) for t in sorted(rows)}

    @property
    def points(self) -> frozenset[Point]:
        return self._points

    @property
    def times(self) -> tuple[int, ...]:
        return tuple(self._rows)

    def row_keys(self, t: int) -> tuple[int, ...]:
        return self._rows.get(t, ())

    def __len__(self) -> int:
        return len(self._points)

    def __contains__(self, p: object) -> bool:
        return p in self._points

    def __iter__(self) -> Iterator[Point]:
        for t, ks in self._rows.items():
            for k in ks:
                yield Point(k, t)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PointSet):
            return self._points == other._points
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._points)

    def __repr__(self) -> str:
        return f"PointSet({list(self)!r})"


def _point(p: tuple[Key, int]) -> Point:
    """The point p = (k, t); a `ValueError` naming it unless it is a pair of
    positive integers (a bool is not one)."""
    try:
        k, t = p
        # tuple.__new__ skips the NamedTuple constructor's Python frame
        q = tuple.__new__(Point, (operator.index(k), operator.index(t)))
        if q.key >= 1 and q.time >= 1 and type(k) is not bool and type(t) is not bool:
            return q
    except (TypeError, ValueError):
        pass
    raise ValueError(f"point {p!r} needs positive integer coordinates")


@dataclass(frozen=True)
class CostReport:
    """Per-access integer costs of one algorithm run."""

    per_access: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.per_access)

    def __len__(self) -> int:
        return len(self.per_access)


@dataclass(frozen=True)
class BoundReport:
    """Per-access bound terms t_i and their total."""

    per_access: tuple[float, ...]

    @property
    def total(self) -> float:
        return sum(self.per_access)

    def __len__(self) -> int:
        return len(self.per_access)
