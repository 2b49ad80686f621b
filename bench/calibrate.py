"""A fixed pure-Python workload that measures the speed of the machine.

The benchmark runs on shared machines whose speed drifts by a third within
minutes, and the drift hits all interpreted code alike. `calibrate` times a
fixed mix of the interpreter work the package does (integer hashing into a
dict, attribute reads and keyed sorts on small objects, tuple and frozenset
building, recursive calls, and a binary search feeding a set), using nothing
of the package, so that a change to the package does not move it. `Sampler`
times it at a fixed interval while the runner measures, and the runner scales
each round's times by the median calibration time within that round.
"""

from __future__ import annotations

import gc
import signal
from time import perf_counter


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b


def _hashing() -> int:
    counts: dict[int, int] = {}
    acc = 0
    for i in range(3000):
        k = (i * 2654435761) & 0xFFFF
        counts[k] = counts.get(k, 0) + 1
        acc += k >> 3
    items = sorted(counts.items(), key=lambda kv: (kv[1], -kv[0]))
    return acc + sum(a * b for a, b in items)


def _objects() -> int:
    pairs = [_Pair(i, i ^ 5) for i in range(3000)]
    acc = sum(p.a * p.b if p.a & 1 else p.b for p in pairs)
    pairs.sort(key=lambda p: (p.b, p.a))
    return acc + pairs[0].a


def _sets() -> int:
    acc = 0
    for i in range(800):
        s = frozenset((j, i & 7) for j in range(8))
        acc += len(s) + ((i & 7, 1) in s)
    return acc


def _fib(n: int) -> int:
    return n if n < 2 else _fib(n - 1) + _fib(n - 2)


def _search() -> int:
    keys = sorted({(i * 7919) % 4093 for i in range(1500)})
    seen: dict[int, int] = {}
    marks = set()
    for i in range(1500):
        x = (i * 40503) % 4093
        lo, hi = 0, len(keys)
        while lo < hi:
            mid = (lo + hi) // 2
            if keys[mid] < x:
                lo = mid + 1
            else:
                hi = mid
        seen[x] = seen.get(x, 0) + lo
        if lo & 1:
            marks.add((x, lo))
        else:
            marks.discard((x - 1, lo))
    return len(seen) + len(marks)


def calibrate() -> float:
    """Seconds taken by the fixed mix, with the collector off so that the
    size of the heap left by earlier work does not change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _hashing()
        _objects()
        _sets()
        _fib(18)
        _search()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Times `calibrate` every `interval` seconds from a SIGALRM handler, so
    that calibrations are spread evenly in time, inside long operations too.

    `times` holds each calibration's time and `spent` their total including
    the handler, which the runner takes off the time of whatever the
    calibrations interrupted. Signal handlers run in the main thread between
    bytecodes, so no thread is started.
    """

    def __init__(self, interval: float):
        self.interval = interval
        self.times: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self.times.append(calibrate())
        self.spent += perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
