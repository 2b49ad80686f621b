"""Seeded workload generators and trace file ingestion.

All randomness flows through a self-contained splitmix-style 64-bit mixer so
that traces are bit-reproducible across platforms and implementations. The
generator state advances by the odd constant 0x9E3779B97F4A7C15 and each
output is finalized with

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

with all arithmetic modulo 2^64. A draw below a bound of at most 2^64 is one
output reduced modulo the bound. Past 2^64, it is one output more than the
bound has 64-bit words, read as one integer, first output highest, and then
reduced. Unit-interval draws use the top 53 bits scaled by 2^-53. All of this
is part of the reproducibility contract. One `Splitmix64.keys` call draws a
uniform trace's keys, or a walk's steps; walk and zipf_finger step one finger.

Trace file format: line 1 is "n m", then m lines with one key each.
Weights file format: n lines, one strictly positive decimal per line.
`write_text` is the package's one output, to a file or to stdout.

Files are converted and written a whole column at a time, in builtin passes
(`map`, one `%` over a whole column) with no per-line Python loop. The values
are checked once, by `AccessSequence` and `WeightAssignment`; when they
reject a file, `core.first_bad` finds its first bad line by their column
checks, `core.ints_within` and `core.sums_rise`, on converted lines.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import Iterable

from .core import (MAX_BUILT_N, AccessSequence, Key, WeightAssignment, check_type, first_bad,
                   ints_within, sums_rise)
from .errors import BadSpecError, TraceParseError

_WORD = 1 << 64
_MASK = _WORD - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

WORKLOAD_KINDS = ("sequential", "uniform", "walk", "zipf_finger", "bit_reversal")


class Splitmix64:
    """The package's only pseudo-random generator; see the module docstring."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        """seed is any int, not a bool; it is taken modulo 2^64."""
        if type(seed) is not int:
            raise ValueError(f"seed must be an integer, got {seed!r}")
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform-ish integer in [0, bound) by modulo; bound is an int >= 1, not a bool.
        Past 2^64 the one word drawn beyond the bound's own keeps the modulo
        bias below 2^-64."""
        if _check_bound(bound) <= _WORD:
            return self.next_u64() % bound
        z = 0
        for _ in range(-(-bound.bit_length() // 64) + 1):
            z = z << 64 | self.next_u64()
        return z % bound

    def keys(self, n: int, m: int) -> tuple[int, ...]:
        """m draws of `below(n) + 1`, in order, with n checked once and m a
        non-negative int, not a bool: a uniform trace over the keys 1..n, or
        a walk's steps, drawn over 1..2d (see `generate`)."""
        if type(m) is not int or m < 0:
            raise ValueError(f"m must be a non-negative integer, got {m!r}")
        if _check_bound(n) > _WORD:
            return tuple([self.below(n) + 1 for _ in range(m)])
        draw = self.next_u64
        return tuple([draw() % n + 1 for _ in range(m)])

    def unit(self) -> float:
        """Float in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53


def _check_bound(bound: int) -> int:
    if type(bound) is not int or bound < 1:
        raise ValueError(f"bound must be a positive integer, got {bound!r}")
    return bound


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of one deterministic workload."""

    kind: str
    n: int
    m: int
    seed: int = 0
    d: int | None = None          # walk: maximum step size
    theta: float | None = None    # zipf_finger: step-length exponent

    def __post_init__(self):
        if self.kind not in WORKLOAD_KINDS:
            raise BadSpecError(f"unknown workload kind {self.kind!r}")
        for name in ("n", "m", "seed", "d"):
            value = getattr(self, name)
            if type(value) is not int and not (name == "d" and value is None):
                raise BadSpecError(f"{name} must be an integer, got {value!r}")
        if type(self.theta) not in (int, float) and self.theta is not None:
            raise BadSpecError(f"theta must be a number, got {self.theta!r}")
        if self.n < 1 or self.m < 1:
            raise BadSpecError(f"n and m must be positive, got n={self.n}, m={self.m}")
        if self.m > MAX_BUILT_N:  # generate builds all m keys
            raise BadSpecError(f"{self.kind} is guarded to m <= {MAX_BUILT_N}, got m={self.m}")
        if self.kind == "walk":
            if self.d is None or self.d < 1:
                raise BadSpecError("walk workloads need a step bound d >= 1")
        if self.kind == "zipf_finger":
            if self.theta is None or not self.theta > 0:
                raise BadSpecError("zipf_finger workloads need an exponent theta > 0")
            if self.n > MAX_BUILT_N:  # its step table has n - 1 entries
                raise BadSpecError(
                    f"zipf_finger is guarded to n <= {MAX_BUILT_N}, got n={self.n}")
        if self.kind == "bit_reversal":
            if self.n & (self.n - 1):
                raise BadSpecError(f"bit_reversal needs n to be a power of two, got {self.n}")
            if self.m != self.n:
                raise BadSpecError(f"bit_reversal needs m = n, got m={self.m}, n={self.n}")


def generate(spec: WorkloadSpec) -> AccessSequence:
    """Materialize the access sequence for a spec; pure given the spec. walk
    (its steps one `Splitmix64.keys` call) and zipf_finger step `_finger_walk`."""
    check_type(spec, WorkloadSpec, "spec")
    n, m = spec.n, spec.m
    if spec.kind == "sequential":
        return AccessSequence(n, tuple((i % n) + 1 for i in range(m)))
    if spec.kind == "bit_reversal":  # i's width-bit binary digits, read backwards
        width = n.bit_length() - 1
        return AccessSequence(n, tuple(int(f"{i:0{width}b}"[::-1], 2) + 1 for i in range(n)))
    rng = Splitmix64(spec.seed)
    if spec.kind == "uniform":
        return AccessSequence(n, rng.keys(n, m))
    if spec.kind == "walk":  # steps -d..-1 and 1..d, uniform, from the draws 1..2d
        d = spec.d
        return _finger_walk(n, [k - d - 1 if k <= d else k - d for k in rng.keys(2 * d, m - 1)])
    # zipf_finger: step length k drawn with P(k) proportional to k^-theta
    # over 1..n-1 (1 alone when n = 1), direction uniform
    cum = list(accumulate(float(k) ** -spec.theta for k in range(1, max(n, 2))))
    total = cum[-1]
    steps = []
    for _ in range(m - 1):
        step = bisect_left(cum, rng.unit() * total) + 1
        steps.append(-step if rng.next_u64() & 1 else step)
    return _finger_walk(n, steps)


def _finger_walk(n: int, steps: list[int]) -> AccessSequence:
    """The keys a finger visits from (n + 1) // 2, taking each step clamped to 1..n."""
    key = (n + 1) // 2
    out = [key]
    for step in steps:
        key += step
        if not 0 < key <= n:
            key = 1 if key < 1 else n
        out.append(key)
    return AccessSequence(n, tuple(out))


def read_ascii_lines(path: str | Path) -> list[str]:
    """The lines of an ASCII text file; a non-ASCII byte raises
    `TraceParseError` naming its line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("ascii").splitlines()
    except UnicodeDecodeError as exc:  # "x" stands in for the bad byte
        line = len((data[:exc.start] + b"x").decode("ascii").splitlines())
        raise TraceParseError(line, f"non-ASCII byte {data[exc.start]:#04x}", path) from None


def read_trace(path: str | Path) -> AccessSequence:
    """Parse a trace file, reporting the offending line and the path on any
    defect."""
    lines = read_ascii_lines(path)
    if not lines:
        raise TraceParseError(1, "empty trace file; expected 'n m' header", path)
    head = lines[0].split()
    if len(head) != 2:
        raise TraceParseError(1, f"expected 'n m' header, got {lines[0]!r}", path)
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise TraceParseError(1, f"expected integer header fields, got {lines[0]!r}",
                              path) from None
    if n < 1 or m < 1:
        raise TraceParseError(1, f"n and m must be positive, got n={n}, m={m}", path)
    if len(lines) != m + 1:
        raise TraceParseError(len(lines) + 1 if len(lines) < m + 1 else m + 2,
                              f"expected {m} access lines after the header, found {len(lines) - 1}",
                              path)
    del lines[0]
    try:
        return AccessSequence(n, tuple(map(int, lines)))
    except ValueError:
        bad = first_bad(lines, lambda rows: ints_within(tuple(map(int, rows)), 1, n))
    raw = lines[bad]
    try:
        key = int(raw)
    except ValueError:
        raise TraceParseError(bad + 2, f"expected one integer key, got {raw!r}", path) from None
    raise TraceParseError(bad + 2, f"key {key} out of range [1, {n}]", path)


def write_trace(seq: AccessSequence, path: str | Path | None) -> None:
    """Write a trace file to `path`, or to stdout when path is None; one `%`
    formats all m key lines."""
    check_type(seq, AccessSequence, "seq")
    write_text(path, (f"{seq.n} {seq.m}\n", ("%s\n" * seq.m) % seq.accesses))


def write_text(path: str | Path | None, chunks: Iterable[str]) -> None:
    """Write the chunks to stdout when path is None, else to the file `path`
    as ASCII with newline line ends. An int path (a bool too) raises
    `TypeError` before anything is opened: `open` would use and close that fd."""
    if path is None:
        sys.stdout.writelines(chunks)  # looked up per call, so a replaced stdout is used
        return
    if isinstance(path, int):
        raise TypeError(f"path must be a str or os.PathLike, got {type(path).__name__}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.writelines(chunks)


def read_weights(path: str | Path) -> WeightAssignment:
    """Parse a weights file: one strictly positive decimal per line."""
    lines = read_ascii_lines(path)
    if not lines:
        raise TraceParseError(1, "empty weights file", path)
    try:
        return WeightAssignment(lines)  # which converts each line with `float`
    except ValueError:
        bad = first_bad(lines, lambda rows: sums_rise((0.0, *accumulate(map(float, rows)))))
    raw = lines[bad]
    try:
        w = float(raw)
    except ValueError:
        raise TraceParseError(bad + 1, f"expected one decimal weight, got {raw!r}", path) from None
    if not 0.0 < w < math.inf:
        raise TraceParseError(bad + 1, f"weight must be finite and positive, got {raw!r}", path)
    # the weight is fine, so the sum of those before it vanishes it or overflows
    overflows = math.inf in accumulate(map(float, lines[:bad + 1]))
    fault = ("takes the running sum past the float range" if overflows
             else "vanishes in the running sum")
    raise TraceParseError(bad + 1, f"weight {raw!r} {fault}; rescale the weights", path)


def write_weights(w: WeightAssignment, path: str | Path | None) -> None:
    """Write a weights file, one repr a line, to `path`, or to stdout when None."""
    check_type(w, WeightAssignment, "w")
    write_text(path, (("%r\n" * w.n) % w.weights,))
