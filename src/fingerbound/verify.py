"""Self-check suites runnable from the CLI, and the check routines they
share with the acceptance tests.

Each suite regenerates its instances from a seed, checks one family of
invariants, and reports a pass/fail verdict with the first counterexample if
any. Suites are deterministic given the seed. Between them the six suites
exercise every library invariant:

    satisfaction  greedy output is satisfied and covers the accesses; the
                  sweep checker agrees with the pair-listing oracle
    minimality    greedy rows equal the exhaustive minimum completion,
                  which is unique (exhaustive n, m <= 5)
    opt           the exact optimum never exceeds greedy and its witness
                  is a satisfied superset (exhaustive n, m <= 4)
    depth         weighted-median tree depth bound, plus the bound
                  calculator against naive re-evaluation, scale invariance,
                  term symmetry, and static-tree cost cross-checks
    roundtrip     trace IO identity, generator determinism, key ranges,
                  walk/zipf locality statistics
    differential  staircase fast path vs linear scan, splay vs the
                  parent-free reference, in-order and rotation invariants,
                  online prefix consistency

The suites are built from check routines that raise `CheckFailure` naming
the first counterexample and return how many instances they checked; the
random ones take their seeded generator, and each fixes its own sizes. A
suite yields each count with its report line. Each routine is also the one
copy of its check in the tests, which call it (with their own seeds) and
pin the returned count; test_c* is in tests/test_acceptance.py:

    check_greedy_satisfied   satisfaction suite; test_c01_satisfaction
    check_sweep_routes       satisfaction suite; tests/test_geometry.py
    check_greedy_minimality  minimality suite;   test_c02_greedy_minimality
    check_opt_dominance      opt suite;          test_c03_opt_dominance
    check_depth_bound        depth suite;        test_c09_tree_depth_bound
    check_bound_terms        depth suite;        test_c04_bound_calculator
    check_bound_invariants   depth suite;        test_c04_bound_calculator
    check_best_static        depth suite;        tests/test_bounds.py
    check_roundtrip          roundtrip suite;    test_c11_reproducibility
    check_locality           roundtrip suite;    tests/test_workloads.py
    check_greedy_fast_path   differential suite; tests/test_greedy.py
    check_splay_reference    differential suite; tests/test_splay.py
    check_splay_invariants   differential suite; test_c10_splay_baseline

`check_greedy_satisfied` checks each greedy row, in `GreedyState.step`'s
fold, against the state greedy holds just before committing it, by the gap
test (`RowSweep.failing_gap`); only a failing row builds its witness, and
no second sweep replays the rows (the tests cross-check a replay). The
rows' own checks are builtin passes over greedy's flat log.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass, field
from itertools import accumulate, compress, count, islice, product
from operator import contains, ge
from pathlib import Path
from typing import Iterator, Sequence

from .core import AccessSequence, Key, Point, PointSet, WeightAssignment
from .bounds import (
    INITIAL_SHAPES,
    START_ROOT,
    best_static_finger_cost,
    dynamic_finger_bound,
    iter_bsts,
    static_finger_cost,
    tree_from_weights,
    weighted_df_bound,
    weights_from_tree,
    wdf_term,
)
from .geometry import RowSweep, is_arborally_satisfied, unsatisfied_pairs
from .greedy import (
    GreedyState,
    brute_min_row,
    greedy_cost,
    greedy_row,
    greedy_row_reference,
    greedy_sweep,
)
from .opt import opt_satisfied_superset
from .splay import SplayTree, run_splay, run_splay_reference
from .workloads import Splitmix64, WorkloadSpec, generate, read_trace, write_trace


@dataclass
class SuiteReport:
    suite: str
    passed: bool
    checked: int
    details: list[str] = field(default_factory=list)


class CheckFailure(Exception):
    """A self-check found a counterexample; the message names it."""


def run_suite(suite: str, seed: int = 1) -> SuiteReport:
    try:
        fn = _SUITE_FNS[suite]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}") from None
    try:
        counted = list(fn(seed))
    except CheckFailure as exc:
        return SuiteReport(suite, False, 0, [str(exc)])
    return SuiteReport(suite, True, sum(n for n, _ in counted), [line for _, line in counted])


def _random_sequence(rng: Splitmix64, max_n: int, max_m: int) -> AccessSequence:
    n = rng.below(max_n) + 1
    m = rng.below(max_m) + 1
    return AccessSequence(n, rng.keys(n, m))


class _CheckedGreedy(GreedyState):
    """Greedy's sweep that checks each row against the rows before it, in
    the state greedy already holds, just before committing it; `bad` is the
    first violating pair, or None."""

    __slots__ = ("bad",)

    def __init__(self, n: int):
        super().__init__(n)
        self.bad: tuple[Point, Point] | None = None

    def _fold(self, row: Sequence[Key], t: int) -> None:
        if self.bad is None and self.failing_gap(row) is not None:
            self.bad = self.violation(row, t)
        RowSweep._fold(self, row, t)


def _greedy_violation(seq: AccessSequence) -> tuple[GreedyState, tuple[Point, Point] | None]:
    """Greedy's final state on seq, and the first violating pair of its rows:
    the pair `geometry.first_violation` finds on the emitted point set,
    since each row is checked against the same committed rows."""
    state = _CheckedGreedy(seq.n)
    for x in seq:
        state.step(x)
    return state, state.bad


def check_greedy_satisfied(rng: Splitmix64) -> int:
    """Greedy output on 1000 random sequences (n <= 64, m <= 256) and on every
    sequence with n, m <= 4 is arborally satisfied; on the random ones it
    also holds every access point and one point per unit of cost, at least
    one per row, each row's keys strictly increasing."""
    checked = 0
    for _ in range(1000):
        seq = _random_sequence(rng, 64, 256)
        state, bad = _greedy_violation(seq)
        if bad is not None:
            raise CheckFailure(f"violating pair {bad} on sequence {seq.accesses}")
        log, cost = state._tracked_log(), state.per_row_cost
        ends = list(accumulate(cost))
        # builtin passes over the flat log: its descents fall on row ends only,
        # and each row's slice holds its access
        if not (min(cost) >= 1 and ends[-1] == len(log)
                and set(compress(count(1), map(ge, log, islice(log, 1, None)))).issubset(ends)
                and all(map(contains, map(log.__getitem__, map(slice, [0, *ends], ends)),
                            seq.accesses))):
            raise CheckFailure(_greedy_rows_fault(state, seq))
        checked += 1
    for n, m in product(range(1, 5), repeat=2):
        for accesses in product(range(1, n + 1), repeat=m):
            if _greedy_violation(AccessSequence(n, accesses))[1] is not None:
                raise CheckFailure(f"unsatisfied output on {accesses}")
            checked += 1
    return checked


def _greedy_rows_fault(state: GreedyState, seq: AccessSequence) -> str:
    """The first fault of greedy's logged rows on seq that
    `check_greedy_satisfied`'s passes found, row by row."""
    for (t, row), k in zip(state.rows(), seq):
        if k not in row:
            return f"access point ({k},{t}) missing on {seq.accesses}"
        if row != sorted(set(row)):
            return f"row {t} repeats or misorders keys on {seq.accesses}"
    if min(state.per_row_cost) < 1:
        return f"zero-cost row on {seq.accesses}"
    return f"cost total disagrees with point count on {seq.accesses}"


def check_sweep_routes(rng: Splitmix64) -> int:
    """The sweep checker and the pair-listing oracle agree on 800 random
    point sets on a 9 x 9 grid, and both pass 16 degenerate lines."""
    for _ in range(800):
        pts = {Point(rng.below(9) + 1, rng.below(9) + 1)
               for _ in range(rng.below(13))}
        pset = PointSet(pts)
        if is_arborally_satisfied(pset) != (unsatisfied_pairs(pset) == []):
            raise CheckFailure(f"checker routes disagree on {sorted(pts)}")
    for v in range(1, 9):
        for line in (PointSet(Point(v, t + 1) for t in range(6)),
                     PointSet(Point(k + 1, v) for k in range(6))):
            if not is_arborally_satisfied(line) or unsatisfied_pairs(line):
                raise CheckFailure(f"degenerate line {sorted(line)} misclassified")
    return 816


def _suite_satisfaction(seed: int) -> Iterator[tuple[int, str]]:
    rng = Splitmix64(seed)
    checked = check_greedy_satisfied(rng)
    yield checked, f"greedy satisfied on {checked} instances (1000 random + exhaustive n,m <= 4)"
    agree = check_sweep_routes(rng)
    yield agree, f"checker routes agreed on {agree} point sets"


def check_greedy_minimality() -> int:
    """Every greedy row of every sequence with n, m <= 5 equals the
    exhaustive minimum completion, and that minimum is unique. Returns the
    number of rows checked, over all those sequences.

    Greedy is online: row t, and the minimum completion it is compared
    with, depend only on the prefix s_1..s_t. So the check walks the tree
    of prefixes depth first, once per n, and checks each prefix once: a
    node runs `brute_min_row` on its parent's `GreedyState`, which searches
    row t on top of it, so the search checks that row only, and leaves it
    unchanged; then a copy of the state steps on, and the walk recurses
    while t < 5. Every earlier row is a satisfied minimum completion
    already checked at an ancestor, so the committed rows need no check of
    their own. A prefix of length t is row t of the
    sum(n**e for e <= 5 - t) sequences of length <= 5 that extend it, and
    counts that often. A failure names the first failing prefix in
    depth-first order; every shorter prefix of it has passed."""

    def rows_after(state: GreedyState, prefix: tuple[int, ...]) -> int:
        n, t = state.n, len(prefix) + 1
        extensions = sum(n ** e for e in range(6 - t))
        counted = 0
        for x in range(1, n + 1):
            accesses = (*prefix, x)
            try:
                oracle = brute_min_row(state, x)
            except ValueError:
                raise CheckFailure(f"non-unique minimal row at t={t} of {accesses}") from None
            child = state.copy()
            row = child.step(x)
            if row != oracle:
                raise CheckFailure(
                    f"row mismatch at t={t} of {accesses}: greedy {row} vs oracle {oracle}")
            counted += extensions
            if t < 5:
                counted += rows_after(child, accesses)
        return counted

    return sum(rows_after(GreedyState(n, track_points=False), ()) for n in range(1, 6))


def _suite_minimality(seed: int) -> Iterator[tuple[int, str]]:
    checked = check_greedy_minimality()
    yield checked, f"{checked} rows matched the exhaustive oracle (unique minimum each)"


def check_opt_dominance() -> tuple[int, float, tuple[int, ...]]:
    """On every sequence with n, m <= 4 the exact optimum's witness is a
    satisfied superset of the accesses no larger than greedy's output.
    Returns the number of sequences, the largest greedy/opt ratio and the
    first sequence reaching it."""
    checked = 0
    worst = 0.0
    worst_seq: tuple[int, ...] = ()
    for n in range(1, 5):
        for m in range(1, 5):
            for accesses in product(range(1, n + 1), repeat=m):
                seq = AccessSequence(n, accesses)
                greedy_size = greedy_cost(seq).total
                res = opt_satisfied_superset(seq)
                if not is_arborally_satisfied(res.witness):
                    raise CheckFailure(f"opt witness unsatisfied on {accesses}")
                if res.size < seq.m:
                    raise CheckFailure(f"opt dropped an access point on {accesses}")
                if any(Point(k, t) not in res.witness
                       for t, k in enumerate(seq, start=1)):
                    raise CheckFailure(f"opt witness misses an access on {accesses}")
                if res.size > greedy_size:
                    raise CheckFailure(
                        f"opt {res.size} exceeds greedy {greedy_size} on {accesses}")
                ratio = greedy_size / res.size
                if ratio > worst:
                    worst = ratio
                    worst_seq = accesses
                checked += 1
    return checked, worst, worst_seq


def _suite_opt(seed: int) -> Iterator[tuple[int, str]]:
    checked, worst, worst_seq = check_opt_dominance()
    yield checked, f"{checked} instances; max greedy/opt ratio {worst:.6f} on {worst_seq}"


def check_depth_bound(rng: Splitmix64) -> int:
    """The weighted-median tree of 1000 random weight vectors (n <= 512,
    weights in [0.5, 2]) puts every key i at depth <= log2(W / w_i) + 1."""
    checked = 0
    for _ in range(1000):
        n = rng.below(512) + 1
        w = WeightAssignment(tuple(0.5 + 1.5 * rng.unit() for _ in range(n)))
        tree = tree_from_weights(w)
        for k in range(1, n + 1):
            limit = math.log2(w.total / w.weight(k)) + 1.0
            if tree.depth[k] > limit + 1e-9:
                raise CheckFailure(f"depth({k})={tree.depth[k]} exceeds {limit:.6f} for n={n}")
        checked += 1
    return checked


def check_bound_terms(rng: Splitmix64) -> int:
    """The weighted finger terms of 1000 random sequences (n <= 128, m <= 64,
    weights in [0.5, 2]) are at least 1 and within relative 1e-12 of a naive
    `fsum` re-evaluation."""
    for _ in range(1000):
        n = rng.below(128) + 1
        m = rng.below(64) + 1
        w = WeightAssignment(tuple(0.5 + 1.5 * rng.unit() for _ in range(n)))
        seq = AccessSequence(n, rng.keys(n, m))
        report = weighted_df_bound(seq, w)
        prev = seq.accesses[0]
        for i, cur in enumerate(seq.accesses):
            if i == 0:
                naive = 1.0
            else:
                lo, hi = min(prev, cur), max(prev, cur)
                num = math.fsum(w.weights[lo - 1:hi])
                naive = 1.0 + math.log2(num / min(w.weight(prev), w.weight(cur)))
            got = report.per_access[i]
            if got < 1.0 or abs(got - naive) > 1e-12 * max(1.0, abs(naive)):
                raise CheckFailure(f"term {i} = {got} vs naive {naive} on {seq.accesses}")
            prev = cur
    return 1000


def check_bound_invariants(rng: Splitmix64) -> int:
    """On 1000 random sequences (n <= 256, m <= 64, weights in [0.25, 2]):
    scaling every weight by 1000, 0.001 or 3.7 moves no term by more than
    1e-9 (relative, above 1); a random term is symmetric and its range
    weight within relative 1e-12 of an `fsum`; with equal weights the bound
    is 1, then 1 + log2(|delta| + 1), and from either start it equals the
    bound on n weights of 1, bit for bit."""
    for _ in range(1000):
        seq = _random_sequence(rng, 256, 64)
        w = WeightAssignment(tuple(0.25 + 1.75 * rng.unit() for _ in range(seq.n)))
        terms = weighted_df_bound(seq, w).per_access
        for alpha in (1000.0, 0.001, 3.7):
            scaled = weighted_df_bound(seq, w.scaled(alpha)).per_access
            if any(abs(x - y) > 1e-9 * max(1.0, abs(x)) for x, y in zip(terms, scaled)):
                raise CheckFailure(f"scaling by {alpha} moved a term on {seq.accesses}")
        a = rng.below(seq.n) + 1
        b = rng.below(seq.n) + 1
        if wdf_term(w, a, b) != wdf_term(w, b, a):
            raise CheckFailure(f"term asymmetry at ({a},{b})")
        naive_rw = math.fsum(w.weights[min(a, b) - 1:max(a, b)])
        if abs(w.range_weight(a, b) - naive_rw) > 1e-12 * naive_rw:
            raise CheckFailure(f"range weight mismatch at ({a},{b})")
        closed = (1.0, *(1.0 + math.log2(abs(y - x) + 1)
                         for x, y in zip(seq.accesses, seq.accesses[1:])))
        ones = WeightAssignment((1.0,) * seq.n)
        equal = dynamic_finger_bound(seq)
        if (equal.per_access != closed or equal != weighted_df_bound(seq, ones)
                or weighted_df_bound(seq, None, START_ROOT)
                != weighted_df_bound(seq, ones, START_ROOT)):
            raise CheckFailure(f"equal-weights specialization differs on {seq.accesses}")
    return 1000


def check_best_static(rng: Splitmix64) -> int:
    """On 10 random sequences (n <= 6, m <= 24) the best static finger
    tree's total is its recomputed cost, no enumerated tree costs less, and
    its weights at base 2 are 2^-depth."""
    for _ in range(10):
        seq = _random_sequence(rng, 6, 24)
        tree, total = best_static_finger_cost(seq)
        if static_finger_cost(tree, seq).total != total:
            raise CheckFailure(f"best-static total mismatch on {seq.accesses}")
        for other in iter_bsts(seq.n):
            if static_finger_cost(other, seq).total < total:
                raise CheckFailure(f"best-static not optimal on {seq.accesses}")
        w2 = weights_from_tree(tree, 2.0)
        if list(w2.weights) != [2.0 ** -tree.depth[k] for k in range(1, seq.n + 1)]:
            raise CheckFailure("weights_from_tree disagrees with depths")
    return 10


def _suite_depth(seed: int) -> Iterator[tuple[int, str]]:
    rng = Splitmix64(seed)
    checked = check_depth_bound(rng)
    yield checked, f"{checked} weight vectors respected the depth bound"
    terms = check_bound_terms(rng)
    yield terms, f"{terms} sequences' bound terms matched naive re-evaluation"
    rechecks = check_bound_invariants(rng)
    yield rechecks, f"{rechecks} sequences held scaling, symmetry and equal weights"
    trees = check_best_static(rng)
    yield trees, f"{trees} exhaustive static-tree optimizations cross-checked"


def check_roundtrip(rng: Splitmix64) -> int:
    """Ten fixed generator specs give the same trace when run again, with
    every key in [1, n]; each of those traces and 50 random ones (n, m <= 64)
    reads back equal to what was written, and writing the read-back again
    gives the same bytes. Returns the number of traces."""
    specs = (WorkloadSpec("sequential", 16, 40), WorkloadSpec("bit_reversal", 16, 16),
             WorkloadSpec("bit_reversal", 64, 64), WorkloadSpec("uniform", 64, 100, seed=7),
             WorkloadSpec("uniform", 64, 200, seed=7), WorkloadSpec("walk", 100, 200, seed=3, d=4),
             WorkloadSpec("walk", 512, 300, seed=8, d=16),
             WorkloadSpec("zipf_finger", 128, 150, seed=9, theta=2.0),
             WorkloadSpec("zipf_finger", 256, 200, seed=9, theta=2.2),
             WorkloadSpec("zipf_finger", 256, 500, seed=123, theta=2.5))
    traces = [(seq.accesses, seq) for seq in (_random_sequence(rng, 64, 64) for _ in range(50))]
    for spec in specs:
        a = generate(spec)
        if a != generate(spec):
            raise CheckFailure(f"non-deterministic generator: {spec}")
        if any(not 1 <= k <= a.n for k in a):
            raise CheckFailure(f"key out of range: {spec}")
        traces.append((spec, a))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.txt"
        for label, seq in traces:
            write_trace(seq, path)
            blob = path.read_bytes()
            back = read_trace(path)
            write_trace(back, path)
            if back != seq or path.read_bytes() != blob:
                raise CheckFailure(f"trace does not round-trip byte for byte: {label}")
    return len(traces)


def check_locality(seed: int) -> tuple[int, float, float]:
    """From the seed, a walk (d = 8) and a zipf_finger trace (theta = 2.5),
    each of 10^5 accesses over 2^12 keys: no walk step exceeds d and the
    mean walk step is in (0, d]; the mean zipf step is in (0, 10). Returns
    the number of traces and the two mean steps."""
    def steps(spec: WorkloadSpec) -> list[int]:
        keys = generate(spec).accesses
        return [abs(a - b) for a, b in zip(keys, keys[1:])]

    d = 8
    walk = steps(WorkloadSpec("walk", 2 ** 12, 10 ** 5, seed=seed, d=d))
    walk_mean = sum(walk) / len(walk)
    if max(walk) > d or not 0 < walk_mean <= d:
        raise CheckFailure("walk locality out of range")
    zipf = steps(WorkloadSpec("zipf_finger", 2 ** 12, 10 ** 5, seed=seed, theta=2.5))
    zipf_mean = sum(zipf) / len(zipf)
    if not 0 < zipf_mean < 10.0:
        raise CheckFailure(f"zipf mean step {zipf_mean} implausible for theta=2.5")
    return 2, walk_mean, zipf_mean


def _suite_roundtrip(seed: int) -> Iterator[tuple[int, str]]:
    checked = check_roundtrip(Splitmix64(seed))
    yield checked, f"{checked} traces round-tripped byte-identically"
    traces, walk_mean, zipf_mean = check_locality(seed)
    yield traces, f"walk mean step {walk_mean:.3f} <= d=8; zipf mean step {zipf_mean:.3f} finite"


def check_splay_reference(rng: Splitmix64) -> int:
    """500 random sequences (n <= 128, m <= 1024, initial shape drawn at
    random) cost the same per access on splay and its parent-free reference."""
    for _ in range(500):
        seq = _random_sequence(rng, 128, 1024)
        initial = INITIAL_SHAPES[rng.below(3)]
        if run_splay(seq, initial).per_access != run_splay_reference(seq, initial).per_access:
            raise CheckFailure(f"splay cost mismatch (initial={initial}) on n={seq.n}, m={seq.m}")
    return 500


def check_splay_invariants(rng: Splitmix64) -> int:
    """500 splay trees (n <= 128, initial shape drawn at random) hold their
    keys in order before and after each of up to 256 random accesses, and
    each access leaves the accessed key at the root after cost - 1
    rotations."""
    for _ in range(500):
        seq = _random_sequence(rng, 128, 256)
        n = seq.n
        tree = SplayTree(n, INITIAL_SHAPES[rng.below(3)])
        expect = list(range(1, n + 1))
        if tree.in_order() != expect:
            raise CheckFailure(f"initial tree out of order, n={n}")
        for x in seq:
            before = tree.rotations
            cost = tree.access(x)
            if tree.rotations - before != cost - 1:
                raise CheckFailure(f"rotations != cost - 1 at key {x}, n={n}")
            if tree.root.key != x or tree.in_order() != expect:
                raise CheckFailure(f"in-order broke at key {x}, n={n}")
    return 500


def check_greedy_fast_path(rng: Splitmix64) -> int:
    """Greedy's staircase rows equal the reference scan's at every step of
    300 random sequences (n <= 48, m <= 96) and of 300 random accesses at
    each n of 63-65 and 1023-1025, where a record search climbs to the edge
    of a level; a rerun, and greedy on a random prefix, repeat the rows."""
    sizes = [None] * 300 + [63, 64, 65, 1023, 1024, 1025]
    for n in sizes:
        seq = _random_sequence(rng, 48, 96) if n is None else AccessSequence(n, rng.keys(n, 300))
        state = GreedyState(seq.n)
        for x in seq:
            if greedy_row(state, x) != greedy_row_reference(state, x):
                raise CheckFailure(f"greedy row mismatch at key {x} on {seq.accesses}")
            state.step(x)
        # equal rows have equal lengths, so equal costs too
        rows = list(state.rows())
        if list(greedy_sweep(seq).rows()) != rows:
            raise CheckFailure(f"greedy rerun differs on {seq.accesses}")
        t = rng.below(seq.m) + 1
        if list(greedy_sweep(seq.prefix(t)).rows()) != rows[:t]:
            raise CheckFailure(f"prefix rows differ at t={t} on {seq.accesses}")
    return len(sizes)


def _suite_differential(seed: int) -> Iterator[tuple[int, str]]:
    rng = Splitmix64(seed)
    runs = check_greedy_fast_path(rng)
    yield runs, f"{runs} greedy runs: fast path = scan, online and deterministic"
    splays = check_splay_reference(rng)
    yield splays, f"{splays} splay runs agreed with the parent-free reference"
    trees = check_splay_invariants(rng)
    yield trees, f"{trees} splay trees kept order and rotation invariants"


_SUITE_FNS = {
    "satisfaction": _suite_satisfaction,
    "minimality": _suite_minimality,
    "opt": _suite_opt,
    "depth": _suite_depth,
    "roundtrip": _suite_roundtrip,
    "differential": _suite_differential,
}
SUITES = tuple(_SUITE_FNS)
