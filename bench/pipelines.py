"""The benchmark's workloads: their inputs, command sequences and checks.

A workload builds its input files in `setup`, lists its operations in `ops`
(one CLI command or one library call each, run in order by the runner) and
checks the outputs of a finished round in `check`. Every check compares the
program's output with a computation from `checkers` or with a property the
method must have; none compares with stored output.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import re
from pathlib import Path
from typing import Callable, NamedTuple

import fingerbound as fb
from fingerbound import cli

import checkers

TRACE_N = 1 << 16
REPLAY_ROWS = 1000       # trace prefix replayed by the staircase checker
BRUTE_POINTS = 150       # emitted points given to the cubic satisfaction check
# Absolute tolerance on a bound term (terms are >= 1). The package takes range
# weights as differences of float prefix sums, which on weighted_skew's weights
# can be off by n * eps * W against a range weighing a few times min(w): about
# 1e-6 in a term at worst, 1.5e-10 seen on seeds 1-20. A wrong term is off by
# far more.
TERM_TOL = 1e-6
RATIO_TOL = 1e-9         # relative tolerance on fit's ratio


class CheckError(Exception):
    """An output disagrees with the benchmark's own computation."""


class OpFailed(Exception):
    """A CLI command exited with a non-zero code."""


class Op(NamedTuple):
    name: str
    span: str            # span name in a traced round: cli.<command> or call.<name>
    algorithm: bool      # counted in run_s
    fn: Callable[[], None]


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="ascii").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def parse_trace(path: Path) -> tuple[int, list[int]]:
    lines = path.read_text(encoding="ascii").splitlines()
    n, m = map(int, lines[0].split())
    keys = [int(x) for x in lines[1:]]
    expect(len(keys) == m, f"{path.name}: header says m={m}, found {len(keys)} keys")
    expect(all(1 <= k <= n for k in keys), f"{path.name}: key outside 1..{n}")
    return n, keys


def write_keys(path: Path, n: int, keys: list[int]) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"{n} {len(keys)}\n")
        fh.write("".join(f"{k}\n" for k in keys))


def close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


class Workload:
    name = ""
    expected_failures: frozenset[str] = frozenset()

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        self.stdout: dict[str, str] = {}
        self.results: dict[str, object] = {}

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def cli_op(self, name: str, argv: list[str], algorithm: bool) -> Op:
        def call() -> None:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            self.stdout[name] = out.getvalue()
            if code != 0:
                raise OpFailed(f"fingerbound {' '.join(argv)}: exit {code}: {err.getvalue()}")
        return Op(name, f"cli.{argv[0]}", algorithm, call)

    def call_op(self, name: str, fn: Callable[[], object]) -> Op:
        def call() -> None:
            self.results[name] = fn()
        return Op(name, f"call.{name}", False, call)

    def inputs(self) -> list[str]:
        """Files `setup` writes."""
        raise NotImplementedError

    def outputs(self) -> list[str]:
        """Files a round writes; each round must reproduce them exactly."""
        raise NotImplementedError

    def remove(self, names: list[str]) -> None:
        """Delete files, so that the next set-up or round writes them afresh
        as a first run would. On ext4, rewriting a file in place flushes it to
        disk at close: 0.3 ms a file against 0.05 ms for a new file, and
        drifting with the disk's load."""
        for name in names:
            (self.dir / name).unlink(missing_ok=True)

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError

    # Checks shared by the trace workloads.

    def check_cost_csv(self, name: str, keys: list[int], bounds: list[float]) -> list[int]:
        header, rows = read_csv(self.dir / name)
        expect(header == ["i", "key", "cost", "bound"], f"{name}: header {header}")
        expect(len(rows) == len(keys), f"{name}: {len(rows)} rows for {len(keys)} accesses")
        costs = []
        for i, (row, key, bound) in enumerate(zip(rows, keys, bounds), start=1):
            expect(int(row[0]) == i and int(row[1]) == key, f"{name}: row {i} is {row}")
            expect(close(float(row[3]), bound, TERM_TOL),
                   f"{name}: row {i} bound {row[3]}, expected {bound!r}")
            costs.append(int(row[2]))
        expect(min(costs) >= 1, f"{name}: an access costs less than 1")
        return costs

    def check_bound_csv(self, name: str, keys: list[int], terms: list[float]) -> None:
        header, rows = read_csv(self.dir / name)
        expect(header == ["i", "key", "term"], f"{name}: header {header}")
        expect(len(rows) == len(keys), f"{name}: {len(rows)} rows for {len(keys)} accesses")
        for i, (row, key, term) in enumerate(zip(rows, keys, terms), start=1):
            expect(int(row[0]) == i and int(row[1]) == key, f"{name}: row {i} is {row}")
            expect(close(float(row[2]), term, TERM_TOL),
                   f"{name}: row {i} term {row[2]}, expected {term!r}")

    def check_fit(self, costs: list[int], terms: list[float]) -> None:
        header, rows = read_csv(self.dir / "fit.csv")
        expect(header == ["ratio", "slope", "intercept", "r2"], f"fit.csv: header {header}")
        ratio, slope, _, r2 = map(float, rows[0])
        want = sum(costs) / math.fsum(terms)
        expect(abs(ratio - want) <= RATIO_TOL * want, f"fit ratio {ratio!r}, expected {want!r}")
        expect(math.isfinite(slope) and 0.0 <= r2 <= 1.0, f"fit slope {slope}, r2 {r2}")

    def check_splay_rotations(self, n: int, keys: list[int], costs: list[int]) -> None:
        tree = fb.SplayTree(n)
        for k in keys:
            tree.access(k)
        expect(tree.rotations == sum(costs) - len(costs),
               f"splay made {tree.rotations} rotations, costs imply {sum(costs) - len(costs)}")


class TraceWorkload(Workload):
    """gen -> run greedy -> run splay -> bound -> fit on a 2^16-key trace."""

    kind = ""
    m = 0
    extra: dict = {}
    points = False

    def spec(self) -> fb.WorkloadSpec:
        return fb.WorkloadSpec(self.kind, n=TRACE_N, m=self.m, seed=self.seed, **self.extra)

    def setup(self) -> None:
        fb.write_trace(fb.generate(self.spec()), self.path("input.txt"))

    def inputs(self) -> list[str]:
        return ["input.txt"]

    def outputs(self) -> list[str]:
        files = ["trace.txt", "greedy.csv", "splay.csv", "bound.csv", "fit.csv"]
        return files + ["points.csv"] if self.points else files

    def ops(self) -> list[Op]:
        trace = self.path("trace.txt")
        gen = ["gen", "--workload", self.kind, "--n", str(TRACE_N), "--m", str(self.m),
               "--seed", str(self.seed)]
        for flag, value in self.extra.items():
            gen += [f"--{flag}", str(value)]
        greedy = ["run", "--trace", trace, "--algo", "greedy", "--equal"]
        if self.points:
            greedy += ["--points", self.path("points.csv")]
        return [
            self.cli_op("gen", gen + ["--out", trace], False),
            self.cli_op("run_greedy", greedy + ["--out", self.path("greedy.csv")], True),
            self.cli_op("run_splay", ["run", "--trace", trace, "--algo", "splay",
                                      "--out", self.path("splay.csv")], True),
            self.cli_op("bound", ["bound", "--trace", trace, "--out", self.path("bound.csv")],
                        False),
            self.cli_op("fit", ["fit", "--cost", self.path("greedy.csv"),
                                "--bound", self.path("bound.csv"),
                                "--out", self.path("fit.csv")], False),
        ]

    def check_keys(self, n: int, keys: list[int]) -> None:
        """Properties the generator promises for this kind of trace."""

    def check(self) -> None:
        trace = self.dir / "trace.txt"
        expect(trace.read_bytes() == (self.dir / "input.txt").read_bytes(),
               "gen wrote a different trace from the library generator on the same seed")
        n, keys = parse_trace(trace)
        expect(n == TRACE_N and len(keys) == self.m, f"trace is n={n}, m={len(keys)}")
        self.check_keys(n, keys)
        terms = checkers.equal_terms(keys)
        greedy = self.check_cost_csv("greedy.csv", keys, terms)
        replay = checkers.staircase_costs(keys[:REPLAY_ROWS])
        expect(greedy[:REPLAY_ROWS] == replay, "greedy costs differ from the staircase replay")
        splay = self.check_cost_csv("splay.csv", keys, terms)
        self.check_splay_rotations(n, keys, splay)
        self.check_bound_csv("bound.csv", keys, terms)
        self.check_fit(greedy, terms)
        if self.points:
            self.check_points(keys, greedy)

    def check_points(self, keys: list[int], costs: list[int]) -> None:
        header, rows = read_csv(self.dir / "points.csv")
        expect(header == ["time", "key"], f"points.csv: header {header}")
        points = {(int(k), int(t)) for t, k in rows}
        expect(len(points) == len(rows), "points.csv repeats a point")
        expect(len(points) == sum(costs),
               f"{len(points)} points emitted, total cost is {sum(costs)}")
        per_row = [0] * (len(keys) + 1)
        for _, t in points:
            per_row[t] += 1
        expect(per_row[1:] == costs, "points per row differ from the per-access costs")
        expect(all((k, t) in points for t, k in enumerate(keys, start=1)),
               "an access point is missing from the emitted points")
        t, total = 0, 0
        while t < len(costs) and total + costs[t] <= BRUTE_POINTS:
            total += costs[t]
            t += 1
        prefix = [p for p in points if p[1] <= t]
        bad = checkers.first_empty_rectangle(prefix)
        expect(bad is None, f"emitted points span an empty rectangle: {bad}")


class WalkLocal(TraceWorkload):
    name = "walk_local"
    kind = "walk"
    m = 10_000
    extra = {"d": 8}
    points = True

    def check_keys(self, n: int, keys: list[int]) -> None:
        d = self.extra["d"]
        expect(keys[0] == (n + 1) // 2, "walk does not start mid-keyspace")
        expect(all(abs(b - a) <= d for a, b in zip(keys, keys[1:])), f"walk step exceeds {d}")


class UniformFar(TraceWorkload):
    name = "uniform_far"
    kind = "uniform"
    m = 8_000

    def check_keys(self, n: int, keys: list[int]) -> None:
        # m draws over n keys: a sound generator repeats few of them.
        expect(len(set(keys)) > len(keys) * 0.8, "uniform trace repeats too many keys")


class WeightedSkew(Workload):
    """Weighted bound, splay and static trees on a zipf_finger trace with
    power-law weights centred on a seeded key."""

    name = "weighted_skew"
    n = 4096
    m = 50_000
    theta = 2.5
    alpha = 1.5
    expected_failures = frozenset({"spine_weights"})

    def weights(self) -> list[float]:
        centre = random.Random(self.seed).randint(1, self.n)
        return [(1.0 + abs(k - centre)) ** -self.alpha for k in range(1, self.n + 1)]

    def setup(self) -> None:
        spec = fb.WorkloadSpec("zipf_finger", n=self.n, m=self.m, seed=self.seed,
                               theta=self.theta)
        fb.write_trace(fb.generate(spec), self.path("trace.txt"))
        with open(self.path("weights.txt"), "w", encoding="ascii", newline="\n") as fh:
            fh.write("".join(f"{w!r}\n" for w in self.weights()))

    def inputs(self) -> list[str]:
        return ["trace.txt", "weights.txt"]

    def outputs(self) -> list[str]:
        return ["bound.csv", "splay.csv", "fit.csv"]

    def ops(self) -> list[Op]:
        trace, weights = self.path("trace.txt"), self.path("weights.txt")

        def balanced():
            tree = fb.StaticTree.balanced(self.n)
            return tree, fb.weights_from_tree(tree)

        def spine():
            tree = fb.StaticTree.left_spine(self.n)
            return tree, fb.weights_from_tree(tree)

        return [
            self.cli_op("bound", ["bound", "--trace", trace, "--weights", weights,
                                  "--start", "root", "--out", self.path("bound.csv")], False),
            self.cli_op("run_splay", ["run", "--trace", trace, "--algo", "splay",
                                      "--weights", weights, "--out", self.path("splay.csv")],
                        True),
            self.cli_op("fit", ["fit", "--cost", self.path("splay.csv"),
                                "--bound", self.path("bound.csv"),
                                "--out", self.path("fit.csv")], False),
            self.call_op("tree_from_weights",
                         lambda: fb.tree_from_weights(fb.read_weights(weights))),
            self.call_op("static_finger_cost",
                         lambda: fb.static_finger_cost(self.results["tree_from_weights"],
                                                       fb.read_trace(trace))),
            self.call_op("balanced_weights", balanced),
            # Fails on every round today: 2^-depth underflows to 0.0 on a
            # 4096-deep spine and WeightAssignment rejects it.
            self.call_op("spine_weights", spine),
        ]

    def check(self) -> None:
        n, keys = parse_trace(self.dir / "trace.txt")
        weights = [float(x) for x in (self.dir / "weights.txt").read_text().splitlines()]
        expect(n == self.n and len(weights) == n, "inputs have the wrong keyspace")
        root_terms = checkers.weighted_terms(weights, keys, "root")
        self_terms = [1.0] + root_terms[1:]
        self.check_bound_csv("bound.csv", keys, root_terms)
        splay = self.check_cost_csv("splay.csv", keys, self_terms)
        self.check_splay_rotations(n, keys, splay)
        self.check_fit(splay, root_terms)

        tree = self.results["tree_from_weights"]
        parent, depth = checkers.tree_arrays(n, tree.left, tree.right, tree.root)
        expect(list(tree.parent) == parent and list(tree.depth) == depth,
               "tree_from_weights: parent or depth arrays disagree with the links")
        total = math.fsum(weights)
        for k in range(1, n + 1):
            limit = math.log2(total / weights[k - 1]) + 1.0
            expect(depth[k] <= limit + 1e-9, f"depth({k}) = {depth[k]} exceeds {limit}")
        static = self.results["static_finger_cost"].per_access
        expect(list(static) == checkers.static_finger_costs(tree.parent, tree.depth, keys),
               "static_finger_cost differs from path lengths on the tree's own arrays")

        tree, w = self.results["balanced_weights"]
        _, depth = checkers.tree_arrays(n, tree.left, tree.right, tree.root)
        expect(max(depth) == int(math.log2(n)), f"balanced tree has height {max(depth)}")
        expect(list(w.weights) == [2.0 ** -depth[k] for k in range(1, n + 1)],
               "weights_from_tree(balanced) is not 2^-depth")
        if "spine_weights" in self.results:
            _, w = self.results["spine_weights"]
            ws = list(w.weights)
            expect(all(x > 0 for x in ws) and all(a < b for a, b in zip(ws, ws[1:])),
                   "spine weights must be positive and lighter with depth")


class Exhaustive(Workload):
    """The exhaustive oracles on seeded tiny instances."""

    name = "exhaustive"
    # (n, m) of the opt traces, within the exact optimum's limit of 5. On
    # n = m = 5 one random instance can take ten times the median (0.08 s
    # against 0.8 s), so the round time would rest on the seed.
    opt_shapes = ((5, 4), (4, 5), (5, 4))
    small_static = (7, 30)   # (n, m): within the checker's enumeration
    large_static = (10, 30)  # (n, m): near beststatic's limit of 12
    suites = ("minimality", "opt", "satisfaction")

    def setup(self) -> None:
        rng = random.Random(self.seed)
        for i, (n, m) in enumerate(self.opt_shapes):
            write_keys(self.dir / f"opt{i}.txt", n, [rng.randint(1, n) for _ in range(m)])
        for label, (n, m) in (("small", self.small_static), ("large", self.large_static)):
            write_keys(self.dir / f"static_{label}.txt", n, [rng.randint(1, n) for _ in range(m)])

    def inputs(self) -> list[str]:
        return ([f"opt{i}.txt" for i in range(len(self.opt_shapes))]
                + ["static_small.txt", "static_large.txt"])

    def outputs(self) -> list[str]:
        return ([f"opt{i}.csv" for i in range(len(self.opt_shapes))]
                + [f"static_{s}{x}.csv" for s in ("small", "large") for x in ("", "_tree")])

    def ops(self) -> list[Op]:
        ops = [self.cli_op(f"opt{i}", ["opt", "--trace", self.path(f"opt{i}.txt"),
                                        "--out", self.path(f"opt{i}.csv")], True)
               for i in range(len(self.opt_shapes))]
        ops += [self.cli_op(f"beststatic_{s}",
                            ["beststatic", "--trace", self.path(f"static_{s}.txt"),
                             "--tree", self.path(f"static_{s}_tree.csv"),
                             "--out", self.path(f"static_{s}.csv")], True)
                for s in ("small", "large")]
        ops += [self.cli_op(f"verify_{s}", ["verify", "--suite", s, "--seed", str(self.seed)],
                            True)
                for s in self.suites]
        return ops

    def check(self) -> None:
        for i in range(len(self.opt_shapes)):
            _, keys = parse_trace(self.dir / f"opt{i}.txt")
            header, rows = read_csv(self.dir / f"opt{i}.csv")
            expect(header == ["opt_size", "greedy_size", "ratio"], f"opt{i}.csv: {header}")
            opt, greedy, ratio = int(rows[0][0]), int(rows[0][1]), float(rows[0][2])
            expect(greedy == sum(checkers.staircase_costs(keys)),
                   f"opt{i}: greedy size {greedy} differs from the staircase replay")
            expect(len(keys) <= opt <= greedy, f"opt{i}: opt {opt}, greedy {greedy}")
            expect(ratio == greedy / opt, f"opt{i}: ratio {ratio}")
        for label in ("small", "large"):
            n, keys = parse_trace(self.dir / f"static_{label}.txt")
            header, rows = read_csv(self.dir / f"static_{label}.csv")
            expect(header == ["n", "m", "total"], f"static_{label}.csv: {header}")
            total = int(rows[0][2])
            header, tree_rows = read_csv(self.dir / f"static_{label}_tree.csv")
            expect(header == ["key", "parent", "depth"] and len(tree_rows) == n,
                   f"static_{label}_tree.csv: {header}, {len(tree_rows)} rows")
            parent = [0] * (n + 1)
            depth = [0] * (n + 1)
            for k, p, d in tree_rows:
                parent[int(k)], depth[int(k)] = int(p), int(d)
            left, right, root = checkers.children_from_parents(n, parent)
            expect(checkers.tree_arrays(n, left, right, root) == (parent, depth),
                   f"beststatic {label}: tree CSV is not a consistent BST")
            expect(sum(checkers.static_finger_costs(parent, depth, keys)) == total,
                   f"beststatic {label}: reported total {total} is not the tree's cost")
            if n <= checkers.MAX_ENUM_N:
                best = checkers.best_static_cost(n, keys)
                expect(total == best, f"beststatic {label}: {total}, enumeration gives {best}")
        for suite in self.suites:
            out = self.stdout[f"verify_{suite}"]
            match = re.match(rf"{suite}: pass \((\d+) checks\)", out)
            expect(match is not None and int(match.group(1)) > 0,
                   f"verify {suite}: {out.splitlines()[0] if out else 'no output'}")


WORKLOADS = {w.name: w for w in (WalkLocal, UniformFar, WeightedSkew, Exhaustive)}
