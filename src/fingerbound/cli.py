"""Command-line interface.

Subcommands: gen, run, bound, beststatic, opt, fit, verify. gen writes a trace
file, verify a text report, the others CSV with a header row; summaries go to
stderr. Exit codes: 0 success, 1 verification failure, 2 usage or input errors.

CSV rows are written a chunk at a time: `_emit` flattens the row tuples'
fields and formats `EMIT_CHUNK_ROWS` rows with one `%` of the row format
repeated per row, so a file streams out in strings of bounded size with no
per-row Python call. A bound-term column whose terms mostly repeat is
formatted once per distinct value. Columns are read back a whole column at a
time, in builtin passes (`map`, `all`); when `_read_series` rejects a column,
`core.first_bad` finds its first bad line. `workloads.write_text` writes all
output, to stdout or to a path opened as given: "" is an error, not stdout.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import cache
from itertools import chain, count, islice, repeat
from operator import itemgetter
from typing import Iterable, Sequence

from .core import first_bad
from .bounds import (
    MAX_STATIC_N,
    START_ROOT,
    START_SELF,
    best_static_finger_cost,
    weighted_df_bound,
)
from .greedy import greedy_cost, greedy_sweep
from .harness import ALGORITHMS, fit, run_experiment
from .opt import opt_satisfied_superset
from .splay import INITIAL_SHAPES
from .verify import SUITES, run_suite
from .workloads import (WORKLOAD_KINDS, WorkloadSpec, generate, read_ascii_lines, read_trace,
                        read_weights, write_text, write_trace)


# Rows per `%` call in `_emit`: small enough that a chunk's field tuple and
# its formatted string stay under glibc's 128 KB mmap threshold.
EMIT_CHUNK_ROWS = 1024


def _emit(header: str, rows: Iterable[tuple], out: str | None) -> None:
    """Write a headed CSV, one line per row tuple, to the file `out`, or to
    stdout when out is None. The rows' fields are flattened and taken
    `EMIT_CHUNK_ROWS` rows at a time; each chunk is one `%` of the row format
    repeated per row, and `write_text` streams the chunk strings. `%s` of a
    float is its repr and of an int its str."""
    width = header.count(",") + 1
    row_format = "%s," * (width - 1) + "%s\n"
    fields = chain.from_iterable(rows)
    chunks = iter(lambda: tuple(islice(fields, width * EMIT_CHUNK_ROWS)), ())
    text = ((row_format * (len(chunk) // width)) % chunk for chunk in chunks)
    write_text(out, chain((header + "\n",), text))


def _term_column(terms: tuple[float, ...]) -> Iterable:
    """A bound-term column for `_emit`: the terms themselves, or, when at
    least half of them repeat an earlier one, their reprs with `repr` taken
    once per distinct value. Terms are at least 1, so values that compare
    equal (such as 0.0 and -0.0) have the same repr."""
    memo = dict.fromkeys(terms)
    if 2 * len(memo) > len(terms):
        return terms
    distinct = list(memo)
    memo.update(zip(distinct, map(repr, distinct)))
    return map(memo.__getitem__, terms)


def _cmd_gen(args) -> int:
    spec = WorkloadSpec(kind=args.workload, n=args.n, m=args.m, seed=args.seed,
                        d=args.d, theta=args.theta)
    write_trace(generate(spec), args.out)
    return 0


def _cmd_run(args) -> int:
    if args.points is not None and args.algo != "greedy":
        raise ValueError("--points is only meaningful with --algo greedy")
    seq = read_trace(args.trace)
    w = read_weights(args.weights) if args.weights is not None else None  # None: equal weights
    if args.points is not None:
        # one sweep yields both the points and the per-access costs
        run = greedy_sweep(seq)
        cost = run.cost_report()
        bound = weighted_df_bound(seq, w, args.start)
        fr = fit(cost.per_access, bound.per_access)
        _emit("time,key", run.points(), args.points)
    else:
        cost, bound, fr = run_experiment(seq, args.algo, w, args.start, args.initial)
    _emit("i,key,cost,bound",
          zip(count(1), seq.accesses, cost.per_access, _term_column(bound.per_access)), args.out)
    sys.stderr.write(
        f"total_cost={cost.total} total_bound={bound.total!r} ratio={fr.ratio!r} "
        f"slope={fr.slope!r} intercept={fr.intercept!r} r2={fr.r2!r}\n"
    )
    return 0


def _cmd_bound(args) -> int:
    seq = read_trace(args.trace)
    w = read_weights(args.weights) if args.weights is not None else None
    report = weighted_df_bound(seq, w, args.start)
    _emit("i,key,term", zip(count(1), seq.accesses, _term_column(report.per_access)),
          args.out)
    sys.stderr.write(f"total_bound={report.total!r}\n")
    return 0


def _cmd_beststatic(args) -> int:
    seq = read_trace(args.trace)
    tree, total = best_static_finger_cost(seq)
    if args.tree is not None:  # first, so that a bad path fails before any output
        rows = ((k, tree.parent[k], tree.depth[k]) for k in range(1, tree.n + 1))
        _emit("key,parent,depth", rows, args.tree)
    _emit("n,m,total", [(seq.n, seq.m, total)], args.out)
    return 0


def _cmd_opt(args) -> int:
    seq = read_trace(args.trace)
    res = opt_satisfied_superset(seq)
    greedy_size = greedy_cost(seq).total
    _emit("opt_size,greedy_size,ratio",
          [(res.size, greedy_size, greedy_size / res.size)], args.out)
    return 0


def _read_series(path: str, preferred: tuple[str, ...]) -> list[float]:
    """Pull one numeric column from a headed CSV: the first header field
    matching a preferred name, else the last column. A row that lacks the
    column or holds no finite number there is an error naming its 1-based
    line."""
    lines = read_ascii_lines(path)
    if len(lines) < 2:
        raise ValueError(f"{path}: expected a CSV header plus at least one data row")
    header = lines[0].split(",")
    idx = len(header) - 1
    for name in preferred:
        if name in header:
            idx = header.index(name)
            break
    del lines[0]

    def numbers(rows: list[str]) -> list[float]:
        # at most idx + 1 splits leave field idx whole and the rest unsplit
        fields = map(itemgetter(idx), map(str.split, rows, repeat(","), repeat(idx + 1)))
        series = list(map(float, fields))
        if not all(map(math.isfinite, series)):
            raise ValueError("not a finite number")
        return series

    try:
        return numbers(lines)
    except (IndexError, ValueError):
        bad = first_bad(lines, numbers)
    raise ValueError(f"{path}: line {bad + 2}: no number in column {header[idx]!r}: {lines[bad]!r}")


def _cmd_fit(args) -> int:
    fr = fit(_read_series(args.cost, ("cost",)),
             _read_series(args.bound, ("bound", "term")))
    _emit("ratio,slope,intercept,r2", [(fr.ratio, fr.slope, fr.intercept, fr.r2)], args.out)
    return 0


def _cmd_verify(args) -> int:
    report = run_suite(args.suite, args.seed)
    status = "pass" if report.passed else "FAIL"
    write_text(None, chain((f"{report.suite}: {status} ({report.checked} checks)\n",),
                           (f"  {line}\n" for line in report.details)))
    return 0 if report.passed else 1


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once, at the first `main` call: building
    it costs more than ten parses, and parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="fingerbound",
        description="Run BST algorithms on traces and measure them against finger bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a workload trace")
    p.add_argument("--workload", required=True, choices=WORKLOAD_KINDS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--d", type=int, default=None, help="walk: maximum step size")
    p.add_argument("--theta", type=float, default=None, help="zipf_finger: exponent")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("run", help="run an algorithm on a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--algo", required=True, choices=ALGORITHMS)
    p.add_argument("--initial", default="balanced", choices=INITIAL_SHAPES,
                   help="splay only: initial tree shape")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--weights", default=None, help="weights file (default: equal)")
    g.add_argument("--equal", action="store_true", help="force equal weights")
    p.add_argument("--start", default=START_SELF, choices=(START_SELF, START_ROOT))
    p.add_argument("--points", default=None, help="greedy only: CSV of emitted points")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("bound", help="evaluate the weighted finger bound on a trace")
    p.add_argument("--trace", required=True)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--weights", default=None)
    g.add_argument("--equal", action="store_true")
    p.add_argument("--start", default=START_SELF, choices=(START_SELF, START_ROOT))
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("beststatic", help=f"optimal static finger tree (interval DP, n <= {MAX_STATIC_N})")
    p.add_argument("--trace", required=True)
    p.add_argument("--tree", default=None, help="write the optimal tree as CSV")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_beststatic)

    p = sub.add_parser("opt", help="exact optimum vs greedy on a tiny trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_opt)

    p = sub.add_parser("fit", help="fit a cost CSV against a bound CSV")
    p.add_argument("--cost", required=True)
    p.add_argument("--bound", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("verify", help="run a self-check suite")
    p.add_argument("--suite", required=True, choices=SUITES)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
