import contextlib
import io
import math
import os
import re
import subprocess
import sys
import tracemalloc
from itertools import cycle, islice, repeat
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fingerbound import verify
from fingerbound.cli import EMIT_CHUNK_ROWS, _emit, main
from fingerbound.bounds import weighted_df_bound
from fingerbound.core import MAX_BUILT_N, AccessSequence, WeightAssignment
from fingerbound.greedy import greedy_execute, greedy_sweep
from fingerbound.harness import fit
from fingerbound.splay import run_splay
from fingerbound.verify import run_suite
from fingerbound.workloads import (Splitmix64, WorkloadSpec, generate, read_trace, write_trace,
                                   write_weights)


@pytest.fixture
def trace(tmp_path):
    path = tmp_path / "trace.txt"
    write_trace(generate(WorkloadSpec("walk", 32, 60, seed=4, d=3)), path)
    return str(path)


@pytest.fixture
def tiny_trace(tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_text("3 3\n1\n2\n3\n")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_text(header, rows):
    """A CSV's text as a per-row `",".join(map(str, row))` loop gives it."""
    return "".join(f"{line}\n" for line in [header] + [",".join(map(str, r)) for r in rows])


class TestEmit:
    ROWS = [(1, 2, 3, 1.5), (2, -0.0, 0.0, 5e-324), (3, 1e16, 1e15, -2.5e-7),
            (4, float("nan"), float("inf"), float("-inf")), (10**20, 7, 0.1, 1 / 3)]

    # row counts at the edges of `_emit`'s chunks
    @pytest.mark.parametrize("count", [0, 1, len(ROWS), EMIT_CHUNK_ROWS - 1, EMIT_CHUNK_ROWS,
                                       EMIT_CHUNK_ROWS + 1, 2 * EMIT_CHUNK_ROWS + 3])
    def test_bytes_match_joined_rows(self, capsys, tmp_path, count):
        rows = list(islice(cycle(self.ROWS), count))
        _emit("i,key,cost,bound", iter(rows), None)
        assert capsys.readouterr().out == csv_text("i,key,cost,bound", rows)
        out = tmp_path / "o.csv"
        _emit("i,key,cost,bound", iter(rows), str(out))
        assert out.read_bytes() == csv_text("i,key,cost,bound", rows).encode("ascii")

    def test_one_column(self, tmp_path):
        out = tmp_path / "o.csv"
        _emit("total", [(2.0,), (-0.0,), (3,)], str(out))
        assert out.read_text() == "total\n2.0\n-0.0\n3\n"

    def test_streams_in_bounded_memory(self, tmp_path):
        # 10^5 four-field rows: formatting the whole file with one `%` would
        # hold a 400,000-field tuple (3.2 MB) and its text at once
        rows = zip(range(10**5), repeat(65536), repeat(3), repeat(1.5))
        out = tmp_path / "o.csv"
        tracemalloc.start()
        try:
            _emit("i,key,cost,bound", rows, str(out))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert out.read_text().count("\n") == 10**5 + 1


class TestGen:
    def test_writes_trace_file(self, capsys, tmp_path):
        out = tmp_path / "t.txt"
        code, _, _ = run_cli(capsys, "gen", "--workload", "uniform", "--n", "8",
                             "--m", "5", "--seed", "1", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "8 5"
        assert len(lines) == 6

    def test_stdout_and_determinism(self, capsys):
        code, out1, _ = run_cli(capsys, "gen", "--workload", "walk", "--n", "16",
                                "--m", "9", "--seed", "3", "--d", "2")
        code2, out2, _ = run_cli(capsys, "gen", "--workload", "walk", "--n", "16",
                                 "--m", "9", "--seed", "3", "--d", "2")
        assert code == code2 == 0
        assert out1 == out2

    def test_stdout_matches_out_file(self, capsys, tmp_path):
        argv = ["gen", "--workload", "uniform", "--n", "300", "--m", "40", "--seed", "5"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        path = tmp_path / "t.txt"
        assert main(argv + ["--out", str(path)]) == 0
        keys = read_trace(path).accesses
        assert path.read_text() == out == "300 40\n" + "".join(f"{k}\n" for k in keys)

    def test_missing_param_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--workload", "walk", "--n", "8", "--m", "5")
        assert code == 2
        assert "error" in err

    def test_too_long_trace_is_refused_before_generating(self, capsys, monkeypatch):
        def unreachable(spec):
            pytest.fail("generate was called")

        monkeypatch.setattr("fingerbound.cli.generate", unreachable)
        code, out, err = run_cli(capsys, "gen", "--workload", "sequential", "--n", "1",
                                 "--m", "1000000000000")
        assert code == 2
        assert out == ""
        assert err == (f"error: sequential is guarded to m <= {MAX_BUILT_N}, "
                       "got m=1000000000000\n")


class TestRun:
    def test_greedy_csv(self, capsys, trace):
        code, out, err = run_cli(capsys, "run", "--trace", trace, "--algo", "greedy")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "i,key,cost,bound"
        assert len(lines) == 61
        assert "ratio=" in err

    def test_splay_with_initial(self, capsys, trace):
        code, out, _ = run_cli(capsys, "run", "--trace", trace, "--algo", "splay",
                               "--initial", "left_spine")
        assert code == 0
        assert out.splitlines()[0] == "i,key,cost,bound"

    def test_points_export(self, capsys, trace, tmp_path):
        pts = tmp_path / "points.csv"
        code, _, _ = run_cli(capsys, "run", "--trace", trace, "--algo", "greedy",
                             "--points", str(pts))
        assert code == 0
        lines = pts.read_text().splitlines()
        assert lines[0] == "time,key"
        assert lines[1] == "1,16"  # walk starts at the midpoint
        # the flat log is written in PointSet order: time, then key
        points, _ = greedy_execute(read_trace(trace))
        assert pts.read_bytes() == "".join(
            ["time,key\n"] + [f"{p.time},{p.key}\n" for p in points]).encode()

    def test_points_sweeps_greedy_once(self, capsys, trace, tmp_path, monkeypatch):
        from fingerbound.greedy import GreedyState

        steps = []
        step = GreedyState.step

        def counting_step(state, x):
            steps.append(x)
            return step(state, x)

        monkeypatch.setattr(GreedyState, "step", counting_step)
        code, _, _ = run_cli(capsys, "run", "--trace", trace, "--algo", "greedy",
                             "--points", str(tmp_path / "points.csv"))
        assert code == 0
        assert len(steps) == 60

    def test_points_rejected_for_splay_before_running(self, capsys, trace, tmp_path,
                                                      monkeypatch):
        calls = []
        monkeypatch.setattr("fingerbound.harness.run_splay", lambda *a: calls.append(a))
        code, _, err = run_cli(capsys, "run", "--trace", trace, "--algo", "splay",
                               "--points", str(tmp_path / "points.csv"))
        assert code == 2
        assert "--points" in err
        assert calls == []
        assert not (tmp_path / "points.csv").exists()

    def test_byte_identical_reruns(self, capsys, trace):
        _, out1, _ = run_cli(capsys, "run", "--trace", trace, "--algo", "greedy")
        _, out2, _ = run_cli(capsys, "run", "--trace", trace, "--algo", "greedy")
        assert out1 == out2

    def test_missing_trace_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "run", "--trace", "/nope.txt", "--algo", "greedy")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("swapped", [False, True])
    def test_parse_error_names_the_file_at_fault(self, capsys, tmp_path, swapped):
        trace = tmp_path / "trace.txt"
        weights = tmp_path / "weights.txt"
        trace.write_text("2 2\n1\n2\n")
        weights.write_text("1.0\n-2\n")
        if swapped:  # the weights file read as the trace fails on its header
            trace, weights = weights, trace
        code, _, err = run_cli(capsys, "run", "--trace", str(trace), "--algo", "greedy",
                               "--weights", str(weights))
        assert code == 2
        at_fault, other = (trace, weights) if swapped else (weights, trace)
        line = 1 if swapped else 2
        assert err.startswith(f"error: line {line}: ")
        assert err.rstrip().endswith(f" in {at_fault}")
        assert str(other) not in err


class TestEqualWeights:
    def test_equal_weight_commands_build_no_weight_vector(self, capsys, monkeypatch,
                                                           trace, tmp_path):
        points = str(tmp_path / "points.csv")
        commands = [("run", "--algo", "greedy", "--equal"),
                    ("run", "--algo", "greedy", "--points", points),
                    ("run", "--algo", "splay"), ("bound",), ("bound", "--start", "root")]
        unpatched = [run_cli(capsys, *argv, "--trace", trace) for argv in commands]

        def refuse(self):
            raise AssertionError("an equal-weight command built a weight vector")

        monkeypatch.setattr(WeightAssignment, "__post_init__", refuse)
        with pytest.raises(AssertionError):
            WeightAssignment((1.0,))
        patched = [run_cli(capsys, *argv, "--trace", trace) for argv in commands]
        assert patched == unpatched
        assert all(code == 0 for code, _, _ in patched)


class TestBound:
    def test_csv_and_total(self, capsys, tiny_trace):
        code, out, err = run_cli(capsys, "bound", "--trace", tiny_trace)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "i,key,term"
        assert lines[1] == "1,1,1.0"
        assert lines[2] == "2,2,2.0"
        assert "total_bound=5.0" in err

    def test_root_start(self, capsys, tiny_trace):
        code, out, _ = run_cli(capsys, "bound", "--trace", tiny_trace, "--start", "root")
        assert code == 0
        first_term = float(out.splitlines()[1].split(",")[2])
        assert first_term > 1.0

    def test_weights_file(self, capsys, tiny_trace, tmp_path):
        wpath = tmp_path / "w.txt"
        wpath.write_text("1.0\n1.0\n1.0\n")
        code, out, _ = run_cli(capsys, "bound", "--trace", tiny_trace,
                               "--weights", str(wpath))
        assert code == 0
        assert out.splitlines()[1] == "1,1,1.0"

    def test_dimension_mismatch_weights(self, capsys, tiny_trace, tmp_path):
        wpath = tmp_path / "w.txt"
        wpath.write_text("1.0\n1.0\n")
        code, _, err = run_cli(capsys, "bound", "--trace", tiny_trace,
                               "--weights", str(wpath))
        assert code == 2


class TestOverflowingQuotient:
    """Weights whose quotient W / min(w) overflows a float still give finite
    terms: 1 + log2(1e10) - log2(5e-324), about 1108.2."""

    TERM = 1.0 + math.log2(1e10) - math.log2(5e-324)

    @pytest.fixture
    def files(self, tmp_path):
        trace = tmp_path / "trace.txt"
        trace.write_text("2 2\n1\n2\n")
        weights = tmp_path / "w.txt"
        weights.write_text("5e-324\n1e10\n")
        return str(trace), str(weights)

    @pytest.mark.parametrize("start", ["self", "root"])
    def test_bound(self, capsys, files, start):
        trace, weights = files
        code, out, err = run_cli(capsys, "bound", "--trace", trace, "--weights", weights,
                                 "--start", start)
        assert code == 0
        first = 1.0 if start == "self" else self.TERM
        assert out == f"i,key,term\n1,1,{first!r}\n2,2,{self.TERM!r}\n"
        assert f"total_bound={first + self.TERM!r}" in err

    def test_run(self, capsys, files):
        trace, weights = files
        code, out, err = run_cli(capsys, "run", "--trace", trace, "--algo", "greedy",
                                 "--weights", weights)
        assert code == 0
        assert out.splitlines()[2] == f"2,2,2,{self.TERM!r}"
        assert "total_bound=" in err and "inf" not in err


class TestTermColumnBytes:
    """`run` and `bound` write each row as a per-row `repr` rendering would,
    whether the term column mostly repeats (formatted once per distinct
    term) or is nearly all distinct (formatted term by term)."""

    CASES = {  # spec, weights (a power law around key 20, or None), start, mostly repeats
        "walk": (WorkloadSpec("walk", 64, 400, seed=3, d=4), False, "self", True),
        "zipf_weighted_root": (WorkloadSpec("zipf_finger", 64, 400, seed=3, theta=2.5),
                               True, "root", True),
        "uniform": (WorkloadSpec("uniform", 2**16, 300, seed=3), False, "self", False),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_rows_match_repr(self, capsys, tmp_path, case):
        spec, weighted, start, repeats = self.CASES[case]
        seq = generate(spec)
        trace = tmp_path / "trace.txt"
        write_trace(seq, trace)
        argv = ["--trace", str(trace), "--start", start]
        w = None
        if weighted:
            w = WeightAssignment([(1.0 + abs(k - 20)) ** -1.5 for k in range(1, seq.n + 1)])
            (tmp_path / "w.txt").write_text("".join(f"{x!r}\n" for x in w.weights))
            argv += ["--weights", str(tmp_path / "w.txt")]
        terms = weighted_df_bound(seq, w, start).per_access
        assert (2 * len(set(terms)) <= len(terms)) == repeats
        costs = run_splay(seq).per_access
        rows = list(zip(range(1, seq.m + 1), seq.accesses, costs, terms))
        code, out, _ = run_cli(capsys, "run", "--algo", "splay", *argv)
        assert code == 0
        assert out == "i,key,cost,bound\n" + "".join(f"{i},{k},{c},{t!r}\n"
                                                      for i, k, c, t in rows)
        code, out, _ = run_cli(capsys, "bound", *argv)
        assert code == 0
        assert out == "i,key,term\n" + "".join(f"{i},{k},{t!r}\n" for i, k, _, t in rows)


class TestOptAndBestStatic:
    def test_opt_row(self, capsys, tiny_trace):
        code, out, _ = run_cli(capsys, "opt", "--trace", tiny_trace)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "opt_size,greedy_size,ratio"
        assert lines[1] == "5,5,1.0"

    def test_opt_guard(self, capsys, trace):
        code, _, err = run_cli(capsys, "opt", "--trace", trace)
        assert code == 2
        assert "guard" in err

    def test_beststatic(self, capsys, tiny_trace, tmp_path):
        tree_csv = tmp_path / "tree.csv"
        code, out, _ = run_cli(capsys, "beststatic", "--trace", tiny_trace,
                               "--tree", str(tree_csv))
        assert code == 0
        assert out.splitlines()[0] == "n,m,total"
        assert tree_csv.read_text().splitlines()[0] == "key,parent,depth"

    def test_beststatic_at_n256_and_past_its_guard(self, capsys, tmp_path):
        path = tmp_path / "walk.txt"
        write_trace(generate(WorkloadSpec("walk", 256, 400, seed=2, d=8)), path)
        code, out, _ = run_cli(capsys, "beststatic", "--trace", str(path))
        assert code == 0
        assert out.splitlines()[1].startswith("256,400,")
        path.write_text("769 2\n1\n769\n")
        code, out, err = run_cli(capsys, "beststatic", "--trace", str(path))
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "error: best static tree search is guarded to n <= 768, got n=769"]


class TestFitCmd:
    def test_fit_from_files(self, capsys, tmp_path):
        cost = tmp_path / "c.csv"
        bound = tmp_path / "b.csv"
        cost.write_text("i,cost\n1,2.0\n2,4.0\n3,2.0\n")
        bound.write_text("i,bound\n1,1.0\n2,2.0\n3,1.0\n")
        code, out, _ = run_cli(capsys, "fit", "--cost", str(cost), "--bound", str(bound))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "ratio,slope,intercept,r2"
        ratio, slope, intercept, r2 = (float(v) for v in lines[1].split(","))
        assert ratio == pytest.approx(2.0)
        assert slope == pytest.approx(2.0)

    @pytest.mark.parametrize("rows, line", [("1,1,2\n2,1\n", 3), ("1,1,x\n", 2)])
    def test_malformed_row_names_its_line(self, capsys, tmp_path, rows, line):
        cost = tmp_path / "c.csv"
        bound = tmp_path / "b.csv"
        cost.write_text("i,key,cost\n" + rows)
        bound.write_text("i,bound\n1,1.0\n2,2.0\n")
        code, _, err = run_cli(capsys, "fit", "--cost", str(cost), "--bound", str(bound))
        assert code == 2
        assert f"{cost}: line {line}:" in err

    @pytest.mark.parametrize("early", ["nan", "1e999", "", "x"])
    def test_earliest_bad_line_is_named(self, capsys, tmp_path, early):
        cost = tmp_path / "c.csv"
        bound = tmp_path / "b.csv"
        cost.write_text(f"i,cost\n1,2.0\n2,{early}\n3,1.0\n4,abc\n5\n")
        bound.write_text("i,bound\n" + "".join(f"{i},1.0\n" for i in range(1, 6)))
        code, out, err = run_cli(capsys, "fit", "--cost", str(cost), "--bound", str(bound))
        assert code == 2 and out == ""
        assert err == f"error: {cost}: line 3: no number in column 'cost': '2,{early}'\n"

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_its_line(self, capsys, tmp_path, cell):
        cost = tmp_path / "c.csv"
        bound = tmp_path / "b.csv"
        cost.write_text("i,cost\n1,2.0\n2,3.0\n")
        bound.write_text(f"i,bound\n1,1.0\n2,{cell}\n")
        code, out, err = run_cli(capsys, "fit", "--cost", str(cost), "--bound", str(bound))
        assert code == 2 and out == ""
        assert f"{bound}: line 3: no number in column 'bound'" in err

    def test_zero_bound_total_is_input_error(self, capsys, tmp_path):
        cost = tmp_path / "c.csv"
        bound = tmp_path / "b.csv"
        cost.write_text("i,cost\n1,1\n2,1\n")
        bound.write_text("i,bound\n1,0\n2,0\n")
        code, out, err = run_cli(capsys, "fit", "--cost", str(cost), "--bound", str(bound))
        assert code == 2 and out == ""
        assert "bound total must be positive" in err
        assert "Traceback" not in err

    def test_non_ascii_byte_names_its_line(self, capsys, tmp_path):
        cost = tmp_path / "c.csv"
        bound = tmp_path / "b.csv"
        cost.write_bytes(b"i,cost\n1,2.0\n2,\xc3\xa9\n")
        bound.write_text("i,bound\n1,1.0\n2,2.0\n")
        code, _, err = run_cli(capsys, "fit", "--cost", str(cost), "--bound", str(bound))
        assert code == 2
        assert f"line 3: non-ASCII byte 0xc3 in {cost}" in err

    def test_fit_picks_named_columns_from_run_output(self, capsys, trace, tmp_path):
        # `run` emits i,key,cost,bound; fitting that file against a bound CSV
        # must use the cost column, not the trailing bound column
        run_csv = tmp_path / "run.csv"
        bound_csv = tmp_path / "bound.csv"
        assert main(["run", "--trace", trace, "--algo", "greedy",
                     "--out", str(run_csv)]) == 0
        assert main(["bound", "--trace", trace, "--out", str(bound_csv)]) == 0
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "fit", "--cost", str(run_csv),
                               "--bound", str(bound_csv))
        assert code == 0
        ratio = float(out.splitlines()[1].split(",")[0])
        rows = run_csv.read_text().splitlines()[1:]
        cost_total = sum(int(r.split(",")[2]) for r in rows)
        bound_total = sum(float(r.split(",")[3]) for r in rows)
        assert ratio == pytest.approx(cost_total / bound_total, rel=1e-12)


class TestInputRange:
    def test_fit_past_the_float_range_is_input_error(self, capsys, tmp_path):
        cost = tmp_path / "c.csv"
        bound = tmp_path / "b.csv"
        cost.write_text("i,cost\n1,1e300\n2,1e300\n")
        bound.write_text("i,bound\n1,1.0\n2,1.0\n")
        code, out, err = run_cli(capsys, "fit", "--cost", str(cost), "--bound", str(bound))
        assert code == 2 and out == ""
        assert err == ("error: the cumulative series leave the float range in the fit; "
                       "rescale them\n")

    @pytest.mark.parametrize("argv", [
        ("run", "--algo", "splay", "--initial", "left_spine", "--trace"),
        ("gen", "--workload", "zipf_finger", "--m", "2", "--theta", "1.5", "--n"),
    ])
    def test_huge_keyspace_is_input_error(self, capsys, tmp_path, argv):
        # what builds an entry per key refuses 10**20 keys before any allocation
        n = 10**20
        trace = tmp_path / "t.txt"
        trace.write_text(f"{n} 2\n1\n2\n")
        code, out, err = run_cli(capsys, *argv, str(n if argv[0] == "gen" else trace))
        what = "zipf_finger" if argv[0] == "gen" else "a left_spine splay tree"
        assert code == 2 and out == ""
        assert err == f"error: {what} is guarded to n <= {MAX_BUILT_N}, got n={n}\n"

    @pytest.mark.parametrize("points", [False, True])
    @pytest.mark.parametrize("keys", [(1, 2), (1, 10**20, 7, 10**20, 5 * 10**19, 1, 7)])
    def test_huge_keyspace_greedy_runs_on_ranks(self, capsys, tmp_path, keys, points):
        # greedy's sweep is sized by the distinct keys: its costs and points
        # are those of the same trace relabelled to 1..d, keys for ranks
        used = sorted(set(keys))
        runs = []
        for n, trace_keys in ((10**20, keys), (len(used), [used.index(k) + 1 for k in keys])):
            trace = tmp_path / f"t{n}.txt"
            trace.write_text(f"{n} {len(keys)}\n" + "".join(f"{k}\n" for k in trace_keys))
            pts = tmp_path / f"p{n}.csv"
            argv = ("run", "--algo", "greedy", "--trace", str(trace))
            code, out, _ = run_cli(capsys, *argv, *(("--points", str(pts)) if points else ()))
            assert code == 0
            rows = [r.split(",") for r in out.splitlines()[1:]]
            assert [int(r[1]) for r in rows] == list(trace_keys)
            runs.append(([r[2] for r in rows],
                         pts.read_text().splitlines() if points else None))
        (costs, point_rows), (rank_costs, rank_point_rows) = runs
        assert costs == rank_costs
        if points:
            assert point_rows[0] == rank_point_rows[0] == "time,key"
            assert point_rows[1:] == [f"{t},{used[int(r) - 1]}" for t, r in
                                      (line.split(",") for line in rank_point_rows[1:])]

    @pytest.mark.parametrize("argv", [("run", "--algo", "splay"), ("bound",),
                                      ("bound", "--start", "root")])
    def test_huge_keyspace_runs_in_closed_form(self, capsys, tmp_path, argv):
        # the balanced lazy splay tree and the equal-weight bound build no
        # per-key structure
        n = 10**20
        keys = (1, n, n)
        trace = tmp_path / "t.txt"
        trace.write_text(f"{n} 3\n1\n{n}\n{n}\n")
        code, out, err = run_cli(capsys, *argv, "--trace", str(trace))
        assert code == 0
        far = 1.0 + math.log2(n)
        terms = (far if "root" in argv else 1.0, far, 1.0)
        rows = out.splitlines()[1:]
        if argv[0] == "bound":
            assert rows == [f"{i},{k},{t!r}" for i, k, t in zip((1, 2, 3), keys, terms)]
            assert err == f"total_bound={sum(terms)!r}\n"
        else:
            costs = run_splay(AccessSequence(n, keys)).per_access
            hi, depth = n, 0  # key 1 lies down the balanced tree's left edge
            while (1 + hi) // 2 != 1:
                hi, depth = (1 + hi) // 2 - 1, depth + 1
            assert costs[0] == depth + 1
            assert rows == [f"{i},{k},{c},{t!r}"
                            for i, k, c, t in zip((1, 2, 3), keys, costs, terms)]
            assert err.startswith(f"total_cost={sum(costs)} total_bound={sum(terms)!r} ")

    def test_weights_past_the_float_range_name_their_line(self, capsys, tiny_trace, tmp_path):
        weights = tmp_path / "w.txt"
        weights.write_text("1.0\n1e308\n1e308\n")
        code, out, err = run_cli(capsys, "bound", "--trace", tiny_trace,
                                 "--weights", str(weights))
        assert code == 2 and out == ""
        assert err.startswith("error: line 3: weight '1e308' takes the running sum past")
        assert err.count("\n") == 1


# Lines without line breaks, and numbers likely to be bad in each way the
# readers know; keyspaces stay tiny except for one past any allocation.
TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=5)
NUMBER = st.one_of(st.floats().map(repr), st.integers(-2, 7).map(str), TEXT,
                   st.sampled_from(["1e300", "1e-300", "1e308", "inf", "nan", ""]))
FUZZ = settings(max_examples=60, derandomize=True, database=None, deadline=None)


def quiet_main(*argv):
    """`main` with stdout and stderr captured; returns (code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def assert_clean_exit(code, err):
    assert code in (0, 2)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err


class TestCliFuzz:
    @pytest.fixture(scope="class")
    def fuzz_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("cli_fuzz")

    @FUZZ
    @given(n=st.one_of(st.integers(-1, 6), st.just(10**20)),
           keys=st.lists(st.one_of(st.integers(-1, 7).map(str), TEXT), min_size=1, max_size=6),
           weights=st.lists(NUMBER, min_size=1, max_size=6),
           extra=st.integers(-1, 1))
    def test_run_and_bound_exit_cleanly(self, fuzz_dir, n, keys, weights, extra):
        trace, wfile = fuzz_dir / "t.txt", fuzz_dir / "w.txt"
        trace.write_text(f"{n} {len(keys) + extra}\n" + "".join(f"{k}\n" for k in keys))
        wfile.write_text("".join(f"{w}\n" for w in weights))
        for argv in (("run", "--algo", "greedy"), ("run", "--algo", "splay"), ("bound",),
                     ("bound", "--weights", wfile), ("run", "--algo", "splay", "--weights", wfile)):
            code, err = quiet_main(*argv, "--trace", trace)
            assert_clean_exit(code, err)
            if "line " in err:
                assert err.rstrip().endswith((f" in {trace}", f" in {wfile}"))

    @FUZZ
    @given(costs=st.lists(NUMBER, min_size=1, max_size=6),
           bounds=st.lists(NUMBER, min_size=1, max_size=6),
           header=st.sampled_from(["i,cost", "i,key,cost,bound", "x"]))
    def test_fit_exits_cleanly(self, fuzz_dir, costs, bounds, header):
        cost, bound = fuzz_dir / "c.csv", fuzz_dir / "b.csv"
        cost.write_text(header + "\n" + "".join(f"{i},{v}\n" for i, v in enumerate(costs)))
        bound.write_text("i,bound\n" + "".join(f"{i},{v}\n" for i, v in enumerate(bounds)))
        code, err = quiet_main("fit", "--cost", cost, "--bound", bound)
        assert_clean_exit(code, err)
        # rows are "i,value": the cost column is the value, absent, or i
        bad = {"i,cost": [i for i, v in enumerate(costs) if not finite(v)],
               "i,key,cost,bound": [0], "x": []}[header]
        if bad:
            assert err.startswith(f"error: {cost}: line {bad[0] + 2}: no number")


def finite(text):
    try:
        return abs(float(text)) < float("inf")
    except ValueError:
        return False


class TestOutputPaths:
    @pytest.mark.parametrize("argv", [
        ["bound", "--trace", "{trace}", "--out", ""],
        ["gen", "--workload", "uniform", "--n", "8", "--m", "5", "--out", ""],
        ["run", "--trace", "{trace}", "--algo", "greedy", "--points", ""],
        ["beststatic", "--trace", "{trace}", "--tree", ""],
        ["bound", "--trace", "{trace}", "--weights", ""],
    ], ids=["bound out", "gen out", "run points", "beststatic tree", "bound weights"])
    def test_empty_path_is_input_error(self, capsys, tiny_trace, argv):
        code, out, err = run_cli(capsys, *(a.format(trace=tiny_trace) for a in argv))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


class TestEndToEndBytes:
    """Every file of the `gen -> run -> bound -> fit` pipeline, written
    through `main`, equals the text rebuilt row by row from the library: the
    CLI changes no number. m spans several of `_emit`'s chunks."""

    def test_pipeline_files_match_the_library(self, capsys, tmp_path):
        p = {name: str(tmp_path / name) for name in
             ("trace.txt", "w.txt", "points.csv", "greedy.csv", "splay.csv", "bound.csv",
              "wbound.csv", "fit.csv")}
        assert main(["gen", "--workload", "walk", "--n", str(2**12), "--m", "3000",
                     "--d", "8", "--seed", "7", "--out", p["trace.txt"]]) == 0
        seq = generate(WorkloadSpec("walk", 2**12, 3000, seed=7, d=8))
        assert 3000 > 2 * EMIT_CHUNK_ROWS
        rng = Splitmix64(7)
        w = WeightAssignment(tuple(0.25 + rng.unit() for _ in range(seq.n)))
        write_weights(w, p["w.txt"])
        for argv in (["run", "--algo", "greedy", "--points", p["points.csv"],
                      "--out", p["greedy.csv"]],
                     ["run", "--algo", "splay", "--out", p["splay.csv"]],
                     ["bound", "--out", p["bound.csv"]],
                     ["bound", "--weights", p["w.txt"], "--out", p["wbound.csv"]]):
            assert main(argv + ["--trace", p["trace.txt"]]) == 0
        assert main(["fit", "--cost", p["greedy.csv"], "--bound", p["bound.csv"],
                     "--out", p["fit.csv"]]) == 0
        capsys.readouterr()

        state = greedy_sweep(seq)
        greedy, splay = state.per_row_cost, run_splay(seq).per_access
        bound = weighted_df_bound(seq, None).per_access
        wbound = weighted_df_bound(seq, w).per_access
        fr = fit(greedy, bound)
        expected = {
            "trace.txt": f"{seq.n} {seq.m}\n" + "".join(f"{k}\n" for k in seq.accesses),
            "points.csv": csv_text("time,key", state.points()),
            "greedy.csv": csv_text("i,key,cost,bound",
                                   zip(range(1, seq.m + 1), seq.accesses, greedy, bound)),
            "splay.csv": csv_text("i,key,cost,bound",
                                  zip(range(1, seq.m + 1), seq.accesses, splay, bound)),
            "bound.csv": csv_text("i,key,term", zip(range(1, seq.m + 1), seq.accesses, bound)),
            "wbound.csv": csv_text("i,key,term",
                                   zip(range(1, seq.m + 1), seq.accesses, wbound)),
            "fit.csv": csv_text("ratio,slope,intercept,r2",
                                [(fr.ratio, fr.slope, fr.intercept, fr.r2)]),
        }
        for name, text in expected.items():
            assert Path(p[name]).read_bytes() == text.encode("ascii"), name


class TestVerify:
    def test_passing_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "roundtrip", "--seed", "1")
        assert code == 0
        assert out.startswith("roundtrip: pass")

    def test_failing_suite_exits_one(self, capsys, monkeypatch):
        from fingerbound.verify import SuiteReport

        monkeypatch.setattr(
            "fingerbound.cli.run_suite",
            lambda suite, seed: SuiteReport(suite, False, 3, ["counterexample: ..."]),
        )
        code, out, _ = run_cli(capsys, "verify", "--suite", "opt")
        assert code == 1
        assert "FAIL" in out
        assert "counterexample" in out

    def test_unknown_suite_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "everything"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("suite", ["everything", [1], None, 3])
    def test_unknown_suite_name_of_any_type(self, suite):
        with pytest.raises(ValueError, match="^unknown suite "):
            run_suite(suite)

    @pytest.mark.parametrize("seed", [True, 1.5, None, "2"])
    def test_suite_seed_must_be_an_int(self, seed):
        with pytest.raises(ValueError, match="^seed must be an integer, got "):
            run_suite("depth", seed)

    def test_every_check_routine_is_called_from_a_test(self):
        # a suite's checks live in `check_*` routines, and each runs in a test too
        routines = [name for name in vars(verify) if name.startswith("check_")]
        tests = "".join(p.read_text() for p in Path(__file__).parent.glob("*.py"))
        assert len(routines) >= 13
        assert [name for name in routines if not re.search(rf"\b{name}\(", tests)] == []

    # the suites the benchmark runs: their whole output at seed 1, pinned
    BENCHMARKED_OUTPUT = {
        "satisfaction": "satisfaction: pass (2310 checks)\n"
                        "  greedy satisfied on 1494 instances (1000 random + exhaustive n,m <= 4)\n"
                        "  checker routes agreed on 816 point sets\n",
        "minimality": "minimality: pass (26841 checks)\n"
                      "  26841 rows matched the exhaustive oracle (unique minimum each)\n",
        "opt": "opt: pass (494 checks)\n"
               "  494 instances; max greedy/opt ratio 1.200000 on (1, 3, 2)\n",
    }

    @pytest.mark.parametrize("suite", list(BENCHMARKED_OUTPUT))
    def test_benchmarked_suite_output(self, capsys, suite):
        code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--seed", "1")
        assert (code, out) == (0, self.BENCHMARKED_OUTPUT[suite])


def test_no_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_python_dash_m_runs_the_cli(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "fingerbound", "verify", "--suite", "opt"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("opt: pass")
