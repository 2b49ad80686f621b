"""The benchmark's `--trace 1` hooks still find the package's entry points.

`bench/run.py` wraps package functions by name from outside the package. These
tests install those wrappers on tiny runs of each wrapped layer, so a refactor
that renames or moves a wrapped function fails here rather than in a traced
benchmark.
"""

import importlib.util
from pathlib import Path

import fingerbound as fb
from fingerbound import greedy, splay, verify
from fingerbound.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def five_access_trace(tmp_path):
    trace = tmp_path / "trace.txt"
    trace.write_text("4 5\n2\n4\n1\n3\n2\n")
    return trace


def test_trace_hooks_record_greedy_spans(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports its siblings
    run = load_bench_module("run")
    tracer = load_bench_module("tracing").Tracer()
    trace = five_access_trace(tmp_path)
    original = greedy.greedy_row
    run.instrument(tracer, [])
    try:
        assert greedy.greedy_row is not original
        assert main(["run", "--trace", str(trace), "--algo", "greedy",
                     "--points", str(tmp_path / "points.csv"),
                     "--out", str(tmp_path / "cost.csv")]) == 0
    finally:
        tracer.uninstall()
    assert greedy.greedy_row is original
    # a run's batch sweep steps no `GreedyState` and walks no staircase: the
    # row spans and the touched-key count are the oracles' rows only
    names = [tracer.names[i] for i in tracer.name_id]
    assert "greedy.row_search" not in names and "greedy.row_update" not in names
    assert tracer.counts["greedy.touched_keys"] == 0


def test_traced_checked_greedy_records_one_search_and_one_update_per_access(monkeypatch):
    # the satisfaction suite's checked greedy steps through the same two
    # wrapped names, so its rows are traced like any greedy run's
    monkeypatch.syspath_prepend(str(BENCH))
    run = load_bench_module("run")
    tracer = load_bench_module("tracing").Tracer()
    seq = fb.AccessSequence(4, (2, 4, 1, 3, 2, 2, 4))
    run.instrument(tracer, [])
    try:
        state, bad = verify._greedy_violation(seq)
    finally:
        tracer.uninstall()
    assert bad is None
    names = [tracer.names[i] for i in tracer.name_id]
    assert names.count("greedy.row_search") == seq.m
    assert names.count("greedy.row_update") == seq.m
    assert tracer.counts["greedy.touched_keys"] == sum(state.per_row_cost)


def test_traced_cost_run_records_one_greedy_sweep_span(tmp_path, monkeypatch):
    # a cost-only run's one `greedy_cost` call is its one `greedy.sweep`
    # span, and the batch sweep runs inside it
    monkeypatch.syspath_prepend(str(BENCH))
    run = load_bench_module("run")
    tracer = load_bench_module("tracing").Tracer()
    seq = fb.generate(fb.WorkloadSpec("walk", 300, 400, seed=17, d=9))
    trace = tmp_path / "trace.txt"
    fb.write_trace(seq, trace)
    run.instrument(tracer, [])
    tracer.wrap(greedy, "_sweep_fragments", "fragments")
    try:
        assert main(["run", "--trace", str(trace), "--algo", "greedy",
                     "--out", str(tmp_path / "cost.csv")]) == 0
    finally:
        tracer.uninstall()
    names = [tracer.names[i] for i in tracer.name_id]
    assert names.count("greedy.sweep") == 1
    assert names.count("fragments") == 1
    assert names[tracer.parent[names.index("fragments")]] == "greedy.sweep"


def test_trace_hooks_record_splay_run(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    run = load_bench_module("run")
    tracer = load_bench_module("tracing").Tracer()
    trace = five_access_trace(tmp_path)
    original = splay.SplayTree.__init__
    trees = []
    run.instrument(tracer, trees)
    try:
        assert splay.SplayTree.__init__ is not original
        assert main(["run", "--trace", str(trace), "--algo", "splay",
                     "--out", str(tmp_path / "cost.csv")]) == 0
    finally:
        tracer.uninstall()
    assert splay.SplayTree.__init__ is original
    names = [tracer.names[i] for i in tracer.name_id]
    assert "splay.run" in names
    assert len(trees) == 1
    costs = [int(line.split(",")[2])
             for line in (tmp_path / "cost.csv").read_text().splitlines()[1:]]
    assert len(costs) == 5
    assert trees[0].rotations == sum(costs) - len(costs)


def test_trace_hooks_record_io_and_fit_spans(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    run = load_bench_module("run")
    tracer = load_bench_module("tracing").Tracer()
    trace = tmp_path / "trace.txt"
    weights = tmp_path / "weights.txt"
    weights.write_text("1.0\n0.5\n2.0\n0.25\n")
    bound = tmp_path / "bound.csv"
    run.instrument(tracer, [])
    try:
        assert main(["gen", "--workload", "uniform", "--n", "4", "--m", "6",
                     "--seed", "2", "--out", str(trace)]) == 0
        assert main(["bound", "--trace", str(trace), "--weights", str(weights),
                     "--out", str(bound)]) == 0
        assert main(["fit", "--cost", str(bound), "--bound", str(bound),
                     "--out", str(tmp_path / "fit.csv")]) == 0
    finally:
        tracer.uninstall()
    names = {tracer.names[i] for i in tracer.name_id}
    assert names >= {"workloads.generate", "workloads.write_trace", "workloads.read_trace",
                     "workloads.read_weights", "core.sequence_validate",
                     "core.weights_build", "bounds.wdf", "harness.fit"}


def test_equal_weights_record_bound_spans_and_no_weight_build(tmp_path, monkeypatch):
    # equal weights are the closed form: the bound is traced, no vector is built
    monkeypatch.syspath_prepend(str(BENCH))
    run = load_bench_module("run")
    tracer = load_bench_module("tracing").Tracer()
    trace = five_access_trace(tmp_path)
    run.instrument(tracer, [])
    try:
        assert main(["run", "--trace", str(trace), "--algo", "greedy", "--equal",
                     "--out", str(tmp_path / "cost.csv")]) == 0
        assert main(["bound", "--trace", str(trace), "--out", str(tmp_path / "bound.csv")]) == 0
    finally:
        tracer.uninstall()
    names = [tracer.names[i] for i in tracer.name_id]
    assert names.count("bounds.wdf") == 2
    assert tracer.counts["bounds.terms"] == 10
    assert "core.weights_build" not in names


def test_trace_hooks_record_oracle_spans(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    run = load_bench_module("run")
    tracer = load_bench_module("tracing").Tracer()
    trace = tmp_path / "trace.txt"
    trace.write_text("3 3\n1\n3\n2\n")
    run.instrument(tracer, [])
    try:
        assert main(["opt", "--trace", str(trace), "--out", str(tmp_path / "opt.csv")]) == 0
        assert main(["verify", "--suite", "opt"]) == 0
    finally:
        tracer.uninstall()
    names = {tracer.names[i] for i in tracer.name_id}
    assert names >= {"opt.superset", "greedy.sweep", "geometry.satisfied", "verify.opt"}


def test_trace_hooks_record_tree_spans(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    run = load_bench_module("run")
    tracer = load_bench_module("tracing").Tracer()
    trace = five_access_trace(tmp_path)
    run.instrument(tracer, [])
    try:
        tree = fb.tree_from_weights(fb.WeightAssignment((1.0, 0.5, 2.0, 0.25)))
        fb.static_finger_cost(tree, fb.AccessSequence(4, (2, 4, 1)))
        fb.weights_from_tree(fb.StaticTree.left_spine(5))
        assert main(["beststatic", "--trace", str(trace), "--tree", str(tmp_path / "tree.csv"),
                     "--out", str(tmp_path / "best.csv")]) == 0
    finally:
        tracer.uninstall()
    names = {tracer.names[i] for i in tracer.name_id}
    assert names >= {"bounds.tree_from_weights", "bounds.static_finger",
                     "bounds.weights_from_tree", "bounds.best_static"}


def test_trace_hooks_record_minimality_suite(monkeypatch):
    # the minimality oracle checks each sequence prefix once: 5,699 greedy
    # steps over n, m <= 5, each against one `brute_min_row` search, counted
    # as the 26,841 rows of every sequence
    monkeypatch.syspath_prepend(str(BENCH))
    run = load_bench_module("run")
    tracer = load_bench_module("tracing").Tracer()
    run.instrument(tracer, [])
    try:
        assert main(["verify", "--suite", "minimality"]) == 0
    finally:
        tracer.uninstall()
    names = [tracer.names[i] for i in tracer.name_id]
    assert "verify.minimality" in names
    assert tracer.counts["verify.checks"] == 26841
    assert names.count("greedy.row_update") == 5699
    assert names.count("greedy.brute_min_row") == 5699
