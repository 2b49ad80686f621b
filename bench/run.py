"""Seeded benchmark of the fingerbound pipeline.

    python3 bench/run.py --workload walk_local --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: it imports the package from ./src and
writes its files under bench/out/. One process runs one workload, with no
extra threads, as a closed loop with one caller: whole rounds of the
workload's operations run back to back, one untimed warm-up round and then
timed rounds until --seconds have passed, then the last round's outputs are
checked. --workload all runs every workload in turn, each in a fresh child
process.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are end to end:
setup_s, pipeline_s, run_s (medians over set-ups and rounds, in seconds
scaled to a reference machine speed; see CAL_REF_S) and peak_rss_mb. With
--trace 1 rounds alternate between untraced and traced, and the metrics are
per-layer self times and counters from the traced rounds, plus the tracing
overhead and the calibration's time, all unscaled; the spans of the last
traced round go to bench/out/<workload>/spans.csv.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from calibrate import Sampler, calibrate

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# Before every round the inputs are built again, at least once and for at least
# SETUP_SECONDS, and setup_s is the median over all these set-ups. Spreading
# them over the run, rather than timing them in one block at its start, lets
# them see the same machine as the rounds; one set-up of a tiny input takes
# milliseconds.
SETUP_SECONDS = 0.2
# The benchmark runs on shared machines whose speed drifts: on a 2-vCPU VM one
# walk_local round (m = 40 000) took from 2.9 s to 4.8 s within a minute, in
# process time as in wall time. Every end-to-end time is therefore scaled to a
# reference speed. A fixed pure-Python workload (`calibrate.calibrate`, which
# calls nothing of the package) is timed every SAMPLE_SECONDS while the runner
# measures, and its time is taken off what it interrupted. Each time t of a
# round and of the set-ups before it, where the calibrations within them took a
# median of c seconds, counts as t * CAL_REF_S / c: seconds on a machine where
# the calibration takes CAL_REF_S. A change to the package moves t and not c; a
# change of machine speed moves both. Scaling round by round tracks drift within
# a run too.
SAMPLE_SECONDS = 0.1
CAL_REF_S = 0.012


def load_package() -> None:
    if not (SRC / "fingerbound" / "__init__.py").is_file():
        sys.exit(f"error: no package at {SRC / 'fingerbound'}; run from a checkout")
    sys.path.insert(0, str(SRC))


def run_round(wl, tracer=None, sampler=None) -> tuple[float, float, list]:
    """Run each operation once; returns pipeline seconds, algorithm seconds
    and the (name, exception) of every operation that failed. With a
    `sampler`, the calibrations that interrupted an operation are taken off
    its time."""
    pipeline = algorithm = 0.0
    failures = []
    wl.remove(wl.outputs())
    for op in wl.ops():
        spent = sampler.spent if sampler else 0.0
        t0 = perf_counter()
        try:
            if tracer is None:
                op.fn()
            else:
                tracer.span(op.span, op.fn)
        except Exception as exc:  # a failed operation is counted, and the run goes on
            failures.append((op.name, exc))
        dt = perf_counter() - t0 - ((sampler.spent if sampler else 0.0) - spent)
        pipeline += dt
        if op.algorithm:
            algorithm += dt
    return pipeline, algorithm, failures


def digest(wl) -> str:
    h = hashlib.sha256()
    for name in wl.outputs():
        h.update((wl.dir / name).read_bytes())
    h.update(json.dumps(wl.stdout, sort_keys=True).encode())
    return h.hexdigest()


class Tally:
    """Operations attempted and failed, and whether every output held."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = self.failed = 0
        self.correct = True
        self.first_digest = None

    def add(self, failures) -> None:
        self.attempted += len(self.wl.ops())
        self.failed += len(failures)
        for name, exc in failures:
            if name not in self.wl.expected_failures:
                self.correct = False
                print(f"{self.wl.name}: {name} failed: {exc}", file=sys.stderr)
        try:
            d = digest(self.wl)
        except OSError as exc:
            self.correct = False
            print(f"{self.wl.name}: output missing: {exc}", file=sys.stderr)
            return
        if self.first_digest is None:
            self.first_digest = d
        elif d != self.first_digest:
            self.correct = False
            print(f"{self.wl.name}: a round's outputs differ from the first round's",
                  file=sys.stderr)

    def check(self) -> None:
        try:
            self.wl.check()
        except Exception:  # any checker error means the outputs are not as required
            self.correct = False
            traceback.print_exc()

    def result(self, metrics: dict) -> dict:
        return {"correct": self.correct, "attempted": self.attempted, "failed": self.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def measure(wl, seconds: float) -> dict:
    tally = Tally(wl)
    setups, pipelines, runs = [], [], []
    unscaled, scales = [], []
    wl.setup()
    tally.add(run_round(wl)[2])  # warm-up: counted, not timed
    start = perf_counter()
    with Sampler(SAMPLE_SECONDS) as sampler:
        while True:
            first = len(sampler.times)
            block = []
            until = perf_counter() + SETUP_SECONDS
            while True:
                wl.remove(wl.inputs())
                gc.collect()
                spent, t0 = sampler.spent, perf_counter()
                wl.setup()
                block.append(perf_counter() - t0 - (sampler.spent - spent))
                if perf_counter() >= until:
                    break
            gc.collect()
            pipeline, algorithm, failures = run_round(wl, sampler=sampler)
            # SETUP_SECONDS > SAMPLE_SECONDS, so every round has a calibration.
            scale = CAL_REF_S / statistics.median(sampler.times[first:])
            setups.extend(t * scale for t in block)
            pipelines.append(pipeline * scale)
            runs.append(algorithm * scale)
            unscaled.append(pipeline)
            scales.append(scale)
            tally.add(failures)
            if perf_counter() - start >= seconds:
                break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tally.check()
    print(f"{wl.name}: {len(setups)} set-ups, median {statistics.median(setups):.4f} s; "
          f"rounds {fmt(pipelines)}; unscaled {fmt(unscaled)}; scales {fmt(scales)}",
          file=sys.stderr)
    return tally.result({
        "setup_s": (statistics.median(setups), "s"),
        "pipeline_s": (statistics.median(pipelines), "s"),
        "run_s": (statistics.median(runs), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    })


def instrument(tracer, trees: list) -> None:
    """Wrap each module's public entry points; see README.md for the map from
    span names to layer metrics."""
    from fingerbound import bounds, core, geometry, greedy, harness, opt, splay, verify
    from fingerbound import workloads

    def add_len(key):
        def count(counts, args, result):
            counts[key] += len(result)
        return count

    def row(counts, args, result):
        counts["greedy.touched_keys"] += len(result)
        counts["greedy.max_row_cost"] = max(counts["greedy.max_row_cost"], len(result))

    def trace_bytes(counts, args, result):
        counts["workloads.trace_bytes"] += os.path.getsize(args[0])

    def checks(counts, args, result):
        counts["verify.checks"] += result.checked

    w = tracer.wrap
    w(core.AccessSequence, "__post_init__", "core.sequence_validate")
    w(core.WeightAssignment, "__post_init__", "core.weights_build")
    w(greedy, "greedy_row", "greedy.row_search", row)
    w(greedy.GreedyState, "step", "greedy.row_update")
    w(greedy.GreedyState, "emitted", "core.pointset_build", add_len("core.points"))
    w(greedy, "greedy_cost", "greedy.sweep")
    w(greedy, "greedy_execute", "greedy.sweep")
    w(greedy, "brute_min_row", "greedy.brute_min_row")
    w(geometry, "first_violation", "geometry.satisfied")
    w(bounds, "weighted_df_bound", "bounds.wdf", add_len("bounds.terms"))
    w(bounds, "static_finger_cost", "bounds.static_finger")
    w(bounds, "tree_from_weights", "bounds.tree_from_weights")
    w(bounds, "weights_from_tree", "bounds.weights_from_tree")
    w(bounds, "best_static_finger_cost", "bounds.best_static")
    w(splay, "run_splay", "splay.run")
    w(splay.SplayTree, "__init__", "splay.run", lambda c, args, r: trees.append(args[0]))
    w(harness, "run_experiment", "harness.run_experiment")
    w(harness, "fit", "harness.fit")
    w(opt, "opt_satisfied_superset", "opt.superset")
    w(verify, "run_suite", lambda args: f"verify.{args[0]}", checks)
    w(workloads, "generate", "workloads.generate")
    w(workloads, "write_trace", "workloads.write_trace")
    w(workloads, "read_trace", "workloads.read_trace", trace_bytes)
    w(workloads, "read_weights", "workloads.read_weights")


# Per-layer metrics that are the summed self time of one span name.
SELF_TIMES = {
    "greedy.row_search_s": "greedy.row_search",
    "greedy.row_update_s": "greedy.row_update",
    "greedy.brute_min_row_s": "greedy.brute_min_row",
    "core.pointset_build_s": "core.pointset_build",
    "core.sequence_validate_s": "core.sequence_validate",
    "core.weights_build_s": "core.weights_build",
    "geometry.satisfied_s": "geometry.satisfied",
    "bounds.wdf_s": "bounds.wdf",
    "bounds.static_finger_s": "bounds.static_finger",
    "bounds.tree_from_weights_s": "bounds.tree_from_weights",
    "bounds.weights_from_tree_s": "bounds.weights_from_tree",
    "bounds.best_static_s": "bounds.best_static",
    "splay.run_s": "splay.run",
    "harness.fit_s": "harness.fit",
    "opt.superset_s": "opt.superset",
    "verify.minimality_s": "verify.minimality",
    "verify.opt_s": "verify.opt",
    "verify.satisfaction_s": "verify.satisfaction",
    "workloads.generate_s": "workloads.generate",
    "workloads.write_trace_s": "workloads.write_trace",
    "workloads.read_trace_s": "workloads.read_trace",
    "workloads.read_weights_s": "workloads.read_weights",
}
COUNTS = {
    "greedy.touched_keys": "count",
    "greedy.max_row_cost": "count",
    "core.points": "count",
    "bounds.terms": "count",
    "splay.rotations": "count",
    "verify.checks": "count",
    "workloads.trace_bytes": "bytes",
    "cli.csv_bytes": "bytes",
    "trace.spans": "count",
}
LAYER_UNITS = {**{k: "s" for k in SELF_TIMES}, **COUNTS, "greedy.ns_per_touched_key": "ns",
               "cli.overhead_s": "s", "trace.overhead_s": "s", "bench.calibration_s": "s"}


def traced_round(wl):
    """One set-up and one round with every layer wrapped; returns the tracer,
    the round's pipeline seconds, its failures, its layer metrics and the self
    time of every span name."""
    from tracing import Tracer

    tracer = Tracer()
    trees: list = []
    instrument(tracer, trees)
    try:
        wl.remove(wl.inputs())
        tracer.span("bench.setup", wl.setup)
        pipeline, _, failures = run_round(wl, tracer)
    finally:
        tracer.uninstall()
    self_s = tracer.self_times()
    counts = tracer.counts
    counts["splay.rotations"] = sum(t.rotations for t in trees)
    counts["cli.csv_bytes"] = sum(os.path.getsize(wl.dir / f)
                                  for f in wl.outputs() if f.endswith(".csv"))
    counts["trace.spans"] = len(tracer.start)
    layers = {k: self_s[span] for k, span in SELF_TIMES.items()}
    layers.update((k, counts[k]) for k in COUNTS)
    touched = counts["greedy.touched_keys"]
    layers["greedy.ns_per_touched_key"] = (
        layers["greedy.row_search_s"] * 1e9 / touched if touched else 0.0)
    # A command's time less the library calls it made.
    layers["cli.overhead_s"] = sum(v for k, v in self_s.items() if k.startswith("cli."))
    return tracer, pipeline, failures, layers, self_s


def measure_traced(wl, seconds: float) -> dict:
    tally = Tally(wl)
    wl.setup()
    plain, traced, rounds, cals = [], [], [], []
    start = perf_counter()
    while True:
        cals.append(calibrate())
        gc.collect()
        pipeline, _, failures = run_round(wl)
        plain.append(pipeline)
        tally.add(failures)
        gc.collect()
        tracer, pipeline, failures, layers, self_s = traced_round(wl)
        traced.append(pipeline)
        rounds.append(layers)
        tally.add(failures)
        if perf_counter() - start >= seconds:
            break
    tracer.dump(wl.dir / "spans.csv")
    tally.check()
    print(f"{wl.name}: untraced rounds {fmt(plain)}; traced rounds {fmt(traced)}",
          file=sys.stderr)
    for name, value in sorted(self_s.items(), key=lambda kv: -kv[1]):
        print(f"  self {name:28s} {value:10.4f} s", file=sys.stderr)
    layers = {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
    layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    layers["bench.calibration_s"] = statistics.median(cals)
    return tally.result({k: (layers[k], LAYER_UNITS[k]) for k in LAYER_UNITS})


def fmt(values) -> str:
    return " ".join(f"{v:.3f}" for v in values)


def run_all(args) -> dict:
    """Each workload in a fresh child process, one after another."""
    from pipelines import WORKLOADS

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        print(json.dumps({"workload": name, **result}), flush=True)
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_package()
    from pipelines import WORKLOADS

    if args.workload == "all":
        result = run_all(args)
    elif args.workload in WORKLOADS:
        workdir = HERE / "out" / args.workload
        workdir.mkdir(parents=True, exist_ok=True)
        wl = WORKLOADS[args.workload](args.seed, workdir)
        result = (measure_traced if args.trace else measure)(wl, args.seconds)
    else:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
