"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Regression constants in this module were measured once on the reference
calibration run and frozen; every workload here is seed-deterministic, so
reruns reproduce the same numbers exactly.

Known red: test_c06b_locality_monotonicity documents a measured violation of
the expected ratio direction (see its docstring) and fails by design.
"""

import math

import pytest

import fingerbound as fb
from fingerbound.core import AccessSequence, WeightAssignment
from fingerbound.bounds import (
    iter_bsts,
    static_finger_cost,
    tree_from_weights,
    weights_from_tree,
)
from fingerbound.greedy import greedy_cost
from fingerbound.splay import SplayTree, run_splay
from fingerbound.verify import (
    check_bound_invariants,
    check_bound_terms,
    check_depth_bound,
    check_greedy_minimality,
    check_greedy_satisfied,
    check_opt_dominance,
    check_roundtrip,
    check_splay_invariants,
)
from fingerbound.workloads import Splitmix64, WorkloadSpec, generate, write_trace

# ---------------------------------------------------------------------------
# frozen calibration constants (measured once, then pinned)
# ---------------------------------------------------------------------------
MAX_GREEDY_OVER_OPT = 1.2            # exact max over exhaustive n,m <= 4
SEQUENTIAL_RATIO_CEILING = 1.5       # stated threshold; measured ratio is 1.0
WALK_SEEDS = (11, 12, 13)
WALK_RATIO_CEILING = {2: 0.885, 8: 0.940, 64: 0.932}   # measured max + margin
ZIPF_SEEDS = (21, 22, 23)
ZIPF_RATIO_CEILING = 0.615           # measured max 0.6124 + margin
EQUIV_A, EQUIV_B = 1.1, 1.0          # measured max (term-1)/cost = 1.0951
BEST_STATIC_C = 0.9                  # measured max greedy/best-static = 0.8459
SPLAY_SEQUENTIAL_CEILING = 22140     # exact measured total, n = 4096


def _ok(cid: str, detail: str) -> None:
    print(f"ACCEPTANCE {cid} PASS: {detail}")


def test_c01_satisfaction():
    checked = check_greedy_satisfied(Splitmix64(1))
    assert checked == 1494
    _ok("c01", f"greedy output satisfied on 1000 random + {checked - 1000} exhaustive instances")


def test_c02_greedy_minimality():
    rows = check_greedy_minimality()
    assert rows == 26841
    _ok("c02", f"{rows} rows equal the exhaustive minimum, unique in every case")


def test_c03_opt_dominance():
    checked, worst, worst_case = check_opt_dominance()
    assert checked == 494
    assert worst == pytest.approx(MAX_GREEDY_OVER_OPT, rel=1e-12)
    _ok("c03", f"opt <= greedy on {checked} instances; max ratio {worst:.6f} at {worst_case}")


def test_c04_bound_calculator():
    rng = Splitmix64(44)
    # naive independent re-evaluation at relative error 1e-12
    assert check_bound_terms(rng) == 1000
    # scaling at 1e-9, symmetry, range weights, equal weights in closed form
    assert check_bound_invariants(rng) == 1000
    _ok("c04", "naive re-evaluation at 1e-12, scaling at 1e-9, equal-weights form exact")


def test_c05_sequential_scan_regime():
    m = 10 ** 4
    seq = generate(WorkloadSpec("sequential", m, m))
    cost = greedy_cost(seq)
    bound = fb.dynamic_finger_bound(seq)
    assert bound.total == pytest.approx(2 * m - 1)
    ratio = cost.total / bound.total
    assert ratio <= SEQUENTIAL_RATIO_CEILING
    _ok("c05", f"sequential n=m=10^4: cost {cost.total}, bound {bound.total:.0f}, "
               f"ratio {ratio:.6f} <= {SEQUENTIAL_RATIO_CEILING}")


@pytest.fixture(scope="module")
def walk_ratio_table():
    """Cumulative cost/bound ratio at m = 1e3, 1e4, 1e5 per (d, seed)."""
    table = {}
    for d in (2, 8, 64):
        for seed in WALK_SEEDS:
            seq = generate(WorkloadSpec("walk", 2 ** 16, 10 ** 5, seed=seed, d=d))
            cost = greedy_cost(seq).per_access
            bound = fb.dynamic_finger_bound(seq).per_access
            cc = bb = 0.0
            ratios = {}
            for i in range(10 ** 5):
                cc += cost[i]
                bb += bound[i]
                if i + 1 in (10 ** 3, 10 ** 4, 10 ** 5):
                    ratios[i + 1] = cc / bb
            table[(d, seed)] = ratios
    return table


def test_c06a_locality_regime_ceilings(walk_ratio_table):
    for (d, seed), ratios in walk_ratio_table.items():
        final = ratios[10 ** 5]
        assert math.isfinite(final)
        assert final <= WALK_RATIO_CEILING[d], (d, seed, final)
    summary = "; ".join(
        f"d={d}: " + ",".join(f"{walk_ratio_table[(d, s)][10 ** 5]:.4f}" for s in WALK_SEEDS)
        for d in (2, 8, 64)
    )
    _ok("c06a", f"walk ratios finite and under frozen ceilings ({summary})")


def test_c06b_locality_monotonicity(walk_ratio_table):
    """Asserts the ratio is non-increasing from m=1e3 to m=1e5, as specified.

    This fails by design: measured ratios INCREASE with m for most (d, seed)
    pairs. Greedy started on an empty history pays less per access while the
    key space is cold (sparse last-touch history means short staircases) and
    warms up toward its stationary rate, while the bound's per-access terms
    are stationary from the first access. The amortized relation
    cost <= a * bound + b therefore holds with a NEGATIVE startup term b, and
    cumulative ratios approach the constant a from below, not from above.
    Seed choice cannot flip this: at m = 1e3 a walk has visited under 2% of
    the 2^16 keys, so the cold-start deficit is structural.
    """
    lines = []
    failures = []
    for d in (2, 8, 64):
        for seed in WALK_SEEDS:
            r = walk_ratio_table[(d, seed)]
            mono = r[10 ** 3] >= r[10 ** 4] >= r[10 ** 5]
            lines.append(
                f"d={d} seed={seed}: r(1e3)={r[10**3]:.6f} r(1e4)={r[10**4]:.6f} "
                f"r(1e5)={r[10**5]:.6f} non-increasing={mono}")
            if not mono:
                failures.append((d, seed))
    table = "\n".join(lines)
    print(f"ACCEPTANCE c06b {'PASS' if not failures else 'FAIL'}: ratio direction\n{table}")
    assert not failures, (
        "cost/bound ratio increased with m for "
        f"{len(failures)} of 9 walk runs (cold-start warm-up from below):\n{table}"
    )


def test_c07_weighted_regime():
    n = 4096
    skew = WeightAssignment(tuple(float(i) ** -2 for i in range(1, n + 1)))
    tree = tree_from_weights(skew)
    w = weights_from_tree(tree, 2.0)
    ratios = []
    for seed in ZIPF_SEEDS:
        seq = generate(WorkloadSpec("zipf_finger", n, 50000, seed=seed, theta=2.5))
        cost = greedy_cost(seq)
        bound = fb.weighted_df_bound(seq, w)
        ratio = cost.total / bound.total
        assert ratio <= ZIPF_RATIO_CEILING, (seed, ratio)
        ratios.append(ratio)
    _ok("c07", "zipf-finger weighted ratios " +
        ",".join(f"{r:.4f}" for r in ratios) + f" <= {ZIPF_RATIO_CEILING}")


def test_c08_static_finger_equivalence():
    # every BST on n <= 8 keys, 100 random sequences of length 50 per n:
    # per-access term under tree weights <= a * static finger cost + b
    samples = 0
    worst = 0.0
    for n in range(1, 9):
        rng = Splitmix64(800 + n)
        seqs = [AccessSequence(n, tuple(rng.below(n) + 1 for _ in range(50)))
                for _ in range(100)]
        for tree in iter_bsts(n):
            w = weights_from_tree(tree, 2.0)
            for seq in seqs:
                costs = static_finger_cost(tree, seq).per_access
                terms = fb.weighted_df_bound(seq, w).per_access
                for i, (term, c) in enumerate(zip(terms, costs)):
                    assert term <= EQUIV_A * c + EQUIV_B + 1e-12, (n, seq.accesses, i)
                    worst = max(worst, (term - EQUIV_B) / c)
                    samples += 1
    # the best static finger tree never beats greedy by more than C
    ratios = []
    for kind, kw, seed in (("walk", {"d": 2}, 31), ("uniform", {}, 32),
                           ("zipf_finger", {"theta": 2.5}, 33)):
        seq = generate(WorkloadSpec(kind, 10, 120, seed=seed, **kw))
        _, best_total = fb.best_static_finger_cost(seq)
        g = greedy_cost(seq).total
        assert best_total >= g / BEST_STATIC_C, (kind, g, best_total)
        ratios.append(g / best_total)
    _ok("c08", f"{samples} term samples under a={EQUIV_A}, b={EQUIV_B} "
               f"(max (term-b)/cost {worst:.4f}); greedy/best-static " +
        ",".join(f"{r:.4f}" for r in ratios) + f" <= {BEST_STATIC_C}")


def test_c09_tree_depth_bound():
    assert check_depth_bound(Splitmix64(900)) == 1000
    _ok("c09", "depth(i) <= log2(W/w_i) + 1 on 1000 random weight vectors, n <= 512")


def test_c10_splay_baseline():
    assert check_splay_invariants(Splitmix64(1000)) == 500
    n = 4096
    sequential = run_splay(AccessSequence(n, tuple(range(1, n + 1))), "left_spine")
    assert sequential.total <= SPLAY_SEQUENTIAL_CEILING
    for initial in ("balanced", "left_spine", "right_spine"):
        tree = SplayTree(37, initial)
        node, depth = tree.root, 0
        while node.key != 17:
            node = node.left if 17 < node.key else node.right
            depth += 1
        rep = run_splay(AccessSequence(37, (17,) * 50), initial)
        assert rep.total == depth + 1 + 49
    _ok("c10", f"in-order held on 500 runs; sequential n=4096 total {sequential.total} "
               f"<= {SPLAY_SEQUENTIAL_CEILING}; repeated-key cost exact")


def test_c11_reproducibility(tmp_path, capsys):
    from fingerbound.cli import main

    # generator determinism and byte-identical trace round-trips
    assert check_roundtrip(Splitmix64(1100)) == 60
    # CLI outputs byte-identical across reruns
    trace = tmp_path / "cli.txt"
    write_trace(generate(WorkloadSpec("walk", 64, 120, seed=12, d=4)), trace)
    for argv in (["run", "--trace", str(trace), "--algo", "greedy"],
                 ["bound", "--trace", str(trace), "--start", "root"]):
        outs = []
        for _ in range(2):
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
    _ok("c11", "generators, trace IO, and CLI output byte-identical per seed")
