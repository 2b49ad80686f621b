"""Geometric-greedy BST execution measured against weighted finger bounds."""

from .core import (
    AccessSequence,
    BoundReport,
    CostReport,
    Key,
    Point,
    PointSet,
    WeightAssignment,
)
from .geometry import is_arborally_satisfied, unsatisfied_pairs
from .greedy import (
    GreedyState,
    brute_min_row,
    greedy_cost,
    greedy_execute,
    greedy_row,
    greedy_row_reference,
)
from .opt import OptResult, opt_satisfied_superset
from .bounds import (
    StaticTree,
    best_static_finger_cost,
    dynamic_finger_bound,
    iter_bsts,
    static_finger_cost,
    tree_from_weights,
    weighted_df_bound,
    weights_from_tree,
    wdf_term,
)
from .splay import SplayTree, run_splay, run_splay_reference
from .workloads import (
    Splitmix64,
    WorkloadSpec,
    generate,
    read_trace,
    read_weights,
    write_trace,
    write_weights,
)
from .harness import FitResult, fit, run_experiment
from .verify import SuiteReport, run_suite

__all__ = [
    "AccessSequence",
    "BoundReport",
    "CostReport",
    "FitResult",
    "GreedyState",
    "Key",
    "OptResult",
    "Point",
    "PointSet",
    "SplayTree",
    "SuiteReport",
    "Splitmix64",
    "StaticTree",
    "WeightAssignment",
    "WorkloadSpec",
    "best_static_finger_cost",
    "brute_min_row",
    "dynamic_finger_bound",
    "fit",
    "generate",
    "greedy_cost",
    "greedy_execute",
    "greedy_row",
    "greedy_row_reference",
    "is_arborally_satisfied",
    "iter_bsts",
    "opt_satisfied_superset",
    "read_trace",
    "read_weights",
    "run_experiment",
    "run_splay",
    "run_splay_reference",
    "run_suite",
    "static_finger_cost",
    "tree_from_weights",
    "unsatisfied_pairs",
    "weighted_df_bound",
    "weights_from_tree",
    "wdf_term",
    "write_trace",
    "write_weights",
]
