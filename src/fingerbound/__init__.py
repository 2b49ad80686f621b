"""Geometric-greedy BST execution measured against weighted finger bounds.

Every per-access result, an algorithm's costs or a bound's terms, is one
`core.Column`.

Errors: an exported entry point given bad input raises one of three kinds.
A wrong type for an argument's role (a list where an `AccessSequence`, a
`PointSet` or a sweep is due) is a `TypeError` that names the argument. A
bad value, an out-of-range integer or a non-integer where an integer count,
key or time is due included, is a `ValueError`, one of `errors.py`'s where
one fits (such as `errors.KeyOutOfRangeError`). A missing or unreadable
file is an `OSError`, and a malformed trace or weights file an
`errors.TraceParseError`, a `ValueError` naming its line and path.
"""

from .core import (
    AccessSequence,
    Column,
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
    "Column",
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
