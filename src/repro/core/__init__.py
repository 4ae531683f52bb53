"""Core dynamic-PPR machinery: state, invariant, pushes, tracker, theory."""

from .analysis import (
    parallel_bound_directed,
    parallel_bound_undirected,
    residual_change_bound,
    sequential_bound,
)
from .certify import (
    certified_comparison,
    certified_top_k,
    convergence_report,
    error_bound,
    residual_decay,
)
from .groundtruth import ground_truth_linear, ground_truth_ppr
from .hub_index import DynamicHubIndex, select_hubs
from .invariant import check_invariant, invariant_violation, restore_invariant
from .push_parallel import parallel_local_push
from .push_sequential import sequential_local_push
from .state import PPRState
from .stats import BatchStats, IterationRecord, PushStats
from .tracker import DynamicPPRTracker

__all__ = [
    "BatchStats",
    "DynamicHubIndex",
    "certified_comparison",
    "certified_top_k",
    "convergence_report",
    "error_bound",
    "residual_decay",
    "select_hubs",
    "DynamicPPRTracker",
    "IterationRecord",
    "PPRState",
    "PushStats",
    "check_invariant",
    "ground_truth_linear",
    "ground_truth_ppr",
    "invariant_violation",
    "restore_invariant",
    "parallel_bound_directed",
    "parallel_bound_undirected",
    "parallel_local_push",
    "residual_change_bound",
    "sequential_bound",
    "sequential_local_push",
]
