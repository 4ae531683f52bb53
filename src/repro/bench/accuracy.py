"""Accuracy-vs-cost study: local update vs incremental Monte-Carlo.

Section 5.1 concedes that the Monte-Carlo baseline runs with far fewer
walks than its theory requires ("we favor Monte-Carlo and set w to a
smaller value ... to improve the performance by trading accuracies").
This study makes the trade measurable: for one maintained workload it
reports, per approach, the *measured max estimation error* against exact
ground truth next to the simulated maintenance latency — the push's
ε-guarantee versus Monte-Carlo's sampling noise at the paper's budget
(``w = 6|V|``) and at more generous budgets.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..baselines.montecarlo import IncrementalMonteCarloPPR
from ..config import Backend
from ..core.groundtruth import ground_truth_ppr, max_estimate_error
from ..core.tracker import DynamicPPRTracker
from ..graph.workloads import WorkloadSpec, default_config, prepare_workload
from ..parallel.cost_model import CPUCostModel, MonteCarloCostModel
from .figures import FigureResult


def accuracy_study(
    dataset: str = "youtube",
    *,
    epsilons: Sequence[float] = (1e-4, 1e-5),
    walk_budgets: Sequence[int] = (6, 24),
    num_slides: int = 1,
    workers: int = 40,
) -> FigureResult:
    """Measured max error vs simulated latency for both schemes.

    Ground truth is recomputed exactly after the final slide; errors are
    sup-norm over all vertices. Intended for the smaller analogs (exact
    solves are O(m) per sweep).
    """
    prepared = prepare_workload(WorkloadSpec(dataset=dataset))
    rows: list[Sequence[object]] = []

    for epsilon in epsilons:
        config = default_config(epsilon=epsilon).with_(
            backend=Backend.NUMPY, workers=workers
        )
        graph = prepared.initial_graph()
        tracker = DynamicPPRTracker(graph, prepared.source, config)
        model = CPUCostModel(workers=workers)
        window = prepared.new_window()
        latency = 0.0
        for slide in window.slides(num_slides):
            batch = tracker.apply_batch(list(slide.updates))
            latency += model.parallel_latency(
                batch.push, num_updates=len(slide.updates)
            )
        truth = ground_truth_ppr(graph, prepared.source, config.alpha)
        error = max_estimate_error(tracker.estimate_vector(), truth)
        rows.append(
            [
                dataset,
                f"local-update eps={epsilon:g}",
                error,
                epsilon,
                latency / num_slides,
            ]
        )

    for walks in walk_budgets:
        graph = prepared.initial_graph()
        mc = IncrementalMonteCarloPPR(
            graph,
            prepared.source,
            default_config().alpha,
            walks_per_vertex=walks,
            rng=prepared.spec.seed,
        )
        model = MonteCarloCostModel(workers=workers)
        window = prepared.new_window()
        latency = 0.0
        for slide in window.slides(num_slides):
            stats = mc.apply_batch(list(slide.updates))
            latency += model.latency(stats.walk_steps, stats.index_ops)
        truth = ground_truth_ppr(graph, prepared.source, default_config().alpha)
        error = max_estimate_error(mc.estimate_vector(), truth)
        # The binomial standard error of one estimate at p ~ alpha.
        alpha = default_config().alpha
        noise = float(np.sqrt(alpha * (1 - alpha) / walks))
        rows.append(
            [dataset, f"monte-carlo w={walks}/vertex", error, noise, latency / num_slides]
        )

    return FigureResult(
        figure="Accuracy study",
        title="Measured max error vs simulated maintenance latency",
        headers=["dataset", "approach", "measured_error", "error_scale", "latency"],
        rows=rows,
    )
