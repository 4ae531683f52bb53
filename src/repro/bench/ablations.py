"""Ablation studies on the design choices the paper motivates in prose.

Three studies, each isolating one claim:

* :func:`ablation_parallel_loss` — Lemma 4 / Figure 3 at scale: operation
  counts of the sequential push vs the parallel push as the scheduling
  width (worker count) grows. Shows parallel loss appearing with staler
  reads and eager propagation recovering part of it.
* :func:`ablation_batching` — Section 3.1's motivation: total operations
  of per-update processing (CPU-Base) vs batch processing (CPU-Seq) as
  the batch size grows. Batching collapses repeated work near the source.
* :func:`ablation_frontier_generation` — Section 4.2's cost accounting:
  synchronized duplicate checks per slide under the global queue vs local
  duplicate detection (which performs none), plus the enqueue volumes
  that drive them.
"""

from __future__ import annotations

from typing import Sequence

from ..config import Backend, PushVariant
from ..core.push_sequential import cpu_base_update, cpu_seq_update, sequential_local_push
from ..core.push_parallel import parallel_local_push
from ..core.state import PPRState
from ..core.tracker import DynamicPPRTracker
from ..graph.workloads import WorkloadSpec, default_config, prepare_workload
from .figures import FigureResult


def ablation_parallel_loss(
    dataset: str = "youtube",
    *,
    worker_widths: Sequence[int] = (1, 4, 16, 64, 256, 100_000),
    epsilon: float = 1e-5,
) -> FigureResult:
    """Push-operation counts vs scheduling width (sequential as baseline)."""
    prepared = prepare_workload(WorkloadSpec(dataset=dataset))
    config = default_config(epsilon=epsilon)
    rows: list[Sequence[object]] = []

    def one_slide_state():
        graph = prepared.initial_graph()
        tracker = DynamicPPRTracker(graph, prepared.source, config)
        window = prepared.new_window()
        slide = window.slide()
        from ..core.invariant import restore_batch

        touched, _ = restore_batch(graph, tracker.state, slide.updates, config.alpha)
        return graph, tracker.state, touched

    graph, state, touched = one_slide_state()
    seq_state = state.copy()
    seq = sequential_local_push(seq_state, graph, config, seeds=touched)
    rows.append([dataset, "sequential", "-", seq.pushes, seq.edge_traversals, 1.0])

    for variant in (PushVariant.VANILLA, PushVariant.OPT):
        for workers in worker_widths:
            cfg = config.with_(
                variant=variant, workers=workers, backend=Backend.NUMPY
            )
            par_state = state.copy()
            stats = parallel_local_push(par_state, graph, cfg, seeds=touched)
            rows.append(
                [
                    dataset,
                    variant.value,
                    workers,
                    stats.pushes,
                    stats.edge_traversals,
                    stats.pushes / max(1, seq.pushes),
                ]
            )
    return FigureResult(
        figure="Ablation A1",
        title="Parallel loss: push operations vs scheduling width (Lemma 4)",
        headers=["dataset", "schedule", "workers", "pushes", "edge_ops", "vs_sequential"],
        rows=rows,
    )


def ablation_batching(
    dataset: str = "youtube",
    *,
    epsilon: float = 1e-5,
    num_slides: int = 2,
) -> FigureResult:
    """Per-update vs batched processing: total sequential operations."""
    prepared = prepare_workload(WorkloadSpec(dataset=dataset))
    config = default_config(epsilon=epsilon)
    rows: list[Sequence[object]] = []
    for label, runner in (("per-update (CPU-Base)", cpu_base_update),
                          ("batched (CPU-Seq)", cpu_seq_update)):
        graph = prepared.initial_graph()
        state = PPRState.initial(prepared.source, graph.capacity)
        sequential_local_push(state, graph, config, seeds=[prepared.source])
        window = prepared.new_window()
        pushes = edges = 0
        for slide in window.slides(num_slides):
            batch = runner(state, graph, list(slide.updates), config)
            pushes += batch.sequential_push.pushes
            edges += batch.sequential_push.edge_traversals
        rows.append([dataset, label, pushes, edges, pushes + edges])
    base_total = rows[0][4]
    seq_total = rows[1][4]
    rows.append(
        [dataset, "batching saves", "-", "-", f"{base_total / max(1, seq_total):.2f}x"]
    )
    return FigureResult(
        figure="Ablation A2",
        title="Why batch updates: total sequential operations per slide set",
        headers=["dataset", "processing", "pushes", "edge_ops", "total"],
        rows=rows,
    )


def ablation_frontier_generation(
    dataset: str = "youtube",
    *,
    epsilon: float = 1e-5,
    num_slides: int = 2,
) -> FigureResult:
    """Synchronized dedup checks: global queue vs local detection."""
    prepared = prepare_workload(WorkloadSpec(dataset=dataset))
    rows: list[Sequence[object]] = []
    for variant in (PushVariant.VANILLA, PushVariant.DUPDETECT,
                    PushVariant.EAGER, PushVariant.OPT):
        config = default_config(epsilon=epsilon).with_(
            variant=variant, backend=Backend.NUMPY, workers=40
        )
        graph = prepared.initial_graph()
        tracker = DynamicPPRTracker(graph, prepared.source, config)
        window = prepared.new_window()
        attempts = checks = enqueued = 0
        for slide in window.slides(num_slides):
            stats = tracker.apply_batch(list(slide.updates)).push
            attempts += stats.enqueue_attempts
            checks += stats.dedup_checks
            enqueued += sum(rec.enqueued for rec in stats.iterations)
        rows.append([dataset, variant.value, attempts, checks, enqueued])
    return FigureResult(
        figure="Ablation A3",
        title="Frontier generation: synchronized duplicate checks per variant",
        headers=["dataset", "variant", "enqueue_attempts", "sync_dedup_checks", "enqueued"],
        rows=rows,
    )


#: The one registry of ablation studies: ``name -> driver(dataset=...)``.
ABLATIONS = {
    "loss": ablation_parallel_loss,
    "batching": ablation_batching,
    "frontier": ablation_frontier_generation,
}
