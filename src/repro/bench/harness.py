"""Approach runners: drive each system over a workload, price the trace.

Each :class:`Approach` corresponds to one line of the paper's Figure 5
legend. ``run_approach`` replays ``num_slides`` window slides through the
chosen system, collects its operation trace per slide, and converts it to
simulated hardware latency with the matching cost model. Real wall-clock
of the Python engines is also recorded (pytest-benchmark times the same
kernels separately).
"""

from __future__ import annotations

import enum
from ..graph.workloads import PreparedWorkload
from ..obs import clock
from dataclasses import dataclass, field

import numpy as np

from ..config import Backend, PPRConfig, PushVariant
from ..core.push_sequential import cpu_base_update, cpu_seq_update
from ..core.state import PPRState
from ..core.stats import PushStats
from ..core.tracker import DynamicPPRTracker
from ..baselines.ligra.ppr import LigraDynamicPPR
from ..baselines.montecarlo import IncrementalMonteCarloPPR
from ..errors import ConfigError
from ..parallel.cost_model import (
    CPUCostModel,
    GPUCostModel,
    LigraCostModel,
    MonteCarloCostModel,
)


class Approach(enum.Enum):
    """The systems compared in Section 5 (Figure 5's legend)."""

    CPU_BASE = "cpu-base"
    CPU_SEQ = "cpu-seq"
    CPU_MT = "cpu-mt"
    GPU = "gpu"
    MONTE_CARLO = "monte-carlo"
    LIGRA = "ligra"


@dataclass
class ApproachResult:
    """Per-slide simulated latencies plus derived aggregates."""

    approach: Approach
    workload: str
    slide_latencies: list[float] = field(default_factory=list)
    stream_edges_consumed: int = 0
    wall_time: float = 0.0
    push_stats: PushStats = field(default_factory=PushStats)

    @property
    def total_latency(self) -> float:
        return sum(self.slide_latencies)

    @property
    def mean_latency(self) -> float:
        if not self.slide_latencies:
            return 0.0
        return self.total_latency / len(self.slide_latencies)

    @property
    def throughput(self) -> float:
        """Stream edges consumed per simulated second (Figure 5's axis)."""
        if self.total_latency <= 0:
            return 0.0
        return self.stream_edges_consumed / self.total_latency


#: GPU eager-read scheduling granularity: blocks execute in waves across
#: SMs, so a frontier vertex scheduled in a later wave observes earlier
#: waves' atomic additions. One wave ~ 2048 threads here.
_GPU_WORKERS = 2048


def _tracker_config(
    base: PPRConfig, approach: Approach, variant: PushVariant, workers: int
) -> PPRConfig:
    if approach is Approach.CPU_MT:
        return base.with_(backend=Backend.NUMPY, variant=variant, workers=workers)
    if approach is Approach.GPU:
        return base.with_(backend=Backend.NUMPY, variant=variant, workers=_GPU_WORKERS)
    return base


def run_approach(
    prepared: PreparedWorkload,
    approach: Approach,
    config: PPRConfig,
    *,
    num_slides: int = 3,
    variant: PushVariant = PushVariant.OPT,
    workers: int = 40,
    monte_carlo_walks: int = 6,
) -> ApproachResult:
    """Replay the workload through one approach and price every slide."""
    if num_slides < 1:
        raise ConfigError(f"num_slides must be >= 1, got {num_slides}")
    result = ApproachResult(approach=approach, workload=prepared.describe())
    window = prepared.new_window()
    graph = prepared.initial_graph()
    source = prepared.source
    start_wall = clock.now()

    if approach in (Approach.CPU_BASE, Approach.CPU_SEQ):
        model = CPUCostModel(workers=1)
        state = PPRState.initial(source, graph.capacity)
        from ..core.push_sequential import sequential_local_push

        sequential_local_push(state, graph, config, seeds=[source])
        runner = cpu_base_update if approach is Approach.CPU_BASE else cpu_seq_update
        for slide in window.slides(num_slides):
            batch = runner(state, graph, list(slide.updates), config)
            latency = model.sequential_latency(
                batch.sequential_push, num_updates=len(slide.updates)
            )
            result.slide_latencies.append(latency)
            result.stream_edges_consumed += slide.num_stream_edges

    elif approach in (Approach.CPU_MT, Approach.GPU):
        cfg = _tracker_config(config, approach, variant, workers)
        tracker = DynamicPPRTracker(graph, source, cfg)
        cpu_model = CPUCostModel(workers=workers)
        gpu_model = GPUCostModel()
        for slide in window.slides(num_slides):
            batch = tracker.apply_batch(list(slide.updates))
            if approach is Approach.CPU_MT:
                latency = cpu_model.parallel_latency(
                    batch.push, num_updates=len(slide.updates)
                )
            else:
                latency = gpu_model.parallel_latency(
                    batch.push, num_updates=len(slide.updates)
                )
            result.slide_latencies.append(latency)
            result.stream_edges_consumed += slide.num_stream_edges
            result.push_stats.merge(batch.push)

    elif approach is Approach.LIGRA:
        ligra = LigraDynamicPPR(graph, source, config)
        model = LigraCostModel(cpu=CPUCostModel(workers=workers))
        for slide in window.slides(num_slides):
            batch = ligra.apply_batch(list(slide.updates))
            latency = model.parallel_latency(
                batch.push,
                num_vertices=graph.capacity,
                num_edges=graph.num_edges,
                num_updates=len(slide.updates),
            )
            result.slide_latencies.append(latency)
            result.stream_edges_consumed += slide.num_stream_edges
            result.push_stats.merge(batch.push)

    elif approach is Approach.MONTE_CARLO:
        mc = IncrementalMonteCarloPPR(
            graph,
            source,
            config.alpha,
            walks_per_vertex=monte_carlo_walks,
            rng=prepared.spec.seed,
        )
        model = MonteCarloCostModel(workers=workers)
        for slide in window.slides(num_slides):
            stats = mc.apply_batch(list(slide.updates))
            latency = model.latency(stats.walk_steps, stats.index_ops)
            result.slide_latencies.append(latency)
            result.stream_edges_consumed += slide.num_stream_edges

    else:  # pragma: no cover - exhaustive over the enum
        raise ConfigError(f"unknown approach: {approach!r}")

    result.wall_time = clock.now() - start_wall
    return result


def speedup_table(results: dict[Approach, ApproachResult], base: Approach) -> dict[Approach, float]:
    """Latency speedups of every approach relative to ``base``."""
    baseline = results[base].mean_latency
    out: dict[Approach, float] = {}
    for approach, res in results.items():
        out[approach] = baseline / res.mean_latency if res.mean_latency > 0 else np.inf
    return out
