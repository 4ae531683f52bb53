"""Hardware cost models: operation traces -> simulated seconds.

Each model charges the operations the corresponding implementation would
execute:

* :class:`CPUCostModel` — multi-core CPU (the paper's CPU-MT): per
  iteration, two parallel sessions separated by barriers; work divides
  across ``workers``; atomic residual additions pay an overhead multiplier;
  global duplicate detection pays a synchronized check per enqueue attempt
  that contends on the shared frontier queue.
* :class:`GPUCostModel` — the paper's GPU: kernel-launch latency per
  session dominates small frontiers; massive parallelism absorbs large
  ones; occupancy scales with available work.
* :class:`MonteCarloCostModel` — incremental random-walk maintenance:
  per-step regeneration cost plus inverted-index maintenance (the paper
  attributes Monte-Carlo's slowness to exactly this bookkeeping).
* :class:`LigraCostModel` — a generic vertex-centric framework: the same
  work as CPU-MT but with an abstraction-overhead multiplier, a dense/
  sparse frontier scan, and flag-based duplicate removal (it cannot use
  eager propagation or local duplicate detection — Section 5.3's point).

Constants are calibrated so that the *sequential*
model reproduces realistic single-core push throughput (~50M edge ops/s)
and the relative magnitudes of barrier/atomic/launch overheads follow the
hardware literature. Paper-vs-measured ratios are reported per figure.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.stats import PushStats, SequentialPushStats


@dataclass(frozen=True)
class CPUCostModel:
    """Multi-core CPU latency model (also covers 1-core sequential runs)."""

    workers: int = 40
    seconds_per_push: float = 5.0e-8
    seconds_per_edge: float = 2.0e-8
    atomic_overhead: float = 2.0
    seconds_per_dedup_check: float = 6.0e-8
    dedup_contention: float = 2.0
    barrier_seconds: float = 4.0e-6
    seconds_per_restore: float = 1.5e-7
    dispatch_seconds: float = 2.0e-6

    def restore_latency(self, num_updates: int) -> float:
        """Restore-invariant is a short serial prologue (k tiny updates)."""
        return num_updates * self.seconds_per_restore

    def sequential_latency(
        self, stats: SequentialPushStats, *, num_updates: int = 0
    ) -> float:
        """Latency of Algorithm 2 on one core: no barriers, no atomics."""
        return (
            self.restore_latency(num_updates)
            + stats.pushes * self.seconds_per_push
            + stats.edge_traversals * self.seconds_per_edge
        )

    def parallel_latency(self, stats: PushStats, *, num_updates: int = 0) -> float:
        """Latency of the parallel push with ``workers`` cores."""
        total = self.restore_latency(num_updates)
        for rec in stats.iterations:
            work = (
                rec.frontier_size * self.seconds_per_push
                + rec.edge_traversals * self.seconds_per_edge * self.atomic_overhead
            )
            dedup = (
                rec.dedup_checks
                * self.seconds_per_dedup_check
                * self.dedup_contention
            )
            total += (
                self.dispatch_seconds
                + 2.0 * self.barrier_seconds  # one per parallel session
                + (work + dedup) / self.workers
            )
        return total

    def with_workers(self, workers: int) -> "CPUCostModel":
        """Same constants, different core count (Figure 10 sweeps this)."""
        return CPUCostModel(
            workers=workers,
            seconds_per_push=self.seconds_per_push,
            seconds_per_edge=self.seconds_per_edge,
            atomic_overhead=self.atomic_overhead,
            seconds_per_dedup_check=self.seconds_per_dedup_check,
            dedup_contention=self.dedup_contention,
            barrier_seconds=self.barrier_seconds,
            seconds_per_restore=self.seconds_per_restore,
            dispatch_seconds=self.dispatch_seconds,
        )


@dataclass(frozen=True)
class GPUCostModel:
    """GPU latency model (GTX TITAN X class device)."""

    sm_count: int = 24
    threads_per_sm: int = 2048
    seconds_per_push: float = 2.0e-9
    seconds_per_edge: float = 1.5e-9
    atomic_overhead: float = 4.0
    seconds_per_dedup_check: float = 2.5e-8
    #: Synchronized enqueues funnel through a shared queue tail: on a GPU
    #: they serialize to roughly warp-width effective parallelism.
    dedup_parallelism: int = 32
    kernel_launch_seconds: float = 8.0e-6
    seconds_per_restore: float = 1.0e-7
    #: Work (in thread-ops) needed to reach full occupancy.
    full_occupancy_work: int = 1 << 16

    @property
    def max_parallelism(self) -> int:
        return self.sm_count * self.threads_per_sm

    def occupancy(self, thread_ops: int) -> float:
        """Achieved occupancy grows with available per-iteration work."""
        if thread_ops <= 0:
            return 0.0
        return min(1.0, thread_ops / self.full_occupancy_work)

    def restore_latency(self, num_updates: int) -> float:
        return num_updates * self.seconds_per_restore

    def parallel_latency(self, stats: PushStats, *, num_updates: int = 0) -> float:
        total = self.restore_latency(num_updates)
        for rec in stats.iterations:
            thread_ops = rec.frontier_size + rec.edge_traversals
            occ = max(self.occupancy(thread_ops), 1.0 / 64.0)
            effective = max(1.0, self.max_parallelism * occ)
            work = (
                rec.frontier_size * self.seconds_per_push
                + rec.edge_traversals * self.seconds_per_edge * self.atomic_overhead
            )
            dedup = (
                rec.dedup_checks * self.seconds_per_dedup_check / self.dedup_parallelism
            )
            total += 2.0 * self.kernel_launch_seconds + work / effective + dedup
        return total


@dataclass(frozen=True)
class MonteCarloCostModel:
    """Incremental Monte-Carlo maintenance latency model (CPU, parallel).

    Charged per regenerated-walk step: the step itself plus the inverted
    index bookkeeping (remove old trace entries, insert new ones), which
    requires atomic access to shared structures.
    """

    workers: int = 40
    seconds_per_step: float = 6.0e-8
    seconds_per_index_op: float = 4.0e-7
    #: The shared walk store and inverted index are updated with atomic
    #: RMW operations under heavy contention (Section 5.3's analysis of
    #: Monte-Carlo's overheads); parallel efficiency degrades accordingly.
    atomic_contention: float = 3.0
    dispatch_seconds: float = 2.0e-6

    def latency(self, walk_steps: int, index_ops: int) -> float:
        work = (
            walk_steps * self.seconds_per_step
            + index_ops * self.seconds_per_index_op
        ) * self.atomic_contention
        return self.dispatch_seconds + work / self.workers


@dataclass(frozen=True)
class LigraCostModel:
    """Vertex-centric framework model: CPU-MT plus abstraction overheads."""

    cpu: CPUCostModel = CPUCostModel()
    framework_overhead: float = 1.8
    seconds_per_flag_op: float = 4.0e-8
    #: edgeMap switches to the dense representation when the frontier's
    #: out-edge volume exceeds m / dense_threshold_divisor (Ligra uses 20).
    dense_threshold_divisor: int = 20
    seconds_per_dense_scan_vertex: float = 6.0e-9

    def parallel_latency(
        self,
        stats: PushStats,
        *,
        num_vertices: int,
        num_edges: int,
        num_updates: int = 0,
    ) -> float:
        total = self.cpu.restore_latency(num_updates)
        dense_cutoff = max(1, num_edges // self.dense_threshold_divisor)
        for rec in stats.iterations:
            work = (
                rec.frontier_size * self.cpu.seconds_per_push
                + rec.edge_traversals
                * self.cpu.seconds_per_edge
                * self.cpu.atomic_overhead
            ) * self.framework_overhead
            # removeDuplicates: one flag write + read per enqueue attempt.
            dedup = rec.enqueue_attempts * self.seconds_per_flag_op * 2.0
            if rec.edge_traversals > dense_cutoff:
                # Dense mode scans every vertex to build the next frontier.
                work += num_vertices * self.seconds_per_dense_scan_vertex
            total += (
                self.cpu.dispatch_seconds
                + 2.0 * self.cpu.barrier_seconds
                + (work + dedup) / self.cpu.workers
            )
        return total
