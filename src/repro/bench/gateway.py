"""Gateway benchmark: read-coalescing vs per-request dispatch.

The experiment behind ``python -m repro gateway-bench`` and
``benchmarks/bench_gateway.py``: replay the *same* mixed read/write
request trace (sliding-window ingest batches interleaved with
heavy-tailed top-k query bursts) against two identically-configured
engines — one receiving the bursts through
:meth:`repro.api.Gateway.submit_many` (reads coalesced between write
barriers, repeated sources deduplicated, cold admissions batched), the
other dispatching every request individually. Real serving traffic is
heavy-tailed: the same hot sources repeat within a burst constantly,
which is exactly what coalescing exploits.

Answers must be **bit-identical** across the two arms (same engine, same
deterministic trace — the scheduler is not allowed to change results,
only their cost); the acceptance bar is coalesced dispatch >= 2x faster.
"""

from __future__ import annotations

from ..graph.workloads import WorkloadSpec, prepare_workload
from ..obs import clock
from dataclasses import dataclass

import numpy as np

from ..api.gateway import Gateway
from ..api.requests import (
    ApiRequest,
    BatchQuery,
    Consistency,
    IngestBatch,
    TopKQuery,
)
from ..api.responses import TopKResult
from ..config import ApiConfig
from ..serve import workload_service
from ..utils.rng import ensure_rng
from ..utils.tables import format_table
from .serving import _query_mix


@dataclass
class GatewayBenchResult:
    """Outcome of one coalescing-vs-dispatch race."""

    dataset: str
    num_sources: int
    num_slides: int
    requests: int
    unique_reads: int
    reads_coalesced: int
    coalesced_seconds: float
    dispatch_seconds: float
    ingest_seconds: float
    matched: bool

    @property
    def speedup(self) -> float:
        """Per-request dispatch time over coalesced-schedule time."""
        return (
            self.dispatch_seconds / self.coalesced_seconds
            if self.coalesced_seconds
            else float("inf")
        )

    @property
    def coalesced_qps(self) -> float:
        return self.requests / self.coalesced_seconds if self.coalesced_seconds else 0.0

    @property
    def dispatch_qps(self) -> float:
        return self.requests / self.dispatch_seconds if self.dispatch_seconds else 0.0

    def table(self) -> str:
        rows = [
            ["request trace", f"{self.requests} reads over {self.num_slides} slides,"
                              f" {self.num_sources}-source heavy-tailed mix"],
            ["unique reads", f"{self.unique_reads}"
                             f" ({self.reads_coalesced} duplicates coalesced)"],
            ["coalesced schedule", f"{self.coalesced_qps:,.0f} reads/s"],
            ["per-request dispatch", f"{self.dispatch_qps:,.0f} reads/s"],
            ["speedup", f"{self.speedup:,.1f}x"],
            ["ingest time (each arm)", f"{self.ingest_seconds * 1e3:,.1f} ms"],
            ["answers across arms", "bit-identical" if self.matched else "MISMATCH"],
        ]
        return format_table(
            ["metric", "value"],
            rows,
            title=f"Gateway read-coalescing vs per-request dispatch — {self.dataset}",
        )


def _answers_identical(a: TopKResult, b: TopKResult) -> bool:
    """Bit-exact ranking equality (vertices and float estimates)."""
    if len(a.entries) != len(b.entries):
        return False
    return all(
        x.vertex == y.vertex and x.estimate == y.estimate
        for x, y in zip(a.entries, b.entries)
    )


def gateway_benchmark(
    dataset: str = "youtube",
    *,
    num_sources: int = 48,
    num_slides: int = 3,
    requests_per_slide: int = 256,
    k: int = 10,
    epsilon: float = 1e-5,
    workers: int = 40,
    seed: int = 11,
) -> GatewayBenchResult:
    """Race one request trace through coalesced vs per-request scheduling.

    Per slide: one :class:`~repro.api.requests.IngestBatch` (the write
    barrier, identical in both arms and untimed in the comparison), then
    a Zipf-like burst of top-k reads at ``BOUNDED(num_slides)``
    consistency — the serving fast path, where a read's cost is the
    answer computation itself. (Under FRESH, both arms spend their time
    in identical once-per-source refresh pushes after each write, which
    measures the push engine, not the scheduler.) Arm one submits each
    burst via ``submit_many`` (coalescing on); arm two dispatches the
    same requests one ``submit`` at a time. Both engines replay
    identical traffic, so every response pair must be bit-identical.
    """
    coalesced_gw = _fresh_gateway(dataset, num_sources, k, epsilon, workers)
    dispatch_gw = _fresh_gateway(dataset, num_sources, k, epsilon, workers)
    prepared = prepare_workload(WorkloadSpec(dataset=dataset))
    rng = ensure_rng(seed)
    mix = _query_mix(
        coalesced_gw.service.graph.out_degree_array(), num_sources, rng
    )
    # Heavy-tailed popularity (rank^-1.5), as in the serving benchmark.
    weights = np.arange(1, num_sources + 1, dtype=np.float64) ** -1.5
    weights /= weights.sum()

    # Warm both engines identically: admit the whole mix in batched
    # pushes (untimed — cold admission costs one identical from-scratch
    # push per source in either arm; the race is about scheduling).
    warm = BatchQuery(sources=tuple(int(s) for s in mix), k=k)
    coalesced_gw.submit(warm)
    dispatch_gw.submit(warm)

    window = prepared.new_window()
    coalesced_seconds = 0.0
    dispatch_seconds = 0.0
    ingest_seconds = 0.0
    requests = 0
    unique_reads = 0
    matched = True
    for slide in window.slides(num_slides):
        write = IngestBatch(updates=tuple(slide.updates))
        start = clock.now()
        coalesced_gw.submit(write)
        ingest_seconds += clock.now() - start
        dispatch_gw.submit(write)

        chosen = rng.choice(mix, size=requests_per_slide, p=weights)
        bounded = Consistency.bounded(num_slides)
        burst: list[ApiRequest] = [
            TopKQuery(source=int(s), k=k, consistency=bounded) for s in chosen
        ]
        requests += len(burst)
        unique_reads += len(set(int(s) for s in chosen))

        start = clock.now()
        coalesced = coalesced_gw.submit_many(burst, coalesce=True)
        coalesced_seconds += clock.now() - start

        start = clock.now()
        dispatched = [dispatch_gw.submit(request) for request in burst]
        dispatch_seconds += clock.now() - start

        for left, right in zip(coalesced, dispatched):
            assert isinstance(left, TopKResult) and isinstance(right, TopKResult)
            if left.error or right.error or not _answers_identical(left, right):
                matched = False

    return GatewayBenchResult(
        dataset=dataset,
        num_sources=num_sources,
        num_slides=num_slides,
        requests=requests,
        unique_reads=unique_reads,
        reads_coalesced=coalesced_gw.counters["reads_coalesced"],
        coalesced_seconds=coalesced_seconds,
        dispatch_seconds=dispatch_seconds,
        ingest_seconds=ingest_seconds,
        matched=matched,
    )


def _fresh_gateway(
    dataset: str, num_sources: int, k: int, epsilon: float, workers: int
) -> Gateway:
    service, _ = workload_service(
        dataset,
        epsilon=epsilon,
        workers=workers,
        cache_capacity=num_sources,
        top_k=k,
    )
    return Gateway(service, ApiConfig())
