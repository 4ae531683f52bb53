"""Serving-layer benchmark: query throughput from maintained state.

The experiment behind ``python -m repro serve-bench`` and
``benchmarks/bench_serving.py``: replay a sliding-window update stream
through a :class:`~repro.serve.PPRService` while a heavy-tailed mix of
sources issues top-k queries, and compare the served query throughput
against the *per-query recomputation* baseline — a from-scratch
vectorized push at the same ε for every query (what an application
without maintained state would do; the baseline is even granted a
pre-built CSR snapshot).

Reported alongside throughput: p50/p99 *arrival staleness* (how many
ingested updates a resident state was behind when its query arrived —
the lag a non-refreshing server would have answered with) and a
correctness probe checking served top-k rankings against fresh
:func:`~repro.core.certify.certified_top_k` computations on the same
final graph.
"""

from __future__ import annotations

from ..graph.workloads import WorkloadSpec, default_config, prepare_workload
from ..obs import clock
from dataclasses import dataclass, field

import numpy as np

from ..config import Backend, PPRConfig, ServeConfig
from ..core.certify import CertifiedEntry, certified_top_k
from ..core.push_parallel import parallel_local_push
from ..core.state import PPRState
from ..errors import ConfigError
from ..graph.csr import CSRGraph
from ..serve import PPRService, ServiceMetrics
from ..utils.rng import ensure_rng
from ..utils.tables import format_table


def topk_matches(
    served: list[CertifiedEntry],
    fresh: list[CertifiedEntry],
    epsilon: float,
) -> bool:
    """Whether two ε-approximate top-k rankings agree up to ε-ties.

    Both rankings carry per-vertex error at most ``epsilon``, so two
    correct answers may still swap vertices whose true values are within
    ``2 * epsilon`` of each other. Position ``i`` matches when the vertex
    ids agree, or when the estimates differ by at most ``2 * epsilon``
    (an admissible tie swap).
    """
    if len(served) != len(fresh):
        return False
    for a, b in zip(served, fresh):
        if a.vertex != b.vertex and abs(a.estimate - b.estimate) > 2.0 * epsilon:
            return False
    return True


@dataclass
class ServingBenchResult:
    """Outcome of one serving-benchmark run."""

    dataset: str
    num_sources: int
    num_slides: int
    updates_ingested: int
    served_queries: int
    serve_seconds: float
    ingest_seconds: float
    baseline_queries: int
    baseline_seconds: float
    p50_staleness: float
    p99_staleness: float
    topk_matched: bool
    metrics: ServiceMetrics = field(repr=False, default_factory=ServiceMetrics)

    @property
    def serve_qps(self) -> float:
        """Served queries per second, ingest cost included.

        Charging the maintenance (ingest + snapshot) time to the query
        side keeps the comparison end-to-end honest: the baseline has no
        maintenance cost at all.
        """
        total = self.serve_seconds + self.ingest_seconds
        return self.served_queries / total if total else 0.0

    @property
    def baseline_qps(self) -> float:
        """Per-query from-scratch recomputation throughput."""
        return (
            self.baseline_queries / self.baseline_seconds
            if self.baseline_seconds
            else 0.0
        )

    @property
    def speedup(self) -> float:
        """Served throughput over per-query recomputation throughput."""
        return self.serve_qps / self.baseline_qps if self.baseline_qps else float("inf")

    def table(self) -> str:
        rows = [
            ["query mix", f"{self.num_sources} sources, {self.served_queries} queries"],
            ["stream", f"{self.num_slides} slides, {self.updates_ingested} updates"],
            ["served throughput", f"{self.serve_qps:,.0f} queries/s"],
            ["baseline throughput", f"{self.baseline_qps:,.0f} queries/s"],
            ["speedup", f"{self.speedup:,.1f}x"],
            ["ingest time", f"{self.ingest_seconds * 1e3:,.1f} ms total"],
            [
                "arrival staleness",
                f"p50={self.p50_staleness:.0f} p99={self.p99_staleness:.0f} updates",
            ],
            ["top-k vs fresh recompute", "match" if self.topk_matched else "MISMATCH"],
        ]
        return format_table(
            ["metric", "value"],
            rows,
            title=f"PPRService vs per-query recomputation — {self.dataset}",
        )


def _query_mix(
    dout: np.ndarray, num_sources: int, rng: np.random.Generator
) -> np.ndarray:
    """A who-to-follow style source mix: half top-degree, half random."""
    active = np.flatnonzero(dout > 0)
    if len(active) < num_sources:
        raise ConfigError(
            f"graph has only {len(active)} active vertices for {num_sources} sources"
        )
    num_top = num_sources // 2
    top = active[np.argsort(dout[active])[::-1][:num_top]]
    rest = rng.choice(np.setdiff1d(active, top), num_sources - num_top, replace=False)
    return np.concatenate([top, rest])


def serving_benchmark(
    dataset: str = "youtube",
    *,
    num_sources: int = 64,
    num_slides: int = 4,
    queries_per_slide: int = 256,
    k: int = 10,
    epsilon: float = 1e-5,
    workers: int = 40,
    baseline_queries: int = 12,
    verify_sources: int = 4,
    seed: int = 7,
    config: PPRConfig | None = None,
) -> ServingBenchResult:
    """Serve a multi-source query mix over a sliding update stream.

    Phases: (1) warm the cache by admitting the whole source mix in
    batched pushes; (2) for each window slide, ingest the update batch
    (installing the window's shared CSR snapshot) and answer a Zipf-like
    sample of queries; (3) replay a sample of the same queries as
    per-query from-scratch pushes on the final graph; (4) verify served
    rankings against fresh :func:`certified_top_k` computations.
    """
    prepared = prepare_workload(WorkloadSpec(dataset=dataset))
    cfg = config or default_config(epsilon=epsilon).with_(
        backend=Backend.NUMPY, workers=workers
    )
    rng = ensure_rng(seed)
    graph = prepared.initial_graph()
    service = PPRService(
        graph,
        cfg,
        ServeConfig(cache_capacity=num_sources, admission_batch=16, top_k=k),
    )
    mix = _query_mix(graph.out_degree_array(), num_sources, rng)
    # Heavy-tailed popularity over the mix: rank r queried with weight
    # r^-1.5 (between Zipf exponents observed for social-query traffic).
    weights = np.arange(1, num_sources + 1, dtype=np.float64) ** -1.5
    weights /= weights.sum()

    # Phase 1 — warm: admit every source in the mix (batched pushes).
    service.query_many([int(s) for s in mix], k)
    warm_queries = service.metrics().queries

    # Phase 2 — serve over the sliding stream.
    window = prepared.new_window()
    ingest_seconds = 0.0
    serve_seconds = 0.0
    served_queries = 0
    for slide in window.slides(num_slides):
        start = clock.now()
        service.ingest(slide)
        service.set_snapshot(window.snapshot(capacity=service.graph.capacity))
        ingest_seconds += clock.now() - start
        chosen = rng.choice(mix, size=queries_per_slide, p=weights)
        start = clock.now()
        for s in chosen:
            service.query(int(s), k)
        serve_seconds += clock.now() - start
        served_queries += queries_per_slide

    # Phase 3 — baseline: per-query from-scratch push at matched ε on the
    # final graph (granted a pre-built snapshot; still one full push per
    # query, which is exactly what maintained state avoids).
    baseline_mix = rng.choice(mix, size=baseline_queries, p=weights)
    csr = CSRGraph.from_digraph(graph)
    start = clock.now()
    for s in baseline_mix:
        state = PPRState.initial(int(s), graph.capacity)
        parallel_local_push(state, graph, cfg, seeds=[int(s)], csr=csr)
        certified_top_k(state, k)
    baseline_seconds = clock.now() - start

    # Phase 4 — correctness: served answers vs fresh recomputation.
    matched = True
    for s in mix[:verify_sources]:
        served = service.query(int(s), k)
        state = PPRState.initial(int(s), graph.capacity)
        parallel_local_push(state, graph, cfg, seeds=[int(s)], csr=csr)
        if not topk_matches(served.entries, certified_top_k(state, k), cfg.epsilon):
            matched = False

    metrics = service.metrics()
    staleness = np.asarray(metrics.staleness_samples[warm_queries:], dtype=np.float64)
    if staleness.size == 0:
        staleness = np.zeros(1)
    return ServingBenchResult(
        dataset=dataset,
        num_sources=num_sources,
        num_slides=num_slides,
        updates_ingested=metrics.updates_ingested,
        served_queries=served_queries,
        serve_seconds=serve_seconds,
        ingest_seconds=ingest_seconds,
        baseline_queries=baseline_queries,
        baseline_seconds=baseline_seconds,
        p50_staleness=float(np.percentile(staleness, 50)),
        p99_staleness=float(np.percentile(staleness, 99)),
        topk_matched=matched,
        metrics=metrics,
    )
