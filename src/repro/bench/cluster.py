"""Cluster benchmark: replicated serving vs the single-process gateway.

The experiment behind ``python -m repro cluster-bench`` and
``benchmarks/bench_cluster.py``: replay the *same* mixed read-heavy
request trace (sliding-window ingest batches interleaved with
heavy-tailed top-k bursts at FRESH / BOUNDED / ANY consistency) against
two identically-configured deployments — one a single-process
:class:`~repro.api.gateway.Gateway`, the other a
:class:`~repro.cluster.gateway.ClusterGateway` over N replica worker
processes with ``HASHED`` placement.

Why this scales: under FRESH consistency every write makes every hot
source stale, and the refresh pushes that follow are the dominant cost
of the read path. Hashed placement pins each source's resident state to
one replica, so each worker refreshes only its partition — work the
single process must do serially runs in parallel across cores.

Correctness is half the acceptance bar: both arms plan the *same*
schedule (:mod:`repro.api.scheduling`) and every response pair must be
**bit-identical** — entries, cold flags, snapshot versions, staleness.
Each BOUNDED/ANY answer must additionally honor its staleness contract
against the head version. The throughput bar (>= 2.5x with 4 replicas)
only means anything with enough cores to park the replicas on, so
:attr:`ClusterBenchResult.cores` is reported alongside.
"""

from __future__ import annotations

import os
from ..graph.workloads import WorkloadSpec, prepare_workload
from ..obs import clock
from dataclasses import dataclass

import numpy as np

from ..api.gateway import Gateway
from ..api.requests import (
    ANY,
    FRESH,
    ApiRequest,
    BatchQuery,
    Consistency,
    IngestBatch,
    TopKQuery,
)
from ..api.responses import TopKResult
from ..cluster import PPRCluster
from ..config import ApiConfig, ClusterConfig
from ..serve import workload_service
from ..utils.rng import ensure_rng
from ..utils.tables import format_table
from .serving import _query_mix


def available_cores() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


@dataclass
class ClusterBenchResult:
    """Outcome of one replicated-vs-single-process race."""

    dataset: str
    replicas: int
    cores: int
    num_sources: int
    num_slides: int
    requests: int
    cluster_seconds: float
    single_seconds: float
    ingest_seconds: float
    #: Every response pair bit-identical across arms.
    matched: bool
    #: Every BOUNDED/ANY/FRESH answer honored its staleness contract.
    bounded_ok: bool
    respawns: int

    @property
    def speedup(self) -> float:
        """Single-process time over cluster time on the same trace."""
        return (
            self.single_seconds / self.cluster_seconds
            if self.cluster_seconds
            else float("inf")
        )

    @property
    def cluster_qps(self) -> float:
        return self.requests / self.cluster_seconds if self.cluster_seconds else 0.0

    @property
    def single_qps(self) -> float:
        return self.requests / self.single_seconds if self.single_seconds else 0.0

    def table(self) -> str:
        rows = [
            [
                "request trace",
                f"{self.requests} reads over {self.num_slides} slides,"
                f" {self.num_sources}-source heavy-tailed mix (FRESH/BOUNDED/ANY)",
            ],
            [
                "deployment",
                f"{self.replicas} replica processes on {self.cores} usable cores",
            ],
            ["cluster gateway", f"{self.cluster_qps:,.0f} reads/s"],
            ["single-process gateway", f"{self.single_qps:,.0f} reads/s"],
            ["speedup", f"{self.speedup:,.1f}x"],
            ["ingest time (each arm)", f"{self.ingest_seconds * 1e3:,.1f} ms"],
            ["answers across arms", "bit-identical" if self.matched else "MISMATCH"],
            ["staleness contracts", "honored" if self.bounded_ok else "VIOLATED"],
            ["replica respawns", str(self.respawns)],
        ]
        return format_table(
            ["metric", "value"],
            rows,
            title=f"Replicated cluster vs single-process gateway — {self.dataset}",
        )


def _pairs_identical(left: TopKResult, right: TopKResult) -> bool:
    """Bit-exact response equality: ranking, floats, and envelope."""
    if left.error is not None or right.error is not None:
        return False
    if (
        left.source != right.source
        or left.cold != right.cold
        or left.snapshot_version != right.snapshot_version
        or left.staleness != right.staleness
        or len(left.entries) != len(right.entries)
    ):
        return False
    return all(
        x.vertex == y.vertex and x.estimate == y.estimate
        for x, y in zip(left.entries, right.entries)
    )


def _contract_honored(
    request: TopKQuery, response: TopKResult, head: int
) -> bool:
    """Did the answer respect its consistency contract against head?

    FRESH answers must be at head; BOUNDED(s) within ``s`` versions of
    it; ANY anywhere at or before head. (The bit-identity check already
    ties the answer to a legitimate single-process state at that
    version; this pins the version itself inside the contract.)
    """
    bound = request.consistency.max_staleness
    if response.snapshot_version > head:
        return False
    if bound is None:
        return True
    return head - response.snapshot_version <= bound


def cluster_benchmark(
    dataset: str = "youtube",
    *,
    replicas: int = 4,
    num_sources: int = 48,
    num_slides: int = 3,
    requests_per_slide: int = 256,
    k: int = 10,
    epsilon: float = 1e-5,
    workers: int = 40,
    seed: int = 11,
) -> ClusterBenchResult:
    """Race one read-heavy trace through the cluster vs one process.

    Per slide: one :class:`~repro.api.requests.IngestBatch` applied to
    both arms (untimed in the comparison), then one burst of top-k reads
    drawn from a Zipf-like source mix, issued as consistency blocks —
    ~60% FRESH (every stale source pays a refresh), ~30%
    ``BOUNDED(num_slides)``, ~10% ANY. Both arms receive the identical
    request list through ``submit_many``; the cluster splits each
    coalesced run across replicas by hashed placement while the single
    process serves it serially.
    """
    single_service, _ = workload_service(
        dataset,
        epsilon=epsilon,
        workers=workers,
        cache_capacity=num_sources,
        top_k=k,
    )
    single = Gateway(single_service, ApiConfig())
    cluster_service, _ = workload_service(
        dataset,
        epsilon=epsilon,
        workers=workers,
        cache_capacity=num_sources,
        top_k=k,
    )
    prepared = prepare_workload(WorkloadSpec(dataset=dataset))
    rng = ensure_rng(seed)
    mix = _query_mix(single_service.graph.out_degree_array(), num_sources, rng)
    weights = np.arange(1, num_sources + 1, dtype=np.float64) ** -1.5
    weights /= weights.sum()

    cluster = PPRCluster(cluster_service, ClusterConfig(replicas=replicas))
    try:
        # Warm both arms identically (untimed): admit the whole mix in
        # batched pushes, each replica admitting its own partition.
        warm = BatchQuery(sources=tuple(int(s) for s in mix), k=k)
        single.submit(warm)
        cluster.gateway.submit(warm)

        bounded = Consistency.bounded(num_slides)
        window = prepared.new_window()
        cluster_seconds = 0.0
        single_seconds = 0.0
        ingest_seconds = 0.0
        requests = 0
        matched = True
        bounded_ok = True
        for slide in window.slides(num_slides):
            write = IngestBatch(updates=tuple(slide.updates))
            start = clock.now()
            cluster.gateway.submit(write)
            ingest_seconds += clock.now() - start
            single.submit(write)
            head = single_service.graph_version

            drawn = rng.choice(mix, size=requests_per_slide, p=weights)
            chosen = [int(s) for s in drawn]
            cut_fresh = int(len(chosen) * 0.6)
            cut_bounded = int(len(chosen) * 0.9)
            burst: list[ApiRequest] = [
                TopKQuery(source=s, k=k, consistency=FRESH)
                for s in chosen[:cut_fresh]
            ]
            burst += [
                TopKQuery(source=s, k=k, consistency=bounded)
                for s in chosen[cut_fresh:cut_bounded]
            ]
            burst += [
                TopKQuery(source=s, k=k, consistency=ANY)
                for s in chosen[cut_bounded:]
            ]
            requests += len(burst)

            start = clock.now()
            replicated = cluster.gateway.submit_many(burst)
            cluster_seconds += clock.now() - start

            start = clock.now()
            serial = single.submit_many(burst)
            single_seconds += clock.now() - start

            for request, left, right in zip(burst, replicated, serial):
                assert isinstance(request, TopKQuery)
                assert isinstance(left, TopKResult)
                assert isinstance(right, TopKResult)
                if not _pairs_identical(left, right):
                    matched = False
                if not _contract_honored(request, left, head):
                    bounded_ok = False
        respawns = cluster.gateway.counters["respawns"]
    finally:
        cluster.close()

    return ClusterBenchResult(
        dataset=dataset,
        replicas=replicas,
        cores=available_cores(),
        num_sources=num_sources,
        num_slides=num_slides,
        requests=requests,
        cluster_seconds=cluster_seconds,
        single_seconds=single_seconds,
        ingest_seconds=ingest_seconds,
        matched=matched,
        bounded_ok=bounded_ok,
        respawns=respawns,
    )
