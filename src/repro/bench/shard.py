"""Shard benchmark: partitioned serving vs the single-process gateway.

The experiment behind ``python -m repro shard-bench`` and
``benchmarks/bench_shard.py``: replay the *same* mixed trace
(sliding-window ingest batches interleaved with heavy-tailed top-k
bursts at FRESH / BOUNDED / ANY consistency) against two
identically-configured deployments — one a single-process
:class:`~repro.api.gateway.Gateway`, the other a
:class:`~repro.shard.gateway.ShardedGateway` over N shard processes.

Unlike the cluster benchmark (which replicates the full graph into
every worker), the point here is **memory**: each shard holds the dense
degree/presence arrays plus only its *owned* slice of the in-adjacency
rows and per-source PPR state, so per-shard resident graph bytes must
drop well below the single-process footprint — the acceptance bar is
<= ~60% of the baseline with 4 shards, measured with the same
:meth:`~repro.shard.graph.ShardGraph.memory_bytes` accounting on both
sides (a 1-shard slice *is* the single-process layout).

Correctness is the other half of the bar: every response pair across
the arms must be **bit-identical** — entries, floats, cold flags,
snapshot versions, staleness — and every BOUNDED/ANY answer must honor
its staleness contract. The ingest-throughput bar (>= 1.5x with 4
shards, refresh fan-out running in parallel across owners) only means
anything with enough cores, so :attr:`ShardBenchResult.cores` is
reported alongside and the bar is waived (but still measured) below 4.
"""

from __future__ import annotations

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
from ..config import ApiConfig, RefreshPolicy, ShardConfig
from ..graph.workloads import WorkloadSpec, prepare_workload
from ..serve import workload_service
from ..shard import PPRShards, ShardGraph
from ..shard.partitioner import HashPartitioner
from ..utils.rng import ensure_rng
from ..utils.tables import format_table
from .cluster import _contract_honored, _pairs_identical, available_cores
from .serving import _query_mix


@dataclass
class ShardBenchResult:
    """Outcome of one sharded-vs-single-process race."""

    dataset: str
    shards: int
    cores: int
    num_sources: int
    num_slides: int
    requests: int
    shard_seconds: float
    single_seconds: float
    shard_ingest_seconds: float
    single_ingest_seconds: float
    #: Per-shard resident graph bytes (dense + owned rows), by shard id.
    per_shard_bytes: tuple[int, ...]
    #: Same accounting over the whole graph as one slice (1 "shard").
    baseline_bytes: int
    #: Every response pair bit-identical across arms.
    matched: bool
    #: Every FRESH/BOUNDED/ANY answer honored its staleness contract.
    bounded_ok: bool
    respawns: int

    @property
    def memory_ratio(self) -> float:
        """Largest shard's resident graph bytes over the baseline's."""
        if not self.baseline_bytes:
            return float("inf")
        return max(self.per_shard_bytes) / self.baseline_bytes

    @property
    def read_speedup(self) -> float:
        return (
            self.single_seconds / self.shard_seconds
            if self.shard_seconds
            else float("inf")
        )

    @property
    def ingest_speedup(self) -> float:
        """Single-process ingest time over sharded ingest time."""
        return (
            self.single_ingest_seconds / self.shard_ingest_seconds
            if self.shard_ingest_seconds
            else float("inf")
        )

    def table(self) -> str:
        per_shard = ", ".join(f"{b / 1e6:.2f}" for b in self.per_shard_bytes)
        rows = [
            [
                "request trace",
                f"{self.requests} reads over {self.num_slides} slides,"
                f" {self.num_sources}-source heavy-tailed mix (FRESH/BOUNDED/ANY)",
            ],
            [
                "deployment",
                f"{self.shards} shard processes on {self.cores} usable cores",
            ],
            ["baseline graph bytes", f"{self.baseline_bytes / 1e6:.2f} MB"],
            ["per-shard graph bytes", f"[{per_shard}] MB"],
            [
                "largest shard / baseline",
                f"{self.memory_ratio:.0%} (bar: <= ~60% at 4 shards)",
            ],
            ["sharded ingest", f"{self.shard_ingest_seconds * 1e3:,.1f} ms"],
            ["single-process ingest", f"{self.single_ingest_seconds * 1e3:,.1f} ms"],
            ["ingest speedup", f"{self.ingest_speedup:,.2f}x"],
            ["sharded reads", f"{self.shard_seconds * 1e3:,.1f} ms"],
            ["single-process reads", f"{self.single_seconds * 1e3:,.1f} ms"],
            ["answers across arms", "bit-identical" if self.matched else "MISMATCH"],
            ["staleness contracts", "honored" if self.bounded_ok else "VIOLATED"],
            ["shard respawns", str(self.respawns)],
        ]
        return format_table(
            ["metric", "value"],
            rows,
            title=f"Sharded tier vs single-process gateway — {self.dataset}",
        )


def shard_benchmark(
    dataset: str = "youtube",
    *,
    shards: int = 4,
    num_sources: int = 48,
    num_slides: int = 3,
    requests_per_slide: int = 128,
    k: int = 10,
    epsilon: float = 1e-5,
    workers: int = 40,
    seed: int = 11,
) -> ShardBenchResult:
    """Race one mixed trace through the sharded tier vs one process.

    Per slide: one :class:`~repro.api.requests.IngestBatch` applied to
    both arms (timed separately — the sharded arm's refresh fan-out is
    the throughput story), then one burst of top-k reads drawn from a
    Zipf-like source mix as consistency blocks — ~60% FRESH, ~30%
    ``BOUNDED(num_slides)``, ~10% ANY — issued through ``submit_many``
    on both arms and compared pairwise for bit-identity.
    """
    single_service, _ = workload_service(
        dataset,
        epsilon=epsilon,
        workers=workers,
        cache_capacity=num_sources,
        top_k=k,
    )
    single = Gateway(single_service, ApiConfig())
    shard_service, _ = workload_service(
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

    seed_arrays = shard_service.graph.to_arrays()
    baseline_bytes = ShardGraph.from_full_arrays(
        seed_arrays, HashPartitioner(1), 0
    ).memory_bytes()

    # EAGER refresh on both arms: ingest bears the resident-refresh
    # fan-out, which is exactly the work hashed ownership parallelizes
    # across shard processes — the ingest-throughput story under test.
    single_service.serve = single_service.serve.with_(
        refresh=RefreshPolicy.EAGER
    )
    fleet = PPRShards(
        shard_service.graph,
        ShardConfig(shards=shards),
        ppr=shard_service.config,
        serve=shard_service.serve.with_(
            store=None, refresh=RefreshPolicy.EAGER
        ),
    )
    try:
        warm = BatchQuery(sources=tuple(int(s) for s in mix), k=k)
        single.submit(warm)
        fleet.gateway.submit(warm)

        bounded = Consistency.bounded(num_slides)
        window = prepared.new_window()
        shard_seconds = 0.0
        single_seconds = 0.0
        shard_ingest_seconds = 0.0
        single_ingest_seconds = 0.0
        requests = 0
        matched = True
        bounded_ok = True
        from ..obs import clock

        for slide in window.slides(num_slides):
            write = IngestBatch(updates=tuple(slide.updates))
            start = clock.now()
            fleet.gateway.submit(write)
            shard_ingest_seconds += clock.now() - start
            start = clock.now()
            single.submit(write)
            single_ingest_seconds += clock.now() - start
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
            partitioned = fleet.gateway.submit_many(burst)
            shard_seconds += clock.now() - start

            start = clock.now()
            serial = single.submit_many(burst)
            single_seconds += clock.now() - start

            for request, left, right in zip(burst, partitioned, serial):
                assert isinstance(request, TopKQuery)
                assert isinstance(left, TopKResult)
                assert isinstance(right, TopKResult)
                if not _pairs_identical(left, right):
                    matched = False
                if not _contract_honored(request, left, head):
                    bounded_ok = False

        stats = fleet.api.stats().stats
        per_shard = tuple(
            int(payload.get("graph_bytes", 0))
            for payload in stats["shard"]["per_shard"]
        )
        respawns = fleet.gateway.counters["respawns"]
    finally:
        fleet.close()

    return ShardBenchResult(
        dataset=dataset,
        shards=shards,
        cores=available_cores(),
        num_sources=num_sources,
        num_slides=num_slides,
        requests=requests,
        shard_seconds=shard_seconds,
        single_seconds=single_seconds,
        shard_ingest_seconds=shard_ingest_seconds,
        single_ingest_seconds=single_ingest_seconds,
        per_shard_bytes=per_shard,
        baseline_bytes=baseline_bytes,
        matched=matched,
        bounded_ok=bounded_ok,
        respawns=respawns,
    )
