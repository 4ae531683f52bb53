"""Chaos benchmark: scripted faults against the replicated cluster.

The experiment behind ``python -m repro chaos-bench`` and
``benchmarks/bench_chaos.py``: drive a deterministic write/read trace
through a :class:`~repro.cluster.gateway.ClusterGateway` while a
:class:`~repro.chaos.FaultPlan` fires scripted faults at the
cross-process seams — a dropped replication frame early in the trace
(gap detection → replica rebuild) and a primary crash mid-trace
(epoch-bumped failover to the most-caught-up replica).

Four properties are measured, matching the subsystem's acceptance bar:

1. **Zero acked-write loss** — every write the trace acks survives the
   primary crash; the post-heal head equals the acked count.
2. **Availability** — ANY-consistency reads issued after every write
   must all answer, including those landing inside the failover window.
3. **Bounded latency** — no request may hang; the worst read and the
   failover write itself are reported in milliseconds.
4. **Post-heal bit-identity** — FRESH answers for *probe* sources
   (never queried during the run, so no resident state diverges on the
   incremental-refresh path) are bit-identical to a single-process
   oracle fed the same acked writes, at the same version.

The fault schedule is virtual-step (per-site visit counts), not
wall-clock, so the run replays identically on any machine.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field

import numpy as np

from .. import chaos
from ..api.requests import ANY, FRESH, IngestBatch, TopKQuery
from ..api.responses import IngestResult, TopKResult
from ..chaos import Fault, FaultKind, FaultPlan
from ..cluster import PPRCluster
from ..config import ClusterConfig, StoreConfig
from ..serve import workload_service
from ..store import StateStore
from ..obs import clock
from ..utils.rng import ensure_rng
from ..utils.tables import format_table
from .serving import _query_mix


@dataclass
class ChaosBenchResult:
    """Outcome of one scripted-fault run against the cluster tier."""

    dataset: str
    replicas: int
    writes: int
    reads: int
    #: Writes acknowledged by the gateway (all of them must be).
    acked: int
    #: Post-heal head version (must equal ``acked``).
    head: int
    epoch: int
    failovers: int
    respawns: int
    #: ANY reads that failed or errored (must be zero).
    read_failures: int
    max_read_ms: float
    mean_read_ms: float
    #: Latency of the write that triggered the failover.
    failover_write_ms: float
    #: Probe sources compared post-heal against the oracle.
    probes: int
    #: Every probe answer bit-identical to the oracle at matched version.
    matched: bool
    #: ``site:kind`` of every fault the injector actually fired.
    injected: list[str] = field(default_factory=list)

    @property
    def zero_loss(self) -> bool:
        """All writes acked and all acked writes present post-heal."""
        return self.acked == self.writes and self.head == self.acked

    @property
    def available(self) -> bool:
        return self.read_failures == 0

    def passed(self, *, deadline_s: float) -> bool:
        return (
            self.zero_loss
            and self.available
            and self.matched
            and self.failovers >= 1
            and self.max_read_ms <= deadline_s * 1e3
        )

    def table(self) -> str:
        rows = [
            [
                "trace",
                f"{self.writes} single-edge writes, {self.reads} ANY reads,"
                f" {self.replicas} replicas",
            ],
            ["fault plan", ", ".join(self.injected) or "(none fired)"],
            [
                "acked writes survived",
                f"{self.head}/{self.acked} acked"
                + (" — ZERO LOSS" if self.zero_loss else " — LOSS"),
            ],
            [
                "failover",
                f"epoch {self.epoch}, {self.failovers} failover(s),"
                f" {self.respawns} respawn(s)",
            ],
            [
                "availability",
                "all ANY reads answered"
                if self.available
                else f"{self.read_failures} reads FAILED",
            ],
            ["read latency", f"mean {self.mean_read_ms:.2f} ms,"
                             f" max {self.max_read_ms:.2f} ms"],
            ["failover write", f"{self.failover_write_ms:.2f} ms"],
            [
                "post-heal probes",
                f"{self.probes} sources"
                + (" bit-identical to oracle" if self.matched else " MISMATCH"),
            ],
        ]
        return format_table(
            ["metric", "value"],
            rows,
            title=f"Scripted chaos vs replicated cluster — {self.dataset}",
        )


def chaos_benchmark(
    dataset: str = "youtube",
    *,
    replicas: int = 3,
    writes: int = 10,
    reads_per_write: int = 6,
    kill_at_write: int = 5,
    drop_at_frame: int = 2,
    num_sources: int = 24,
    probes: int = 6,
    k: int = 10,
    epsilon: float = 1e-5,
    workers: int = 40,
    seed: int = 11,
) -> ChaosBenchResult:
    """Run the scripted-fault trace and measure the four properties.

    The plan fires two faults, both coordinator-side so replica workers
    never need the plan installed: frame ``drop_at_frame`` to replica
    ``replicas - 1`` is dropped (the seq gap kills that worker; the next
    interaction rebuilds it at head), and write ``kill_at_write`` crashes
    the embedded primary mid-apply (the write itself is forwarded to the
    promoted replica, so its ack must still arrive).

    Reads during the run use ANY consistency and only the first
    ``num_sources`` hot sources; the last ``probes`` sources of the mix
    stay untouched until the post-heal bit-identity check, where both
    arms compute them from scratch at the same head version.
    """
    service, prepared = workload_service(
        dataset,
        epsilon=epsilon,
        workers=workers,
        cache_capacity=num_sources + probes,
        top_k=k,
    )
    oracle, _ = workload_service(
        dataset,
        epsilon=epsilon,
        workers=workers,
        cache_capacity=num_sources + probes,
        top_k=k,
    )
    rng = ensure_rng(seed)
    mix = _query_mix(
        service.graph.out_degree_array(), num_sources + probes, rng
    )
    hot = [int(s) for s in mix[:num_sources]]
    probe_sources = [int(s) for s in mix[num_sources:]]

    window = prepared.new_window()
    slide = window.slide()
    updates = list(slide.updates)[:writes]
    if len(updates) < writes:
        writes = len(updates)

    plan = FaultPlan(
        faults=(
            Fault(
                "cluster.ship",
                FaultKind.DROP,
                at=drop_at_frame,
                replica=replicas - 1,
            ),
            Fault("primary.apply", FaultKind.CRASH, at=kill_at_write),
        ),
        name="bench-drop-then-kill",
    )

    # Store-backed: the WAL is what lets a gap-killed replica rebuild
    # after the embedded primary is gone, and what fences zombie epochs.
    store_dir = tempfile.TemporaryDirectory(prefix="repro-chaos-bench-")
    store = StateStore(store_dir.name, StoreConfig(root=store_dir.name))
    service.attach_store(store)

    cluster = PPRCluster(service, ClusterConfig(replicas=replicas))
    read_latencies: list[float] = []
    read_failures = 0
    acked = 0
    reads = 0
    failover_write_ms = 0.0
    try:
        chaos.install(plan)
        for index, update in enumerate(updates, start=1):
            write = IngestBatch(updates=(update,))
            start = clock.now()
            response = cluster.gateway.submit(write)
            elapsed = clock.now() - start
            assert isinstance(response, IngestResult)
            if response.ok:
                acked += 1
                oracle.gateway.submit(write)
            if index == kill_at_write:
                failover_write_ms = elapsed * 1e3

            burst = [
                TopKQuery(source=s, k=k, consistency=ANY)
                for s in (
                    hot[(index * reads_per_write + j) % len(hot)]
                    for j in range(reads_per_write)
                )
            ]
            start = clock.now()
            answers = cluster.gateway.submit_many(burst)
            read_latencies.append((clock.now() - start) / len(burst))
            reads += len(burst)
            for answer in answers:
                if not isinstance(answer, TopKResult) or answer.error is not None:
                    read_failures += 1

        # Post-heal: drain to head, then compare untouched probes
        # against the oracle — both arms compute from scratch.
        matched = True
        for source in probe_sources:
            query = TopKQuery(source=source, k=k, consistency=FRESH)
            left = cluster.gateway.submit(query)
            right = oracle.gateway.submit(query)
            assert isinstance(left, TopKResult)
            assert isinstance(right, TopKResult)
            if (
                left.error is not None
                or right.error is not None
                or left.snapshot_version != right.snapshot_version
                or [(e.vertex, e.estimate) for e in left.entries]
                != [(e.vertex, e.estimate) for e in right.entries]
            ):
                matched = False

        counters = cluster.gateway.counters
        result = ChaosBenchResult(
            dataset=dataset,
            replicas=replicas,
            writes=writes,
            reads=reads,
            acked=acked,
            head=cluster.gateway._head,
            epoch=cluster.gateway.epoch,
            failovers=counters["failovers"],
            respawns=counters["respawns"],
            read_failures=read_failures,
            max_read_ms=max(read_latencies, default=0.0) * 1e3,
            mean_read_ms=float(np.mean(read_latencies or [0.0])) * 1e3,
            failover_write_ms=failover_write_ms,
            probes=len(probe_sources),
            matched=matched,
            injected=[
                f"{entry['site']}:{entry['kind']}"
                for entry in chaos.injected()
            ],
        )
    finally:
        chaos.reset()
        cluster.close()
        store.close()
        store_dir.cleanup()
    return result
