"""The cluster coordinator: N replica processes behind one typed gateway.

:class:`ClusterGateway` implements the same request/response protocol as
:class:`repro.api.gateway.Gateway` — ``submit`` / ``submit_many`` /
``execute`` over the typed dataclasses of :mod:`repro.api` — so the
embedded :class:`~repro.api.client.Client`, the HTTP front-end, and
every existing caller work unchanged while queries finally use more than
one core:

* **writes** (:class:`~repro.api.requests.IngestBatch`) apply on the
  *primary* engine in-process (which owns durability: WAL, checkpoints,
  optimistic-concurrency checks), then ship to every replica as ordered
  WAL-framed deltas over its FIFO pipe;
* **reads** are placed by source — source ``s`` is served by replica
  ``s % replicas`` — so per-source maintenance (lazy refreshes,
  admissions) partitions across processes; coalesced
  read runs (:mod:`repro.api.scheduling`, shared with the single-process
  scheduler) are split into per-replica chunks that execute
  concurrently;
* **consistency** rides the channel: a read enqueued behind a delta is
  served at a version covering it, so ``FRESH`` holds without extra
  round trips; ``BOUNDED``/``ANY`` are enforced engine-side on the
  replica exactly as in a single process;
* **failures**: a dead replica (crash, kill, wedge) is detected at the
  next interaction, respawned — recovering from the primary's durable
  store when one is attached, else from an order-exact graph snapshot —
  and the interrupted chunk is re-dispatched. Respawns beyond
  ``ClusterConfig.max_respawns`` surface as
  :class:`~repro.errors.ClusterError` (stable code ``CLUSTER``);
* **primary failover**: when the embedded primary is retired (chaos
  kill, fenced store after an fsync failure), the next write promotes
  the most-caught-up live replica — it replays the WAL tail, takes over
  the store, and every subsequent frame is stamped with a bumped
  *epoch* so the fenced writer's late deltas are rejected. ANY/BOUNDED
  reads keep serving from the surviving replicas throughout; FRESH
  degrades to a typed 503 until the promotion completes. A per-replica
  :class:`~repro.api.resilience.CircuitBreaker` ejects a failing
  replica from the read rotation before its deadline fires.

See ``docs/cluster.md`` for the topology and routing table,
``docs/faults.md`` for the failure model and failover walkthrough.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING, Any

from .. import chaos, obs
from ..api.gateway import Gateway
from ..api.requests import (
    ApiRequest,
    BatchQuery,
    Health,
    HubQuery,
    IngestBatch,
    Prefetch,
    Ready,
    ScoreQuery,
    Stats,
    TopKQuery,
)
from ..api.resilience import CircuitBreaker
from ..api.responses import ApiResponse, HealthResult, ReadyResult, StatsResult
from ..chaos import FaultKind
from ..config import ApiConfig, ClusterConfig, ConsistencyLevel
from ..errors import ClusterError, StoreError
from ..graph.shm import SnapshotPublisher
from ..obs import clock
from ..store.wal import pack_record
from ..workers import (
    RESPONSES,
    WorkerDied,
    WorkerFleet,
    WorkerGateway,
    WorkerHandle,
    accept_responses,
)
from . import messages
from .replica import ReplicaSpec, replica_main

if TYPE_CHECKING:
    from ..serve.service import PPRService


class ClusterGateway(WorkerGateway):
    """Replicated drop-in for :class:`~repro.api.gateway.Gateway`.

    Parameters
    ----------
    service:
        The *primary* engine. It applies every write (and owns the
        attached :class:`~repro.store.StateStore`, when any); its own
        gateway handles admin operations. Replicas are full copies
        bootstrapped from its order-exact graph snapshot.
    cluster:
        Topology and failure-handling knobs
        (:class:`repro.config.ClusterConfig`).
    config:
        Protocol knobs (:class:`repro.config.ApiConfig`), exactly as for
        the single-process gateway — read-coalescing width, HTTP bind
        address, default consistency.

    Examples
    --------
    >>> from repro import DynamicDiGraph, PPRService
    >>> from repro.api import TopKQuery
    >>> from repro.cluster import ClusterGateway
    >>> from repro.config import ClusterConfig
    >>> service = PPRService(DynamicDiGraph([(1, 0), (2, 0), (0, 1)]))
    >>> gateway = ClusterGateway(service, ClusterConfig(replicas=1))
    >>> response = gateway.submit(TopKQuery(source=0, k=2))
    >>> gateway.close()
    >>> response.ok and response.vertices[0] == 0
    True
    """

    tier = "cluster"
    noun = "replica"
    crash_event = "replica-crashed"

    def __init__(
        self,
        service: "PPRService",
        cluster: ClusterConfig | None = None,
        config: ApiConfig | None = None,
    ) -> None:
        self.cluster = cluster or ClusterConfig()
        super().__init__(config, replica_main, self.cluster.max_respawns)
        self.service = service
        self.primary = (
            Gateway(service, self.config)
            if service._gateway is None
            else service.gateway
        )
        self._rotor = 0
        #: Write-authority term; bumped at every failover and stamped
        #: into every WAL frame shipped under the new primary.
        self.epoch = 0
        #: Index of the promoted replica, or None while the embedded
        #: engine is primary.
        self._primary_index: int | None = None
        #: True once the embedded engine has been retired (chaos kill or
        #: fenced store) — the next write triggers a failover.
        self._embedded_dead = False
        # ``_head`` tracks ``service.graph_version`` while the embedded
        # engine is primary, then the promoted replica's acked writes.
        self._head = service.graph_version
        #: APPLY frames held back by a DELAY fault, per replica index.
        self._delayed: dict[int, tuple] = {}
        self.breakers: list[CircuitBreaker] = [
            CircuitBreaker(self.cluster.breaker_failures, self.cluster.breaker_cooldown)
            for _ in range(self.cluster.replicas)
        ]
        #: Versioned shared-memory snapshot registry (one bundle per
        #: published graph version, superseded versions unlinked).
        self._publisher = SnapshotPublisher(tag="cluster")
        #: The worker handles (``group.revive`` swaps entries in place).
        self.replicas: list[WorkerHandle] = self.group.handles
        try:
            for index in range(self.cluster.replicas):
                self.replicas.append(self._spawn(index))
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def _spec(self, index: int, *, from_store: bool) -> ReplicaSpec:
        service = self.service
        if from_store:
            assert service.store is not None
            self._quiesce_store()
        return ReplicaSpec(
            replica_id=index,
            config=service.config,
            serve=service.serve.with_(store=None),
            hubs=tuple(service.hubs),
            graph_version=service.graph_version,
            store_root=str(service.store.root) if from_store else None,
            graph_shm=None if from_store else self._publish_snapshot(),
            obs=self.config.obs,
            # The coordinator's installed fault plan rides every spec; the
            # worker re-installs it fresh (zeroed counters, replica-scoped).
            chaos=chaos.INJECTOR.plan,
        )

    def _quiesce_store(self) -> None:
        """Let a checkpoint in flight finish before another process reads
        (or takes over) the store directory: its writer thread prunes
        files a concurrent recovery may have just listed. A failed write
        has fenced the store already and leaves the directory consistent.
        """
        try:
            self.service.store.wait()
        except StoreError:
            pass

    def _publish_snapshot(self) -> dict[str, Any]:
        """Publish the primary's current snapshot to shared memory (once).

        One bundle per graph version, shared by every replica spawned at
        that version: the order-exact graph arrays and the consolidated
        CSR of the same version (so workers skip their own snapshot
        rebuild). Re-publishing the current version returns the existing descriptor
        without copying anything.
        """
        service = self.service
        version = service.graph_version
        if self._publisher.current_version == version:
            return self._publisher.descriptor(version)
        arrays = dict(service.graph.to_arrays())
        arrays.update(service.shared_snapshot_arrays())
        return self._publisher.publish(version, arrays)

    def _spawn(self, index: int, *, from_store: bool = False) -> WorkerHandle:
        handle, version = self.group.spawn(
            index, self._spec(index, from_store=from_store)
        )
        if version != self._head:
            # A store bootstrap under a lax fsync policy can land behind
            # head; an order-exact snapshot of the live primary cannot.
            handle.close(terminate=True)
            if from_store and self._primary_index is None:
                return self._spawn(index, from_store=False)
            raise ClusterError(
                f"replica {index} came up at v{version},"
                f" acked head is at v{self._head}"
            )
        return handle

    def respawn(self, index: int) -> WorkerHandle:
        """Build a dead replica's replacement (``WorkerGroup.revive`` hook).

        Recovers from the store when one is attached, else from an
        order-exact snapshot of the embedded primary.
        """
        if self._primary_index is not None and self.service.store is None:
            # Post-failover without a store there is nothing to rebuild
            # from: the retired embedded engine is behind the forwarded
            # writes, and only the promoted primary has the full history.
            raise ClusterError(
                f"replica {index} died and cannot be rebuilt: no store"
                " to recover from after failover"
            )
        if index == self._primary_index:
            # The promoted primary died; a plain respawn recovers its
            # state but not its role (no store attached worker-side, no
            # epoch), so the next write must run a fresh failover.
            self._primary_index = None
            obs.event("primary.lost", replica=index, epoch=self.epoch)
        return self._spawn(index, from_store=self.service.store is not None)

    def close(self, *, deadline_s: float | None = None) -> None:
        with self._lock:
            super().close(deadline_s=deadline_s)
            self._publisher.close()

    # ------------------------------------------------------------------ #
    # channel policy: acks, barrier, breakers
    # ------------------------------------------------------------------ #

    def on_frame(self, index: int, frame: tuple) -> bool:
        """Absorb ``APPLIED`` acks whichever await happens to read them."""
        if frame[0] != messages.APPLIED:
            return False
        handle = self.replicas[index]
        handle.applied_version = max(handle.applied_version, frame[1])
        obs.ingest_spans(frame[2])
        return True

    def on_outcome(self, index: int, ok: bool) -> None:
        """Feed the replica's circuit breaker: a death or expired deadline
        counts as a failure, a served answer closes it again."""
        if ok:
            self.breakers[index].record_success()
        else:
            self.breakers[index].record_failure()

    def _before_read(self, index: int, request: ApiRequest) -> None:
        if not self._is_fresh(request):
            return
        if not self.has_primary:
            # No write authority exists, so "fresh as of now" is not a
            # promise anyone can keep. The typed 503 is the promotion
            # window's only degradation: ANY/BOUNDED reads keep serving.
            raise ClusterError("FRESH reads unavailable: no primary (failover pending)")

    @staticmethod
    def _is_fresh(request: ApiRequest) -> bool:
        consistency = getattr(request, "consistency", None)
        return consistency is not None and consistency.level is ConsistencyLevel.FRESH

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #

    @property
    def has_primary(self) -> bool:
        """Is there a live write authority (embedded or promoted)?"""
        return self._primary_index is not None or not self._embedded_dead

    def _route(self, index: int) -> int:
        """First replica at or after ``index`` whose breaker admits traffic.

        Walking forward keeps hashed placement's warm-cache affinity for
        healthy replicas while ejecting open-breaker ones from the
        rotation; if every breaker is open the original owner gets the
        request anyway (serving a maybe-failing replica beats failing
        outright, and the denials advance each breaker's cooldown).
        """
        n = len(self.replicas)
        for step in range(n):
            candidate = (index + step) % n
            if self.breakers[candidate].allow():
                if candidate != index:
                    self.counters["reads_rerouted"] += 1
                return candidate
        return index

    def _owner(self, source: int) -> int:
        return source % len(self.replicas)

    def _partition(self, sources: Sequence[int]) -> dict[int, list[int]]:
        """Group sources by owning replica, preserving per-chunk order."""
        chunks: dict[int, list[int]] = {}
        for source in sources:
            chunks.setdefault(self._owner(source), []).append(source)
        return chunks

    # ------------------------------------------------------------------ #
    # the typed protocol
    # ------------------------------------------------------------------ #

    def _execute_routed(self, request: ApiRequest) -> ApiResponse:
        # Replicas ack shipped deltas whenever they get to them; absorb
        # what has arrived on every request, so a write-only stream (which
        # never awaits) cannot fill a pipe with unread acks.
        self.group.drain()
        if isinstance(request, IngestBatch):
            return self._execute_ingest(request)
        if isinstance(request, (TopKQuery, ScoreQuery)):
            return self._read_one(self._route(self._owner(request.source)), request)
        if isinstance(request, HubQuery):
            self._rotor = (self._rotor + 1) % len(self.replicas)
            return self._read_one(self._route(self._rotor), request)
        if isinstance(request, BatchQuery):
            return self._execute_batch(request)
        if isinstance(request, Prefetch):
            return self._execute_prefetch(request)
        if isinstance(request, Stats):
            return self._execute_stats(request)
        if isinstance(request, Ready):
            return self._execute_ready()
        if isinstance(request, Health):
            return self._execute_health()
        # CheckpointNow and anything engine-administrative run on
        # whatever node currently holds the primary role.
        return self._admin_execute(request)

    def _admin_execute(self, request: ApiRequest) -> ApiResponse:
        """Run an administrative request on the current write authority."""
        if self._primary_index is not None:
            return self._read_one(self._primary_index, request)
        if self._embedded_dead:
            raise ClusterError(
                f"no primary available for {request.op!r} (failover pending)"
            )
        return self.primary.execute(request)

    # -- writes -------------------------------------------------------- #

    def _execute_ingest(self, request: IngestBatch) -> ApiResponse:
        """Apply on the current primary, then ship the delta everywhere.

        The primary's gateway does validation, optimistic-concurrency
        checks, WAL logging, and checkpoint cadence; only an
        *acknowledged* batch is framed (with the WAL's own codec) and
        shipped. Replication is asynchronous — acks drain lazily — but
        FIFO pipes guarantee every later read observes the delta.

        Failure handling is what makes this the failover trigger: a
        ``primary.apply`` CRASH fault retires the embedded engine, and a
        fenced store (failed WAL append) retires it after surfacing the
        write's typed error — either way the *next* write promotes the
        most-caught-up replica and is forwarded to it.
        """
        fault = chaos.fire("primary.apply", seq=self._head + 1)
        if fault is not None and fault.kind is FaultKind.CRASH:
            self.kill_primary()
        if fault is not None and fault.kind is FaultKind.ERROR:
            raise ClusterError(
                fault.message or "injected primary failure at primary.apply"
            )
        if self._primary_index is not None or self._embedded_dead:
            return self._forward_ingest(request)
        try:
            response = self.primary.execute(request)
        except StoreError:
            if self.service.store is not None and self.service.store.failed:
                # The frame was rolled back, so durable state still
                # matches the acked history — but this engine can no
                # longer persist writes. Retire it; the write itself
                # surfaces as a typed STORE failure the client retries.
                self._embedded_dead = True
                obs.event("primary.retired", reason="store-failed", head=self._head)
            raise
        if response.error is None:
            self._head = self.service.graph_version
            # Ship even an empty batch: the primary bumped its version,
            # and a replica that misses any version sees a replication
            # gap and crashes. The codec frames zero rows fine.
            frame = pack_record(self._head, request.updates, epoch=self.epoch)
            with obs.span(
                "cluster.ship_wal", seq=self._head, replicas=len(self.replicas)
            ):
                self._ship_frame(frame, obs.current(), seq=self._head)
            self.counters["deltas_shipped"] += 1
        return response

    def kill_primary(self) -> None:
        """Retire the embedded primary (chaos/test hook).

        The engine stops taking writes immediately; promotion is
        deferred to the next write so the degraded window (FRESH reads
        answering 503, ANY/BOUNDED still serving) is observable and
        deterministic rather than racing the failover.
        """
        self._embedded_dead = True
        obs.event("primary.retired", reason="killed", head=self._head)

    def _ship_frame(
        self,
        frame: bytes,
        ctx: Any,
        *,
        seq: int = -1,
        exclude: int | None = None,
    ) -> None:
        """Ship one APPLY frame to every replica, chaos seams included.

        The ``cluster.ship`` site models the channel's failure modes
        per replica: DROP discards the frame (the replica later sees a
        gap, crashes, and is rebuilt), DUP sends it twice (idempotent
        apply absorbs it), DELAY holds it back so the next frame
        overtakes it (reordering → gap → rebuild), ERROR breaks the
        pipe (immediate revive).
        """
        for index, handle in enumerate(self.replicas):
            if index == exclude:
                continue
            fault = chaos.fire("cluster.ship", replica=index, seq=seq)
            kind = fault.kind if fault is not None else None
            try:
                if kind is FaultKind.ERROR:
                    raise WorkerDied(
                        fault.message or "injected pipe failure at cluster.ship"
                    )
                if kind is FaultKind.DROP:
                    continue
                delayed = self._delayed.pop(index, None)
                if kind is FaultKind.DELAY:
                    self._delayed[index] = (messages.APPLY, frame, ctx)
                    if delayed is not None:
                        handle.send(delayed)
                    continue
                handle.send((messages.APPLY, frame, ctx))
                if delayed is not None:
                    # The held-back frame lands *after* its successor:
                    # reordering on a nominally-FIFO channel.
                    handle.send(delayed)
                if kind is FaultKind.DUP:
                    handle.send((messages.APPLY, frame, ctx))
            except WorkerDied:
                # The respawn bootstraps at head, delta included.
                self.group.revive(index)

    def _forward_ingest(self, request: IngestBatch) -> ApiResponse:
        """Apply a write on the promoted primary replica.

        Runs the failover first when no replica holds the role yet. On
        success the produced WAL frame is re-created coordinator-side
        (same seq, same updates, current epoch) and shipped to the other
        replicas. If the promoted primary dies mid-write, it is demoted
        and rebuilt, a fresh failover picks a new primary, and the write
        is retried exactly once.
        """
        deadline = getattr(request, "deadline", None)
        for attempt in range(2):
            if self._primary_index is None:
                self._failover()
            index = self._primary_index
            ctx = obs.current()
            obs.attach(request, ctx)
            reply = self.group.call(
                index,
                lambda ticket: (messages.INGEST, ticket, request, ctx),
                RESPONSES,
                deadline,
                retry=False,
            )
            if reply is None:
                if attempt:
                    raise ClusterError("promoted primary died twice applying one write")
                # Rebuilt, but demoted: the next pass fails over afresh.
                self.group.revive(index)
                continue
            response = accept_responses(self.replicas[index], reply)[0]
            if response.error is None:
                self._head = max(self._head, response.snapshot_version)
                frame = pack_record(
                    response.snapshot_version, request.updates, epoch=self.epoch
                )
                with obs.span(
                    "cluster.ship_wal",
                    seq=response.snapshot_version,
                    replicas=len(self.replicas) - 1,
                ):
                    self._ship_frame(
                        frame, ctx, seq=response.snapshot_version, exclude=index
                    )
                self.counters["deltas_shipped"] += 1
            return response
        raise ClusterError("unreachable: forwarded write loop exhausted")

    def _failover(self) -> None:
        """Promote the most-caught-up live replica to primary.

        Bumps the epoch *per attempt* so a partially-promoted replica
        that died mid-handshake is fenced just like the old primary.
        Replayed WAL-tail frames returned by the promoted node are
        shipped to the other replicas, so a delta that died with the old
        primary's pipes still reaches the whole fleet.
        """
        self.group.drain()
        store = self.service.store
        if store is not None:
            self._quiesce_store()
        candidates = sorted(
            (
                index
                for index, handle in enumerate(self.replicas)
                if handle.alive() and index != self._primary_index
            ),
            key=lambda index: self.replicas[index].applied_version,
            reverse=True,
        )
        if not candidates:
            raise ClusterError("failover impossible: no live replica to promote")
        errors: list[str] = []
        for index in candidates:
            self.epoch += 1
            handle = self.replicas[index]
            obs.event(
                "cluster.failover",
                promoted=index,
                epoch=self.epoch,
                applied_version=handle.applied_version,
            )
            with obs.span("cluster.failover", replica=index, epoch=self.epoch):
                reply = self.group.call(
                    index,
                    lambda ticket: (
                        messages.PROMOTE,
                        ticket,
                        self.epoch,
                        str(store.root) if store is not None else None,
                        store.config if store is not None else None,
                    ),
                    messages.PROMOTED,
                    retry=False,
                )
            if reply is None:
                errors.append(f"replica {index}: died mid-promotion")
                continue
            _, _, version, replayed, spans = reply
            obs.ingest_spans(spans)
            self._primary_index = index
            handle.applied_version = max(handle.applied_version, version)
            self._head = max(self._head, version)
            self.counters["failovers"] += 1
            ctx = obs.current()
            for frame in replayed:
                self._ship_frame(frame, ctx, exclude=index)
            return
        raise ClusterError("failover failed on every candidate: " + "; ".join(errors))

    # -- observability ------------------------------------------------- #

    def _execute_ready(self) -> ReadyResult:
        """Cluster readiness: per-replica state, primary identity, epoch.

        ``ready`` is False while there is no write authority (failover
        pending) or any worker is dead or ejected by its breaker — the
        503 a load balancer drains on. Answered coordinator-side from
        bookkeeping already in hand: a readiness probe must not block on
        the very replicas it is asking about.
        """
        start = clock.now()
        self.group.drain()
        replicas: list[dict[str, Any]] = []
        degraded = False
        for index, handle in enumerate(self.replicas):
            alive = handle.alive()
            breaker = self.breakers[index]
            if not alive or breaker.state == CircuitBreaker.OPEN:
                degraded = True
            replicas.append(
                {
                    "replica": index,
                    "alive": alive,
                    "role": (
                        "primary" if index == self._primary_index else "replica"
                    ),
                    "applied_version": handle.applied_version,
                    "lag": max(0, self._head - handle.applied_version),
                    "breaker": breaker.state,
                }
            )
        if self._primary_index is not None:
            primary = f"replica-{self._primary_index}"
        elif not self._embedded_dead:
            primary = "embedded"
        else:
            primary = None
        ready = self.has_primary and not degraded
        return ReadyResult(
            ready=ready,
            status="ready" if ready else "degraded",
            primary=primary,
            epoch=self.epoch,
            replicas=tuple(replicas),
            snapshot_version=self._head,
            wall_time_s=clock.now() - start,
        )

    def _execute_health(self) -> HealthResult:
        """Liveness: the coordinator process is up and answering.

        Deliberately does *not* route to the primary — liveness must keep
        returning 200 through a failover window (the process is alive;
        it is readiness that is degraded), so a supervisor does not
        restart a coordinator that is mid-promotion. Engine counters come
        from the coordinator's embedded service; the version reported is
        the acked head, the cluster-wide truth.
        """
        start = clock.now()
        service = self.service
        return HealthResult(
            status="ok",
            graph_version=self._head,
            num_vertices=service.graph.num_vertices,
            num_edges=service.graph.num_edges,
            resident=len(service.cache),
            hubs=len(service.hubs),
            snapshot_version=self._head,
            wall_time_s=clock.now() - start,
        )

    def _execute_stats(self, request: Stats) -> StatsResult:
        response = self._admin_execute(request)
        assert isinstance(response, StatsResult)
        stats: dict[str, Any] = dict(response.stats)
        if self.admission is not None:
            # The cluster gateway is the front door; its gate (not the
            # primary's idle one) is the admission truth.
            stats["admission"] = self.admission.to_dict()
        stats["cluster"] = {
            "replicas": len(self.replicas),
            "applied_versions": self.replica_versions(),
            "dispatched": [h.dispatched for h in self.replicas],
            "respawns": self.counters["respawns"],
            "deltas_shipped": self.counters["deltas_shipped"],
            "epoch": self.epoch,
            "primary": (
                f"replica-{self._primary_index}"
                if self._primary_index is not None
                else ("embedded" if not self._embedded_dead else None)
            ),
            "failovers": self.counters["failovers"],
            "breakers": [breaker.to_dict() for breaker in self.breakers],
            "chaos": chaos.injected(),
            "gateway": dict(self.counters),
        }
        return StatsResult(
            stats=stats,
            snapshot_version=response.snapshot_version,
            wall_time_s=response.wall_time_s,
        )

    def replica_versions(self) -> list[int]:
        """Last-acknowledged applied version per replica (may lag head)."""
        self.group.drain()
        return [handle.applied_version for handle in self.replicas]

    def __repr__(self) -> str:
        return (
            f"ClusterGateway(replicas={len(self.replicas)},"
            f" primary={self.service!r})"
        )


class PPRCluster(WorkerFleet):
    """User-facing handle on a replicated serving tier.

    Wraps the primary engine and its :class:`ClusterGateway`; use as a
    context manager so workers are always drained:

    >>> from repro import DynamicDiGraph, PPRService
    >>> from repro.cluster import PPRCluster
    >>> from repro.config import ClusterConfig
    >>> service = PPRService(DynamicDiGraph([(1, 0), (2, 0), (0, 1)]))
    >>> with PPRCluster(service, ClusterConfig(replicas=1)) as cluster:
    ...     answer = cluster.api.top_k(0, k=2)
    >>> answer.vertices[0]
    0
    """

    def __init__(
        self,
        service: "PPRService",
        cluster: ClusterConfig | None = None,
        config: ApiConfig | None = None,
    ) -> None:
        self.service = service
        self.gateway = ClusterGateway(service, cluster, config)

