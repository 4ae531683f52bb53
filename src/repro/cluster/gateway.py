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
* **reads** are load-balanced across replicas per the placement policy —
  ``HASHED`` keeps each source on one replica so per-source maintenance
  (lazy refreshes, admissions) partitions across processes; coalesced
  read runs (:mod:`repro.api.scheduling`, shared with the single-process
  scheduler) are split into per-replica chunks that execute
  concurrently;
* **consistency** rides the channel: a read enqueued behind a delta is
  served at a version covering it, so ``FRESH`` holds without extra
  round trips (``PIPELINED``) or with an explicit version barrier
  (``BARRIER``); ``BOUNDED``/``ANY`` are enforced engine-side on the
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
``docs/faults.md`` for the failure model and failover walkthrough;
``benchmarks/bench_cluster.py`` races this gateway against the
single-process one on the same trace.
"""

from __future__ import annotations

import multiprocessing
import threading
from collections import Counter
from collections.abc import Sequence
from typing import TYPE_CHECKING, Any

from .. import chaos, obs
from ..api.admission import AdmissionController
from ..api.gateway import RESPONSE_FOR, Gateway
from ..api.requests import (
    ApiRequest,
    BatchQuery,
    Deadline,
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
from ..api.responses import (
    ApiResponse,
    BatchResult,
    ErrorInfo,
    HealthResult,
    PrefetchResult,
    ReadyResult,
    StatsResult,
    TopKResult,
)
from ..api.scheduling import ReadRun, plan_schedule, scatter_run_results
from ..chaos import FaultKind
from ..config import (
    WORKER_START,
    ApiConfig,
    CatchUpPolicy,
    ClusterConfig,
    ConsistencyLevel,
    PlacementPolicy,
)
from ..errors import (
    ClusterError,
    DeadlineError,
    OverloadError,
    ReproError,
    StoreError,
)
from ..graph.shm import SnapshotPublisher, sweep_stale
from ..obs import clock
from ..store.wal import pack_record
from . import messages
from .replica import ReplicaSpec, replica_main

if TYPE_CHECKING:
    from ..api.client import Client
    from ..serve.service import PPRService


class _ReplicaDied(Exception):
    """Internal control flow: the worker at ``index`` stopped answering."""


class _DeadlineExpired(Exception):
    """Internal control flow: a request's deadline lapsed mid-await.

    Distinct from :class:`_ReplicaDied` because the remedy differs: the
    worker may be perfectly healthy (just slow, or wedged under SIGSTOP),
    but its in-flight ticket has been abandoned — the replica must be
    replaced so a late ``RESPONSES`` frame cannot poison the next await
    on the same pipe.
    """


class ReplicaHandle:
    """Coordinator-side view of one worker process."""

    def __init__(
        self, spec: ReplicaSpec, ctx: multiprocessing.context.BaseContext
    ) -> None:
        self.spec = spec
        self.conn, child = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=replica_main,
            args=(spec, child),
            name=f"ppr-replica-{spec.replica_id}",
            daemon=True,
        )
        self.process.start()
        child.close()
        #: Highest graph version this replica has acknowledged applying.
        self.applied_version = -1
        #: Reads/chunks dispatched to this replica (stats surface).
        self.dispatched = 0
        #: Tickets whose answers nobody is waiting for anymore (hedged
        #: reads that lost the race, deadline-abandoned dispatches):
        #: their late RESPONSES frames are absorbed, not protocol errors.
        self.abandoned: set[int] = set()

    def alive(self) -> bool:
        return self.process.is_alive()

    def send(self, frame: tuple) -> None:
        try:
            self.conn.send(frame)
        except (OSError, ValueError) as exc:
            raise _ReplicaDied(str(exc)) from exc
        # Under fork, siblings spawned later inherit this pipe's fds, so
        # a write into a dead worker can succeed silently instead of
        # raising EPIPE. A liveness check narrows that window; `_await`'s
        # poll loop is the guaranteed backstop.
        if not self.process.is_alive():
            raise _ReplicaDied(f"{self.process.name} is not alive")

    def close(self, *, terminate: bool = False, timeout: float = 5.0) -> None:
        """Join the worker; ``terminate`` kills it outright (no wait).

        The forced path uses SIGKILL, not SIGTERM: a worker wedged under
        SIGSTOP is still ``is_alive()`` yet never processes SIGTERM
        (stopped processes leave catchable signals pending), so the old
        terminate-then-join dance stalled two full join timeouts exactly
        when a fast replacement mattered most. SIGKILL takes effect
        regardless of stop state. ``timeout`` bounds each join (graceful
        shutdown passes its remaining drain budget).
        """
        if terminate and self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=timeout)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=timeout)
        self.conn.close()


class ClusterGateway:
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

    def __init__(
        self,
        service: "PPRService",
        cluster: ClusterConfig | None = None,
        config: ApiConfig | None = None,
    ) -> None:
        self.service = service
        self.cluster = cluster or ClusterConfig()
        self.config = config or ApiConfig()
        self.primary = (
            Gateway(service, self.config)
            if service._gateway is None
            else service.gateway
        )
        self._ctx = multiprocessing.get_context(WORKER_START)
        # Reap segments a SIGKILLed predecessor left behind (the way
        # StateStore sweeps stale checkpoint temporaries at open).
        sweep_stale()
        self._lock = threading.RLock()
        self._ticket = 0
        self._rotor = 0
        self.counters: Counter[str] = Counter()
        #: Bounded-queue backpressure gate; None when admission_queue == 0.
        self.admission: AdmissionController | None = (
            AdmissionController(self.config.admission_queue)
            if self.config.admission_queue
            else None
        )
        self._respawn_counts: dict[int, int] = {}
        self._closed = False
        #: Write-authority term; bumped at every failover and stamped
        #: into every WAL frame shipped under the new primary.
        self.epoch = 0
        #: Index of the promoted replica, or None while the embedded
        #: engine is primary.
        self._primary_index: int | None = None
        #: True once the embedded engine has been retired (chaos kill or
        #: fenced store) — the next write triggers a failover.
        self._embedded_dead = False
        #: Acknowledged head version: the newest version an acked write
        #: produced. Tracks ``service.graph_version`` while the embedded
        #: engine is primary, then the promoted replica's acked writes.
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
        self.replicas: list[ReplicaHandle] = []
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

    def _publish_snapshot(self) -> dict[str, Any]:
        """Publish the primary's current snapshot to shared memory (once).

        One bundle per graph version, shared by every replica spawned at
        that version: the order-exact graph arrays, the consolidated CSR
        of the same version (so workers skip their own O(n + m) rebuild),
        and the scalar meta that keeps the lazy graph build O(1).
        Re-publishing the current version returns the existing descriptor
        without copying anything.
        """
        service = self.service
        version = service.graph_version
        if self._publisher.current_version == version:
            return self._publisher.descriptor(version)
        arrays = dict(service.graph.to_arrays())
        arrays.update(service.shared_snapshot_arrays())
        return self._publisher.publish(
            version,
            arrays,
            meta={
                "num_edges": service.graph.num_edges,
                "max_vertex": service.graph.max_vertex_id,
            },
        )

    def _spawn(self, index: int, *, from_store: bool = False) -> ReplicaHandle:
        handle = ReplicaHandle(self._spec(index, from_store=from_store), self._ctx)
        deadline = clock.now() + self.cluster.spawn_timeout_s
        try:
            while not handle.conn.poll(0.05):
                if clock.now() > deadline or not handle.alive():
                    raise ClusterError(
                        f"replica {index} never completed its spawn handshake"
                    )
            tag, version = handle.conn.recv()
        except (EOFError, OSError) as exc:
            handle.close(terminate=True)
            raise ClusterError(f"replica {index} died during spawn: {exc}") from exc
        except ClusterError:
            handle.close(terminate=True)
            raise
        if tag != messages.HELLO:
            handle.close(terminate=True)
            raise ClusterError(f"replica {index} sent {tag!r} instead of hello")
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
        handle.applied_version = version
        return handle

    def _revive(self, index: int) -> None:
        """Replace a dead replica, recovering from the store when attached.

        The respawn budget is tracked *per replica slot*: a poison batch
        crash-looping one worker exhausts that slot's budget, while
        unrelated transient deaths of other replicas keep their own.
        """
        count = self._respawn_counts.get(index, 0) + 1
        if count > self.cluster.max_respawns:
            raise ClusterError(
                f"replica {index} died and its respawn budget"
                f" ({self.cluster.max_respawns}) is exhausted"
            )
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
        self._respawn_counts[index] = count
        obs.event("replica-crashed", replica=index, respawn=count)
        with obs.span("cluster.respawn", replica=index):
            self.replicas[index].close(terminate=True)
            self.replicas[index] = self._spawn(
                index, from_store=self.service.store is not None
            )
        self.counters["respawns"] += 1

    def close(self, *, deadline_s: float | None = None) -> None:
        """Drain and stop every worker (idempotent).

        A clean drain: each live replica gets a ``SHUTDOWN`` frame and
        acknowledges with ``BYE`` after finishing whatever frame it was
        serving; stragglers are terminated after a grace period.
        ``deadline_s`` bounds the whole drain (graceful shutdown) — past
        it, remaining workers get SIGKILL joins with a minimal timeout.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            limit = clock.now() + deadline_s if deadline_s is not None else None
            for handle in self.replicas:
                try:
                    handle.send((messages.SHUTDOWN,))
                except _ReplicaDied:
                    pass
            for handle in self.replicas:
                if limit is None:
                    handle.close()
                else:
                    handle.close(
                        timeout=max(0.1, min(5.0, limit - clock.now()))
                    )
            self._publisher.close()

    def __enter__(self) -> "ClusterGateway":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # channel plumbing
    # ------------------------------------------------------------------ #

    def _next_ticket(self) -> int:
        self._ticket += 1
        return self._ticket

    def _absorb(self, handle: ReplicaHandle, frame: tuple) -> tuple | None:
        """Consume bookkeeping frames; return frames the caller must handle."""
        tag = frame[0]
        if tag == messages.APPLIED:
            handle.applied_version = max(handle.applied_version, frame[1])
            obs.ingest_spans(frame[2])
            return None
        if tag == messages.SYNCED:
            handle.applied_version = max(handle.applied_version, frame[2])
            return frame
        if tag == messages.RESPONSES and frame[1] in handle.abandoned:
            # A hedged read's losing answer, or a deadline-abandoned
            # dispatch finally finishing: keep the version/span
            # bookkeeping, drop the payload.
            handle.abandoned.discard(frame[1])
            handle.applied_version = max(handle.applied_version, frame[3])
            obs.ingest_spans(frame[4])
            return None
        return frame

    def _drain_acks(self) -> None:
        """Opportunistically absorb pending APPLIED acks (non-blocking)."""
        for handle in self.replicas:
            try:
                while handle.conn.poll(0):
                    frame = handle.conn.recv()
                    self._absorb(handle, frame)
            except (EOFError, OSError):
                continue  # detected for real at the next dispatch

    def _await(
        self, index: int, ticket: int, deadline: Deadline | None = None
    ) -> list[ApiResponse]:
        """Block until replica ``index`` answers ``ticket``; absorb acks.

        Bounded by *both* clocks: the cluster's response timeout (a wedged
        worker is treated as dead) and the request's own ``deadline`` when
        it carries one — an overdue answer is worthless, so the wait fails
        fast with :class:`_DeadlineExpired` instead of burning the full
        response timeout.
        """
        handle = self.replicas[index]
        timeout_at = clock.now() + self.cluster.response_timeout_s
        with obs.span("cluster.await", replica=index):
            return self._await_loop(handle, index, ticket, deadline, timeout_at)

    def _await_loop(
        self,
        handle: ReplicaHandle,
        index: int,
        ticket: int,
        deadline: Deadline | None,
        timeout_at: float,
    ) -> list[ApiResponse]:
        while True:
            try:
                if not handle.conn.poll(0.05):
                    if not handle.alive():
                        raise _ReplicaDied(f"replica {index} exited")
                    now = clock.now()
                    if deadline is not None and deadline.expired(now):
                        raise _DeadlineExpired(index)
                    if now > timeout_at:
                        raise _ReplicaDied(f"replica {index} timed out")
                    continue
                frame = handle.conn.recv()
            except (EOFError, OSError) as exc:
                raise _ReplicaDied(str(exc)) from exc
            frame = self._absorb(handle, frame)
            if frame is None:
                continue
            if frame[0] == messages.RESPONSES and frame[1] == ticket:
                handle.applied_version = max(handle.applied_version, frame[3])
                obs.ingest_spans(frame[4])
                return list(frame[2])
            if frame[0] in (messages.SYNCED, messages.BYE):
                continue
            raise ClusterError(
                f"replica {index} broke protocol: got {frame[0]!r}"
                f" while awaiting ticket {ticket}"
            )

    def _barrier(self, index: int) -> None:
        """Explicit catch-up: wait until the replica acks head version."""
        handle = self.replicas[index]
        if handle.applied_version >= self._head:
            return
        ticket = self._next_ticket()
        handle.send((messages.SYNC, ticket))
        deadline = clock.now() + self.cluster.response_timeout_s
        with obs.span("cluster.barrier", replica=index):
            while handle.applied_version < self._head:
                try:
                    if not handle.conn.poll(0.05):
                        if not handle.alive() or clock.now() > deadline:
                            raise _ReplicaDied(f"replica {index} failed its barrier")
                        continue
                    self._absorb(handle, handle.conn.recv())
                except (EOFError, OSError) as exc:
                    raise _ReplicaDied(str(exc)) from exc

    def _dispatch(
        self,
        index: int,
        requests: Sequence[ApiRequest],
        *,
        coalesce: bool,
        fresh: bool,
    ) -> int:
        """Ship a read chunk to one replica; returns the ticket to await."""
        if fresh and not self.has_primary:
            # No write authority exists, so "fresh as of now" is not a
            # promise anyone can keep. The typed 503 is the promotion
            # window's only degradation: ANY/BOUNDED reads keep serving.
            raise ClusterError(
                "FRESH reads unavailable: no primary (failover pending)"
            )
        if fresh and self.cluster.catch_up is CatchUpPolicy.BARRIER:
            self._barrier(index)
        ticket = self._next_ticket()
        handle = self.replicas[index]
        ctx = obs.current()
        if ctx is not None:
            # Replica-side spans join this request's trace: the context
            # rides each request as a pickled instance attribute.
            for request in requests:
                obs.attach(request, ctx)
        handle.send((messages.REQUESTS, ticket, tuple(requests), coalesce))
        handle.dispatched += 1
        return ticket

    def _dispatch_single(self, index: int, request: ApiRequest) -> ApiResponse:
        """One read on one replica, with crash detection and one retry.

        Outcomes feed the replica's circuit breaker: a death or expired
        deadline counts as a failure, a served answer closes it again.
        """
        fresh = self._is_fresh(request)
        deadline = getattr(request, "deadline", None)
        if (
            self.cluster.hedge_reads
            and not fresh
            and len(self.replicas) > 1
            and isinstance(request, (TopKQuery, ScoreQuery))
        ):
            return self._hedged_single(index, request)
        try:
            ticket = self._dispatch(index, [request], coalesce=False, fresh=fresh)
            response = self._await(index, ticket, deadline)[0]
        except _DeadlineExpired:
            self.breakers[index].record_failure()
            raise self._abandon(index, deadline) from None
        except _ReplicaDied:
            self.breakers[index].record_failure()
            return self._retry_single(index, request, fresh)
        self.breakers[index].record_success()
        return response

    def _abandon(self, index: int, deadline: Deadline | None) -> DeadlineError:
        """Replace a replica whose in-flight ticket was abandoned.

        The worker may still answer the abandoned ticket eventually; a
        late ``RESPONSES`` frame on the same pipe would break the next
        await's protocol check. Respawning swaps in a fresh pipe (and,
        if the worker was wedged under SIGSTOP, a live process), so
        deadline expiry degrades exactly one request. Returns the typed
        error for the caller to raise.
        """
        self._revive(index)
        assert deadline is not None
        return deadline.to_error()

    def _retry_single(
        self, index: int, request: ApiRequest, fresh: bool
    ) -> ApiResponse:
        """Revive replica ``index`` and re-run one request on it.

        The retry lands on the *respawned* replica — recovered from the
        store (or re-snapshotted from the primary) at head version — so
        the answer is still a correct answer at its stated snapshot
        version, merely cold where the dead replica was warm. A second
        death surfaces as the typed :class:`~repro.errors.ClusterError`
        (never the internal control-flow exception).
        """
        deadline = getattr(request, "deadline", None)
        if deadline is not None and deadline.expired():
            # No point re-running work nobody is waiting for; the revive
            # already happened (or happens now) so the slot stays healthy.
            self._revive(index)
            raise deadline.to_error()
        self._revive(index)
        try:
            ticket = self._dispatch(index, [request], coalesce=False, fresh=fresh)
            response = self._await(index, ticket, deadline)[0]
        except _DeadlineExpired:
            self.breakers[index].record_failure()
            raise self._abandon(index, deadline) from None
        except _ReplicaDied as exc:
            self.breakers[index].record_failure()
            raise ClusterError(
                f"replica {index} died twice serving one request"
            ) from exc
        self.breakers[index].record_success()
        return response

    def _hedged_single(self, index: int, request: ApiRequest) -> ApiResponse:
        """Dispatch an idempotent read to two replicas; first answer wins.

        The loser's ticket joins its handle's ``abandoned`` set so the
        late answer is absorbed as bookkeeping rather than tripping the
        protocol check. If one of the pair dies the race degrades to a
        plain await on the survivor; if both die, the normal
        revive-and-retry path takes over on the owner.
        """
        backup = self._route((index + 1) % len(self.replicas))
        deadline = getattr(request, "deadline", None)
        ctx = obs.current()
        if ctx is not None:
            obs.attach(request, ctx)
        racers: dict[int, int] = {}  # replica index -> ticket
        for i in dict.fromkeys((index, backup)):
            try:
                ticket = self._next_ticket()
                handle = self.replicas[i]
                handle.send((messages.REQUESTS, ticket, (request,), False))
                handle.dispatched += 1
                racers[i] = ticket
            except _ReplicaDied:
                self.breakers[i].record_failure()
        if not racers:
            return self._retry_single(index, request, False)
        self.counters["reads_hedged"] += 1
        timeout_at = clock.now() + self.cluster.response_timeout_s
        with obs.span("cluster.hedge", owner=index, racers=len(racers)):
            while racers:
                now = clock.now()
                if deadline is not None and deadline.expired(now):
                    for i, ticket in racers.items():
                        self.replicas[i].abandoned.add(ticket)
                        self.breakers[i].record_failure()
                    raise deadline.to_error()
                if now > timeout_at:
                    break
                for i, ticket in list(racers.items()):
                    handle = self.replicas[i]
                    try:
                        if not handle.conn.poll(0.01):
                            if not handle.alive():
                                raise _ReplicaDied(f"replica {i} exited")
                            continue
                        frame = self._absorb(handle, handle.conn.recv())
                    except _ReplicaDied:
                        self.breakers[i].record_failure()
                        del racers[i]
                        continue
                    except (EOFError, OSError):
                        self.breakers[i].record_failure()
                        del racers[i]
                        continue
                    if frame is None or frame[0] in (messages.SYNCED, messages.BYE):
                        continue
                    if frame[0] == messages.RESPONSES and frame[1] == ticket:
                        handle.applied_version = max(
                            handle.applied_version, frame[3]
                        )
                        obs.ingest_spans(frame[4])
                        self.breakers[i].record_success()
                        for loser, lost in racers.items():
                            if loser != i:
                                self.replicas[loser].abandoned.add(lost)
                        return frame[2][0]
                    raise ClusterError(
                        f"replica {i} broke protocol: got {frame[0]!r}"
                        f" while awaiting hedged ticket {ticket}"
                    )
        # Both racers died or the response timeout lapsed: abandon any
        # survivors' tickets and fall back to revive-and-retry.
        for i, ticket in racers.items():
            self.replicas[i].abandoned.add(ticket)
        return self._retry_single(index, request, False)

    def _scatter(
        self, per_replica: dict[int, ApiRequest], fresh: bool
    ) -> dict[int, ApiResponse]:
        """One request per replica, dispatched concurrently.

        Every request is shipped before any answer is awaited, so the
        replicas compute in parallel; a replica that dies is revived and
        its request retried once on the fresh worker.
        """
        tickets: dict[int, int] = {}
        results: dict[int, ApiResponse] = {}
        for index, request in per_replica.items():
            try:
                tickets[index] = self._dispatch(
                    index, [request], coalesce=False, fresh=fresh
                )
            except _ReplicaDied:
                results[index] = self._retry_single(index, request, fresh)
        for index, request in per_replica.items():
            if index in results:
                continue
            try:
                results[index] = self._await(
                    index, tickets[index], getattr(request, "deadline", None)
                )[0]
            except _DeadlineExpired:
                raise self._abandon(
                    index, getattr(request, "deadline", None)
                ) from None
            except _ReplicaDied:
                results[index] = self._retry_single(index, request, fresh)
        return results

    @staticmethod
    def _is_fresh(request: ApiRequest) -> bool:
        consistency = getattr(request, "consistency", None)
        return (
            consistency is not None
            and consistency.level is ConsistencyLevel.FRESH
        )

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #

    @property
    def has_primary(self) -> bool:
        """Is there a live write authority (embedded or promoted)?"""
        return self._primary_index is not None or not self._embedded_dead

    def _route(self, index: int) -> int:
        """First replica at or after ``index`` whose breaker admits traffic.

        Walking forward keeps HASHED placement's warm-cache affinity for
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
        if self.cluster.placement is PlacementPolicy.HASHED:
            return source % len(self.replicas)
        self._rotor = (self._rotor + 1) % len(self.replicas)
        return self._rotor

    def _partition(self, sources: Sequence[int]) -> dict[int, list[int]]:
        """Group sources by owning replica, preserving per-chunk order."""
        chunks: dict[int, list[int]] = {}
        if self.cluster.placement is PlacementPolicy.HASHED:
            for source in sources:
                chunks.setdefault(source % len(self.replicas), []).append(source)
            return chunks
        # Round-robin: contiguous even slices, deterministic for a trace.
        n = len(self.replicas)
        width = max(1, -(-len(sources) // n))
        for index in range(n):
            chunk = list(sources[index * width : (index + 1) * width])
            if chunk:
                chunks[index] = chunk
        return chunks

    # ------------------------------------------------------------------ #
    # the typed protocol
    # ------------------------------------------------------------------ #

    def submit(self, request: ApiRequest) -> ApiResponse:
        """Execute one request; failures become error-carrying responses.

        With :attr:`~repro.config.ApiConfig.admission_queue` set, the
        request first passes the bounded admission gate (same policy as
        the single-process gateway): past its priority class's depth
        threshold it is shed with stable code ``OVERLOAD``.
        """
        try:
            if self.admission is not None:
                self.admission.admit(request)
                try:
                    return self.execute(request)
                finally:
                    self.admission.release()
            return self.execute(request)
        except ReproError as exc:
            self.counters["errors"] += 1
            if isinstance(exc, OverloadError):
                self.counters["shed"] += 1
            elif isinstance(exc, DeadlineError):
                self.counters["deadline_exceeded"] += 1
            shape = RESPONSE_FOR.get(type(request), ApiResponse)
            return shape.failure(
                ErrorInfo.from_exception(exc),
                snapshot_version=self._head,
            )

    def execute(self, request: ApiRequest) -> ApiResponse:
        """Execute one request, raising typed errors (the embedded path).

        Latency lands in the ``cluster.<op>`` stage histograms (distinct
        from the primary gateway's ``request.<op>`` stages, so replicated
        and single-process timings never mix); a sampled request's
        coordinator work is wrapped in a ``gateway.execute`` span with
        ``tier="cluster"``.
        """
        queued = clock.now()
        with self._lock:
            waited = clock.now() - queued
            obs.observe("queue.wait", waited)
            source = getattr(request, "source", None)
            ctx = obs.trace_of(request)
            if ctx is None:
                with obs.measured(f"cluster.{request.op}", source=source):
                    return self._execute(request)
            with obs.activate(ctx):
                obs.record_span(
                    "queue.wait", start=queued, duration=waited, observe=False
                )
                with obs.span("gateway.execute", op=request.op, tier="cluster"):
                    with obs.measured(
                        f"cluster.{request.op}",
                        trace_id=ctx.trace_id,
                        source=source,
                    ):
                        return self._execute(request)

    def _execute(self, request: ApiRequest) -> ApiResponse:
        with self._lock:
            if self._closed:
                raise ClusterError("cluster gateway is closed")
            try:
                return self._execute_routed(request)
            except (_ReplicaDied, _DeadlineExpired) as exc:
                # Backstop: the retry paths convert these; anything that
                # still escapes must not reach HTTP clients as internal
                # control flow.
                raise ClusterError(
                    f"replica failure escaped the retry path: {exc}"
                ) from exc
            except (EOFError, BrokenPipeError, ConnectionError) as exc:
                # A replica pipe breaking mid-request is a cluster
                # failure (stable code CLUSTER, HTTP 503), never a raw
                # EOFError/BrokenPipeError to the caller.
                raise ClusterError(
                    f"replica channel broke mid-request: {exc}"
                ) from exc

    def _execute_routed(self, request: ApiRequest) -> ApiResponse:
        self._drain_acks()
        self.counters[request.op] += 1
        # Under the lock, so queueing on a busy coordinator counts
        # against the budget (matching the single-process gateway).
        deadline = getattr(request, "deadline", None)
        if deadline is not None and deadline.expired():
            raise deadline.to_error()
        if isinstance(request, IngestBatch):
            return self._execute_ingest(request)
        if isinstance(request, TopKQuery):
            return self._dispatch_single(
                self._route(self._owner(request.source)), request
            )
        if isinstance(request, ScoreQuery):
            return self._dispatch_single(
                self._route(self._owner(request.source)), request
            )
        if isinstance(request, HubQuery):
            self._rotor = (self._rotor + 1) % len(self.replicas)
            return self._dispatch_single(self._route(self._rotor), request)
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
            return self._dispatch_single(self._primary_index, request)
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
                    raise _ReplicaDied(
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
            except _ReplicaDied:
                # The respawn bootstraps at head, delta included.
                self._revive(index)

    def _forward_ingest(self, request: IngestBatch) -> ApiResponse:
        """Apply a write on the promoted primary replica.

        Runs the failover first when no replica holds the role yet. On
        success the produced WAL frame is re-created coordinator-side
        (same seq, same updates, current epoch) and shipped to the other
        replicas. If the promoted primary dies mid-write, it is demoted
        and rebuilt, a fresh failover picks a new primary, and the write
        is retried exactly once.
        """
        for attempt in range(2):
            if self._primary_index is None:
                self._failover()
            index = self._primary_index
            handle = self.replicas[index]
            ticket = self._next_ticket()
            ctx = obs.current()
            if ctx is not None:
                obs.attach(request, ctx)
            try:
                handle.send((messages.INGEST, ticket, request, ctx))
                response = self._await(
                    index, ticket, getattr(request, "deadline", None)
                )[0]
            except _DeadlineExpired:
                raise self._abandon(
                    index, getattr(request, "deadline", None)
                ) from None
            except _ReplicaDied:
                if attempt == 0:
                    self._revive(index)  # also clears _primary_index
                    continue
                raise ClusterError(
                    "promoted primary died twice applying one write"
                ) from None
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
        self._drain_acks()
        store = self.service.store
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
            try:
                with obs.span("cluster.failover", replica=index, epoch=self.epoch):
                    ticket = self._next_ticket()
                    handle.send(
                        (
                            messages.PROMOTE,
                            ticket,
                            self.epoch,
                            str(store.root) if store is not None else None,
                            store.config if store is not None else None,
                        )
                    )
                    version, replayed = self._await_promoted(index, ticket)
            except (ClusterError, _ReplicaDied) as exc:
                errors.append(f"replica {index}: {exc}")
                continue
            self._primary_index = index
            handle.applied_version = max(handle.applied_version, version)
            self._head = max(self._head, version)
            self.counters["failovers"] += 1
            ctx = obs.current()
            for frame in replayed:
                self._ship_frame(frame, ctx, exclude=index)
            return
        raise ClusterError(
            "failover failed on every candidate: " + "; ".join(errors)
        )

    def _await_promoted(self, index: int, ticket: int) -> tuple[int, list[bytes]]:
        """Wait for the PROMOTED handshake (bounded by response timeout)."""
        handle = self.replicas[index]
        timeout_at = clock.now() + self.cluster.response_timeout_s
        while True:
            try:
                if not handle.conn.poll(0.05):
                    if not handle.alive():
                        raise _ReplicaDied(f"replica {index} died mid-promotion")
                    if clock.now() > timeout_at:
                        raise _ReplicaDied(f"replica {index} promotion timed out")
                    continue
                frame = handle.conn.recv()
            except (EOFError, OSError) as exc:
                raise _ReplicaDied(str(exc)) from exc
            frame = self._absorb(handle, frame)
            if frame is None:
                continue
            if frame[0] == messages.PROMOTED and frame[1] == ticket:
                obs.ingest_spans(frame[4])
                return frame[2], list(frame[3])
            if frame[0] in (messages.SYNCED, messages.RESPONSES, messages.BYE):
                # Stale answers to abandoned tickets may still be in
                # flight; promotion must not trip over them.
                continue
            raise ClusterError(
                f"replica {index} broke protocol: got {frame[0]!r}"
                f" while awaiting promotion ticket {ticket}"
            )

    # -- reads --------------------------------------------------------- #

    def _execute_batch(self, request: BatchQuery) -> BatchResult:
        start = clock.now()
        chunks = self._partition(request.sources)
        fresh = self._is_fresh(request)
        by_position: dict[int, TopKResult] = {}
        source_positions: dict[int, list[int]] = {}
        for position, source in enumerate(request.sources):
            source_positions.setdefault(source, []).append(position)
        cursor = {source: 0 for source in source_positions}
        for _, chunk_sources, chunk_results in self._run_chunks(
            chunks, request, fresh
        ):
            for source, result in zip(chunk_sources, chunk_results):
                assert isinstance(result, TopKResult)
                positions = source_positions[source]
                by_position[positions[cursor[source]]] = result
                cursor[source] += 1
        results = tuple(by_position[i] for i in range(len(request.sources)))
        return BatchResult(
            results=results,
            snapshot_version=self._head,
            staleness=max((r.staleness for r in results), default=0),
            wall_time_s=clock.now() - start,
        )

    def _run_chunks(
        self,
        chunks: dict[int, list[int]],
        request: BatchQuery,
        fresh: bool,
    ):
        """Execute per-replica BatchQuery chunks concurrently.

        One :meth:`_scatter` round: all chunks ship before any answer is
        awaited, so replicas compute in parallel; a replica that dies
        mid-chunk is revived and its chunk retried once.
        """
        per_replica = {
            index: BatchQuery(
                sources=tuple(sources),
                k=request.k,
                consistency=request.consistency,
                deadline=request.deadline,
            )
            for index, sources in chunks.items()
        }
        results = self._scatter(per_replica, fresh)
        for index, sources in chunks.items():
            response = results[index]
            if response.error is not None:
                raise response.error.to_exception()
            assert isinstance(response, BatchResult)
            yield index, sources, response.results

    def _execute_prefetch(self, request: Prefetch) -> PrefetchResult:
        """Queue each source for admission on the replica that owns it.

        Admission pushes are the most expensive per-source work in the
        system, so the per-replica chunks go out as one scatter round —
        parallel, like every other chunked read path.
        """
        start = clock.now()
        per_replica = {
            index: Prefetch(sources=tuple(sources))
            for index, sources in self._partition(request.sources).items()
        }
        pending = 0
        for response in self._scatter(per_replica, False).values():
            if response.error is not None:
                raise response.error.to_exception()
            assert isinstance(response, PrefetchResult)
            pending += response.pending
        return PrefetchResult(
            requested=len(request.sources),
            pending=pending,
            snapshot_version=self._head,
            wall_time_s=clock.now() - start,
        )

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
        self._drain_acks()
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
            "placement": self.cluster.placement.value,
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
        self._drain_acks()
        return [handle.applied_version for handle in self.replicas]

    # ------------------------------------------------------------------ #
    # scheduling: mixed read/write traffic
    # ------------------------------------------------------------------ #

    def submit_many(
        self, requests: Sequence[ApiRequest], *, coalesce: bool | None = None
    ) -> list[ApiResponse]:
        """Run a request sequence in order, fanning read runs out in parallel.

        The schedule is the *same* plan the single-process gateway makes
        (:func:`repro.api.scheduling.plan_schedule`): writes execute at
        their arrival position as barriers, and each coalesced run of
        same-shaped top-k reads is deduplicated — then split across
        replicas by placement and executed concurrently, one chunk per
        worker process. Under ``HASHED`` placement the answers are
        bit-identical to the single-process scheduler's for the same
        trace (each source's refresh/admission history lives on exactly
        one replica).
        """
        if coalesce is None:
            coalesce = self.config.coalesce_reads
        with self._lock:
            responses: list[ApiResponse | None] = [None] * len(requests)
            steps = plan_schedule(
                requests, coalesce=coalesce, max_batch=self.config.max_batch
            )
            for step in steps:
                if isinstance(step, ReadRun):
                    self._execute_run(requests, step, responses)
                else:
                    responses[step.position] = self.submit(requests[step.position])
            return [r for r in responses if r is not None]

    def _execute_run(
        self,
        requests: Sequence[ApiRequest],
        run: ReadRun,
        responses: list[ApiResponse | None],
    ) -> None:
        """Answer one coalesced read run via parallel per-replica batches.

        Mirrors the single-process scheduler's tracing: the run executes
        under the first traced member's context in a ``schedule.run``
        span, so per-replica chunk spans (and the replica-side execution
        they ship back) link into that member's trace.
        """
        lead = next(
            (
                ctx
                for ctx in (obs.trace_of(requests[p]) for p in run.positions)
                if ctx is not None
            ),
            None,
        )
        if lead is None:
            self._execute_run_inner(requests, run, responses)
            return
        with obs.activate(lead):
            with obs.span(
                "schedule.run",
                members=len(run.positions),
                coalesced=run.coalesced,
                tier="cluster",
            ):
                self._execute_run_inner(requests, run, responses)

    def _execute_run_inner(
        self,
        requests: Sequence[ApiRequest],
        run: ReadRun,
        responses: list[ApiResponse | None],
    ) -> None:
        first = requests[run.positions[0]]
        assert isinstance(first, TopKQuery)
        self.counters["reads_coalesced"] += run.coalesced
        chunks = self._partition(run.sources)
        fresh = first.consistency.level is ConsistencyLevel.FRESH
        by_source: dict[int, TopKResult] = {}
        probe = BatchQuery(
            sources=run.sources,
            k=first.k,
            consistency=first.consistency,
            deadline=run.deadline,
        )
        try:
            for index, sources, results in self._run_chunks(chunks, probe, fresh):
                del index
                for source, result in zip(sources, results):
                    assert isinstance(result, TopKResult)
                    by_source[source] = result
        except ReproError as exc:
            # Match the single-process scheduler: one failing batch fails
            # the whole run with that error.
            self.counters["errors"] += 1
            error = ErrorInfo.from_exception(exc)
            by_source = {
                source: TopKResult.failure(
                    error,
                    snapshot_version=self._head,
                    source=source,
                )
                for source in run.sources
            }
        scatter_run_results(requests, run, by_source, responses)

    def __repr__(self) -> str:
        return (
            f"ClusterGateway(replicas={len(self.replicas)},"
            f" placement={self.cluster.placement.value},"
            f" primary={self.service!r})"
        )


class PPRCluster:
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

    @property
    def api(self) -> "Client":
        """An embedded typed client bound to the cluster gateway."""
        from ..api.client import Client

        return Client(self.gateway)

    def close(self) -> None:
        self.gateway.close()

    def __enter__(self) -> "PPRCluster":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"PPRCluster(gateway={self.gateway!r})"
