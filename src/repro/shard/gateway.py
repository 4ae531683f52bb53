"""The shard coordinator: N shard processes behind one typed gateway.

:class:`ShardedGateway` implements the same request/response protocol as
:class:`repro.api.gateway.Gateway` — ``submit`` / ``submit_many`` /
``execute`` over the typed dataclasses of :mod:`repro.api` — so the
embedded :class:`~repro.api.client.Client`, the HTTP front-end, and
``repro serve`` work unchanged while the *graph itself* (not just read
load) is partitioned across processes:

* each shard owns a vertex slice — the in-adjacency rows and the
  per-source PPR state of the vertices its partitioner maps to it —
  while degrees, presence, and the graph version are replicated so every
  shard can compute push increments locally;
* **writes** ship to *every* shard as one WAL-framed batch; each shard
  applies it through its normal ingest path and logs it to its own
  store, so versions stay in lock-step and each shard can recover
  alone. Delete-carrying batches run a ``VALIDATE`` round first so the
  whole cluster rejects atomically (see ``docs/sharding.md``);
* **reads** route to the owning shard. A push that reaches a non-owned
  vertex blocks on a ``FETCH`` the coordinator relays to the owner
  (``EXCHANGE``/``EXCHANGED``/``FETCHED``); a shard blocked in a fetch
  keeps serving exchanges, which makes the relay star deadlock-free;
* **durability** is per-shard stores under one coordinator manifest
  (:mod:`repro.shard.manifest`): the coordinator drives checkpoint
  rounds and rewrites ``manifest.json`` only when every shard
  acknowledged the same version;
* **failures**: a dead shard is respawned from its own store (or, when
  storeless, from the seed snapshot plus the coordinator's frame
  history), healed to head with donor ``TAIL`` frames, and the
  interrupted request retried once. The ``shard.exchange`` chaos site
  models relay failures: a dropped or errored relay surfaces as a typed
  ``CLUSTER`` error on the requesting read, never a hang.

See ``docs/sharding.md`` for the topology, the bit-identity contract
against the single-process oracle, and the failure modes.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import threading
import time
from multiprocessing import connection as mp_connection
from collections import Counter
from collections.abc import Sequence
from typing import TYPE_CHECKING, Any

from .. import chaos, obs
from ..api.admission import AdmissionController
from ..api.gateway import RESPONSE_FOR
from ..api.requests import (
    ApiRequest,
    BatchQuery,
    CheckpointNow,
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
from ..api.responses import (
    ApiResponse,
    BatchResult,
    CheckpointResult,
    ErrorInfo,
    HealthResult,
    IngestResult,
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
    Backend,
    PPRConfig,
    ServeConfig,
    ShardConfig,
    StoreConfig,
)
from ..errors import (
    ClusterError,
    ConfigError,
    ConflictError,
    DeadlineError,
    OverloadError,
    ReproError,
)
from ..graph.digraph import DynamicDiGraph
from ..graph.shm import SharedArrayBundle, sweep_stale
from ..obs import clock
from ..store.wal import pack_record
from . import messages
from .manifest import read_manifest, shard_store_root, write_manifest
from .partitioner import (
    Partitioner,
    build_partitioner,
    partitioner_from_manifest,
)
from .worker import ShardSpec, shard_main

if TYPE_CHECKING:
    from ..api.client import Client

#: Worker-side stores never self-checkpoint: the coordinator drives
#: checkpoint rounds so the manifest only ever records epochs every
#: shard completed. An interval no workload reaches makes
#: ``maybe_checkpoint`` inert without a new config knob.
_INERT_INTERVAL = 1 << 60

#: Stats keys merged with max() instead of sum() across shards.
_MAX_HINTS = ("p50", "p90", "p95", "p99", "max")


class _ShardDied(Exception):
    """Internal control flow: the worker at ``index`` stopped answering."""


class _DeadlineExpired(Exception):
    """Internal control flow: a request's deadline lapsed mid-await."""


class ShardHandle:
    """Coordinator-side view of one shard worker process."""

    def __init__(
        self, spec: ShardSpec, ctx: multiprocessing.context.BaseContext
    ) -> None:
        self.spec = spec
        self.conn, child = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=shard_main,
            args=(spec, child),
            name=f"ppr-shard-{spec.shard_id}",
            daemon=True,
        )
        self.process.start()
        child.close()
        #: Highest graph version this shard has acknowledged.
        self.applied_version = -1
        #: Reads/chunks dispatched to this shard (stats surface).
        self.dispatched = 0
        #: Tickets whose answers nobody awaits anymore (deadline-abandoned
        #: dispatches): late replies are absorbed, not protocol errors.
        self.abandoned: set[int] = set()
        #: Frames that arrived while awaiting something else (a reply
        #: overtaken by a relayed exchange); drained by the next await.
        self.pending: list[tuple] = []
        #: The pipe hit EOF: exclude it from poll sets (a closed pipe is
        #: permanently "ready", which would spin the await loops).
        self.broken = False

    def alive(self) -> bool:
        return self.process.is_alive()

    def send(self, frame: tuple) -> None:
        try:
            self.conn.send(frame)
        except (OSError, ValueError) as exc:
            raise _ShardDied(str(exc)) from exc
        # Under fork, siblings inherit this pipe's fds, so a write into a
        # dead worker can succeed silently; the liveness check narrows
        # that window and the await poll loop is the backstop.
        if not self.process.is_alive():
            raise _ShardDied(f"{self.process.name} is not alive")

    def close(self, *, terminate: bool = False, timeout: float = 5.0) -> None:
        """Join the worker; ``terminate`` kills it outright (SIGKILL —
        a worker wedged under SIGSTOP never processes SIGTERM)."""
        if terminate and self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=timeout)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=timeout)
        self.conn.close()


class ShardedGateway:
    """Partitioned drop-in for :class:`~repro.api.gateway.Gateway`.

    Parameters
    ----------
    graph:
        The seed :class:`~repro.graph.digraph.DynamicDiGraph`. Its
        order-exact snapshot bootstraps every shard's slice; the
        coordinator keeps no engine of its own.
    shard:
        Topology knobs (:class:`repro.config.ShardConfig`).
    config:
        Protocol knobs (:class:`repro.config.ApiConfig`) — coalescing
        width, HTTP bind address, default consistency.
    ppr / serve:
        Engine configuration, forwarded to every shard's
        :class:`~repro.shard.service.ShardService` (``backend`` must be
        ``NUMPY``; the hub tier must be disabled).
    store_root / store_config:
        When given, each shard persists to its own store under
        ``store_root/shard-<NN>/`` and the coordinator maintains
        ``store_root/manifest.json`` (see :mod:`repro.shard.manifest`).

    Examples
    --------
    >>> from repro import DynamicDiGraph
    >>> from repro.api import TopKQuery
    >>> from repro.config import ShardConfig
    >>> from repro.shard import ShardedGateway
    >>> graph = DynamicDiGraph([(1, 0), (2, 0), (0, 1)])
    >>> gateway = ShardedGateway(graph, ShardConfig(shards=2))
    >>> response = gateway.submit(TopKQuery(source=0, k=2))
    >>> gateway.close()
    >>> response.ok and response.vertices[0] == 0
    True
    """

    def __init__(
        self,
        graph: DynamicDiGraph,
        shard: ShardConfig | None = None,
        config: ApiConfig | None = None,
        *,
        ppr: PPRConfig | None = None,
        serve: ServeConfig | None = None,
        store_root: str | None = None,
        store_config: StoreConfig | None = None,
    ) -> None:
        from ..config import Backend

        self.shard = shard or ShardConfig()
        self.config = config or ApiConfig()
        self.ppr = ppr or PPRConfig(backend=Backend.NUMPY)
        self.serve = (serve or ServeConfig()).with_(store=None)
        if self.ppr.backend is not Backend.NUMPY:
            raise ConfigError(
                "the sharded tier requires Backend.NUMPY"
                f" (got {self.ppr.backend.value})"
            )
        if self.serve.num_hubs > 0:
            raise ConfigError(
                "the sharded tier does not support the hub tier"
                " (set ServeConfig.num_hubs=0)"
            )
        self.partitioner: Partitioner = build_partitioner(self.shard, graph)
        self.store_root = store_root
        self.store_config = None
        if store_root is not None:
            self.store_config = store_config or StoreConfig(root=str(store_root))
        self._ctx = multiprocessing.get_context(WORKER_START)
        # Reap segments a SIGKILLed predecessor left behind (the way
        # StateStore sweeps stale checkpoint temporaries at open).
        sweep_stale()
        self._lock = threading.RLock()
        self._ticket = 0
        self.counters: Counter[str] = Counter()
        self.admission: AdmissionController | None = (
            AdmissionController(self.config.admission_queue)
            if self.config.admission_queue
            else None
        )
        self._respawn_counts: dict[int, int] = {}
        self._closed = False
        #: Acknowledged head version: every shard is at this version
        #: between requests (writes are synchronous ship-all-await-all).
        self._head = 0
        #: Coordinator's view of the registered vertex set — the routing
        #: and capacity-registration truth (see _ensure_registered).
        self._vertices: set[int] = set(graph.vertices())
        #: Ids registered via REGISTER broadcasts, in broadcast order;
        #: replayed onto revived shards (registrations are not WAL'd).
        self._registered: list[int] = []
        #: APPLY frames shipped so far. With a store, a bounded deque is
        #: enough (revival recovers from the shard's own store and heals
        #: the residue via donor TAIL frames); storeless, the full list
        #: is the only history a replacement can replay.
        if store_root is not None:
            from collections import deque

            self._history: Any = deque(maxlen=self.shard.history_frames)
        else:
            self._history = []
        #: Shared-memory publication of the seed snapshot: one named
        #: segment every worker attaches and slices — the only copy the
        #: coordinator keeps (None on a gateway recovered from stores).
        self._seed_bundle: SharedArrayBundle | None = SharedArrayBundle.create(
            graph.to_arrays(), tag="shard-seed"
        )
        self._batches_since_checkpoint = 0
        #: Per-shard relay counters (the /v1/metrics satellite surface).
        self.exchange_rounds = [0] * self.shard.shards
        self.frontier_bytes = [0] * self.shard.shards
        #: Last STATUSED payload per shard (readyz/health answer from
        #: bookkeeping; refreshed by every stats/checkpoint round).
        self._last_status: dict[int, dict[str, Any]] = {}
        self.shards: list[ShardHandle] = []
        try:
            for index in range(self.shard.shards):
                self.shards.append(self._spawn(self._spec(index)))
            if self.store_root is not None:
                self._status_round()
                self._write_manifest()
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def _worker_store(self, index: int) -> tuple[str | None, StoreConfig | None]:
        if self.store_root is None:
            return None, None
        root = shard_store_root(self.store_root, index)
        cfg = dataclasses.replace(
            self.store_config,
            root=str(root),
            checkpoint_interval=_INERT_INTERVAL,
        )
        return str(root), cfg

    def _spec(self, index: int, *, recover: bool = False) -> ShardSpec:
        store_root, store_config = self._worker_store(index)
        return ShardSpec(
            shard_id=index,
            shards=self.shard.shards,
            config=self.ppr,
            serve=self.serve,
            partitioner_manifest=self.partitioner.to_manifest(),
            graph_version=0,
            store_root=store_root,
            store_config=store_config,
            recover=recover,
            graph_shm=None if recover else self._seed_bundle.descriptor,
            obs=self.config.obs,
            chaos=chaos.INJECTOR.plan,
        )

    def _spawn(self, spec: ShardSpec, *, expect_head: bool = False) -> ShardHandle:
        handle = ShardHandle(spec, self._ctx)
        deadline = clock.now() + self.shard.spawn_timeout_s
        try:
            while not handle.conn.poll(0.05):
                if clock.now() > deadline or not handle.alive():
                    raise ClusterError(
                        f"shard {spec.shard_id} never completed its spawn"
                        " handshake"
                    )
            tag, version = handle.conn.recv()
        except (EOFError, OSError) as exc:
            handle.close(terminate=True)
            raise ClusterError(
                f"shard {spec.shard_id} died during spawn: {exc}"
            ) from exc
        except ClusterError:
            handle.close(terminate=True)
            raise
        if tag != messages.HELLO:
            handle.close(terminate=True)
            raise ClusterError(
                f"shard {spec.shard_id} sent {tag!r} instead of hello"
            )
        if expect_head and version > self._head:
            handle.close(terminate=True)
            raise ClusterError(
                f"shard {spec.shard_id} came up at v{version},"
                f" ahead of acked head v{self._head}"
            )
        handle.applied_version = version
        return handle

    def _revive(self, index: int) -> None:
        """Replace a dead shard and heal it back to the acked head.

        With a store the replacement recovers from its own checkpoint +
        WAL tail; without one it rebuilds from the seed snapshot. Either
        way any residual version gap is closed by replaying the
        coordinator's frame history (or donor ``TAIL`` frames), and
        broadcast-registered vertex ids — which are not WAL'd — are
        re-registered so capacities stay aligned across the fleet.
        """
        count = self._respawn_counts.get(index, 0) + 1
        if count > self.shard.max_respawns:
            raise ClusterError(
                f"shard {index} died and its respawn budget"
                f" ({self.shard.max_respawns}) is exhausted"
            )
        self._respawn_counts[index] = count
        obs.event("shard.crashed", shard=index, respawn=count)
        with obs.span("shard.respawn", shard=index):
            self.shards[index].close(terminate=True)
            recover = self.store_root is not None
            handle = self._spawn(
                self._spec(index, recover=recover), expect_head=True
            )
            self.shards[index] = handle
            self._heal(index)
            if self._registered:
                ticket = self._next_ticket()
                handle.send((messages.REGISTER, ticket, list(self._registered)))
                self._await_frame(index, messages.REGISTERED, ticket)
        self.counters["respawns"] += 1

    def _heal(self, index: int) -> None:
        """Replay frames until shard ``index`` acknowledges head version."""
        handle = self.shards[index]
        if handle.applied_version >= self._head:
            return
        frames = self._catch_up_frames(index, handle.applied_version)
        for frame in frames:
            ticket = self._next_ticket()
            handle.send((messages.APPLY, ticket, frame, None))
            reply = self._await_frame(index, messages.APPLIED, ticket)
            handle.applied_version = max(handle.applied_version, reply[2])
        if handle.applied_version != self._head:
            raise ClusterError(
                f"shard {index} healed to v{handle.applied_version},"
                f" head is v{self._head}"
            )

    def _catch_up_frames(self, index: int, after: int) -> list[bytes]:
        """Frames covering ``(after, head]`` — history first, donor TAIL
        when the bounded history no longer reaches back far enough."""
        from ..store.wal import unpack_payload

        frames = [f for f in self._history if unpack_payload(f)[0] > after]
        if frames and unpack_payload(frames[0])[0] == after + 1:
            return frames
        if not frames and after >= self._head:
            return []
        donor = max(
            (
                i
                for i, h in enumerate(self.shards)
                if i != index and h.alive()
            ),
            key=lambda i: self.shards[i].applied_version,
            default=None,
        )
        if donor is None:
            raise ClusterError(
                f"shard {index} is at v{after} with no donor to heal from"
            )
        ticket = self._next_ticket()
        self.shards[donor].send((messages.TAIL, ticket, after))
        reply = self._await_frame(donor, messages.TAILED, ticket)
        tail = list(reply[2])
        if not tail and after < self._head:
            raise ClusterError(
                f"shard {index} is at v{after}, head v{self._head}, and"
                f" donor {donor} has no WAL tail to heal it with"
            )
        return tail

    def close(self, *, deadline_s: float | None = None) -> None:
        """Drain and stop every worker (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            limit = clock.now() + deadline_s if deadline_s is not None else None
            for handle in self.shards:
                try:
                    handle.send((messages.SHUTDOWN,))
                except _ShardDied:
                    pass
            for handle in self.shards:
                if limit is None:
                    handle.close()
                else:
                    handle.close(
                        timeout=max(0.1, min(5.0, limit - clock.now()))
                    )
            if self._seed_bundle is not None:
                self._seed_bundle.unlink()
                self._seed_bundle.close()
                self._seed_bundle = None

    def __enter__(self) -> "ShardedGateway":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # channel plumbing
    # ------------------------------------------------------------------ #

    def _next_ticket(self) -> int:
        self._ticket += 1
        return self._ticket

    def _take_pending(self, handle: ShardHandle, want: str, ticket: int):
        for i, frame in enumerate(handle.pending):
            if frame[0] == want and frame[1] == ticket:
                return handle.pending.pop(i)
        return None

    def _await_frame(
        self,
        index: int,
        want: str,
        ticket: int,
        deadline: Deadline | None = None,
    ) -> tuple:
        """Block until shard ``index`` answers ``(want, ticket, ...)``.

        While waiting, *every* shard's pipe is polled and drained, not
        just the target's: relay traffic — ``FETCH`` (forwarded to the
        owning peer as ``EXCHANGE``) and ``EXCHANGED`` (forwarded to the
        requester as ``FETCHED``) — is handled the moment it arrives on
        any pipe, and unrelated replies are buffered into their handle's
        pending list. Forwarding must be event-driven rather than
        awaited per-relay: a shard blocked in a fetch only progresses
        when its peer's reply is forwarded, and with chains like
        A->B->C->A in flight, a nested blocking wait on one pipe would
        consume (and strand) replies belonging to an outer relay.
        """
        handle = self.shards[index]
        buffered = self._take_pending(handle, want, ticket)
        if buffered is not None:
            return buffered
        timeout_at = clock.now() + self.shard.response_timeout_s
        while True:
            # Handles can be replaced under us (a relay reviving a dead
            # owner), so rebuild the poll set every beat.
            index_of = {
                id(h.conn): i
                for i, h in enumerate(self.shards)
                if not h.broken
            }
            ready = mp_connection.wait(
                [h.conn for i, h in enumerate(self.shards) if not h.broken],
                timeout=0.05,
            )
            got: tuple | None = None
            for conn in ready:
                i = index_of.get(id(conn))
                if i is None:
                    continue
                try:
                    frame = conn.recv()
                except (EOFError, OSError) as exc:
                    self.shards[i].broken = True
                    if i == index:
                        raise _ShardDied(str(exc)) from exc
                    continue
                if i == index and got is None:
                    got = self._sift(i, frame, want, ticket)
                else:
                    self._sift(i, frame, None, -1)
            if got is not None:
                return got
            target = self.shards[index]
            if target.broken or (
                not target.alive() and not target.conn.poll(0)
            ):
                raise _ShardDied(f"shard {index} exited")
            now = clock.now()
            if deadline is not None and deadline.expired(now):
                raise _DeadlineExpired(index)
            if now > timeout_at:
                raise _ShardDied(f"shard {index} timed out")

    def _sift(
        self, index: int, frame: tuple, want: str | None, ticket: int
    ) -> tuple | None:
        """Handle one received frame; return it only if it is the answer."""
        handle = self.shards[index]
        tag = frame[0]
        if want is not None and tag == want and frame[1] == ticket:
            return frame
        if tag == messages.FETCH:
            self._relay_fetch(index, frame)
            return None
        if tag == messages.EXCHANGED:
            self._forward_exchanged(frame)
            return None
        if tag == messages.BYE:
            return None
        if len(frame) > 1 and frame[1] in handle.abandoned:
            handle.abandoned.discard(frame[1])
            if tag in (messages.APPLIED, messages.RESPONSES):
                obs.ingest_spans(frame[4])
            return None
        handle.pending.append(frame)
        return None

    def _relay_fetch(self, requester: int, frame: tuple) -> None:
        """Relay one shard's row fetch to the owning peer (non-blocking).

        The owner's ``EXCHANGED`` reply is forwarded by whichever await
        loop reads it (:meth:`_forward_exchanged`) — the relay itself
        never waits. The ``shard.exchange`` chaos site models the
        relay's failure modes: DROP and ERROR answer the requester with
        ``FETCHED None`` (its push raises a typed ``CLUSTER`` error —
        never a hang); DELAY holds the relay one beat. A dead owner is
        revived and the relay retried once; a second failure degrades
        to ``None`` too.
        """
        _, ticket, owner, request = frame
        self.exchange_rounds[requester] += 1
        self.counters["exchange_rounds"] += 1
        fault = chaos.fire("shard.exchange", replica=requester)
        if fault is not None:
            if fault.kind is FaultKind.DELAY:
                time.sleep(0.05)
            else:
                # DROP / ERROR / anything else: the relay fails cleanly.
                self._answer_fetch(requester, ticket, None)
                return
        self.frontier_bytes[requester] += len(request)
        self.counters["frontier_bytes"] += len(request)
        for attempt in range(2):
            try:
                self.shards[owner].send(
                    (messages.EXCHANGE, ticket, requester, request)
                )
                return
            except _ShardDied:
                if attempt == 0:
                    try:
                        self._revive(owner)
                        continue
                    except ClusterError:
                        break
                break
        self._answer_fetch(requester, ticket, None)

    def _forward_exchanged(self, frame: tuple) -> None:
        """Forward one owner's row reply to the shard that fetched it.

        A reply for a requester that has since been replaced lands on
        the replacement, which skips it as a stale ticket (each worker
        has at most one fetch outstanding, under a fresh ticket).
        """
        _, ticket, requester, reply = frame
        self.frontier_bytes[requester] += len(reply)
        self.counters["frontier_bytes"] += len(reply)
        self._answer_fetch(requester, ticket, reply)

    def _answer_fetch(
        self, requester: int, ticket: int, reply: bytes | None
    ) -> None:
        try:
            self.shards[requester].send((messages.FETCHED, ticket, reply))
        except _ShardDied:
            # The requester died mid-fetch; the await loop on its own
            # reply detects the death and handles the retry.
            pass

    # ------------------------------------------------------------------ #
    # vertex registration (capacity lock-step)
    # ------------------------------------------------------------------ #

    def _ensure_registered(self, sources: Sequence[int]) -> None:
        """Broadcast-register never-seen vertex ids on every shard.

        The single-process engine registers unseen query sources at
        admission time, growing the graph's capacity; every shard must
        perform the same growth or state-vector lengths (and the push
        kernel's scatter strategy) would diverge across the fleet — and
        from the oracle. Registration is idempotent worker-side.
        """
        unseen: list[int] = []
        for source in sources:
            if source not in self._vertices and source not in unseen:
                unseen.append(int(source))
        if not unseen:
            return
        tickets: dict[int, int] = {}
        for index, handle in enumerate(self.shards):
            ticket = self._next_ticket()
            try:
                handle.send((messages.REGISTER, ticket, list(unseen)))
                tickets[index] = ticket
            except _ShardDied:
                self._revive(index)
                ticket = self._next_ticket()
                self.shards[index].send(
                    (messages.REGISTER, ticket, list(unseen))
                )
                tickets[index] = ticket
        for index, ticket in tickets.items():
            try:
                self._await_frame(index, messages.REGISTERED, ticket)
            except _ShardDied:
                self._revive(index)
                retry = self._next_ticket()
                self.shards[index].send(
                    (messages.REGISTER, retry, list(unseen))
                )
                self._await_frame(index, messages.REGISTERED, retry)
        self._vertices.update(unseen)
        self._registered.extend(unseen)

    # ------------------------------------------------------------------ #
    # the typed protocol
    # ------------------------------------------------------------------ #

    def submit(self, request: ApiRequest) -> ApiResponse:
        """Execute one request; failures become error-carrying responses."""
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

        Latency lands in ``shard.<op>`` stage histograms, distinct from
        both the single-process ``request.<op>`` and the replicated
        ``cluster.<op>`` stages.
        """
        queued = clock.now()
        with self._lock:
            waited = clock.now() - queued
            obs.observe("queue.wait", waited)
            source = getattr(request, "source", None)
            ctx = obs.trace_of(request)
            if ctx is None:
                with obs.measured(f"shard.{request.op}", source=source):
                    return self._execute(request)
            with obs.activate(ctx):
                obs.record_span(
                    "queue.wait", start=queued, duration=waited, observe=False
                )
                with obs.span("gateway.execute", op=request.op, tier="shard"):
                    with obs.measured(
                        f"shard.{request.op}",
                        trace_id=ctx.trace_id,
                        source=source,
                    ):
                        return self._execute(request)

    def _execute(self, request: ApiRequest) -> ApiResponse:
        with self._lock:
            if self._closed:
                raise ClusterError("sharded gateway is closed")
            try:
                return self._execute_routed(request)
            except (_ShardDied, _DeadlineExpired) as exc:
                raise ClusterError(
                    f"shard failure escaped the retry path: {exc}"
                ) from exc
            except (EOFError, BrokenPipeError, ConnectionError) as exc:
                raise ClusterError(
                    f"shard channel broke mid-request: {exc}"
                ) from exc

    def _execute_routed(self, request: ApiRequest) -> ApiResponse:
        self.counters[request.op] += 1
        deadline = getattr(request, "deadline", None)
        if deadline is not None and deadline.expired():
            raise deadline.to_error()
        if isinstance(request, IngestBatch):
            return self._execute_ingest(request)
        if isinstance(request, (TopKQuery, ScoreQuery)):
            self._ensure_registered([request.source])
            return self._dispatch_single(
                self.partitioner.owner(request.source), request
            )
        if isinstance(request, HubQuery):
            raise ConfigError(
                "the sharded tier does not support the hub tier"
            )
        if isinstance(request, BatchQuery):
            return self._execute_batch(request)
        if isinstance(request, Prefetch):
            return self._execute_prefetch(request)
        if isinstance(request, Stats):
            return self._execute_stats()
        if isinstance(request, Ready):
            return self._execute_ready()
        if isinstance(request, Health):
            return self._execute_health()
        if isinstance(request, CheckpointNow):
            return self._execute_checkpoint()
        raise ConfigError(
            f"the sharded tier cannot execute {request.op!r} requests"
        )

    # -- reads --------------------------------------------------------- #

    def _dispatch(
        self, index: int, requests: Sequence[ApiRequest], *, coalesce: bool
    ) -> int:
        """Ship a read chunk to one shard; returns the ticket to await."""
        ticket = self._next_ticket()
        handle = self.shards[index]
        ctx = obs.current()
        if ctx is not None:
            for request in requests:
                obs.attach(request, ctx)
        handle.send((messages.REQUESTS, ticket, tuple(requests), coalesce))
        handle.dispatched += 1
        return ticket

    def _dispatch_single(self, index: int, request: ApiRequest) -> ApiResponse:
        """One read on the owning shard, crash detection and one retry."""
        deadline = getattr(request, "deadline", None)
        try:
            ticket = self._dispatch(index, [request], coalesce=False)
            frame = self._await_frame(
                index, messages.RESPONSES, ticket, deadline
            )
        except _DeadlineExpired:
            raise self._abandon(index, deadline) from None
        except _ShardDied:
            return self._retry_single(index, request)
        return self._accept_responses(index, frame)[0]

    def _accept_responses(self, index: int, frame: tuple) -> list[ApiResponse]:
        handle = self.shards[index]
        handle.applied_version = max(handle.applied_version, frame[3])
        obs.ingest_spans(frame[4])
        return list(frame[2])

    def _abandon(self, index: int, deadline: Deadline | None) -> DeadlineError:
        """Replace a shard whose in-flight ticket was abandoned.

        The worker may still answer eventually; a late frame on the same
        pipe would poison later awaits, so the slot gets a fresh pipe
        (and, if the worker was wedged, a live process).
        """
        self._revive(index)
        assert deadline is not None
        return deadline.to_error()

    def _retry_single(self, index: int, request: ApiRequest) -> ApiResponse:
        deadline = getattr(request, "deadline", None)
        if deadline is not None and deadline.expired():
            self._revive(index)
            raise deadline.to_error()
        self._revive(index)
        try:
            ticket = self._dispatch(index, [request], coalesce=False)
            frame = self._await_frame(
                index, messages.RESPONSES, ticket, deadline
            )
        except _DeadlineExpired:
            raise self._abandon(index, deadline) from None
        except _ShardDied as exc:
            raise ClusterError(
                f"shard {index} died twice serving one request"
            ) from exc
        return self._accept_responses(index, frame)[0]

    def _scatter(
        self, per_shard: dict[int, ApiRequest]
    ) -> dict[int, ApiResponse]:
        """One request per shard, all shipped before any await."""
        tickets: dict[int, int] = {}
        results: dict[int, ApiResponse] = {}
        for index, request in per_shard.items():
            try:
                tickets[index] = self._dispatch(index, [request], coalesce=False)
            except _ShardDied:
                results[index] = self._retry_single(index, request)
        for index, request in per_shard.items():
            if index in results:
                continue
            deadline = getattr(request, "deadline", None)
            try:
                frame = self._await_frame(
                    index, messages.RESPONSES, tickets[index], deadline
                )
                results[index] = self._accept_responses(index, frame)[0]
            except _DeadlineExpired:
                for other, ticket in tickets.items():
                    if other != index and other not in results:
                        self.shards[other].abandoned.add(ticket)
                raise self._abandon(index, deadline) from None
            except _ShardDied:
                results[index] = self._retry_single(index, request)
        return results

    def _partition(self, sources: Sequence[int]) -> dict[int, list[int]]:
        """Group sources by owning shard, preserving per-chunk order."""
        chunks: dict[int, list[int]] = {}
        for source in sources:
            chunks.setdefault(self.partitioner.owner(source), []).append(source)
        return chunks

    def _execute_batch(self, request: BatchQuery) -> BatchResult:
        start = clock.now()
        self._ensure_registered(request.sources)
        chunks = self._partition(request.sources)
        by_position: dict[int, TopKResult] = {}
        source_positions: dict[int, list[int]] = {}
        for position, source in enumerate(request.sources):
            source_positions.setdefault(source, []).append(position)
        cursor = {source: 0 for source in source_positions}
        for _, chunk_sources, chunk_results in self._run_chunks(chunks, request):
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

    def _run_chunks(self, chunks: dict[int, list[int]], request: BatchQuery):
        per_shard = {
            index: BatchQuery(
                sources=tuple(sources),
                k=request.k,
                consistency=request.consistency,
                deadline=request.deadline,
            )
            for index, sources in chunks.items()
        }
        results = self._scatter(per_shard)
        for index, sources in chunks.items():
            response = results[index]
            if response.error is not None:
                raise response.error.to_exception()
            assert isinstance(response, BatchResult)
            yield index, sources, response.results

    def _execute_prefetch(self, request: Prefetch) -> PrefetchResult:
        start = clock.now()
        self._ensure_registered(request.sources)
        per_shard = {
            index: Prefetch(sources=tuple(sources))
            for index, sources in self._partition(request.sources).items()
        }
        pending = 0
        for response in self._scatter(per_shard).values():
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

    # -- writes -------------------------------------------------------- #

    def _execute_ingest(self, request: IngestBatch) -> ApiResponse:
        """Ship one write batch to every shard, await every ack.

        Optimistic concurrency is checked coordinator-side against the
        acked head (every shard is at head between requests). A batch
        containing deletes runs a ``VALIDATE`` round first: each shard
        dry-runs its owned multiplicities through the batch order, and
        one veto rejects the batch atomically on *every* shard — the
        typed ``EDGE`` error matches the single-process engine's text.
        """
        start = clock.now()
        if request.snapshot is not None:
            raise ConfigError(
                "the sharded tier cannot install an external ingest snapshot"
            )
        if (
            request.expect_version is not None
            and request.expect_version != self._head
        ):
            raise ConflictError(request.expect_version, self._head)
        updates = list(request.updates)
        frame = pack_record(self._head + 1, updates)
        if any(u.is_delete for u in updates):
            self._validate_round(frame)
        ctx = obs.current()
        responses = self._apply_round(frame, ctx)
        previous = self._head
        self._head += 1
        self._history.append(frame)
        self._batches_since_checkpoint += 1
        self.counters["batches_shipped"] += 1
        for update in updates:
            self._vertices.add(update.u)
            self._vertices.add(update.v)
        pushes = 0
        traces: dict[int, Any] = {}
        for response in responses:
            if response is None:
                continue
            assert isinstance(response, IngestResult)
            pushes += response.pushes
            traces.update(response.traces)
        if (
            self.store_root is not None
            and self._batches_since_checkpoint
            >= self.store_config.checkpoint_interval
        ):
            self._checkpoint_round()
        return IngestResult(
            accepted=len(updates),
            previous_version=previous,
            pushes=pushes,
            traces=traces,
            snapshot_version=self._head,
            wall_time_s=clock.now() - start,
        )

    def _validate_round(self, frame: bytes) -> None:
        """Dry-run a delete-carrying batch on every shard; one veto rejects."""
        tickets: dict[int, int] = {}
        for index, handle in enumerate(self.shards):
            ticket = self._next_ticket()
            try:
                handle.send((messages.VALIDATE, ticket, frame))
                tickets[index] = ticket
            except _ShardDied:
                self._revive(index)
                ticket = self._next_ticket()
                self.shards[index].send((messages.VALIDATE, ticket, frame))
                tickets[index] = ticket
        vetoes: list[tuple[int, ErrorInfo]] = []
        for index, ticket in tickets.items():
            try:
                reply = self._await_frame(index, messages.VALIDATED, ticket)
            except _ShardDied:
                self._revive(index)
                retry = self._next_ticket()
                self.shards[index].send((messages.VALIDATE, retry, frame))
                reply = self._await_frame(index, messages.VALIDATED, retry)
            if reply[2] is not None:
                vetoes.append(reply[2])
        if vetoes:
            # The earliest failing update is the one the single-process
            # engine would have raised on.
            _, info = min(vetoes, key=lambda veto: veto[0])
            raise info.to_exception()

    def _apply_round(self, frame: bytes, ctx: Any) -> list[ApiResponse | None]:
        """Ship one APPLY frame everywhere; await every APPLIED."""
        tickets: dict[int, int] = {}
        for index in range(len(self.shards)):
            tickets[index] = self._ship_apply(index, frame, ctx)
        responses: list[ApiResponse | None] = [None] * len(self.shards)
        with obs.span(
            "shard.ship_batch", seq=self._head + 1, shards=len(self.shards)
        ):
            for index, ticket in tickets.items():
                responses[index] = self._await_applied(index, ticket, frame, ctx)
        return responses

    def _ship_apply(self, index: int, frame: bytes, ctx: Any) -> int:
        ticket = self._next_ticket()
        try:
            self.shards[index].send((messages.APPLY, ticket, frame, ctx))
        except _ShardDied:
            self._revive(index)
            ticket = self._next_ticket()
            self.shards[index].send((messages.APPLY, ticket, frame, ctx))
        return ticket

    def _await_applied(
        self, index: int, ticket: int, frame: bytes, ctx: Any
    ) -> ApiResponse | None:
        for attempt in range(2):
            try:
                reply = self._await_frame(index, messages.APPLIED, ticket)
            except _ShardDied:
                if attempt == 0:
                    # The revive recovers the shard to the pre-batch head
                    # (its own WAL cannot contain this unacked batch), so
                    # the re-shipped frame is exactly seq head+1 again.
                    self._revive(index)
                    ticket = self._ship_apply(index, frame, ctx)
                    continue
                raise ClusterError(
                    f"shard {index} died twice applying one batch"
                ) from None
            handle = self.shards[index]
            handle.applied_version = max(handle.applied_version, reply[2])
            obs.ingest_spans(reply[4])
            response = reply[3]
            if response is not None and response.error is not None:
                # Unreachable for validated batches: inserts cannot fail
                # and deletes were vetoed before any shard mutated. If it
                # happens anyway the fleet has diverged — fail loudly.
                raise ClusterError(
                    f"shard {index} rejected an accepted batch"
                    f" ({response.error.message}): shard states diverged"
                )
            return response
        raise ClusterError("unreachable: apply retry loop exhausted")

    # -- durability ---------------------------------------------------- #

    def _checkpoint_round(self) -> str:
        """Drive a coordinated checkpoint epoch, then publish the manifest.

        Every shard checkpoints at the same version (shards are always
        at head between requests); the manifest is rewritten only after
        every ack, so a crash mid-round leaves the previous manifest —
        and every shard's own WAL tail — as the consistent recovery
        path.
        """
        if self.store_root is None:
            raise ConfigError(
                "no state store attached: pass store_root to ShardedGateway"
            )
        tickets: dict[int, int] = {}
        for index, handle in enumerate(self.shards):
            ticket = self._next_ticket()
            try:
                handle.send((messages.CHECKPOINT, ticket))
                tickets[index] = ticket
            except _ShardDied:
                self._revive(index)
                ticket = self._next_ticket()
                self.shards[index].send((messages.CHECKPOINT, ticket))
                tickets[index] = ticket
        info: dict[int, dict[str, Any]] = {}
        for index, ticket in tickets.items():
            try:
                reply = self._await_frame(index, messages.CHECKPOINTED, ticket)
            except _ShardDied:
                self._revive(index)
                retry = self._next_ticket()
                self.shards[index].send((messages.CHECKPOINT, retry))
                reply = self._await_frame(index, messages.CHECKPOINTED, retry)
            _, _, version, path = reply
            if version != self._head:
                raise ClusterError(
                    f"shard {index} checkpointed v{version},"
                    f" head is v{self._head}"
                )
            info[index] = {
                "shard": index,
                "version": version,
                "checkpoint": path,
            }
        path = self._write_manifest(
            [info[i] for i in range(len(self.shards))]
        )
        self._batches_since_checkpoint = 0
        self.counters["checkpoint_rounds"] += 1
        self._status_round()
        return str(path)

    def _write_manifest(
        self, shard_info: list[dict[str, Any]] | None = None
    ) -> str:
        if shard_info is None:
            shard_info = [
                {"shard": i, "version": self._head, "checkpoint": None}
                for i in range(len(self.shards))
            ]
        path = write_manifest(
            self.store_root,
            version=self._head,
            shards=self.shard.shards,
            partitioner_manifest=self.partitioner.to_manifest(),
            shard_info=shard_info,
        )
        return str(path)

    def _execute_checkpoint(self) -> CheckpointResult:
        start = clock.now()
        path = self._checkpoint_round()
        return CheckpointResult(
            path=path,
            written=True,
            snapshot_version=self._head,
            wall_time_s=clock.now() - start,
        )

    # -- observability ------------------------------------------------- #

    def _status_round(self) -> dict[int, dict[str, Any]]:
        """One STATUS per shard (scatter); refreshes the readyz cache."""
        tickets: dict[int, int] = {}
        for index, handle in enumerate(self.shards):
            ticket = self._next_ticket()
            try:
                handle.send((messages.STATUS, ticket))
                tickets[index] = ticket
            except _ShardDied:
                continue
        payloads: dict[int, dict[str, Any]] = {}
        for index, ticket in tickets.items():
            try:
                reply = self._await_frame(index, messages.STATUSED, ticket)
            except _ShardDied:
                continue
            payloads[index] = reply[2]
            self._last_status[index] = reply[2]
        return payloads

    def _shard_section(self, payloads: dict[int, dict[str, Any]]) -> dict:
        n = len(self.shards)
        return {
            "shards": n,
            "partitioner": self.partitioner.to_manifest(),
            "head": self._head,
            "applied_versions": [h.applied_version for h in self.shards],
            "dispatched": [h.dispatched for h in self.shards],
            "respawns": self.counters["respawns"],
            "batches_shipped": self.counters["batches_shipped"],
            "checkpoint_rounds": self.counters["checkpoint_rounds"],
            "exchange_rounds": list(self.exchange_rounds),
            "frontier_bytes": list(self.frontier_bytes),
            "edges": [
                payloads.get(i, {}).get("owned_edges", 0) for i in range(n)
            ],
            "per_shard": [payloads.get(i, {}) for i in range(n)],
            "chaos": chaos.injected(),
            "gateway": dict(self.counters),
        }

    def _execute_stats(self) -> StatsResult:
        start = clock.now()
        payloads = self._status_round()
        stats: dict[str, Any] = _merge_stats(
            [p.get("metrics", {}) for p in payloads.values()]
        )
        stats["gateway"] = dict(self.counters)
        if self.admission is not None:
            stats["admission"] = self.admission.to_dict()
        stats["obs"] = obs.snapshot()
        stats["shard"] = self._shard_section(payloads)
        return StatsResult(
            stats=stats,
            snapshot_version=self._head,
            wall_time_s=clock.now() - start,
        )

    def _execute_ready(self) -> ReadyResult:
        """Shard readiness from coordinator bookkeeping (non-blocking).

        Per-shard payloads blend live liveness/version bookkeeping with
        the last STATUS round's counts — a readiness probe must not
        block on the very shards it is asking about.
        """
        start = clock.now()
        replicas: list[dict[str, Any]] = []
        ready = True
        for index, handle in enumerate(self.shards):
            alive = handle.alive()
            if not alive:
                ready = False
            cached = self._last_status.get(index, {})
            replicas.append(
                {
                    "shard": index,
                    "alive": alive,
                    "role": "shard",
                    "applied_version": handle.applied_version,
                    "lag": max(0, self._head - handle.applied_version),
                    "exchange_backlog": len(handle.pending),
                    "num_vertices": cached.get("num_vertices", 0),
                    "num_edges": cached.get("num_edges", 0),
                    "owned_edges": cached.get("owned_edges", 0),
                }
            )
        return ReadyResult(
            ready=ready,
            status="ready" if ready else "degraded",
            primary="coordinator",
            epoch=0,
            replicas=tuple(replicas),
            snapshot_version=self._head,
            wall_time_s=clock.now() - start,
        )

    def _execute_health(self) -> HealthResult:
        """Liveness: the coordinator is up; counts from the status cache."""
        start = clock.now()
        cached = list(self._last_status.values())
        num_vertices = max((p.get("num_vertices", 0) for p in cached), default=0)
        num_edges = max((p.get("num_edges", 0) for p in cached), default=0)
        resident = sum(p.get("resident", 0) for p in cached)
        return HealthResult(
            status="ok",
            graph_version=self._head,
            num_vertices=num_vertices,
            num_edges=num_edges,
            resident=resident,
            hubs=0,
            snapshot_version=self._head,
            wall_time_s=clock.now() - start,
        )

    # ------------------------------------------------------------------ #
    # scheduling: mixed read/write traffic
    # ------------------------------------------------------------------ #

    def submit_many(
        self, requests: Sequence[ApiRequest], *, coalesce: bool | None = None
    ) -> list[ApiResponse]:
        """Run a request sequence in order, fanning read runs out.

        Same plan as the single-process scheduler; each coalesced run of
        same-shaped top-k reads splits into per-shard chunks executed
        concurrently. Routing is by ownership, so the answers are
        bit-identical to the single-process scheduler's for the same
        trace: each source's refresh/admission history lives on exactly
        one shard.
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
                tier="shard",
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
        self._ensure_registered(run.sources)
        chunks = self._partition(run.sources)
        by_source: dict[int, TopKResult] = {}
        probe = BatchQuery(
            sources=run.sources,
            k=first.k,
            consistency=first.consistency,
            deadline=run.deadline,
        )
        try:
            for index, sources, results in self._run_chunks(chunks, probe):
                del index
                for source, result in zip(sources, results):
                    assert isinstance(result, TopKResult)
                    by_source[source] = result
        except ReproError as exc:
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

    # ------------------------------------------------------------------ #
    # recovery
    # ------------------------------------------------------------------ #

    @classmethod
    def recover(
        cls,
        store_root: str,
        *,
        config: ApiConfig | None = None,
        store_config: StoreConfig | None = None,
    ) -> "ShardedGateway":
        """Cold-start a sharded gateway from its manifest and shard stores.

        Each shard recovers alone (own newest checkpoint + own WAL
        tail); the coordinator then heals any residual version skew with
        donor ``TAIL`` frames, so shards whose crash interleaved with
        in-flight batches converge to the fleet maximum. Engine
        configuration comes back from the shard checkpoints themselves.
        """
        manifest = read_manifest(store_root)
        partitioner = partitioner_from_manifest(manifest.partitioner)
        self = cls.__new__(cls)
        self.shard = ShardConfig(
            shards=manifest.shards,
            partitioner=partitioner.kind,
        )
        self.config = config or ApiConfig()
        self.partitioner = partitioner
        self.store_root = store_root
        self.store_config = store_config or StoreConfig(root=str(store_root))
        self._ctx = multiprocessing.get_context(WORKER_START)
        sweep_stale()
        self._lock = threading.RLock()
        self._ticket = 0
        self.counters = Counter()
        self.admission = (
            AdmissionController(self.config.admission_queue)
            if self.config.admission_queue
            else None
        )
        self._respawn_counts = {}
        self._closed = False
        self._head = 0
        #: Empty on purpose: every id queried after recovery goes through
        #: one idempotent REGISTER broadcast, re-aligning presence bits
        #: that broadcast registration (not WAL'd) may have left skewed.
        self._vertices = set()
        self._registered = []
        from collections import deque

        self._history = deque(maxlen=self.shard.history_frames)
        self._seed_bundle = None
        self._batches_since_checkpoint = 0
        self.exchange_rounds = [0] * self.shard.shards
        self.frontier_bytes = [0] * self.shard.shards
        self._last_status = {}
        # Config mirrors ride every spec; recovered spawns rebuild from
        # their own stores (engine config comes from the checkpoints), so
        # safe NUMPY defaults are all the coordinator needs here.
        self.ppr = PPRConfig(backend=Backend.NUMPY)
        self.serve = ServeConfig()
        self.shards = []
        try:
            for index in range(self.shard.shards):
                self.shards.append(self._spawn(self._spec(index, recover=True)))
            self._head = max(h.applied_version for h in self.shards)
            for index in range(len(self.shards)):
                self._heal(index)
            self._status_round()
        except BaseException:
            self.close()
            raise
        return self

    def __repr__(self) -> str:
        return (
            f"ShardedGateway(shards={len(self.shards)},"
            f" partitioner={self.partitioner!r}, head=v{self._head})"
        )


def _merge_stats(payloads: Sequence[dict[str, Any]]) -> dict[str, Any]:
    """Merge per-shard metrics dicts: counters sum, percentiles max."""
    merged: dict[str, Any] = {}
    for payload in payloads:
        for key, value in payload.items():
            if isinstance(value, dict):
                base = merged.get(key)
                merged[key] = _merge_stats(
                    [base, value] if isinstance(base, dict) else [value]
                )
            elif isinstance(value, bool) or not isinstance(value, (int, float)):
                merged.setdefault(key, value)
            elif key not in merged:
                merged[key] = value
            elif any(hint in key for hint in _MAX_HINTS):
                merged[key] = max(merged[key], value)
            else:
                merged[key] = merged[key] + value
    return merged


class PPRShards:
    """User-facing handle on a sharded serving tier.

    Wraps a :class:`ShardedGateway`; use as a context manager so shard
    workers are always drained:

    >>> from repro import DynamicDiGraph
    >>> from repro.config import ShardConfig
    >>> from repro.shard import PPRShards
    >>> graph = DynamicDiGraph([(1, 0), (2, 0), (0, 1)])
    >>> with PPRShards(graph, ShardConfig(shards=2)) as shards:
    ...     answer = shards.api.top_k(0, k=2)
    >>> answer.vertices[0]
    0
    """

    def __init__(
        self,
        graph: DynamicDiGraph,
        shard: ShardConfig | None = None,
        config: ApiConfig | None = None,
        **kwargs: Any,
    ) -> None:
        self.gateway = ShardedGateway(graph, shard, config, **kwargs)

    @property
    def api(self) -> "Client":
        """An embedded typed client bound to the sharded gateway."""
        from ..api.client import Client

        return Client(self.gateway)

    def close(self) -> None:
        self.gateway.close()

    def __enter__(self) -> "PPRShards":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"PPRShards(gateway={self.gateway!r})"
