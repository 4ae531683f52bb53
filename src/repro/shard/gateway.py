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
import time
from collections import deque
from collections.abc import Sequence
from typing import Any

from .. import chaos, obs
from ..api.requests import (
    ApiRequest,
    BatchQuery,
    CheckpointNow,
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
    CheckpointResult,
    HealthResult,
    IngestResult,
    ReadyResult,
    StatsResult,
)
from ..chaos import FaultKind
from ..config import (
    ApiConfig,
    Backend,
    PPRConfig,
    ServeConfig,
    ShardConfig,
    StoreConfig,
)
from ..errors import ClusterError, ConfigError, ConflictError
from ..graph.digraph import DynamicDiGraph
from ..graph.shm import SharedArrayBundle
from ..obs import clock
from ..store.wal import pack_record, unpack_payload
from ..workers import (
    FrameMaker,
    WorkerDied,
    WorkerFleet,
    WorkerGateway,
    WorkerHandle,
)
from . import messages
from .manifest import read_manifest, shard_store_root, write_manifest
from .partitioner import HashPartitioner, partitioner_from_manifest
from .worker import ShardSpec, shard_main

#: Worker-side stores never self-checkpoint: the coordinator drives
#: checkpoint rounds so the manifest only ever records epochs every
#: shard completed. An interval no workload reaches makes
#: ``maybe_checkpoint`` inert without a new config knob.
_INERT_INTERVAL = 1 << 60

#: Stats keys merged with max() instead of sum() across shards.
_MAX_HINTS = ("p50", "p90", "p95", "p99", "max")

#: Bound on the ring of recent write frames a store-backed coordinator
#: keeps for catching up a respawned shard (a storeless gateway keeps the
#: full history instead: it is the only thing a replacement can replay).
HISTORY_FRAMES = 512


class ShardedGateway(WorkerGateway):
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

    tier = "shard"
    noun = "shard"
    crash_event = "shard.crashed"

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
        ppr = ppr or PPRConfig(backend=Backend.NUMPY)
        serve = (serve or ServeConfig()).with_(store=None)
        if ppr.backend is not Backend.NUMPY:
            raise ConfigError(
                "the sharded tier requires Backend.NUMPY"
                f" (got {ppr.backend.value})"
            )
        if serve.num_hubs > 0:
            raise ConfigError(
                "the sharded tier does not support the hub tier"
                " (set ServeConfig.num_hubs=0)"
            )
        shard = shard or ShardConfig()
        self._setup(
            shard,
            config,
            HashPartitioner(shard.shards),
            ppr,
            serve,
            store_root,
            store_config,
            seed=graph,
        )
        try:
            for index in range(self.shard.shards):
                self.shards.append(self._spawn(index))
            if self.store_root is not None:
                self._status_round()
                self._write_manifest()
        except BaseException:
            self.close()
            raise

    def _setup(
        self,
        shard: ShardConfig,
        config: ApiConfig | None,
        partitioner: HashPartitioner,
        ppr: PPRConfig,
        serve: ServeConfig,
        store_root: str | None,
        store_config: StoreConfig | None,
        *,
        seed: DynamicDiGraph | None,
    ) -> None:
        """Everything ``__init__`` and :meth:`recover` agree on.

        ``seed`` is the graph a fresh fleet bootstraps from; a fleet
        recovered from its stores has none.
        """
        self.shard = shard
        super().__init__(config, shard_main, shard.max_respawns)
        self.ppr = ppr
        self.serve = serve
        self.partitioner = partitioner
        self.store_root = store_root
        self.store_config = None
        if store_root is not None:
            self.store_config = store_config or StoreConfig(root=str(store_root))
        #: Coordinator's view of the registered vertex set — the routing
        #: and capacity-registration truth (see _admit_sources). Empty on
        #: a recovered fleet on purpose: every id queried after recovery
        #: goes through one idempotent REGISTER broadcast, re-aligning
        #: presence bits that broadcast registration (not WAL'd) may have
        #: left skewed.
        self._vertices: set[int] = set(seed.vertices()) if seed is not None else set()
        #: Ids registered via REGISTER broadcasts, in broadcast order;
        #: replayed onto revived shards (registrations are not WAL'd).
        self._registered: list[int] = []
        #: APPLY frames shipped so far. With a store, a bounded deque is
        #: enough (revival recovers from the shard's own store and heals
        #: the residue via donor TAIL frames); storeless, the full list
        #: is the only history a replacement can replay.
        self._history: Any = (
            deque(maxlen=HISTORY_FRAMES) if store_root is not None else []
        )
        #: Shared-memory publication of the seed snapshot: one named
        #: segment every worker attaches and slices — the only copy the
        #: coordinator keeps (None on a gateway recovered from stores).
        self._seed_bundle: SharedArrayBundle | None = (
            SharedArrayBundle.create(seed.to_arrays(), tag="shard-seed")
            if seed is not None
            else None
        )
        #: Batches shipped since the last completed checkpoint round.
        self.dirty = 0
        #: Per-shard relay counters (the /v1/metrics satellite surface).
        self.exchange_rounds = [0] * self.shard.shards
        self.frontier_bytes = [0] * self.shard.shards
        #: Last STATUSED payload per shard (readyz/health answer from
        #: bookkeeping; refreshed by every stats/checkpoint round).
        self._last_status: dict[int, dict[str, Any]] = {}
        #: The worker handles (``group.revive`` swaps entries in place).
        self.shards: list[WorkerHandle] = self.group.handles

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

    def _spawn(self, index: int, *, recover: bool = False) -> WorkerHandle:
        return self.group.spawn(index, self._spec(index, recover=recover))[0]

    def respawn(self, index: int) -> WorkerHandle:
        """Build a dead shard's replacement, healed back to the acked head
        (``WorkerGroup.revive`` hook).

        With a store the replacement recovers from its own checkpoint +
        WAL tail; without one it rebuilds from the seed snapshot. Either
        way any residual version gap is closed by replaying the
        coordinator's frame history (or donor ``TAIL`` frames), and
        broadcast-registered vertex ids — which are not WAL'd — are
        re-registered so capacities stay aligned across the fleet.
        """
        handle, version = self.group.spawn(
            index, self._spec(index, recover=self.store_root is not None)
        )
        if version > self._head:
            handle.close(terminate=True)
            raise ClusterError(
                f"shard {index} came up at v{version},"
                f" ahead of acked head v{self._head}"
            )
        self.shards[index] = handle  # catching up addresses the slot by index
        self._heal(index)
        if self._registered:
            self._ask(
                index,
                lambda t: (messages.REGISTER, t, list(self._registered)),
                messages.REGISTERED,
            )
        return handle

    def _ask(self, index: int, make_frame: FrameMaker, want: str) -> tuple:
        """One exchange with a shard whose death nobody retries (catch-up)."""
        reply = self.group.call(index, make_frame, want, retry=False)
        if reply is None:
            raise ClusterError(f"shard {index} died while the fleet caught up")
        return reply

    def _heal(self, index: int) -> None:
        """Replay frames until shard ``index`` acknowledges head version."""
        handle = self.shards[index]
        if handle.applied_version >= self._head:
            return
        for frame in self._catch_up_frames(index, handle.applied_version):
            reply = self._ask(
                index,
                lambda t, frame=frame: (messages.APPLY, t, frame, None),
                messages.APPLIED,
            )
            handle.applied_version = max(handle.applied_version, reply[2])
        if handle.applied_version != self._head:
            raise ClusterError(
                f"shard {index} healed to v{handle.applied_version},"
                f" head is v{self._head}"
            )

    def _catch_up_frames(self, index: int, after: int) -> list[bytes]:
        """Frames covering ``(after, head]`` — history first, donor TAIL
        when the bounded history no longer reaches back far enough."""
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
        reply = self._ask(
            donor, lambda t: (messages.TAIL, t, after), messages.TAILED
        )
        tail = list(reply[2])
        if not tail and after < self._head:
            raise ClusterError(
                f"shard {index} is at v{after}, head v{self._head}, and"
                f" donor {donor} has no WAL tail to heal it with"
            )
        return tail

    def close(self, *, deadline_s: float | None = None) -> None:
        with self._lock:
            super().close(deadline_s=deadline_s)
            if self._seed_bundle is not None:
                self._seed_bundle.unlink()
                self._seed_bundle.close()
                self._seed_bundle = None

    # ------------------------------------------------------------------ #
    # the frontier relay
    # ------------------------------------------------------------------ #

    def on_frame(self, index: int, frame: tuple) -> bool:
        """Relay traffic, handled the moment any await reads it."""
        if frame[0] == messages.FETCH:
            self._relay_fetch(index, frame)
        elif frame[0] == messages.EXCHANGED:
            self._forward_exchanged(frame)
        else:
            return False
        return True

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
            except WorkerDied:
                if attempt == 0:
                    try:
                        self.group.revive(owner)
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
        except WorkerDied:
            # The requester died mid-fetch; the await loop on its own
            # reply detects the death and handles the retry.
            pass

    # ------------------------------------------------------------------ #
    # vertex registration (capacity lock-step)
    # ------------------------------------------------------------------ #

    def _admit_sources(self, sources: Sequence[int]) -> None:
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
        self.group.broadcast(
            lambda t: (messages.REGISTER, t, unseen), messages.REGISTERED
        )
        self._vertices.update(unseen)
        self._registered.extend(unseen)

    # ------------------------------------------------------------------ #
    # the typed protocol
    # ------------------------------------------------------------------ #

    def _execute_routed(self, request: ApiRequest) -> ApiResponse:
        if isinstance(request, IngestBatch):
            return self._execute_ingest(request)
        if isinstance(request, (TopKQuery, ScoreQuery)):
            self._admit_sources([request.source])
            return self._read_one(self.partitioner.owner(request.source), request)
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

    def _partition(self, sources: Sequence[int]) -> dict[int, list[int]]:
        """Group sources by owning shard, preserving per-chunk order."""
        chunks: dict[int, list[int]] = {}
        for source in sources:
            chunks.setdefault(self.partitioner.owner(source), []).append(source)
        return chunks

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
        self.dirty += 1
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
            and self.dirty
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
        replies = self.group.broadcast(
            lambda t: (messages.VALIDATE, t, frame), messages.VALIDATED
        )
        vetoes = [reply[2] for reply in replies.values() if reply[2] is not None]
        if vetoes:
            # The earliest failing update is the one the single-process
            # engine would have raised on.
            _, info = min(vetoes, key=lambda veto: veto[0])
            raise info.to_exception()

    def _apply_round(self, frame: bytes, ctx: Any) -> list[ApiResponse | None]:
        """Ship one APPLY frame everywhere; await every APPLIED.

        A shard that dies mid-round is revived to the pre-batch head (its
        own WAL cannot contain this unacked batch), so the re-shipped
        frame is exactly seq head+1 again.
        """
        with obs.span(
            "shard.ship_batch", seq=self._head + 1, shards=len(self.shards)
        ):
            replies = self.group.broadcast(
                lambda t: (messages.APPLY, t, frame, ctx), messages.APPLIED
            )
        responses: list[ApiResponse | None] = []
        for index, reply in replies.items():
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
            responses.append(response)
        return responses

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
        replies = self.group.broadcast(
            lambda t: (messages.CHECKPOINT, t), messages.CHECKPOINTED
        )
        info: list[dict[str, Any]] = []
        for index in range(len(self.shards)):
            _, _, version, path = replies[index]
            if version != self._head:
                raise ClusterError(
                    f"shard {index} checkpointed v{version},"
                    f" head is v{self._head}"
                )
            info.append({"shard": index, "version": version, "checkpoint": path})
        path = self._write_manifest(info)
        self.dirty = 0
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
        """One STATUS per shard (a dead shard is skipped, not revived);
        refreshes the readyz cache."""
        replies = self.group.broadcast(
            lambda t: (messages.STATUS, t), messages.STATUSED, retry=False
        )
        payloads = {index: reply[2] for index, reply in replies.items()}
        self._last_status.update(payloads)
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
        # Config mirrors ride every spec; recovered spawns rebuild from
        # their own stores (engine config comes from the checkpoints), so
        # safe NUMPY defaults are all the coordinator needs here.
        self._setup(
            ShardConfig(shards=manifest.shards),
            config,
            partitioner,
            PPRConfig(backend=Backend.NUMPY),
            ServeConfig(),
            store_root,
            store_config,
            seed=None,
        )
        try:
            for index in range(self.shard.shards):
                self.shards.append(self._spawn(index, recover=True))
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


class PPRShards(WorkerFleet):
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

