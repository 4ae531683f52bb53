"""The shard worker: one process, one vertex slice, one serving engine.

:func:`shard_main` is the entry point of every shard process. It builds
a :class:`~repro.shard.service.ShardService` over this shard's
:class:`~repro.shard.graph.ShardGraph` slice and serves the
coordinator's frames in FIFO order, mirroring the replica worker
(:mod:`repro.cluster.replica`) with the shard-tier differences:

* **every shard applies every write batch** (degrees, presence, and the
  graph version are replicated; only the in-adjacency dicts are
  partitioned), so ``APPLY`` carries the full WAL frame and each shard
  logs it to its *own* store before acknowledging;
* a push that reaches a non-owned vertex makes the worker **block
  inside the push** on an unsolicited ``FETCH`` to the coordinator.
  While blocked it keeps serving incoming ``EXCHANGE`` frames — pure
  reads of its own rows — which is what makes the relayed star topology
  deadlock-free (two shards can fetch from each other simultaneously;
  both serve while blocked);
* ``VALIDATE`` dry-runs a delete-carrying batch against the shard's
  owned multiplicities so the coordinator can reject atomically before
  any shard mutates (see ``docs/sharding.md`` on how this deliberately
  *tightens* the single-process engine's partial-apply semantics).

Any frame the worker receives mid-fetch that it cannot serve inline is
deferred to a pending queue the main loop drains afterward — except
``SHUTDOWN``, which aborts the fetch with :class:`ClusterError` so the
worker can exit promptly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from typing import Any

import numpy as np

from .. import chaos, obs
from ..api.gateway import Gateway
from ..api.requests import IngestBatch
from ..api.responses import ErrorInfo
from ..chaos import FaultPlan
from ..config import ObsConfig, PPRConfig, ServeConfig, StoreConfig
from ..errors import ClusterError
from ..graph.shm import SharedArrayBundle
from ..store.store import StateStore
from ..store.wal import pack_record, unpack_record
from ..workers import BYE, HELLO, REQUESTS, RESPONSES, SHUTDOWN
from . import messages
from .graph import ShardGraph
from .manifest import recover_shard
from .partitioner import partitioner_from_manifest
from .service import ShardService


@dataclass(frozen=True)
class ShardSpec:
    """Everything a worker process needs to build its shard.

    ``graph_shm`` (an order-exact full-graph snapshot from
    :meth:`~repro.graph.digraph.DynamicDiGraph.to_arrays`, attached from
    a named shared-memory segment and sliced locally by the partitioner)
    and ``recover`` (rebuild from this shard's own store) are mutually
    exclusive bootstrap modes.
    """

    shard_id: int
    shards: int
    config: PPRConfig
    serve: ServeConfig
    #: ``HashPartitioner.to_manifest()`` payload — rebuilt identically here.
    partitioner_manifest: dict[str, Any]
    #: Graph version the ``graph_shm`` snapshot is at.
    graph_version: int
    #: This shard's own store directory (None = no durability).
    store_root: str | None = None
    #: Store knobs; the coordinator inflates ``checkpoint_interval`` so
    #: only coordinated CHECKPOINT rounds write checkpoints.
    store_config: StoreConfig | None = None
    #: Rebuild from ``store_root`` (newest checkpoint + WAL tail).
    recover: bool = False
    #: Shared-memory snapshot descriptor (:mod:`repro.graph.shm`): the
    #: worker attaches the published seed segment and slices it locally.
    graph_shm: dict[str, Any] | None = None
    obs: ObsConfig = field(default_factory=ObsConfig)
    chaos: FaultPlan | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.shard_id < self.shards:
            raise ClusterError(
                f"shard_id {self.shard_id} outside [0, {self.shards})"
            )
        if self.recover == (self.graph_shm is not None):
            raise ClusterError(
                "a ShardSpec needs exactly one of graph_shm/recover=True"
            )
        if self.recover and self.store_root is None:
            raise ClusterError("a recovering ShardSpec needs store_root")
        if self.serve.store is not None:
            raise ClusterError("shard ServeConfig must not carry a store")


def build_shard_service(spec: ShardSpec) -> ShardService:
    """Construct the shard's serving engine per the spec's bootstrap mode."""
    partitioner = partitioner_from_manifest(spec.partitioner_manifest)
    if partitioner.num_shards != spec.shards:
        raise ClusterError(
            f"partitioner manifest is for {partitioner.num_shards} shards,"
            f" spec says {spec.shards}"
        )
    if spec.recover:
        result = recover_shard(
            spec.store_root,
            partitioner=partitioner,
            store_config=spec.store_config,
        )
        return result.service
    # Attach, slice, detach: from_full_arrays copies everything it
    # keeps, so the mapping can be dropped as soon as the slice is
    # built — a shard holds only its own rows, never the full dump.
    bundle = SharedArrayBundle.attach(spec.graph_shm)
    try:
        graph = ShardGraph.from_full_arrays(
            bundle.arrays(), partitioner, spec.shard_id
        )
    finally:
        bundle.close()
    store = None
    if spec.store_root is not None:
        store = StateStore(spec.store_root, spec.store_config)
    service = ShardService(graph, spec.config, spec.serve, store=store)
    service.graph_version = spec.graph_version
    return service


def shard_main(spec: ShardSpec, conn: Connection) -> None:
    """Worker-process loop: build the shard, then serve frames forever.

    Exits on ``SHUTDOWN`` (acknowledged with ``BYE``), a closed pipe
    (coordinator died), or an unhandled error (the coordinator sees the
    broken pipe and respawns from this shard's store). Engine-level
    failures inside a read do not crash the worker — the shard's own
    gateway maps them to typed error responses.
    """
    if spec.obs.enabled:
        # Outbox mode: finished spans accumulate locally and ride the
        # reply frames; only the coordinator owns the export sink.
        obs.configure(spec.obs.with_(export_path=None), outbox=True)
    # Fresh install (not fork inheritance): visit counters start at zero,
    # and replica=-scoped faults match this shard's index.
    chaos.install(spec.chaos, replica=spec.shard_id)
    service = build_shard_service(spec)
    gateway = Gateway(service)
    graph: ShardGraph = service.graph
    #: Frames that arrived mid-fetch and must be served by the main loop.
    pending: deque[tuple] = deque()
    fetch_ticket = 0

    def serve_exchange(frame: tuple) -> None:
        """Answer one peer row-fetch (pure read of owned in-rows)."""
        _, ticket, requester, frame_bytes = frame
        _, ids, _weights = messages.unpack_frontier(frame_bytes)
        rows = [graph.in_row(int(v)) for v in ids.tolist()]
        reply = messages.pack_rows(service.graph_version, ids, rows)
        conn.send((messages.EXCHANGED, ticket, requester, reply))

    def fetch(owner: int, ids: np.ndarray, masses: np.ndarray) -> dict[int, np.ndarray]:
        """Block the running push on one remote row fetch.

        Emits ``FETCH`` and drains the pipe until the matching
        ``FETCHED`` arrives, serving ``EXCHANGE`` frames inline (pure
        reads — this is the deadlock-free half of the protocol) and
        deferring everything else to the main loop.
        """
        nonlocal fetch_ticket
        fetch_ticket += 1
        ticket = fetch_ticket
        request = messages.pack_frontier(service.graph_version, ids, masses)
        try:
            conn.send((messages.FETCH, ticket, owner, request))
            while True:
                frame = conn.recv()
                tag = frame[0]
                if tag == messages.EXCHANGE:
                    serve_exchange(frame)
                elif tag == messages.FETCHED:
                    if frame[1] != ticket:
                        continue  # stale answer to an abandoned fetch
                    reply = frame[2]
                    if reply is None:
                        raise ClusterError(
                            f"shard {spec.shard_id}: fetch of"
                            f" {len(ids)} rows from shard {owner} failed"
                            " (peer dead or frame dropped)"
                        )
                    version, rows = messages.unpack_rows(reply)
                    if version != service.graph_version:
                        raise ClusterError(
                            f"shard {spec.shard_id}: fetched rows at"
                            f" v{version}, shard is at"
                            f" v{service.graph_version}"
                        )
                    return rows
                elif tag == SHUTDOWN:
                    pending.append(frame)
                    raise ClusterError(
                        f"shard {spec.shard_id}: shutdown during fetch"
                    )
                else:
                    pending.append(frame)
        except (EOFError, OSError) as exc:
            raise ClusterError(
                f"shard {spec.shard_id}: exchange channel closed mid-fetch"
            ) from exc

    service.view.bind_fetch(fetch)

    try:
        conn.send((HELLO, service.graph_version))
        while True:
            if pending:
                frame = pending.popleft()
            else:
                try:
                    frame = conn.recv()
                except (EOFError, OSError):
                    break
            tag = frame[0]
            if tag == messages.APPLY:
                _, ticket, frame_bytes, ctx = frame
                with obs.activate(ctx):
                    record = unpack_record(frame_bytes)
                    if record.seq <= service.graph_version:
                        # Idempotent skip: a respawned shard may be
                        # re-shipped batches its recovery already covered.
                        conn.send(
                            (
                                messages.APPLIED,
                                ticket,
                                service.graph_version,
                                None,
                                obs.drain(),
                            )
                        )
                        continue
                    if record.seq != service.graph_version + 1:
                        raise ClusterError(
                            f"shard {spec.shard_id} replication gap: at"
                            f" v{service.graph_version}, batch frame is"
                            f" v{record.seq}"
                        )
                    with obs.span("shard.apply", shard=spec.shard_id):
                        chaos.check("shard.apply", seq=record.seq)
                        response = gateway.submit(
                            IngestBatch(updates=record.updates)
                        )
                conn.send(
                    (
                        messages.APPLIED,
                        ticket,
                        service.graph_version,
                        response,
                        obs.drain(),
                    )
                )
            elif tag == messages.VALIDATE:
                _, ticket, frame_bytes = frame
                record = unpack_record(frame_bytes)
                verdict = graph.validate_batch(list(record.updates))
                info = None
                if verdict is not None:
                    index, error = verdict
                    info = (index, ErrorInfo.from_exception(error))
                conn.send((messages.VALIDATED, ticket, info))
            elif tag == REQUESTS:
                _, ticket, request = frame
                responses = gateway.submit_many([request])
                conn.send(
                    (
                        RESPONSES,
                        ticket,
                        responses,
                        service.graph_version,
                        obs.drain(),
                    )
                )
            elif tag == messages.EXCHANGE:
                serve_exchange(frame)
            elif tag == messages.REGISTER:
                _, ticket, ids = frame
                new = [v for v in ids if not graph.has_vertex(v)]
                for v in new:
                    graph.add_vertex(v)
                if new and service.store is not None:
                    service.store.log_vertices(service.graph_version, new)
                conn.send((messages.REGISTERED, ticket, graph.capacity))
            elif tag == messages.CHECKPOINT:
                _, ticket = frame
                path = None
                if service.store is not None:
                    # A round is complete only once every shard's files
                    # are on disk: the manifest is written from the acks.
                    path = str(service.store.checkpoint(service))
                    service.store.wait()
                conn.send(
                    (messages.CHECKPOINTED, ticket, service.graph_version, path)
                )
            elif tag == messages.STATUS:
                _, ticket = frame
                payload = {
                    "shard": spec.shard_id,
                    "graph_version": service.graph_version,
                    "num_vertices": graph.num_vertices,
                    "num_edges": graph.num_edges,
                    "owned_vertices": int(len(graph.owned_vertices())),
                    "owned_edges": graph.owned_edges,
                    "capacity": graph.capacity,
                    "resident": len(service.cache.entries()),
                    "graph_bytes": graph.memory_bytes(),
                    "remote_rows": service.view.remote_rows,
                    "metrics": service.metrics().to_dict(),
                }
                if service.store is not None:
                    payload["checkpoints_written"] = (
                        service.store.checkpoints_written
                    )
                conn.send((messages.STATUSED, ticket, payload))
            elif tag == messages.TAIL:
                _, ticket, after_seq = frame
                frames: list[bytes] = []
                if service.store is not None:
                    for record in service.store.wal.iter_records(
                        after_seq=after_seq
                    ):
                        frames.append(
                            pack_record(
                                record.seq, record.updates, epoch=record.epoch
                            )
                        )
                conn.send((messages.TAILED, ticket, frames))
            elif tag == messages.FETCHED:
                continue  # stale answer to an abandoned fetch
            elif tag == SHUTDOWN:
                conn.send((BYE, service.graph_version))
                break
            else:  # pragma: no cover - protocol bug guard
                raise ClusterError(f"unknown frame tag: {tag!r}")
    finally:
        conn.close()
