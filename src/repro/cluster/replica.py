"""The replica worker: one process, one full serving engine.

:func:`replica_main` is the entry point of every cluster worker process.
It builds a complete :class:`~repro.serve.service.PPRService` replica —
own push engine, own resident cache, own delta-CSR snapshot chain — and
serves the coordinator's frames in FIFO order: write deltas are ingested
through the replica's *normal* gateway path (the same
``restore_invariant`` arithmetic and snapshot advancement the primary
ran), reads are answered by the replica's own
:class:`~repro.api.gateway.Gateway` scheduler.

A replica bootstraps one of two ways (:class:`ReplicaSpec`):

* **from shared memory** — the primary's order-exact
  :meth:`~repro.graph.digraph.DynamicDiGraph.to_arrays` snapshot plus
  its consolidated CSR, attached by name (:mod:`repro.graph.shm`), so
  the adjacency iteration (and every CSR snapshot derived from it) is
  bit-identical to the primary's;
* **from the store** — :func:`repro.store.recovery.recover_service` over
  the primary's durable state (newest checkpoint + WAL-tail replay).
  This is the respawn path: the WAL is written before any write is
  acknowledged, so a recovered replica lands exactly at the primary's
  head version.

Either way the replica's answers are bit-identical to a single-process
service with the same history — the property ``tests/test_cluster.py``
asserts.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing.connection import Connection
from typing import Any

from .. import chaos, obs
from ..api.gateway import Gateway
from ..api.requests import IngestBatch
from ..chaos import FaultPlan
from ..config import ObsConfig, PPRConfig, ServeConfig, StoreConfig
from ..errors import ClusterError
from ..serve.service import PPRService
from ..store.wal import WalRecord, pack_record, unpack_record
from ..workers import BYE, HELLO, REQUESTS, RESPONSES, SHUTDOWN
from . import messages


@dataclass(frozen=True)
class ReplicaSpec:
    """Everything a worker process needs to build its replica.

    ``graph_shm`` and ``store_root`` are mutually exclusive bootstrap
    modes; ``serve`` always arrives with ``store=None`` (the primary owns
    durability — replicas must never double-log the WAL).
    """

    replica_id: int
    config: PPRConfig
    serve: ServeConfig
    #: Explicit hub ids of the primary's hub tier (empty = no hub tier).
    hubs: tuple[int, ...]
    #: Graph version the ``graph_shm`` snapshot is at.
    graph_version: int
    #: Store directory to recover from (the respawn path).
    store_root: str | None = None
    #: Shared-memory snapshot descriptor (:mod:`repro.graph.shm`): the
    #: worker attaches the named segment, zero-copy.
    graph_shm: dict[str, Any] | None = None
    #: Tracing/profiling knobs, mirrored from the coordinator's ApiConfig
    #: so replica-side spans are sampled exactly like the front door's.
    obs: ObsConfig = ObsConfig()
    #: Scripted fault schedule, installed fresh in the worker process with
    #: ``replica=replica_id`` so ``replica=``-scoped faults fire in the
    #: right process and counters never inherit coordinator state (fork).
    chaos: FaultPlan | None = None

    def __post_init__(self) -> None:
        if (self.graph_shm is None) == (self.store_root is None):
            raise ClusterError(
                "a ReplicaSpec needs exactly one of graph_shm/store_root"
            )
        if self.serve.store is not None:
            raise ClusterError("replica ServeConfig must not carry a store")


def build_replica_service(spec: ReplicaSpec) -> PPRService:
    """Construct the replica's serving engine per the spec's bootstrap mode."""
    if spec.store_root is not None:
        from ..store.recovery import recover_service

        return recover_service(spec.store_root, attach=False)
    return PPRService.from_shared_snapshot(
        spec.graph_shm,
        config=spec.config,
        serve=spec.serve,
        hubs=list(spec.hubs) if spec.hubs else None,
        graph_version=spec.graph_version,
    )


def apply_record(service: PPRService, record: WalRecord) -> int:
    """Apply one decoded write delta; returns the replica's new version.

    Records at or below the replica's version are skipped idempotently (a
    respawned replica may be re-shipped deltas its recovery already
    covered, and a duplicated pipe frame must be harmless); a gap raises
    — a replica must never serve a history with holes.
    """
    if record.seq <= service.graph_version:
        return service.graph_version
    if record.seq != service.graph_version + 1:
        raise ClusterError(
            f"replication gap: replica at v{service.graph_version},"
            f" delta frame is v{record.seq}"
        )
    service.gateway.execute(IngestBatch(updates=record.updates))
    return service.graph_version


def promote(
    service: PPRService,
    *,
    epoch: int,
    store_root: str | None,
    store_config: StoreConfig | None = None,
) -> tuple[int, list[bytes]]:
    """Make this replica the primary: own the store, fence ``epoch``.

    The FIFO pipe already delivered every delta the coordinator shipped,
    so the replica's in-memory state is at (or just behind) the acked
    head. Promotion closes the remaining gap from *durable* state: torn
    WAL tails are truncated, every intact record past the replica's
    version is replayed through the normal ingest path, and the store is
    attached (no fresh checkpoint — the one on disk is still valid)
    with its epoch bumped so every future frame is stamped ``epoch``.

    Returns the promoted node's graph version plus the replayed records
    re-stamped as ``pack_record`` frames under the new epoch — the
    coordinator ships those to the *other* replicas so any delta that
    died with the old primary's pipes still reaches the whole fleet.

    A storeless cluster (no durability to inherit) promotes trivially:
    the replica simply starts answering forwarded writes.
    """
    if store_root is None:
        return service.graph_version, []
    from ..store.store import StateStore

    store = StateStore(store_root, store_config)
    store.wal.truncate_torn_tails()
    replayed: list[bytes] = []
    for record in store.wal.iter_records(after_seq=service.graph_version):
        if record.seq != service.graph_version + 1:
            raise ClusterError(
                f"promotion gap: replica at v{service.graph_version},"
                f" WAL record is v{record.seq}"
            )
        service.gateway.execute(IngestBatch(updates=record.updates))
        replayed.append(pack_record(record.seq, record.updates, epoch=epoch))
    # Everything logged past the newest checkpoint counts toward the
    # next one. This replica's graph came from a snapshot plus shipped
    # deltas, and registered its own query-time vertices along the way —
    # not from the directory's base + log — so its first checkpoint
    # starts a new base.
    store.dirty = service.graph_version - (store.checkpoint_version or 0)
    store.invalidate_base()
    store.epoch = epoch
    service.attach_store(store, checkpoint=False)
    return service.graph_version, replayed


def replica_main(spec: ReplicaSpec, conn: Connection) -> None:
    """Worker-process loop: build the replica, then serve frames forever.

    Exits on ``SHUTDOWN`` (clean drain, acknowledged with ``BYE``), a
    closed pipe (coordinator died — nothing left to serve), or an
    unhandled error (the coordinator sees the broken pipe and respawns).
    Engine-level failures inside a read do *not* crash the worker: the
    replica's own gateway maps them to typed error responses, exactly as
    a single-process gateway would.

    The worker tracks the write-authority ``epoch`` it has observed
    (adopted from applied frames and from its own promotion). An APPLY
    frame stamped with an *older* epoch is a zombie primary's late write:
    it is rejected — acknowledged at the current version, never applied —
    and emitted as a ``replica.fenced_frame`` event.
    """
    if spec.obs.enabled:
        # Outbox mode: finished spans accumulate locally and are drained
        # into the reply frames — the coordinator owns the trace ring and
        # the JSONL sink, so only it gets an export_path.
        obs.configure(spec.obs.with_(export_path=None), outbox=True)
    # Fresh install (not fork inheritance): visit counters start at zero
    # in every worker, and replica= scoping matches this process.
    chaos.install(spec.chaos, replica=spec.replica_id)
    service = build_replica_service(spec)
    gateway = Gateway(service)
    epoch = 0
    try:
        conn.send((HELLO, service.graph_version))
        while True:
            try:
                frame = conn.recv()
            except (EOFError, OSError):
                break
            tag = frame[0]
            if tag == messages.APPLY:
                _, frame_bytes, ctx = frame
                with obs.activate(ctx):
                    record = unpack_record(frame_bytes)
                    if record.epoch < epoch:
                        obs.event(
                            "replica.fenced_frame",
                            replica=spec.replica_id,
                            seq=record.seq,
                            frame_epoch=record.epoch,
                            epoch=epoch,
                        )
                        conn.send(
                            (messages.APPLIED, service.graph_version, obs.drain())
                        )
                        continue
                    epoch = record.epoch
                    with obs.span("replica.apply", replica=spec.replica_id):
                        chaos.check("replica.apply", seq=record.seq)
                        version = apply_record(service, record)
                conn.send((messages.APPLIED, version, obs.drain()))
            elif tag == REQUESTS:
                _, ticket, request = frame
                chaos.check("replica.serve", ticket=ticket)
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
            elif tag == messages.PROMOTE:
                _, ticket, new_epoch, store_root, store_config = frame
                with obs.span(
                    "replica.promote", replica=spec.replica_id, epoch=new_epoch
                ):
                    version, replayed = promote(
                        service,
                        epoch=new_epoch,
                        store_root=store_root,
                        store_config=store_config,
                    )
                epoch = new_epoch
                conn.send(
                    (messages.PROMOTED, ticket, version, replayed, obs.drain())
                )
            elif tag == messages.INGEST:
                _, ticket, request, ctx = frame
                with obs.activate(ctx):
                    with obs.span(
                        "replica.ingest", replica=spec.replica_id, tier="primary"
                    ):
                        response = gateway.submit(request)
                conn.send(
                    (
                        RESPONSES,
                        ticket,
                        (response,),
                        service.graph_version,
                        obs.drain(),
                    )
                )
            elif tag == SHUTDOWN:
                conn.send((BYE, service.graph_version))
                break
            else:  # pragma: no cover - protocol bug guard
                raise ClusterError(f"unknown frame tag: {tag!r}")
    finally:
        conn.close()
