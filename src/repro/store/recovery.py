"""Crash recovery: checkpoint + graph base + log → a live service.

The equivalence contract (tested in ``tests/test_store.py`` and smoked in
CI): a service recovered from a store answers :func:`certified_top_k`
queries *bit-for-bit* identically to an uninterrupted service at the same
graph version, for every source resident at the last checkpoint. Four
properties make that possible:

1. checkpoints are bit-exact — float vectors verbatim, the graph base
   serialized order-exactly so rebuilt CSR snapshots are identical;
2. the graph at the checkpoint's version is the base advanced by the WAL
   records in between, applied **graph-only** through ``graph.apply`` in
   log order — the mutation sequence the uninterrupted run performed, so
   adjacency-dict iteration order (hence CSR order, hence float
   summation order) comes out the same; no state is touched, the
   checkpoint holds the states at that version verbatim;
3. the WAL tail past the checkpoint is replayed through the *normal*
   ingest path (:meth:`repro.serve.PPRService.ingest`): the same
   ``restore_invariant`` arithmetic and hub re-convergence the
   uninterrupted run performed;
4. the push engines canonicalize their inputs (sorted frontiers, a lazy
   refresh's first one scanned from ``r``), so replayed pushes see
   identical operand orders.

What bounds each replay: the graph-only stretch by
:attr:`StateStore.rebase_due <repro.store.store.StateStore.rebase_due>`
(the log past a base stays a fraction of the base), the ingest-replayed
tail by ``StoreConfig.checkpoint_interval``.
"""

from __future__ import annotations

import os
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

from ..config import PPRConfig, ServeConfig, StoreConfig
from ..errors import StoreError
from ..obs import clock
from ..serve.service import PPRService
from .checkpoint import (
    CHECKPOINT_DIR,
    Checkpoint,
    config_fingerprint,
    latest_checkpoint,
    restore_service,
)
from .store import StateStore
from .wal import WriteAheadLog

PathLike = str | os.PathLike


@dataclass
class RecoveryResult:
    """A recovered service plus the forensics of how it got there."""

    service: PPRService
    checkpoint_path: Path
    checkpoint_version: int
    #: The graph base the checkpoint sits on, and the WAL batches applied
    #: graph-only to bring it to the checkpoint's version.
    base_version: int
    graph_batches: int
    #: WAL batches replayed *through ingest* on top of the checkpoint.
    replayed_batches: int
    replayed_updates: int
    #: Torn/corrupt WAL bytes truncated before replay.
    torn_bytes_dropped: int
    wall_seconds: float

    def describe(self) -> str:
        return (
            f"recovered v{self.checkpoint_version} -> v{self.service.graph_version}"
            f" ({self.replayed_batches} batches / {self.replayed_updates} updates"
            f" replayed, graph base v{self.base_version} +"
            f" {self.graph_batches} batches,"
            f" {self.torn_bytes_dropped} torn bytes dropped,"
            f" {self.wall_seconds * 1e3:.1f} ms)"
        )


def recover_from(
    root: Path,
    checkpoint: Checkpoint,
    restore: Callable[[Checkpoint], PPRService],
    *,
    store_config: StoreConfig | None,
    attach: bool,
) -> RecoveryResult:
    """Rebuild a service from ``checkpoint`` and the log under ``root``.

    The one replay loop, shared with the sharded tier
    (:func:`repro.shard.manifest.recover_shard`): truncate torn WAL
    tails, apply the records ``(base, checkpoint]`` to the checkpoint's
    graph only, materialize the service with ``restore``, replay the
    records past the checkpoint through its normal ingest path, and —
    with ``attach`` — give it a store on the same directory. Raises
    :class:`StoreError` on any hole in the history.
    """
    start = clock.now()
    graph = checkpoint.graph
    registered = deque(checkpoint.registered)

    def register_before(seq: int) -> None:
        # Out-of-log registrations, interleaved where they happened: one
        # made at version r precedes batch r + 1.
        while registered and registered[0][0] < seq:
            graph.add_vertex(registered.popleft()[1])

    wal = WriteAheadLog(root / "wal")
    try:
        torn = wal.truncate_torn_tails()
        version = checkpoint.base_version
        records = wal.iter_records(after_seq=version)
        tail = []
        for record in records:
            if record.seq != version + 1 or record.seq > checkpoint.version:
                tail.append(record)
                break
            register_before(record.seq)
            graph.apply_batch(record.updates)
            version = record.seq
        if version < checkpoint.version:
            found = f"seq {tail[0].seq}" if tail else "nothing"
            raise StoreError(
                f"WAL cannot bring graph base v{checkpoint.base_version} to"
                f" checkpoint v{checkpoint.version}: past v{version} it holds {found}"
            )
        register_before(version + 1)
        service = restore(checkpoint)
        replayed_batches = replayed_updates = 0
        for record in chain(tail, records):
            if record.seq != service.graph_version + 1:
                raise StoreError(
                    f"WAL replay gap: checkpoint v{checkpoint.version}, next record"
                    f" seq {record.seq}, service at v{service.graph_version}"
                )
            service.ingest(list(record.updates))
            replayed_batches += 1
            replayed_updates += len(record.updates)
    finally:
        wal.close()

    if attach:
        # No baseline is written — the checkpoint on disk is still valid.
        # The replayed tail is already logged; it counts toward the next
        # checkpoint so the interval is measured from the last one, and
        # new checkpoints keep naming the base this recovery proved
        # readable.
        store = StateStore(root, store_config or StoreConfig(root=str(root)))
        store.dirty = replayed_batches
        store.base_version = checkpoint.base_version
        store.registered = list(checkpoint.registered)
        service.attach_store(store, checkpoint=False)
    return RecoveryResult(
        service=service,
        checkpoint_path=checkpoint.path,
        checkpoint_version=checkpoint.version,
        base_version=checkpoint.base_version,
        graph_batches=checkpoint.version - checkpoint.base_version,
        replayed_batches=replayed_batches,
        replayed_updates=replayed_updates,
        torn_bytes_dropped=torn,
        wall_seconds=clock.now() - start,
    )


def recover(
    root: PathLike,
    *,
    config: PPRConfig | None = None,
    serve: ServeConfig | None = None,
    store_config: StoreConfig | None = None,
    attach: bool = True,
) -> RecoveryResult:
    """Rebuild the service persisted under ``root``.

    Steps: load the newest valid checkpoint and the graph base it names
    (older checkpoints — and *their* bases — are fallbacks if either is
    damaged), truncate any torn WAL tail, bring the base to the
    checkpoint's version graph-only, restore the states verbatim, replay
    every WAL record past the checkpoint through the normal ingest path,
    and (by default) reattach a store so the service keeps persisting —
    without writing a redundant baseline checkpoint.

    ``config``/``serve``, when given, are checked against the
    checkpoint's configuration fingerprint — resuming under a different
    ε/α/variant would silently break the freshness contract, so a
    mismatch raises :class:`StoreError`. When omitted, the persisted
    configuration is used.
    """
    root = Path(root)
    if not root.exists():
        raise StoreError(f"store directory not found: {root}")
    checkpoint = latest_checkpoint(root / CHECKPOINT_DIR)
    if checkpoint is None:
        raise StoreError(
            f"no checkpoint under {root} — the store never saw an attach"
            " (the WAL alone cannot rebuild the initial graph)"
        )
    if config is not None or serve is not None:
        expected = config_fingerprint(
            config or checkpoint.config, serve or checkpoint.serve
        )
        if expected != checkpoint.fingerprint:
            raise StoreError(
                "configuration mismatch: the store was written under"
                f" fingerprint {checkpoint.fingerprint[:12]}…, caller asked for"
                f" {expected[:12]}… — recover with the original configuration"
            )

    return recover_from(
        root, checkpoint, restore_service, store_config=store_config, attach=attach
    )


def recover_service(
    root: PathLike,
    *,
    config: PPRConfig | None = None,
    serve: ServeConfig | None = None,
    store_config: StoreConfig | None = None,
    attach: bool = True,
) -> PPRService:
    """:func:`recover`, returning just the live service."""
    return recover(
        root, config=config, serve=serve, store_config=store_config, attach=attach
    ).service
