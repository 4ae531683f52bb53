"""Durable state for the serving layer: WAL, checkpoints, crash recovery.

The maintenance machinery of this library exists to keep PPR state fresh
so it never has to be recomputed — this package makes that state survive
a process death, with the classic stream-system discipline:

* :mod:`~repro.store.wal` — a CRC-framed append-only log of every
  ingested update batch (torn tails detected and truncated);
* :mod:`~repro.store.checkpoint` — the immutable order-exact graph base
  the log is the delta of, and versioned ``.npz`` checkpoints of every
  resident source state, the hub index, and serve metadata that sit on
  one; capturing a checkpoint and writing it are separate steps;
* :class:`~repro.store.store.StateStore` — the coordinator: log before
  ack, capture a checkpoint every N batches and write it on one writer
  thread, start a new base when the log outgrows the old one, compact
  what the durable files made redundant;
* :mod:`~repro.store.recovery` — ``recover_service()``: newest valid
  checkpoint, its base advanced graph-only by the log, then WAL-tail
  replay through the normal ingest path, yielding a service whose
  answers are bit-for-bit those of an uninterrupted run.

Enable it with ``ServeConfig(store=StoreConfig(root="..."))`` or attach a
:class:`StateStore` explicitly; see ``docs/persistence.md``.
"""

from .checkpoint import (
    Checkpoint,
    CheckpointCapture,
    capture_checkpoint,
    latest_checkpoint,
    read_checkpoint,
    restore_service,
    write_checkpoint,
)
from .recovery import RecoveryResult, recover, recover_service
from .store import StateStore, StoreStatus
from .wal import (
    WalRecord,
    WriteAheadLog,
    pack_payload,
    pack_record,
    scan_segment,
    truncate_torn_tail,
    unpack_payload,
    unpack_record,
)

__all__ = [
    "Checkpoint",
    "CheckpointCapture",
    "RecoveryResult",
    "StateStore",
    "StoreStatus",
    "WalRecord",
    "WriteAheadLog",
    "capture_checkpoint",
    "latest_checkpoint",
    "pack_payload",
    "pack_record",
    "read_checkpoint",
    "recover",
    "recover_service",
    "restore_service",
    "scan_segment",
    "truncate_torn_tail",
    "unpack_payload",
    "unpack_record",
    "write_checkpoint",
]
