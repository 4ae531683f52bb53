"""The :class:`StateStore`: WAL + checkpoints + retention, coordinated.

One store owns one directory::

    <root>/
        wal/            wal-<first seq>.log segments (repro.store.wal)
        checkpoints/    checkpoint-<version>.npz    (repro.store.checkpoint)

and implements the durability loop of the serving layer:

* :meth:`log_batch` — called by :meth:`repro.serve.PPRService.ingest`
  once the batch has fully applied, before it is acknowledged or
  checkpointed; appends a CRC-framed WAL record.
* :meth:`maybe_checkpoint` — called after the ingest completes; every
  ``checkpoint_interval`` batches it writes a checkpoint, rotates the
  WAL to a fresh segment, drops segments fully covered by the new
  checkpoint, and prunes checkpoints beyond ``retain_checkpoints``.

Recovery (:func:`repro.store.recovery.recover`) is the inverse: newest
valid checkpoint + replay of the remaining WAL tail.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from ..config import StoreConfig
from ..graph.update import EdgeUpdate
from ..errors import StoreError
from ..obs import clock
from .checkpoint import (
    checkpoint_version,
    list_checkpoints,
    sweep_stale_tmp,
    write_checkpoint,
)
from .wal import SegmentScan, WriteAheadLog

if TYPE_CHECKING:
    from ..serve.service import PPRService

PathLike = str | os.PathLike


@dataclass(frozen=True)
class CheckpointInfo:
    """One checkpoint file as listed by :meth:`StateStore.status`."""

    path: Path
    version: int
    size_bytes: int


@dataclass(frozen=True)
class StoreStatus:
    """A point-in-time inventory of a store directory."""

    root: Path
    checkpoints: tuple[CheckpointInfo, ...]
    segments: tuple[SegmentScan, ...]

    @property
    def latest_version(self) -> int | None:
        """Newest checkpointed graph version (None for an empty store)."""
        return self.checkpoints[-1].version if self.checkpoints else None

    @property
    def wal_records(self) -> int:
        return sum(len(s.records) for s in self.segments)

    @property
    def torn_bytes(self) -> int:
        """Bytes of torn/corrupt WAL tail across segments (0 when clean)."""
        return sum(s.torn_bytes for s in self.segments)

    @property
    def replay_batches(self) -> int:
        """WAL records a recovery would replay on top of the newest checkpoint."""
        base = self.latest_version if self.latest_version is not None else -1
        return sum(
            1 for s in self.segments for r in s.records if r.seq > base
        )


class StateStore:
    """Durable state for one :class:`~repro.serve.PPRService`.

    Parameters
    ----------
    root:
        Store directory (created, with its subdirectories, if missing).
    config:
        Retention/cadence knobs; ``root`` inside it is ignored in favor of
        the explicit argument. Defaults to ``StoreConfig()``.
    """

    def __init__(self, root: PathLike, config: StoreConfig | None = None) -> None:
        self.config = config or StoreConfig()
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.wal_dir = self.root / "wal"
        self.checkpoint_dir = self.root / "checkpoints"
        self.checkpoint_dir.mkdir(exist_ok=True)
        # This handle is now the directory's one writer: a tmp file here
        # is a dead owner's crash between tmp-write and rename.
        sweep_stale_tmp(self.checkpoint_dir)
        self.wal = WriteAheadLog(self.wal_dir, fsync=self.config.fsync)
        self._batches_since_checkpoint = 0
        self.checkpoints_written = 0
        #: Wall time (write + WAL compaction + pruning) and file size of
        #: the last checkpoint this handle wrote; the stats surface.
        self.checkpoint_ms_last = 0.0
        self.checkpoint_bytes_last = 0
        #: Write-authority term stamped into every WAL frame; the cluster
        #: tier bumps it on the store's new owner at each failover.
        self.epoch = 0
        #: Set after an append failed mid-batch: the frame was rolled back
        #: but the acknowledged-state / durable-state invariant can no
        #: longer be trusted for *future* writes on this handle, so the
        #: store fences itself until a new owner re-attaches it.
        self.failed = False

    @classmethod
    def from_config(cls, config: StoreConfig) -> "StateStore":
        """A store rooted at ``config.root``."""
        return cls(config.root, config)

    # ------------------------------------------------------------------ #
    # the durability loop
    # ------------------------------------------------------------------ #

    def log_batch(self, seq: int, updates: list[EdgeUpdate]) -> None:
        """Append one ingest batch (producing graph version ``seq``).

        Raises :class:`~repro.errors.StoreError` if a previous append on
        this handle failed (the store is fenced — see :attr:`failed`) or
        if this append's write/fsync fails, in which case the frame is
        rolled back and the store fences itself.
        """
        if self.failed:
            raise StoreError(
                f"store at {self.root} is fenced after a failed append;"
                " recover it under a new owner before writing"
            )
        try:
            self.wal.append(seq, updates, epoch=self.epoch)
        except StoreError:
            self.failed = True
            raise
        self._batches_since_checkpoint += 1

    def maybe_checkpoint(self, service: "PPRService") -> Path | None:
        """Checkpoint when the interval has elapsed; else no-op."""
        if self._batches_since_checkpoint < self.config.checkpoint_interval:
            return None
        return self.checkpoint(service)

    def checkpoint(self, service: "PPRService") -> Path:
        """Write a checkpoint now, then compact the log and old checkpoints.

        Order matters for crash safety: the checkpoint is durably in
        place (atomic rename, then an fsync of ``checkpoints/``) *before*
        any WAL segment or older checkpoint is deleted, so every instant
        in time — power loss included — has a consistent recovery path.
        """
        start = clock.now()
        path = write_checkpoint(self.checkpoint_dir, service)
        self.wal.rotate()
        self.wal.drop_segments_covered_by(service.graph_version)
        self._prune_checkpoints()
        self._batches_since_checkpoint = 0
        self.checkpoints_written += 1
        self.checkpoint_bytes_last = path.stat().st_size
        self.checkpoint_ms_last = 1e3 * (clock.now() - start)
        return path

    def _prune_checkpoints(self) -> None:
        existing = list_checkpoints(self.checkpoint_dir)
        for stale in existing[: -self.config.retain_checkpoints]:
            stale.unlink()

    def close(self) -> None:
        self.wal.close()

    def __enter__(self) -> "StateStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def status(self) -> StoreStatus:
        """Inventory the directory (reads every WAL segment)."""
        checkpoints = tuple(
            CheckpointInfo(
                path=p,
                version=checkpoint_version(p),
                size_bytes=p.stat().st_size,
            )
            for p in list_checkpoints(self.checkpoint_dir)
        )
        return StoreStatus(
            root=self.root,
            checkpoints=checkpoints,
            segments=tuple(self.wal.scan()),
        )

    def __repr__(self) -> str:
        return (
            f"StateStore(root={str(self.root)!r},"
            f" interval={self.config.checkpoint_interval},"
            f" checkpoints_written={self.checkpoints_written})"
        )
