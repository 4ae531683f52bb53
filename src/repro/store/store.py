"""The :class:`StateStore`: WAL + graph base + checkpoints, coordinated.

One store owns one directory::

    <root>/
        wal/            wal-<first seq>.log segments  (repro.store.wal)
        graph/          graph-<base version>.npz      (repro.store.checkpoint)
        checkpoints/    checkpoint-<version>.npz      (repro.store.checkpoint)

and implements the durability loop of the serving layer. The contract:
**acknowledged ⇒ WAL-fsynced; checkpointed within one batch.**

* :meth:`log_batch` — called by :meth:`repro.serve.PPRService.ingest`
  once the batch has fully applied, before it is acknowledged; appends a
  CRC-framed WAL record. It first joins the writer thread (below), so at
  most one acknowledged batch ever sits past a checkpoint in flight.
* :meth:`maybe_checkpoint` / :meth:`checkpoint` — the ack-path half of a
  checkpoint: *capture* (fresh arrays of what the files will hold, the
  graph only when a new base is due), rotate the WAL, hand off.
* the writer thread — one per checkpoint, one at a time — writes the
  files, and only once they are durable compacts: prunes checkpoints
  beyond ``retain_checkpoints``, graph bases no retained checkpoint
  names, and WAL segments older than the oldest base still named.
* :meth:`wait` — join the writer; every caller that needs the files on
  disk (the baseline at attach, a checkpoint round, a drain,
  :meth:`close`) calls it after :meth:`checkpoint`. A writer failure
  fences the store and surfaces here as :class:`~repro.errors.StoreError`.

Recovery (:func:`repro.store.recovery.recover`) is the inverse: newest
valid checkpoint, the base it names advanced by the log to the
checkpoint's version, then replay of the remaining WAL tail.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .. import chaos, obs
from ..config import StoreConfig
from ..errors import StoreError
from ..graph.delta import DEFAULT_OVERLAY_THRESHOLD
from ..graph.update import EdgeUpdate
from ..obs import clock
from .checkpoint import (
    CHECKPOINT_DIR,
    GRAPH_DIR,
    CheckpointCapture,
    capture_checkpoint,
    checkpoint_name,
    checkpoint_summary,
    checkpoint_version,
    graph_base_name,
    graph_base_version,
    list_checkpoints,
    list_graph_bases,
    sweep_stale_tmp,
    write_checkpoint,
)
from .wal import SegmentScan, WriteAheadLog

if TYPE_CHECKING:
    import numpy as np

    from ..serve.service import PPRService

PathLike = str | os.PathLike


def checkpoint_base(path: Path) -> int | None:
    """The graph base a checkpoint names (``None`` when it cannot say)."""
    try:
        return checkpoint_summary(path).get("base")
    except StoreError:
        return None


@dataclass(frozen=True)
class CheckpointInfo:
    """One checkpoint file as listed by :meth:`StateStore.status`."""

    path: Path
    version: int
    size_bytes: int
    #: Graph base the checkpoint names; ``None`` for an unreadable file.
    base_version: int | None = None


@dataclass(frozen=True)
class StoreStatus:
    """A point-in-time inventory of a store directory."""

    root: Path
    checkpoints: tuple[CheckpointInfo, ...]
    segments: tuple[SegmentScan, ...]
    #: Versions of the graph bases on disk, oldest first.
    bases: tuple[int, ...] = ()

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
        """WAL records a recovery would replay *through ingest* on top of
        the newest checkpoint."""
        base = self.latest_version if self.latest_version is not None else -1
        return sum(1 for s in self.segments for r in s.records if r.seq > base)

    @property
    def graph_replay_batches(self) -> int:
        """WAL records a recovery would apply *graph-only* to bring the
        newest checkpoint's base up to its version."""
        if not self.checkpoints or self.checkpoints[-1].base_version is None:
            return 0
        newest = self.checkpoints[-1]
        return newest.version - newest.base_version


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
        self.checkpoint_dir = self.root / CHECKPOINT_DIR
        self.graph_dir = self.root / GRAPH_DIR
        for directory in (self.checkpoint_dir, self.graph_dir):
            directory.mkdir(exist_ok=True)
            # This handle is now the directory's one writer: a tmp file
            # here is a dead owner's crash between tmp-write and rename.
            sweep_stale_tmp(directory)
        self.wal = WriteAheadLog(self.wal_dir)
        #: Batches logged since the last *durable* checkpoint: what a
        #: drain still has to checkpoint. Recovery seeds it with the
        #: replayed tail so the interval is measured from the last
        #: checkpoint, not from the recovery.
        self.dirty = 0
        #: Version of the graph base the next checkpoint will name.
        #: ``None`` means nothing on disk describes the attached graph —
        #: a fresh store, or :meth:`invalidate_base` — and the next
        #: checkpoint starts a new base.
        bases = list_graph_bases(self.graph_dir)
        self.base_version: int | None = (
            graph_base_version(bases[-1]) if bases else None
        )
        #: ``(graph version, vertex id)`` registrations since the base
        #: (:meth:`log_vertices`); every checkpoint on that base carries them.
        self.registered: list[tuple[int, int]] = []
        #: Version of the newest durable checkpoint (None before the first).
        checkpoints = list_checkpoints(self.checkpoint_dir)
        self.checkpoint_version: int | None = (
            checkpoint_version(checkpoints[-1]) if checkpoints else None
        )
        #: WAL batches a recovery now would apply graph-only: how far the
        #: newest durable checkpoint sits past the base it names.
        self.graph_replay_batches = 0
        if checkpoints:
            named = checkpoint_base(checkpoints[-1])
            if named is not None:
                self.graph_replay_batches = self.checkpoint_version - named
        self.checkpoints_written = 0
        #: The stall the last checkpoint put on the ack path (capture +
        #: WAL rotation + hand-off), the writer thread's time for it
        #: (files + compaction), and the checkpoint file's size.
        self.checkpoint_ms_last = 0.0
        self.checkpoint_write_ms_last = 0.0
        self.checkpoint_bytes_last = 0
        #: Write-authority term stamped into every WAL frame; the cluster
        #: tier bumps it on the store's new owner at each failover.
        self.epoch = 0
        #: Set after an append or a checkpoint write failed: the
        #: acknowledged-state / durable-state invariant can no longer be
        #: trusted for *future* writes on this handle, so the store
        #: fences itself until a new owner re-attaches it.
        self.failed = False
        self._writer: threading.Thread | None = None
        self._writer_error: Exception | None = None

    @classmethod
    def from_config(cls, config: StoreConfig) -> "StateStore":
        """A store rooted at ``config.root``."""
        return cls(config.root, config)

    # ------------------------------------------------------------------ #
    # the durability loop: ack path
    # ------------------------------------------------------------------ #

    def log_batch(self, seq: int, updates: list[EdgeUpdate] | np.ndarray) -> None:
        """Append one ingest batch (producing graph version ``seq``).

        Joins a checkpoint still in flight first, so the batch that
        triggered a checkpoint is the only acknowledged one that can sit
        past it. Raises :class:`~repro.errors.StoreError` if the store is
        fenced (see :attr:`failed`) or if this append's write/fsync
        fails, in which case the frame is rolled back and the store
        fences itself.
        """
        self.wait()
        if self.failed:
            raise StoreError(
                f"store at {self.root} is fenced after a failed write;"
                " recover it under a new owner before writing"
            )
        try:
            self.wal.append(seq, updates, epoch=self.epoch)
        except StoreError:
            self.failed = True
            raise
        self.dirty += 1

    def maybe_checkpoint(self, service: "PPRService") -> Path | None:
        """Checkpoint when the interval has elapsed; else no-op."""
        if self.dirty < self.config.checkpoint_interval:
            return None
        return self.checkpoint(service)

    @property
    def rebase_due(self) -> bool:
        """Whether the next checkpoint starts a new graph base.

        True when no base on disk describes the attached graph, and once
        the log past the base outgrew the fraction of the base at which
        the in-memory snapshot lineage consolidates its own overlay
        (:data:`~repro.graph.delta.DEFAULT_OVERLAY_THRESHOLD`): the log
        is the on-disk base's overlay, and that bound keeps both the
        retained WAL and recovery's graph-only replay proportional to
        the base — also for the sharded tier, whose live view has no
        overlay to consolidate, and for a stream that keeps toggling the
        same few edges, whose overlay never grows while its log does.
        Evaluated at capture, after the join: the base is then on disk.
        """
        if self.base_version is None:
            return True
        base = self.graph_dir / graph_base_name(self.base_version)
        log_bytes = self.wal.bytes_after(self.base_version)
        return log_bytes > DEFAULT_OVERLAY_THRESHOLD * base.stat().st_size

    def invalidate_base(self) -> None:
        """Base + log on disk do not reproduce the attached graph.

        Called when a service attaches with a graph this directory never
        saw: the next checkpoint starts a new base.
        """
        self.base_version = None

    def log_vertices(self, version: int, vertices: Sequence[int]) -> None:
        """Record vertex ids the graph registered at ``version`` outside
        any batch (a never-seen id queried as a source has no WAL record).

        Not durable by itself — like the resident it was registered for,
        a registration survives a crash from the next checkpoint on.
        """
        self.registered.extend((version, int(v)) for v in vertices)

    def checkpoint(self, service: "PPRService") -> Path:
        """Capture a checkpoint now and hand it to the writer thread.

        Returns the path the checkpoint *will* have; it exists once
        :meth:`wait` returns. Only the capture, the WAL rotation and the
        thread start are paid here — :attr:`checkpoint_ms_last` is that
        stall. One checkpoint is in flight at a time: a previous one is
        joined first.
        """
        start = clock.now()
        self.wait()
        capture = capture_checkpoint(
            service, None if self.rebase_due else self.base_version, self.registered
        )
        if capture.graph is not None:
            self.base_version = capture.version
            self.registered.clear()  # the new base holds them
        # Closed before the writer starts: the writer only ever sees
        # closed segments, and the next append opens one named past them.
        self.wal.rotate()
        self._writer = threading.Thread(
            target=self._write,
            args=(capture, self.dirty, obs.current()),
            name=f"checkpoint-writer-v{capture.version}",
        )
        self._writer.start()
        self.checkpoint_ms_last = 1e3 * (clock.now() - start)
        return self.checkpoint_dir / checkpoint_name(capture.version)

    def wait(self) -> None:
        """Block until no checkpoint is in flight.

        Raises :class:`~repro.errors.StoreError`, once, if the
        checkpoint write failed: the store is fenced from then on, the
        previous checkpoint and the WAL remain the recovery path.
        """
        writer = self._writer
        if writer is not None:
            writer.join()
            if self._writer is writer:  # a drain may join beside the ack path
                self._writer = None
        error, self._writer_error = self._writer_error, None
        if error is not None:
            self.failed = True
            raise StoreError(
                f"checkpoint write failed, store at {self.root} is fenced: {error}"
            ) from error

    @property
    def checkpoint_in_flight(self) -> bool:
        writer = self._writer
        return writer is not None and writer.is_alive()

    # ------------------------------------------------------------------ #
    # the durability loop: writer thread
    # ------------------------------------------------------------------ #

    def _write(
        self, capture: CheckpointCapture, batches: int, ctx: obs.TraceContext | None
    ) -> None:
        """Persist one capture, then compact what it made redundant.

        Order matters for crash safety: the files are durably in place
        (atomic rename, then an fsync of their directory) *before* any
        WAL segment, graph base or older checkpoint is deleted, so every
        instant in time — power loss included — has a consistent
        recovery path. Nothing here touches the open WAL segment or any
        state the ack path mutates while a checkpoint is in flight.
        """
        start = clock.now()
        try:
            with obs.measured(
                "checkpoint.write", trace_id=ctx.trace_id if ctx else None
            ):
                chaos.check("checkpoint.write", version=capture.version)
                path = write_checkpoint(self.root, capture)
                chaos.check("checkpoint.compact", version=capture.version)
                self._compact(capture)
        except Exception as exc:  # surfaces, typed, at the next wait()
            self._writer_error = exc
            return
        duration = clock.now() - start
        obs.record_span(
            "checkpoint.write",
            start=start,
            duration=duration,
            ctx=ctx,
            observe=False,
            version=capture.version,
            rebase=capture.graph is not None,
        )
        self.checkpoint_version = capture.version
        self.graph_replay_batches = capture.version - capture.base_version
        self.dirty -= batches
        self.checkpoints_written += 1
        self.checkpoint_bytes_last = path.stat().st_size
        self.checkpoint_write_ms_last = 1e3 * duration

    def _compact(self, capture: CheckpointCapture) -> None:
        """Drop what no retained checkpoint can need any more."""
        checkpoints = list_checkpoints(self.checkpoint_dir)
        for stale in checkpoints[: -self.config.retain_checkpoints]:
            stale.unlink()
        # The older checkpoints still retained say which bases they name;
        # one that cannot (damaged, foreign format) restores nothing and
        # pins nothing.
        older = checkpoints[-self.config.retain_checkpoints : -1]
        named = {capture.base_version} | {
            base for base in map(checkpoint_base, older) if base is not None
        }
        for path in list_graph_bases(self.graph_dir):
            if graph_base_version(path) not in named:
                path.unlink()
        # A fallback to the oldest retained checkpoint replays the log
        # from *its* base forward, so that is how far back the log stays.
        self.wal.drop_segments_covered_by(min(named))

    def close(self) -> None:
        """Join the writer, close the log; a write failure nobody has
        seen yet is raised here rather than lost."""
        try:
            self.wait()
        finally:
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
                base_version=checkpoint_base(p),
            )
            for p in list_checkpoints(self.checkpoint_dir)
        )
        return StoreStatus(
            root=self.root,
            checkpoints=checkpoints,
            segments=tuple(self.wal.scan()),
            bases=tuple(
                graph_base_version(p) for p in list_graph_bases(self.graph_dir)
            ),
        )

    def __repr__(self) -> str:
        return (
            f"StateStore(root={str(self.root)!r},"
            f" interval={self.config.checkpoint_interval},"
            f" checkpoints_written={self.checkpoints_written})"
        )
