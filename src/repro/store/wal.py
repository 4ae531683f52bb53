"""Write-ahead log of ingested update batches.

The durability contract of the serving layer (``docs/persistence.md``):
every batch the service acknowledges is appended here first — after the
batch fully applies (a rejected batch must not poison the log) but
before the ingest returns or a checkpoint includes it — so any state a
crash destroys can be rebuilt as ``newest checkpoint + replay of the
WAL tail``.

Format — an append-only sequence of framed records per segment file::

    frame   := header payload
    header  := magic(4s = b"RWL2") seq(uint64) epoch(uint64)
               length(uint32) crc(uint32)
    payload := (m, 3) int64 rows of (u, v, op), little-endian

``seq`` is the graph version the batch produces (version after applying);
``epoch`` is the write-authority term the frame was produced under — the
cluster tier bumps it at every primary failover, and replicas reject
frames from a stale epoch so a zombie primary's late writes cannot land
(``docs/faults.md``). ``crc`` is CRC-32 over the packed ``seq`` and
``epoch`` plus the payload, so a frame whose length field survived but
whose body (or seq/epoch) was torn mid-write is rejected. Iteration
stops at the first torn or corrupt frame — everything before it is
intact by construction (frames are written with one buffered write and
one fsync each).

Segments are named ``wal-<first seq>.log``. The store rotates to a fresh
segment at every checkpoint, so a closed segment's seq range is in the
file names alone (its last seq is the next segment's first, minus one):
retention and replay skip whole segments without reading them. The log
is kept back to the oldest graph base a retained checkpoint names
(``docs/persistence.md``); the tail replayed *through ingest* stays
bounded by the checkpoint interval.
"""

from __future__ import annotations

import os
import struct
import zlib
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import chaos, obs
from ..errors import StoreError
from ..graph.update import EdgeOp, EdgeUpdate, as_batch

PathLike = str | os.PathLike

FRAME_MAGIC = b"RWL2"
_HEADER = struct.Struct("<4sQQII")  # magic, seq, epoch, payload length, crc32
_SEQ_EPOCH = struct.Struct("<QQ")

#: Upper bound on one frame's payload (64 MiB ≈ 2.8M updates) — a length
#: field beyond it is treated as tail corruption, not an allocation request.
MAX_PAYLOAD = 64 * 1024 * 1024

SEGMENT_PREFIX = "wal-"
SEGMENT_SUFFIX = ".log"


def encode_updates(updates: Sequence[EdgeUpdate] | np.ndarray) -> bytes:
    """Encode a batch as little-endian ``(m, 3)`` int64 rows of (u, v, op):
    the bytes of its :func:`~repro.graph.update.as_batch` array."""
    return as_batch(updates).astype("<i8", copy=False).tobytes()


_OPS = {int(op): op for op in EdgeOp}


def decode_updates(payload: bytes) -> list[EdgeUpdate]:
    """Decode :func:`encode_updates` output back into update objects."""
    if len(payload) % 24 != 0:
        raise StoreError(f"payload length {len(payload)} is not a row multiple")
    us, vs, ops = np.frombuffer(payload, dtype="<i8").reshape(-1, 3).T.tolist()
    try:
        return [EdgeUpdate(u, v, _OPS[op]) for u, v, op in zip(us, vs, ops)]
    except KeyError as exc:
        raise StoreError(f"invalid edge op {exc.args[0]} in WAL payload") from None


@dataclass(frozen=True)
class WalRecord:
    """One decoded WAL frame."""

    seq: int
    updates: tuple[EdgeUpdate, ...]
    #: Write-authority term the frame was produced under (0 until the
    #: cluster tier's first failover bumps it).
    epoch: int = 0


def pack_payload(seq: int, payload: bytes, *, epoch: int = 0) -> bytes:
    """Wrap an opaque payload in the CRC frame header (magic, seq, epoch).

    The generic half of the record codec: :func:`pack_record` is this
    applied to :func:`encode_updates` output, and the shard tier
    (:mod:`repro.shard`) reuses the same framing for frontier-exchange
    messages so a damaged cross-shard frame is rejected by the same CRC
    check that rejects a torn WAL tail.
    """
    if seq < 0:
        raise StoreError(f"seq must be >= 0, got {seq}")
    if epoch < 0:
        raise StoreError(f"epoch must be >= 0, got {epoch}")
    if len(payload) > MAX_PAYLOAD:
        raise StoreError(
            f"payload of {len(payload)} bytes exceeds frame bound {MAX_PAYLOAD}"
        )
    crc = zlib.crc32(_SEQ_EPOCH.pack(seq, epoch) + payload)
    return _HEADER.pack(FRAME_MAGIC, seq, epoch, len(payload), crc) + payload


def unpack_payload(frame: bytes) -> tuple[int, int, bytes]:
    """Verify one :func:`pack_payload` frame; returns ``(seq, epoch, payload)``.

    Raises :class:`~repro.errors.StoreError` on bad magic, length
    mismatch, or CRC mismatch — a receiver must not act on a frame the
    channel damaged.
    """
    if len(frame) < _HEADER.size:
        raise StoreError(f"short frame: {len(frame)} bytes")
    magic, seq, epoch, length, crc = _HEADER.unpack_from(frame, 0)
    if magic != FRAME_MAGIC:
        raise StoreError(f"bad frame magic: {magic!r}")
    if length > MAX_PAYLOAD or _HEADER.size + length != len(frame):
        raise StoreError(
            f"frame length mismatch: header says {length}, frame has"
            f" {len(frame) - _HEADER.size} payload bytes"
        )
    payload = frame[_HEADER.size :]
    if zlib.crc32(_SEQ_EPOCH.pack(seq, epoch) + payload) != crc:
        raise StoreError(f"frame CRC mismatch at seq {seq}")
    return seq, epoch, payload


def pack_record(
    seq: int, updates: Sequence[EdgeUpdate] | np.ndarray, *, epoch: int = 0
) -> bytes:
    """One complete CRC-framed record (header + payload) as bytes.

    The frame the WAL appends to its segments — and, reused verbatim,
    the wire format the cluster tier (:mod:`repro.cluster`) ships write
    deltas in: one durability codec, one replication codec. ``epoch`` is
    the writer's authority term; it is covered by the CRC and enforced
    by replicas (a frame from a fenced epoch is rejected, not applied).
    """
    return pack_payload(seq, encode_updates(updates), epoch=epoch)


def unpack_record(frame: bytes) -> WalRecord:
    """Decode and verify one :func:`pack_record` frame.

    Raises :class:`~repro.errors.StoreError` on bad magic, length
    mismatch, CRC mismatch, or a malformed payload — a replica must not
    apply a delta the channel damaged.
    """
    seq, epoch, payload = unpack_payload(frame)
    return WalRecord(seq=seq, updates=tuple(decode_updates(payload)), epoch=epoch)


@dataclass(frozen=True)
class SegmentScan:
    """Result of scanning one segment file."""

    path: Path
    records: tuple[WalRecord, ...]
    #: File offset just past the last intact frame.
    valid_bytes: int
    #: Whether the file ends exactly at the last intact frame.
    clean: bool

    @property
    def torn_bytes(self) -> int:
        return self.path.stat().st_size - self.valid_bytes


def _intact_frames(data: bytes) -> Iterator[tuple[int, int, bytes, int]]:
    """``(seq, epoch, payload, end offset)`` of each intact leading frame.

    A short header, short payload, bad magic, oversized length, CRC
    mismatch or malformed payload all end the walk — frames after the
    first damage are unreachable anyway (framing is lost). The payload
    is checked (whole rows, every op an insert or a delete) but not
    decoded: finding where a segment's intact prefix ends costs no
    Python object per update.
    """
    offset = 0
    while True:
        header_end = offset + _HEADER.size
        if header_end > len(data):
            return
        magic, seq, epoch, length, crc = _HEADER.unpack_from(data, offset)
        if magic != FRAME_MAGIC or length > MAX_PAYLOAD or length % 24:
            return
        offset = header_end + length
        if offset > len(data):
            return
        payload = data[header_end:offset]
        if zlib.crc32(_SEQ_EPOCH.pack(seq, epoch) + payload) != crc:
            return
        if (np.abs(np.frombuffer(payload, dtype="<i8")[2::3]) != 1).any():
            return
        yield seq, epoch, payload, offset


def scan_segment(path: PathLike) -> SegmentScan:
    """Read every intact frame of a segment, stopping at a torn tail."""
    path = Path(path)
    data = path.read_bytes()
    records = []
    valid_bytes = 0
    for seq, epoch, payload, valid_bytes in _intact_frames(data):
        records.append(WalRecord(seq, tuple(decode_updates(payload)), epoch))
    return SegmentScan(
        path=path,
        records=tuple(records),
        valid_bytes=valid_bytes,
        clean=valid_bytes == len(data),
    )


def segment_first_seq(path: PathLike) -> int:
    """The seq of a segment's first record, read off its file name."""
    return int(Path(path).name[len(SEGMENT_PREFIX) : -len(SEGMENT_SUFFIX)])


def truncate_torn_tail(path: PathLike) -> int:
    """Truncate a segment at its last intact frame; return bytes dropped."""
    data = Path(path).read_bytes()
    valid_bytes = 0
    for _, _, _, valid_bytes in _intact_frames(data):
        pass
    if valid_bytes < len(data):
        with open(path, "r+b") as fh:
            fh.truncate(valid_bytes)
    return len(data) - valid_bytes


class WriteAheadLog:
    """Append-only, segmented, CRC-framed log of update batches.

    Parameters
    ----------
    directory:
        Segment directory (created if missing).
    """

    def __init__(self, directory: PathLike) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._fh = None  # current segment file handle
        self._current: Path | None = None
        #: Last seq appended through this handle (None on a fresh one).
        self._last_seq: int | None = None

    # ------------------------------------------------------------------ #
    # writing
    # ------------------------------------------------------------------ #

    def append(
        self, seq: int, updates: Sequence[EdgeUpdate] | np.ndarray, *, epoch: int = 0
    ) -> Path:
        """Append one batch frame; returns the segment it landed in.

        The first append after construction or :meth:`rotate` opens a new
        segment named after ``seq``. The frame is written with a single
        buffered write + flush + fsync, so a crash can tear at most the
        frame being written.

        An I/O failure mid-append (most plausibly the fsync — the chaos
        site ``wal.fsync`` injects exactly that) rolls the frame back:
        the segment is truncated to its pre-append length before the
        typed :class:`~repro.errors.StoreError` is raised, so the
        on-disk log holds *acknowledged batches only* and the next
        append cannot leave a half-durable frame between two good ones.
        """
        frame = pack_record(seq, updates, epoch=epoch)
        if self._fh is None:
            self._current = self.directory / (
                f"{SEGMENT_PREFIX}{seq:016d}{SEGMENT_SUFFIX}"
            )
            if self._current.exists():
                # A leftover from a crash mid-write of this segment's first
                # frame (recovery truncates the torn frame, leaving the
                # file). Appending is safe iff every surviving record
                # predates ``seq``; anything else would shadow live history.
                leftover = scan_segment(self._current)
                if not leftover.clean or (
                    leftover.records and leftover.records[-1].seq >= seq
                ):
                    raise StoreError(
                        f"segment already exists with live records: {self._current}"
                    )
            self._fh = open(self._current, "ab")
        offset = self._fh.tell()
        with obs.span("wal.append", seq=seq, bytes=len(frame)):
            try:
                self._fh.write(frame)
                self._fh.flush()
                chaos.check("wal.fsync", seq=seq)
                os.fsync(self._fh.fileno())
            except OSError as exc:
                self._rollback(offset)
                raise StoreError(
                    f"wal append failed at seq {seq} (frame rolled back): {exc}"
                ) from exc
        self._last_seq = seq
        return self._current

    def _rollback(self, offset: int) -> None:
        """Truncate the open segment back to ``offset`` after a failed write."""
        try:
            self._fh.truncate(offset)
            self._fh.seek(offset)
        except OSError:  # pragma: no cover - disk gone entirely
            pass

    def rotate(self) -> None:
        """Close the current segment; the next append starts a fresh one."""
        self._close_segment()

    def close(self) -> None:
        self._close_segment()

    def _close_segment(self) -> None:
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()
            self._fh = None
            self._current = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # reading / maintenance
    # ------------------------------------------------------------------ #

    def segments(self) -> list[Path]:
        """Segment files in seq order (oldest first)."""
        return sorted(
            p
            for p in self.directory.glob(f"{SEGMENT_PREFIX}*{SEGMENT_SUFFIX}")
            if p.is_file()
        )

    def bytes_after(self, version: int) -> int:
        """Bytes held by the segments that start past ``version``.

        By file name and size, nothing read: how much log a recovery
        from a graph base at ``version`` would have to apply.
        """
        return sum(
            path.stat().st_size
            for path in self.segments()
            if segment_first_seq(path) > version
        )

    def scan(self) -> list[SegmentScan]:
        """Scan every segment (oldest first), tolerating torn tails."""
        return [scan_segment(p) for p in self.segments()]

    def iter_records(self, after_seq: int = -1) -> Iterator[WalRecord]:
        """Intact records with ``seq > after_seq``, in seq order.

        Raises :class:`StoreError` on a seq gap or regression between
        consecutive yielded records — a hole in the replay history is not
        recoverable and must not be silently skipped. An epoch regression
        (a later record stamped with an *older* write-authority term) is
        rejected the same way: it means a fenced writer's frame landed
        after the failover that fenced it, which replay must not honour.
        """
        expected = None
        epoch = None
        segments = self.segments()
        for path, successor in zip(segments, segments[1:] + [None]):
            if successor is not None and segment_first_seq(successor) <= after_seq + 1:
                continue  # every record of this segment is <= after_seq
            scan = scan_segment(path)
            for record in scan.records:
                if record.seq <= after_seq:
                    continue
                if expected is not None and record.seq != expected:
                    raise StoreError(
                        f"WAL sequence gap: expected {expected}, got {record.seq}"
                        f" in {scan.path.name}"
                    )
                if epoch is not None and record.epoch < epoch:
                    raise StoreError(
                        f"WAL epoch regression: {epoch} -> {record.epoch} at seq"
                        f" {record.seq} in {scan.path.name}"
                    )
                expected = record.seq + 1
                epoch = record.epoch
                yield record

    def truncate_torn_tails(self) -> int:
        """Truncate damage in every segment; returns total bytes dropped."""
        return sum(truncate_torn_tail(p) for p in self.segments())

    def drop_segments_covered_by(self, version: int) -> list[Path]:
        """Delete closed segments whose every record has ``seq <= version``.

        Called once nothing a recovery could start from needs those
        batches any more. Decided by file name alone — a segment ends
        where its successor begins — so the cost is O(#segments) however
        long the retained log is, and no payload is read. The newest
        segment has no successor to bound it: it ends at the last seq
        this handle appended once :meth:`rotate` has closed it, and is
        kept while it is open or (on a handle that appended nothing)
        while its end is unknown.
        """
        dropped = []
        segments = self.segments()
        ends = [segment_first_seq(successor) - 1 for successor in segments[1:]]
        if self._fh is None and self._last_seq is not None:
            ends.append(self._last_seq)
        for path, end in zip(segments, ends):
            if end <= version:
                path.unlink()
                dropped.append(path)
        return dropped

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog(dir={str(self.directory)!r},"
            f" segments={len(self.segments())})"
        )
