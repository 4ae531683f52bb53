"""Zero-copy snapshot sharing via POSIX shared memory.

Replica and shard bootstrap used to ship whole order-exact graph dumps
(and CSR arrays) through ``multiprocessing`` pipes — O(m) pickling per
worker, paid again on every respawn. This module moves those arrays into
named ``multiprocessing.shared_memory`` segments so workers *attach by
name* instead: the coordinator publishes one versioned
segment per graph version (:class:`SnapshotPublisher`) and hands workers
a tiny picklable descriptor (:func:`SharedArrayBundle.descriptor`);
:func:`SharedArrayBundle.attach` maps it back into numpy views without
copying a byte.

Lifecycle and crash safety
--------------------------
* The **creator** keeps the segment registered with the stdlib resource
  tracker, so even a SIGKILLed coordinator gets its segments unlinked at
  tracker shutdown.
* **Attachers** are always child processes of the creator here, so they
  share the creator's tracker (the fd is inherited) — their implicit
  attach-time registration dedups against the creator's entry and must
  *not* be unregistered, or the creator's SIGKILL backstop (and its own
  clean unlink) would be lost with it.
* Segment names embed the creator pid; :func:`sweep_stale` unlinks any
  ``repro-shm-*`` segment whose creator is gone — the test suite runs it
  at session teardown, and it is safe to run any time (attached readers
  keep their mappings after an unlink; POSIX semantics).
* :class:`SnapshotPublisher` unlinks a superseded version at publish
  time — a worker's spawn returns only after its ``HELLO``, under the
  same gateway lock that publishes, so no reader is ever mid-bootstrap
  then; the current version always stays mapped.
"""

from __future__ import annotations

import os
import secrets
import threading
from multiprocessing import shared_memory
from pathlib import Path
from typing import Any

import numpy as np

from ..errors import GraphError

#: Every segment this library creates is named ``repro-shm-<pid>-<tag>-<token>``.
SEGMENT_PREFIX = "repro-shm"

_ALIGN = 8


def _aligned(n: int) -> int:
    return (n + _ALIGN - 1) & ~(_ALIGN - 1)


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other-user process
        return True
    return True


class SharedArrayBundle:
    """A group of named numpy arrays packed into one shared segment.

    Create on the owner side with :meth:`create`; ship
    :attr:`descriptor` (a small picklable dict) to workers; map it back
    with :meth:`attach`. Attached views are read-only — snapshots are
    immutable by contract, and a worker scribbling on a shared CSR would
    corrupt every process at once.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        layout: dict[str, tuple[str, tuple[int, ...], int]],
        meta: dict[str, Any],
        *,
        owner: bool,
    ) -> None:
        self._shm = shm
        self._layout = layout
        self._meta = dict(meta)
        self._owner = owner
        self._unlinked = False

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def create(
        cls,
        arrays: dict[str, np.ndarray],
        *,
        tag: str = "snap",
        meta: dict[str, Any] | None = None,
    ) -> "SharedArrayBundle":
        """Copy ``arrays`` into a fresh named segment (the only copy ever).

        Raises :class:`~repro.errors.GraphError` naming the requested
        size when the host cannot provide the segment (no ``/dev/shm``,
        ``ENOSPC``); a failed copy unlinks the segment before re-raising.
        """
        packed = {k: np.ascontiguousarray(v) for k, v in arrays.items()}
        layout: dict[str, tuple[str, tuple[int, ...], int]] = {}
        offset = 0
        for key, arr in packed.items():
            layout[key] = (str(arr.dtype), tuple(arr.shape), offset)
            offset = _aligned(offset + arr.nbytes)
        size = max(offset, 1)
        shm = None
        for _ in range(16):
            name = f"{SEGMENT_PREFIX}-{os.getpid()}-{tag}-{secrets.token_hex(4)}"
            try:
                shm = shared_memory.SharedMemory(create=True, size=size, name=name)
                break
            except FileExistsError:  # pragma: no cover - token collision
                continue
            except OSError as exc:  # no /dev/shm, ENOSPC, RLIMIT
                raise GraphError(
                    f"cannot allocate a {size:,}-byte shared-memory segment"
                    f" for {tag!r}: {exc}"
                ) from exc
        if shm is None:  # pragma: no cover - 16 collisions in a row
            raise GraphError("could not allocate a unique shared-memory name")
        try:
            for key, arr in packed.items():
                _, shape, off = layout[key]
                # No named view: nothing may export shm.buf past this call,
                # or the close() below (and in the caller) would refuse.
                np.copyto(
                    np.ndarray(shape, dtype=arr.dtype, buffer=shm.buf, offset=off),
                    arr,
                )
        except BaseException:
            # Nobody holds the name yet: a segment left behind here would
            # outlive the process.
            shm.unlink()
            shm.close()
            raise
        return cls(shm, layout, meta or {}, owner=True)

    @classmethod
    def attach(cls, descriptor: dict[str, Any]) -> "SharedArrayBundle":
        """Map a published bundle by name (zero-copy; read-only views).

        Attach-time tracker registration (Python < 3.13 registers every
        attach) is deliberately left in place: workers inherit the
        creator's tracker, so the entry dedups and unregistering it here
        would strip the creator's crash-cleanup registration.
        """
        shm = shared_memory.SharedMemory(name=descriptor["segment"])
        layout = {
            key: (dtype, tuple(shape), offset)
            for key, (dtype, shape, offset) in descriptor["layout"].items()
        }
        return cls(shm, layout, descriptor.get("meta", {}), owner=False)

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def meta(self) -> dict[str, Any]:
        return dict(self._meta)

    @property
    def descriptor(self) -> dict[str, Any]:
        """The picklable attach recipe (segment name + array layout)."""
        return {
            "segment": self._shm.name,
            "layout": {
                key: (dtype, list(shape), offset)
                for key, (dtype, shape, offset) in self._layout.items()
            },
            "meta": dict(self._meta),
        }

    def arrays(self) -> dict[str, np.ndarray]:
        """Numpy views over the segment (no copy; writes are rejected)."""
        out: dict[str, np.ndarray] = {}
        for key, (dtype, shape, offset) in self._layout.items():
            view = np.ndarray(
                shape, dtype=np.dtype(dtype), buffer=self._shm.buf, offset=offset
            )
            view.flags.writeable = False
            out[key] = view
        return out

    def nbytes(self) -> int:
        return self._shm.size

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Drop this process's mapping (call after all views are released)."""
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - views still alive
            pass

    def unlink(self) -> None:
        """Remove the segment name (owner only; mapped readers survive)."""
        if not self._owner or self._unlinked:
            return
        self._unlinked = True
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already swept
            pass

    def __enter__(self) -> "SharedArrayBundle":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        kind = "owner" if self._owner else "attached"
        return (
            f"SharedArrayBundle({self._shm.name}, {kind},"
            f" {len(self._layout)} arrays, {self._shm.size} bytes)"
        )


class SnapshotPublisher:
    """Versioned shared-memory snapshots (creator side).

    One bundle per published graph version: publishing a new version
    unlinks the one it supersedes; the current version stays available
    for respawns until it is superseded or the publisher closes.
    """

    def __init__(self, tag: str = "snap") -> None:
        self._tag = tag
        self._bundles: dict[int, SharedArrayBundle] = {}
        self._current: int | None = None
        self._lock = threading.Lock()

    @property
    def current_version(self) -> int | None:
        return self._current

    def versions(self) -> list[int]:
        with self._lock:
            return sorted(self._bundles)

    def publish(
        self,
        version: int,
        arrays: dict[str, np.ndarray],
        *,
        meta: dict[str, Any] | None = None,
    ) -> dict[str, Any]:
        """Publish ``arrays`` as ``version``; supersedes the previous one.

        Idempotent per version (re-publishing returns the existing
        descriptor without copying again).
        """
        with self._lock:
            bundle = self._bundles.get(version)
            if bundle is None:
                payload = dict(meta or {})
                payload.setdefault("version", version)
                bundle = SharedArrayBundle.create(
                    arrays, tag=f"{self._tag}-v{version}", meta=payload
                )
                self._bundles[version] = bundle
                superseded = self._bundles.pop(self._current, None)
                self._current = version
                if superseded is not None:
                    superseded.unlink()
                    superseded.close()
            return bundle.descriptor

    def descriptor(self, version: int | None = None) -> dict[str, Any]:
        with self._lock:
            v = self._current if version is None else version
            if v is None or v not in self._bundles:
                raise GraphError(f"no published snapshot for version {version!r}")
            return self._bundles[v].descriptor

    def close(self) -> None:
        """Unlink every published version (readers keep their mappings)."""
        with self._lock:
            for bundle in self._bundles.values():
                bundle.unlink()
                bundle.close()
            self._bundles.clear()
            self._current = None

    def __enter__(self) -> "SnapshotPublisher":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def sweep_stale(*, include_alive: bool = False) -> list[str]:
    """Unlink ``repro-shm-*`` segments whose creator process is gone.

    The backstop for SIGKILLed coordinators/workers mid-bootstrap (the
    resource tracker catches most of these; a tracker killed alongside
    its process cannot). Safe to run concurrently with live clusters:
    segments of living creators are skipped unless ``include_alive``.
    Returns the names removed. No-op on hosts without ``/dev/shm``.
    """
    removed: list[str] = []
    root = Path("/dev/shm")
    if not root.is_dir():  # pragma: no cover - non-POSIX-shm host
        return removed
    for path in root.glob(f"{SEGMENT_PREFIX}-*"):
        parts = path.name.split("-")
        pid = int(parts[2]) if len(parts) > 2 and parts[2].isdigit() else None
        if pid is not None and _pid_alive(pid) and not include_alive:
            continue
        try:
            path.unlink()
        except FileNotFoundError:  # pragma: no cover - concurrent sweep
            continue
        except OSError:  # pragma: no cover - permissions
            continue
        removed.append(path.name)
    return removed
