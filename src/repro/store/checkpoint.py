"""Versioned binary checkpoints of a running :class:`~repro.serve.PPRService`.

What the serving layer maintains at a graph version is persisted as an
immutable **graph base** plus **state checkpoints** that sit on it — the
write-ahead log already *is* the graph's delta, so the graph is written
once per base and rebuilt from the log, not re-dumped every interval:

* ``graph/graph-<base version>.npz`` — the dynamic graph, serialized
  *order-exactly* (:meth:`~repro.graph.digraph.DynamicDiGraph.to_arrays`)
  so rebuilt CSR snapshots — and therefore float summation order inside
  the vectorized push — are bit-identical. Recovery applies the WAL
  records ``(base, checkpoint]`` to it through ``graph.apply`` in log
  order, which reproduces the adjacency-dict iteration order of the
  uninterrupted run by the same argument WAL-tail replay relies on.
* ``checkpoints/checkpoint-<version>.npz`` — what a checkpoint costs
  every interval, independent of the edge count:

  - every resident :class:`~repro.core.state.PPRState` with its
    bookkeeping (convergence version, staleness counter, query count)
    in LRU→MRU order, the vectors sparse and bit-exact
    (:func:`~repro.core.state.encode_states`: a checkpoint costs what is
    non-zero, not ``capacity × residents``);
  - the hub index vectors
    (:meth:`~repro.core.hub_index.DynamicHubIndex.to_arrays`, same
    vector codec);
  - serve metadata: graph version, the **base version** the checkpoint
    sits on, ingest counters, and a fingerprint of the
    :class:`~repro.config.PPRConfig`/:class:`~repro.config.ServeConfig`
    pair (recovery refuses to resume under a different configuration —
    ε or α drift would silently break the freshness contract).

Both kinds are uncompressed ``.npz`` (numpy's zip container, members
stored, each CRC-checked on read), written atomically (tmp file + fsync
+ rename + directory fsync), so a crash mid-write leaves the previous
files untouched and at most a ``.tmp`` behind, which the next
:class:`~repro.store.store.StateStore` on the directory sweeps
(:func:`sweep_stale_tmp`).

Writing is split in two so the ingest ack path pays only for the first:
:func:`capture_checkpoint` copies what the files will hold out of the
live service (fresh arrays that alias nothing live), and
:func:`write_checkpoint` turns a capture into durable files — on the
store's writer thread.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .. import chaos
from ..config import Backend, PPRConfig, PushVariant, ServeConfig
from ..core.hub_index import DynamicHubIndex
from ..core.state import decode_states, encode_states
from ..errors import StoreError
from ..graph.digraph import DynamicDiGraph
from ..serve.cache import ResidentSource
from ..serve.service import PPRService

PathLike = str | os.PathLike

#: Bumped when the npz layout changes incompatibly.
#: 2: serve-config fingerprint covers snapshot/hub-refresh knobs;
#:    deferred lazy hub-refresh seeds (``hubs_pending``) serialized.
#: 3: resident and hub vectors sparse (indices + values of the non-zero
#:    bit patterns, per-vector counts); container no longer deflated.
#: 4: serve-config block lost the snapshot-strategy/threshold keys (one
#:    snapshot lineage; ``ServeConfig`` no longer has the fields).
#: 5: the graph moved out into its own ``graph-<base>.npz``; a checkpoint
#:    names the base it sits on (``base_version``) instead of embedding
#:    the ``graph_*`` arrays. Pending seed sets stored once per distinct
#:    set (``pending_ref`` maps residents to them).
#: 6: serve-config block lost ``refresh``/``hub_refresh`` and the
#:    ``hubs_pending`` member is gone (resident refresh is always lazy,
#:    hub re-convergence always at ingest).
#: 7: ``pending_ref``/``pending_lengths``/``pending`` are gone (a lazy
#:    refresh scans the residual vector for its frontier).
#: 8: serve-config block lost the cold-admission batch size (a cold
#:    source is pushed when it is asked for; ``ServeConfig`` has no
#:    such field).
CHECKPOINT_FORMAT = 8

#: Subdirectories of a store root.
CHECKPOINT_DIR = "checkpoints"
GRAPH_DIR = "graph"

_NAME_RE = re.compile(r"^checkpoint-(\d{12})\.npz$")
_BASE_RE = re.compile(r"^graph-(\d{12})\.npz$")
_TMP_SUFFIX = ".tmp"


def checkpoint_name(version: int) -> str:
    return f"checkpoint-{version:012d}.npz"


def checkpoint_version(path: PathLike) -> int | None:
    """Graph version encoded in a checkpoint filename (None if not one)."""
    match = _NAME_RE.match(Path(path).name)
    return int(match.group(1)) if match else None


def graph_base_name(version: int) -> str:
    return f"graph-{version:012d}.npz"


def graph_base_version(path: PathLike) -> int | None:
    """Graph version encoded in a graph-base filename (None if not one)."""
    match = _BASE_RE.match(Path(path).name)
    return int(match.group(1)) if match else None


def graph_base_path(checkpoint_path: PathLike, base_version: int) -> Path:
    """Where the base a checkpoint names lives: the sibling ``graph/``."""
    graph_dir = Path(checkpoint_path).parent.parent / GRAPH_DIR
    return graph_dir / graph_base_name(base_version)


# ---------------------------------------------------------------------- #
# config (de)serialization + fingerprint
# ---------------------------------------------------------------------- #


def _ppr_config_json(config: PPRConfig) -> str:
    return json.dumps(
        {
            "alpha": config.alpha,
            "epsilon": config.epsilon,
            "variant": config.variant.value,
            "backend": config.backend.value,
            "workers": config.workers,
            "max_iterations": config.max_iterations,
        },
        sort_keys=True,
    )


def _serve_config_json(serve: ServeConfig) -> str:
    # The store config itself is deliberately not nested: a store can be
    # moved/retuned without invalidating its own checkpoints.
    return json.dumps(
        {
            "cache_capacity": serve.cache_capacity,
            "num_hubs": serve.num_hubs,
            "top_k": serve.top_k,
        },
        sort_keys=True,
    )


def _parse_ppr_config(payload: str) -> PPRConfig:
    data = json.loads(payload)
    data["variant"] = PushVariant(data["variant"])
    data["backend"] = Backend(data["backend"])
    return PPRConfig(**data)


def _parse_serve_config(payload: str) -> ServeConfig:
    return ServeConfig(**json.loads(payload))


def config_fingerprint(config: PPRConfig, serve: ServeConfig) -> str:
    """Stable digest of the configuration a checkpoint was taken under."""
    blob = (_ppr_config_json(config) + _serve_config_json(serve)).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------- #
# writing
# ---------------------------------------------------------------------- #


@dataclass
class CheckpointCapture:
    """Everything one checkpoint will write, detached from the live service."""

    version: int
    #: The graph base this checkpoint sits on (``version`` itself when
    #: the capture starts a new base).
    base_version: int
    #: Members of the state-checkpoint file.
    arrays: dict[str, np.ndarray]
    #: ``graph.to_arrays()`` when this capture starts a new base, else
    #: ``None`` — the base on disk plus the log already describe the graph.
    graph: dict[str, np.ndarray] | None


def capture_checkpoint(
    service: PPRService,
    base_version: int | None,
    registered: Sequence[tuple[int, int]] = (),
) -> CheckpointCapture:
    """Copy out what a checkpoint of ``service`` holds, at its version.

    The ack-path half of a checkpoint: O(resident nnz), plus one
    order-exact graph dump only when ``base_version`` is ``None`` (the
    capture then starts a new base at the current version). Every array
    is freshly built, so the service may keep mutating while
    :func:`write_checkpoint` persists the capture on another thread.

    ``registered`` lists the ``(graph version, vertex id)`` registrations
    the graph took since the base outside the log (a never-seen id
    queried as a source): the one graph mutation base + WAL cannot
    reproduce, so a checkpoint that sits on an older base carries it.
    """
    version = service.graph_version
    graph = None
    if base_version is None:  # a new base: its dump holds every registration
        graph, base_version, registered = service.graph.to_arrays(), version, ()
    metrics = service.metrics()
    arrays: dict[str, np.ndarray] = {
        "format": np.int64(CHECKPOINT_FORMAT),
        "graph_version": np.int64(version),
        "base_version": np.int64(base_version),
        "registered": np.array(registered, dtype=np.int64).reshape(-1, 2),
        "updates_ingested": np.int64(metrics.updates_ingested),
        "batches_ingested": np.int64(metrics.batches_ingested),
        "ppr_config": np.str_(_ppr_config_json(service.config)),
        "serve_config": np.str_(_serve_config_json(service.serve)),
        "fingerprint": np.str_(config_fingerprint(service.config, service.serve)),
    }

    residents = service.cache.entries()  # LRU -> MRU
    arrays["sources"] = np.array([e.source for e in residents], dtype=np.int64)
    arrays["resident_meta"] = np.array(
        [(e.version, e.updates_reflected, e.queries) for e in residents],
        dtype=np.int64,
    ).reshape(-1, 3)
    for key, value in encode_states([e.state for e in residents]).items():
        arrays[f"resident_{key}"] = value

    arrays["has_hubs"] = np.int64(service.hub_index is not None)
    if service.hub_index is not None:
        for key, value in service.hub_index.to_arrays().items():
            arrays[f"hub_{key}"] = value
    return CheckpointCapture(
        version=version, base_version=base_version, arrays=arrays, graph=graph
    )


def write_checkpoint(root: PathLike, capture: CheckpointCapture) -> Path:
    """Make ``capture`` durable under the store root; returns the checkpoint.

    A capture that starts a new base writes ``graph/graph-<version>.npz``
    *first*: the checkpoint that names a base must never be durable
    before the base is. Each file is written atomically.
    """
    root = Path(root)
    if capture.graph is not None:
        members: dict[str, np.ndarray] = {
            "format": np.int64(CHECKPOINT_FORMAT),
            "graph_version": np.int64(capture.version),
        }
        for key, value in capture.graph.items():
            members[f"graph_{key}"] = value
        _write_npz(root / GRAPH_DIR / graph_base_name(capture.version), members)
    return _write_npz(
        root / CHECKPOINT_DIR / checkpoint_name(capture.version), capture.arrays
    )


def _write_npz(final: Path, arrays: dict[str, np.ndarray]) -> Path:
    """Atomic ``.npz``: tmp file fully written and fsynced, then renamed."""
    final.parent.mkdir(parents=True, exist_ok=True)
    tmp = final.with_name(final.name + _TMP_SUFFIX)
    with open(tmp, "wb") as fh:
        np.savez(fh, **arrays)
        fh.flush()
        os.fsync(fh.fileno())
    # The crash-during-checkpoint window: the tmp file is durable but the
    # atomic rename has not happened. A CRASH fault here leaves the .tmp
    # behind and the previous files authoritative — exactly what recovery
    # must tolerate (tests/test_store.py exercises this site, for the
    # graph base of a rebase and for the checkpoint itself).
    chaos.check("checkpoint.rename", file=final.name)
    os.replace(tmp, final)
    # Make the rename itself durable before the caller unlinks the WAL
    # segments this checkpoint covers: without it a power loss can keep
    # the unlinks in wal/ and lose the new name in checkpoints/.
    fsync_directory(final.parent)
    return final


def fsync_directory(directory: PathLike) -> None:
    """Flush a directory's entries (renames, creations) to stable storage."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def sweep_stale_tmp(directory: PathLike) -> None:
    """Delete the ``*.npz.tmp`` files a crash before the rename left.

    Called on ``checkpoints/`` and ``graph/`` when a store is opened: a
    store directory has one writer, so any tmp present then belongs to a
    dead one.
    """
    for path in Path(directory).glob("*.npz" + _TMP_SUFFIX):
        path.unlink()


# ---------------------------------------------------------------------- #
# reading
# ---------------------------------------------------------------------- #


@dataclass
class Checkpoint:
    """One decoded checkpoint, ready to restore a service from."""

    path: Path
    version: int
    updates_ingested: int
    batches_ingested: int
    config: PPRConfig
    serve: ServeConfig
    fingerprint: str
    #: The graph base this checkpoint sits on (``<= version``).
    base_version: int
    #: ``(graph version, vertex id)`` registrations made outside the log
    #: between the base and this checkpoint, in order.
    registered: list[tuple[int, int]]
    #: The graph **at ``base_version``**: a :class:`DynamicDiGraph`, or
    #: whatever ``decode_graph`` built (the sharded tier persists
    #: :class:`~repro.shard.graph.ShardGraph` slices). Recovery advances
    #: it to ``version`` by applying the WAL records in between.
    graph: Any
    residents: list[ResidentSource]
    hub_arrays: dict[str, np.ndarray] | None

    @property
    def num_hubs(self) -> int:
        return len(self.hub_arrays["hubs"]) if self.hub_arrays else 0


def _prefixed(arrays: dict[str, np.ndarray], prefix: str) -> dict[str, np.ndarray]:
    return {
        key[len(prefix) :]: value
        for key, value in arrays.items()
        if key.startswith(prefix)
    }


def _load_npz(path: Path) -> dict[str, np.ndarray]:
    """Every member of one store file, its format checked."""
    if not path.exists():
        raise StoreError(f"checkpoint not found: {path}")
    try:
        with np.load(path, allow_pickle=False) as data:
            arrays = {key: data[key] for key in data.files}
        fmt = int(arrays["format"])
    except Exception as exc:  # zip/CRC/format damage
        raise StoreError(f"unreadable checkpoint {path.name}: {exc}") from exc
    if fmt != CHECKPOINT_FORMAT:
        raise StoreError(
            f"{path.name}: unsupported checkpoint format {fmt}"
            f" (this build reads {CHECKPOINT_FORMAT})"
        )
    return arrays


def read_checkpoint(
    path: PathLike,
    *,
    decode_graph: Callable[[dict[str, np.ndarray]], Any] = DynamicDiGraph.from_arrays,
) -> Checkpoint:
    """Load and validate one checkpoint file and the graph base it names.

    ``decode_graph`` rebuilds the graph from the base's ``graph_*`` arrays
    (prefix stripped); the writer is generic over
    ``service.graph.to_arrays()``, so the sharded tier passes its own
    decoder. The returned graph is at :attr:`Checkpoint.base_version`.

    Raises :class:`StoreError` on any structural problem — unreadable
    container, unknown format, missing keys, a fingerprint that does not
    match the embedded configuration (bit rot in the config strings), or
    a base that is missing or damaged (a checkpoint without its base
    restores nothing, so :func:`latest_checkpoint` falls back past it).
    """
    path = Path(path)
    arrays = _load_npz(path)
    try:
        config = _parse_ppr_config(str(arrays["ppr_config"]))
        serve = _parse_serve_config(str(arrays["serve_config"]))
        fingerprint = str(arrays["fingerprint"])
        if fingerprint != config_fingerprint(config, serve):
            raise StoreError(f"{path.name}: configuration fingerprint mismatch")
        states = decode_states(
            arrays["sources"].tolist(), _prefixed(arrays, "resident_")
        )
        residents = [
            ResidentSource(
                state=state,
                version=converged,
                updates_reflected=reflected,
                queries=queries,
            )
            for state, (converged, reflected, queries) in zip(
                states, arrays["resident_meta"].tolist(), strict=True
            )
        ]
        version = int(arrays["graph_version"])
        base_version = int(arrays["base_version"])
        if not 0 <= base_version <= version:
            raise ValueError(f"base v{base_version} is not at or before v{version}")
        base = _load_npz(graph_base_path(path, base_version))
        if int(base["graph_version"]) != base_version:
            raise ValueError(f"graph base is not at v{base_version}")
        return Checkpoint(
            path=path,
            version=version,
            updates_ingested=int(arrays["updates_ingested"]),
            batches_ingested=int(arrays["batches_ingested"]),
            config=config,
            serve=serve,
            fingerprint=fingerprint,
            base_version=base_version,
            registered=[(v, u) for v, u in arrays["registered"].tolist()],
            graph=decode_graph(_prefixed(base, "graph_")),
            residents=residents,
            hub_arrays=(_prefixed(arrays, "hub_") if int(arrays["has_hubs"]) else None),
        )
    except StoreError:
        raise
    except Exception as exc:  # missing keys, shape mismatches, bad enums
        raise StoreError(f"corrupt checkpoint {path.name}: {exc}") from exc


def checkpoint_summary(path: PathLike) -> dict[str, float]:
    """``format`` plus, when readable, ``base``, vector ``nnz`` and ``density``.

    For ``repro store-inspect`` and the store's own retention (``base``
    is the graph base the checkpoint names): reads only the scalar and
    count arrays, decodes nothing, and reports the format of files this
    build cannot restore.
    """
    try:
        with np.load(path, allow_pickle=False) as data:
            summary: dict[str, float] = {"format": int(data["format"])}
            if summary["format"] != CHECKPOINT_FORMAT:
                return summary
            summary["base"] = int(data["base_version"])
            cells = nnz = 0
            for prefix in ("resident_", "hub_"):
                if prefix + "lengths" in data.files:
                    cells += 2 * int(data[prefix + "lengths"].sum())
                    nnz += int(data[prefix + "p_nnz"].sum())
                    nnz += int(data[prefix + "r_nnz"].sum())
    except Exception as exc:
        raise StoreError(f"unreadable checkpoint {Path(path).name}: {exc}") from exc
    summary["nnz"] = nnz
    summary["density"] = nnz / cells if cells else 0.0
    return summary


def list_checkpoints(directory: PathLike) -> list[Path]:
    """Checkpoint files in ``directory``, oldest version first."""
    return _list_versioned(directory, checkpoint_version)


def list_graph_bases(directory: PathLike) -> list[Path]:
    """Graph-base files in ``directory``, oldest version first."""
    return _list_versioned(directory, graph_base_version)


def _list_versioned(
    directory: PathLike, version_of: Callable[[Path], int | None]
) -> list[Path]:
    directory = Path(directory)
    if not directory.exists():
        return []
    found = [p for p in directory.iterdir() if version_of(p) is not None]
    return sorted(found, key=version_of)


def latest_checkpoint(
    directory: PathLike,
    read: Callable[[Path], Checkpoint] = read_checkpoint,
) -> Checkpoint | None:
    """The newest checkpoint that loads and validates, or ``None``.

    Damaged newer checkpoints are skipped (with their error preserved on
    the raised :class:`StoreError` if *every* candidate is damaged) —
    recovery falls back to an older consistent state rather than failing.
    """
    candidates = list_checkpoints(directory)
    errors: list[str] = []
    for path in reversed(candidates):
        try:
            return read(path)
        except StoreError as exc:
            errors.append(str(exc))
    if errors:
        raise StoreError(
            "no readable checkpoint; all candidates damaged: " + "; ".join(errors)
        )
    return None


def restore_service(checkpoint: Checkpoint) -> PPRService:
    """Materialize a :class:`PPRService` from one decoded checkpoint.

    ``checkpoint.graph`` must already be at ``checkpoint.version`` — it
    is as loaded when the checkpoint sits on a base of its own version,
    and :func:`repro.store.recovery.recover` applies the log in between
    otherwise. The service comes back *exactly* as checkpointed: same
    graph dict order, resident states bit-for-bit, LRU order, hub
    vectors, version and staleness counters. No pushes run. The returned
    service has no store attached — ``recover`` reattaches one after
    replaying the WAL tail.
    """
    hub_index = None
    if checkpoint.hub_arrays is not None:
        hub_index = DynamicHubIndex.from_arrays(
            checkpoint.graph, checkpoint.hub_arrays, checkpoint.config
        )
    return PPRService.restore(
        graph=checkpoint.graph,
        config=checkpoint.config,
        serve=checkpoint.serve,
        residents=checkpoint.residents,
        hub_index=hub_index,
        graph_version=checkpoint.version,
        updates_ingested=checkpoint.updates_ingested,
        batches_ingested=checkpoint.batches_ingested,
    )
