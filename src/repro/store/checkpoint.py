"""Versioned binary checkpoints of a running :class:`~repro.serve.PPRService`.

A checkpoint is one uncompressed ``.npz`` (numpy's zip container, members
stored, each CRC-checked on read) holding everything the serving layer
maintains at a graph version:

* the dynamic graph, serialized *order-exactly*
  (:meth:`~repro.graph.digraph.DynamicDiGraph.to_arrays`) so rebuilt CSR
  snapshots — and therefore float summation order inside the vectorized
  push — are bit-identical;
* every resident :class:`~repro.core.state.PPRState` with its
  bookkeeping (convergence version, staleness counter, pending lazy-push
  seeds, query count) in LRU→MRU order, the vectors sparse and bit-exact
  (:func:`~repro.core.state.encode_states`: a checkpoint costs what is
  non-zero, not ``capacity × residents``);
* the hub index vectors (:meth:`~repro.core.hub_index.DynamicHubIndex.to_arrays`,
  same vector codec);
* serve metadata: graph version, ingest counters, and a fingerprint of
  the :class:`~repro.config.PPRConfig`/:class:`~repro.config.ServeConfig`
  pair (recovery refuses to resume under a different configuration —
  ε or α drift would silently break the freshness contract).

Files are named ``checkpoint-<version>.npz`` and written atomically
(tmp file + fsync + rename + directory fsync), so a crash mid-checkpoint
leaves the previous checkpoint untouched and at most a ``.tmp`` behind,
which the next :class:`~repro.store.store.StateStore` on the directory
sweeps (:func:`sweep_stale_tmp`).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .. import chaos
from ..config import (
    Backend,
    HubRefresh,
    PPRConfig,
    PushVariant,
    RefreshPolicy,
    ServeConfig,
)
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
CHECKPOINT_FORMAT = 4

_NAME_RE = re.compile(r"^checkpoint-(\d{12})\.npz$")
_TMP_SUFFIX = ".tmp"


def checkpoint_name(version: int) -> str:
    return f"checkpoint-{version:012d}.npz"


def checkpoint_version(path: PathLike) -> int | None:
    """Graph version encoded in a checkpoint filename (None if not one)."""
    match = _NAME_RE.match(Path(path).name)
    return int(match.group(1)) if match else None


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
            "admission_batch": serve.admission_batch,
            "refresh": serve.refresh.value,
            "num_hubs": serve.num_hubs,
            "hub_refresh": serve.hub_refresh.value,
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
    data = json.loads(payload)
    data["refresh"] = RefreshPolicy(data["refresh"])
    data["hub_refresh"] = HubRefresh(data["hub_refresh"])
    return ServeConfig(**data)


def config_fingerprint(config: PPRConfig, serve: ServeConfig) -> str:
    """Stable digest of the configuration a checkpoint was taken under."""
    blob = (_ppr_config_json(config) + _serve_config_json(serve)).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------- #
# writing
# ---------------------------------------------------------------------- #


def write_checkpoint(directory: PathLike, service: PPRService) -> Path:
    """Write a checkpoint of ``service`` at its current graph version.

    Returns the final path. The write is atomic: a temporary file is
    fully written and fsynced before being renamed into place.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    metrics = service.metrics()
    arrays: dict[str, np.ndarray] = {
        "format": np.int64(CHECKPOINT_FORMAT),
        "graph_version": np.int64(service.graph_version),
        "updates_ingested": np.int64(metrics.updates_ingested),
        "batches_ingested": np.int64(metrics.batches_ingested),
        "ppr_config": np.str_(_ppr_config_json(service.config)),
        "serve_config": np.str_(_serve_config_json(service.serve)),
        "fingerprint": np.str_(
            config_fingerprint(service.config, service.serve)
        ),
    }
    for key, value in service.graph.to_arrays().items():
        arrays[f"graph_{key}"] = value

    residents = service.cache.entries()  # LRU -> MRU
    arrays["sources"] = np.array([e.source for e in residents], dtype=np.int64)
    arrays["resident_meta"] = np.array(
        [(e.version, e.updates_reflected, e.queries) for e in residents],
        dtype=np.int64,
    ).reshape(-1, 3)
    for key, value in encode_states([e.state for e in residents]).items():
        arrays[f"resident_{key}"] = value
    pending = [np.array(sorted(e.pending_seeds), dtype=np.int64) for e in residents]
    arrays["pending_lengths"] = np.array([len(p) for p in pending], dtype=np.int64)
    arrays["pending"] = (
        np.concatenate(pending) if pending else np.empty(0, dtype=np.int64)
    )

    arrays["has_hubs"] = np.int64(service.hub_index is not None)
    if service.hub_index is not None:
        for key, value in service.hub_index.to_arrays().items():
            arrays[f"hub_{key}"] = value
    # Deferred lazy hub-refresh seeds (empty under eager refresh): the
    # hub vectors are checkpointed mid-deferral, so recovery must know
    # which seeds the next flush has to push from.
    arrays["hubs_pending"] = np.array(
        sorted(service.hub_pending_seeds), dtype=np.int64
    )

    final = directory / checkpoint_name(service.graph_version)
    tmp = directory / (final.name + _TMP_SUFFIX)
    with open(tmp, "wb") as fh:
        np.savez(fh, **arrays)
        fh.flush()
        os.fsync(fh.fileno())
    # The crash-during-checkpoint window: the tmp file is durable but the
    # atomic rename has not happened. A CRASH fault here leaves the .tmp
    # behind and the previous checkpoint authoritative — exactly what
    # recovery must tolerate (tests/test_store.py exercises this site).
    chaos.check("checkpoint.rename", version=service.graph_version)
    os.replace(tmp, final)
    # Make the rename itself durable before the caller unlinks the WAL
    # segments this checkpoint covers: without it a power loss can keep
    # the unlinks in wal/ and lose the new name in checkpoints/.
    fsync_directory(directory)
    return final


def fsync_directory(directory: PathLike) -> None:
    """Flush a directory's entries (renames, creations) to stable storage."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def sweep_stale_tmp(directory: PathLike) -> None:
    """Delete ``checkpoint-*.npz.tmp`` left by a crash before the rename.

    Called when a store is opened: a store directory has one writer, so
    any tmp present then belongs to a dead one.
    """
    for path in Path(directory).glob("checkpoint-*.npz" + _TMP_SUFFIX):
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
    #: A :class:`DynamicDiGraph`, or whatever ``decode_graph`` built (the
    #: sharded tier checkpoints :class:`~repro.shard.graph.ShardGraph` slices).
    graph: Any
    residents: list[ResidentSource]
    hub_arrays: dict[str, np.ndarray] | None
    hub_pending: list[int]

    @property
    def num_residents(self) -> int:
        return len(self.residents)

    @property
    def num_hubs(self) -> int:
        return len(self.hub_arrays["hubs"]) if self.hub_arrays else 0


def _prefixed(arrays: dict[str, np.ndarray], prefix: str) -> dict[str, np.ndarray]:
    return {
        key[len(prefix) :]: value
        for key, value in arrays.items()
        if key.startswith(prefix)
    }


def read_checkpoint(
    path: PathLike,
    *,
    decode_graph: Callable[[dict[str, np.ndarray]], Any] = DynamicDiGraph.from_arrays,
) -> Checkpoint:
    """Load and validate one checkpoint file.

    ``decode_graph`` rebuilds the graph from the ``graph_*`` arrays (prefix
    stripped); the writer is generic over ``service.graph.to_arrays()``,
    so the sharded tier passes its own decoder.

    Raises :class:`StoreError` on any structural problem — unreadable
    container, unknown format, missing keys, or a fingerprint that does
    not match the embedded configuration (bit rot in the config strings).
    """
    path = Path(path)
    if not path.exists():
        raise StoreError(f"checkpoint not found: {path}")
    try:
        with np.load(path, allow_pickle=False) as data:
            arrays = {key: data[key] for key in data.files}
    except Exception as exc:  # zip/CRC/format damage
        raise StoreError(f"unreadable checkpoint {path.name}: {exc}") from exc
    try:
        fmt = int(arrays["format"])
        if fmt != CHECKPOINT_FORMAT:
            raise StoreError(
                f"{path.name}: unsupported checkpoint format {fmt}"
                f" (this build reads {CHECKPOINT_FORMAT})"
            )
        config = _parse_ppr_config(str(arrays["ppr_config"]))
        serve = _parse_serve_config(str(arrays["serve_config"]))
        fingerprint = str(arrays["fingerprint"])
        if fingerprint != config_fingerprint(config, serve):
            raise StoreError(f"{path.name}: configuration fingerprint mismatch")
        states = decode_states(
            arrays["sources"].tolist(), _prefixed(arrays, "resident_")
        )
        pending = arrays["pending"]
        pending_ends = np.cumsum(arrays["pending_lengths"]).tolist()
        if len(pending_ends) != len(states) or (
            pending_ends and pending_ends[-1] != len(pending)
        ):
            raise ValueError("pending seed counts do not match the data")
        residents: list[ResidentSource] = []
        pending_start = 0
        for state, meta, pending_end in zip(
            states, arrays["resident_meta"].tolist(), pending_ends, strict=True
        ):
            version, reflected, queries = meta
            residents.append(
                ResidentSource(
                    state=state,
                    version=version,
                    updates_reflected=reflected,
                    pending_seeds=set(pending[pending_start:pending_end].tolist()),
                    queries=queries,
                )
            )
            pending_start = pending_end
        return Checkpoint(
            path=path,
            version=int(arrays["graph_version"]),
            updates_ingested=int(arrays["updates_ingested"]),
            batches_ingested=int(arrays["batches_ingested"]),
            config=config,
            serve=serve,
            fingerprint=fingerprint,
            graph=decode_graph(_prefixed(arrays, "graph_")),
            residents=residents,
            hub_arrays=(
                _prefixed(arrays, "hub_") if int(arrays["has_hubs"]) else None
            ),
            hub_pending=arrays["hubs_pending"].tolist(),
        )
    except StoreError:
        raise
    except Exception as exc:  # missing keys, shape mismatches, bad enums
        raise StoreError(f"corrupt checkpoint {path.name}: {exc}") from exc


def checkpoint_summary(path: PathLike) -> dict[str, float]:
    """``format`` plus, when readable, vector ``nnz`` and ``density``.

    For ``repro store-inspect``: reads only the count arrays, decodes
    nothing, and reports the format of files this build cannot restore.
    """
    try:
        with np.load(path, allow_pickle=False) as data:
            summary: dict[str, float] = {"format": int(data["format"])}
            if summary["format"] != CHECKPOINT_FORMAT:
                return summary
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
    directory = Path(directory)
    if not directory.exists():
        return []
    found = [p for p in directory.iterdir() if checkpoint_version(p) is not None]
    return sorted(found, key=checkpoint_version)


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

    The service comes back *exactly* as checkpointed: same graph dict
    order, resident states bit-for-bit, LRU order, hub vectors, version
    and staleness counters. No pushes run. The returned service has no
    store attached — :func:`repro.store.recovery.recover` reattaches one
    after replaying the WAL tail.
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
        hub_pending=checkpoint.hub_pending,
    )
