"""Cross-shard durability: per-shard stores under one recovery manifest.

Each shard worker owns a full :class:`repro.store.StateStore` — its own
WAL segments and its own checkpoints, under ``<root>/shard-<NN>/`` — and
persists *exactly* what a single-process store would: every applied
batch is logged before it is acknowledged, checkpoints are atomic and
order-exact. What a shard's store cannot express alone is the *group*
property: which checkpoint epoch is consistent **across** shards.

That is the manifest's job. After every coordinated checkpoint round
(every shard acknowledged ``CHECKPOINTED`` at the same graph version)
the gateway atomically rewrites ``<root>/manifest.json``::

    {
      "format": 1,
      "version": <graph version of the completed round>,
      "shards": <N>,
      "partitioner": {...},        # HashPartitioner.to_manifest()
      "shard_info": [{"shard": i, "version": v, "checkpoint": name|null}, ...]
    }

Because each shard also keeps its WAL tail past its checkpoint, the
manifest version is a *floor*, not a fence: a recovering shard loads its
newest checkpoint and replays its own WAL tail forward, so shards whose
crash interleaved with in-flight batches still converge — the gateway
heals any residual version skew with donor ``TAIL`` frames at spawn.

Recovery of one shard (:func:`recover_shard`) is
:func:`repro.store.recovery.recover`'s replay loop; the graph base a
checkpoint names is a :class:`ShardGraph` slice, decoded by its own
self-describing codec (the ``graph_meta`` JSON carries the shard id and
partitioner manifest). Replayed ingests run no pushes (resident refresh
is lazy), so a shard recovers alone — no coordinator is relaying
frontier exchanges yet — bit-identically to the uninterrupted run. See
``docs/sharding.md``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..config import StoreConfig
from ..errors import StoreError
from ..store.checkpoint import (
    CHECKPOINT_DIR,
    Checkpoint,
    latest_checkpoint,
    read_checkpoint,
)
from ..store.recovery import RecoveryResult, recover_from
from .graph import ShardGraph
from .partitioner import HashPartitioner
from .service import ShardService

PathLike = str | os.PathLike

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = 1


def shard_store_root(root: PathLike, shard_id: int) -> Path:
    """The store directory of shard ``shard_id`` under cluster root ``root``."""
    return Path(root) / f"shard-{shard_id:02d}"


# ---------------------------------------------------------------------- #
# the coordinator manifest
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class ShardManifest:
    """One decoded ``manifest.json``: the last consistent checkpoint epoch."""

    path: Path
    version: int
    shards: int
    partitioner: dict[str, Any]
    shard_info: tuple[dict[str, Any], ...]


def write_manifest(
    root: PathLike,
    *,
    version: int,
    shards: int,
    partitioner_manifest: dict[str, Any],
    shard_info: list[dict[str, Any]],
) -> Path:
    """Atomically (re)write the cluster manifest after a checkpoint round.

    Same tmp-write + fsync + rename discipline as checkpoints: a crash
    mid-write leaves the previous manifest authoritative.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    final = root / MANIFEST_NAME
    tmp = root / (MANIFEST_NAME + ".tmp")
    payload = {
        "format": MANIFEST_FORMAT,
        "version": int(version),
        "shards": int(shards),
        "partitioner": partitioner_manifest,
        "shard_info": shard_info,
    }
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, final)
    return final


def read_manifest(root: PathLike) -> ShardManifest:
    """Load and validate ``<root>/manifest.json``.

    Raises :class:`StoreError` on a missing or structurally malformed
    manifest — recovery cannot guess the shard count or partitioner.
    """
    path = Path(root) / MANIFEST_NAME
    if not path.exists():
        raise StoreError(f"shard manifest not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise StoreError(f"unreadable shard manifest {path}: {exc}") from exc
    try:
        fmt = int(payload["format"])
        if fmt != MANIFEST_FORMAT:
            raise StoreError(
                f"{path.name}: unsupported manifest format {fmt}"
                f" (this build reads {MANIFEST_FORMAT})"
            )
        shards = int(payload["shards"])
        if shards < 1:
            raise StoreError(f"{path.name}: shards must be >= 1, got {shards}")
        partitioner = payload["partitioner"]
        if not isinstance(partitioner, dict):
            raise StoreError(f"{path.name}: partitioner must be an object")
        info = payload["shard_info"]
        if not isinstance(info, list) or len(info) != shards:
            raise StoreError(
                f"{path.name}: shard_info must list all {shards} shards"
            )
        return ShardManifest(
            path=path,
            version=int(payload["version"]),
            shards=shards,
            partitioner=partitioner,
            shard_info=tuple(dict(entry) for entry in info),
        )
    except StoreError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreError(f"corrupt shard manifest {path.name}: {exc}") from exc


# ---------------------------------------------------------------------- #
# per-shard checkpoints
# ---------------------------------------------------------------------- #


def read_shard_checkpoint(
    path: PathLike, partitioner: HashPartitioner | None = None
) -> Checkpoint:
    """Load and validate one per-shard checkpoint file.

    :func:`repro.store.checkpoint.read_checkpoint` with the graph rebuilt
    through :meth:`ShardGraph.from_arrays` (self-describing via the
    embedded ``graph_meta`` JSON, cross-checked against ``partitioner``
    when given). Shard checkpoints never carry a hub tier —
    :class:`ShardService` refuses to build one.
    """
    checkpoint = read_checkpoint(
        path,
        decode_graph=lambda arrays: ShardGraph.from_arrays(
            arrays, partitioner=partitioner
        ),
    )
    if checkpoint.hub_arrays is not None:
        raise StoreError(
            f"{checkpoint.path.name}: shard checkpoints cannot carry a hub tier"
        )
    return checkpoint


def restore_shard_service(checkpoint: Checkpoint) -> ShardService:
    """Materialize a :class:`ShardService` from one decoded checkpoint."""
    return ShardService.restore(
        graph=checkpoint.graph,
        config=checkpoint.config,
        serve=checkpoint.serve,
        residents=checkpoint.residents,
        hub_index=None,
        graph_version=checkpoint.version,
        updates_ingested=checkpoint.updates_ingested,
        batches_ingested=checkpoint.batches_ingested,
    )


# ---------------------------------------------------------------------- #
# per-shard recovery
# ---------------------------------------------------------------------- #


@dataclass
class ShardRecovery(RecoveryResult):
    """A recovered shard service plus the forensics of how it got there."""

    service: ShardService

    def describe(self) -> str:
        return f"shard {self.service.graph.shard_id}: {super().describe()}"


def recover_shard(
    root: PathLike,
    *,
    partitioner: HashPartitioner | None = None,
    store_config: StoreConfig | None = None,
    attach: bool = True,
) -> ShardRecovery:
    """Rebuild one shard's service from its own store directory.

    ``root`` is the *per-shard* store root (``shard_store_root(...)``).
    Newest valid checkpoint and the slice base it names, then the shared
    replay loop (:func:`repro.store.recovery.recover_from`), then a store
    reattached without writing a redundant baseline checkpoint.
    """
    root = Path(root)
    if not root.exists():
        raise StoreError(f"shard store directory not found: {root}")
    checkpoint = latest_checkpoint(
        root / CHECKPOINT_DIR, lambda path: read_shard_checkpoint(path, partitioner)
    )
    if checkpoint is None:
        raise StoreError(
            f"no checkpoint under {root} — the shard store never saw an"
            " attach (the WAL alone cannot rebuild the initial slice)"
        )
    result = recover_from(
        root,
        checkpoint,
        restore_shard_service,
        store_config=store_config,
        attach=attach,
    )
    return ShardRecovery(**vars(result))
