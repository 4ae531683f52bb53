"""Vertex placement: which shard owns which vertex.

The whole sharded tier hangs off one total function ``owner(v) -> shard``:
it decides where a vertex's in-adjacency row lives, which shard drives a
source's push, and where an ingest batch's per-vertex work lands. The
contract it honors (property-tested in
``tests/test_shard_properties.py``):

* **deterministic and total** — any ``v >= 0`` maps to exactly one shard
  in ``[0, num_shards)``, the same one on every call in every process;
* **repartition-free** — the mapping never changes as the graph grows
  (a moved vertex would invalidate every shard's WAL history);
* **reasonably balanced** — the hash splits even adversarial
  (Zipf-distributed) id sets to within a few percent of even.

``HashPartitioner`` is stateless splitmix64. It round-trips through the
recovery manifest (:mod:`repro.shard.manifest`) as ``{"kind": "hash",
"shards": n}`` so a cold-started gateway routes identically to the one
that wrote the checkpoints; a manifest of any other kind is refused, never
routed by hash.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..errors import ConfigError

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _splitmix64(v: int) -> int:
    """The splitmix64 finalizer over one 64-bit value (pure Python ints)."""
    z = (v + _GOLDEN) & _M64
    z = ((z ^ (z >> 30)) * _MIX1) & _M64
    z = ((z ^ (z >> 27)) * _MIX2) & _M64
    return (z ^ (z >> 31)) & _M64


def _splitmix64_array(ids: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_splitmix64`, bit-identical to the scalar form."""
    with np.errstate(over="ignore"):
        z = ids.astype(np.uint64) + np.uint64(_GOLDEN)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))


class HashPartitioner:
    """Stateless splitmix64 placement: ``owner(v) = mix(v) % shards``."""

    kind = "hash"

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ConfigError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = num_shards

    def owner(self, v: int) -> int:
        """Owning shard of vertex ``v`` (scalar)."""
        return int(_splitmix64(v) % self.num_shards)

    def owners(self, ids: np.ndarray) -> np.ndarray:
        """Owning shards of an id array (vectorized :meth:`owner`)."""
        ids = np.asarray(ids, dtype=np.int64)
        return (_splitmix64_array(ids) % np.uint64(self.num_shards)).astype(np.int64)

    def to_manifest(self) -> dict[str, Any]:
        """JSON-safe description that :func:`partitioner_from_manifest`
        rebuilds bit-identically (rides the recovery manifest)."""
        return {"kind": self.kind, "shards": self.num_shards}

    def __repr__(self) -> str:
        return f"{type(self).__name__}(shards={self.num_shards})"


def partitioner_from_manifest(payload: dict[str, Any]) -> HashPartitioner:
    """Rebuild a partitioner serialized by :meth:`HashPartitioner.to_manifest`.

    A manifest of any other kind (a store placed by a table, say) is
    refused: routing it by hash would send reads to shards that do not
    hold the vertices.
    """
    try:
        kind = payload["kind"]
        shards = int(payload["shards"])
    except (KeyError, ValueError, TypeError):
        raise ConfigError(
            f"malformed partitioner manifest: {payload!r}"
        ) from None
    if kind != HashPartitioner.kind:
        raise ConfigError(
            f"unsupported partitioner kind {kind!r}: only"
            f" {HashPartitioner.kind!r} placement is supported"
        )
    return HashPartitioner(shards)
