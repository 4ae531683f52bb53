"""repro.shard — partition the graph and PPR state across shard processes.

The sharded tier is the write-scaling counterpart of :mod:`repro.cluster`
(which replicates for read scaling): each shard process owns a vertex
slice of the dynamic graph — its in-adjacency rows, the per-source PPR
states of the sources it owns, and its own WAL + checkpoints — while a
:class:`ShardedGateway` speaks the ordinary typed :class:`~repro.api`
protocol in front, so :class:`~repro.api.client.Client`,
:class:`~repro.net.client.HttpClient`, and ``repro serve`` compose
unchanged. See ``docs/sharding.md`` for the design.
"""

from .gateway import PPRShards, ShardedGateway
from .graph import ShardCSRView, ShardGraph
from .manifest import (
    ShardManifest,
    ShardRecovery,
    read_manifest,
    recover_shard,
    shard_store_root,
    write_manifest,
)
from .partitioner import HashPartitioner, partitioner_from_manifest
from .service import ShardService
from .worker import ShardSpec, build_shard_service, shard_main

__all__ = [
    "HashPartitioner",
    "PPRShards",
    "ShardCSRView",
    "ShardGraph",
    "ShardManifest",
    "ShardRecovery",
    "ShardService",
    "ShardSpec",
    "ShardedGateway",
    "build_shard_service",
    "partitioner_from_manifest",
    "read_manifest",
    "recover_shard",
    "shard_main",
    "shard_store_root",
    "write_manifest",
]
