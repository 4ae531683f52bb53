"""Multi-process replicated serving tier behind the typed gateway.

The first layer of this system that uses more than one core for queries
end to end: N worker processes, each hosting a full
:class:`~repro.serve.service.PPRService` replica (own push engine, own
delta-CSR snapshot chain), coordinated by a
:class:`~repro.cluster.gateway.ClusterGateway` that speaks the exact
typed protocol of :class:`repro.api.Gateway` — so
:class:`~repro.api.client.Client`, :class:`~repro.api.http.HttpClient`,
and ``repro serve`` work unchanged (``repro serve <dataset> --replicas
N``).

Writes apply on the primary (which owns durability) and ship to
replicas as ordered WAL-framed deltas; reads load-balance across
replicas with per-request consistency honored via snapshot versions;
dead replicas respawn and recover from the primary's durable store.
See ``docs/cluster.md`` for topology, routing, and the failure model.
"""

from .gateway import ClusterGateway, PPRCluster
from .replica import ReplicaSpec, build_replica_service, replica_main

__all__ = [
    "ClusterGateway",
    "PPRCluster",
    "ReplicaSpec",
    "build_replica_service",
    "replica_main",
]
