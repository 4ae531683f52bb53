"""The serving engine one shard process runs (:class:`ShardService`).

A :class:`ShardService` *is* a :class:`~repro.serve.service.PPRService` —
same ingest loop, same admission pool, same lazy-refresh discipline,
same certified top-k — with the single-process assumptions swapped out:

* the graph is a :class:`~repro.shard.graph.ShardGraph` slice instead of
  the full :class:`~repro.graph.digraph.DynamicDiGraph`;
* the versioned CSR snapshot machinery is replaced by one **live**
  :class:`~repro.shard.graph.ShardCSRView` — always at the current
  version, never rebuilt, resolving non-owned in-rows over the frontier
  exchange. This is sound because the coordinating gateway serializes
  every push against every mutation (one lock, single-threaded workers);
* sources are served only by their owner shard, so the resident cache
  naturally holds a partition of the source space — the same property
  the cluster tier gets from hashed placement, here for writes too.

The hub tier is unsupported (a hub vector is global state with no owner;
``ServeConfig.num_hubs`` must be 0), and the backend must be ``NUMPY`` —
the pure engine walks ``in_neighbors`` directly, which a shard cannot
answer for rows it does not own.

A push that loses its exchange channel mid-flight (peer died beyond its
respawn budget, version skew) raises :class:`~repro.errors.ClusterError`;
the refresh wrapper here *evicts* the resident entry first, because its
state arrays may have absorbed a partial iteration — the next query
re-admits the source from scratch instead of serving from a corrupted
vector. See ``docs/sharding.md``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..config import Backend, PPRConfig, ServeConfig
from ..core.stats import PushStats
from ..errors import ClusterError, ConfigError
from ..graph.csr import CSRGraph
from ..graph.update import EdgeUpdate
from ..serve.cache import ResidentSource
from ..serve.service import PPRService
from .graph import ShardCSRView, ShardGraph


class ShardService(PPRService):
    """One shard's serving engine: a ``PPRService`` over a graph slice.

    Parameters
    ----------
    graph:
        This shard's :class:`~repro.shard.graph.ShardGraph` slice.
    config / serve:
        As for :class:`~repro.serve.service.PPRService`, with two
        restrictions: ``config.backend`` must be ``NUMPY`` and the hub
        tier must be disabled. ``serve.store`` must stay ``None`` —
        per-shard stores are attached explicitly by the shard worker so
        each shard gets its *own* root directory.
    store:
        An explicit per-shard :class:`repro.store.StateStore` to attach.
    """

    def __init__(
        self,
        graph: ShardGraph,
        config: PPRConfig | None = None,
        serve: ServeConfig | None = None,
        *,
        hubs: Sequence[int] | None = None,
        store=None,
    ) -> None:
        if not isinstance(graph, ShardGraph):
            raise ConfigError(
                f"ShardService requires a ShardGraph, got {type(graph).__name__}"
            )
        config = config or PPRConfig(backend=Backend.NUMPY)
        if config.backend is not Backend.NUMPY:
            raise ConfigError(
                "the sharded tier requires Backend.NUMPY: the pure engine"
                " walks in-neighbors directly, which a shard cannot answer"
                f" for non-owned rows (got {config.backend.value})"
            )
        serve = serve or ServeConfig()
        if hubs is not None or serve.num_hubs > 0:
            raise ConfigError(
                "the sharded tier does not support the hub tier: a hub"
                " vector is global state with no owning shard"
                " (set ServeConfig.num_hubs=0)"
            )
        if serve.store is not None:
            raise ConfigError(
                "per-shard stores are attached by the shard worker"
                " (ShardedGateway store_root), not via ServeConfig.store"
            )
        #: The live distributed view every push on this shard consumes.
        self.view = ShardCSRView(graph)
        super().__init__(graph, config, serve, store=store)

    # ------------------------------------------------------------------ #
    # snapshot machinery: one live view, no rebuilds
    # ------------------------------------------------------------------ #

    def _snapshot(self) -> ShardCSRView:
        return self.view

    def _advance_snapshot(self, batch: np.ndarray) -> bool:
        # The live view covers the new version by construction.
        return True

    def set_snapshot(self, csr: CSRGraph) -> None:
        raise ConfigError(
            "a sharded engine derives its view from the live shard graph;"
            " externally-built snapshots are not supported"
        )

    @property
    def snapshot_version(self) -> int:
        """The live view is always at the current graph version."""
        return self.graph_version

    # ------------------------------------------------------------------ #
    # ingest / refresh
    # ------------------------------------------------------------------ #

    def _execute_ingest(
        self,
        updates: Sequence[EdgeUpdate],
        *,
        snapshot: CSRGraph | None = None,
    ) -> dict[int, PushStats]:
        if snapshot is not None:
            raise ConfigError(
                "a sharded engine cannot install an external ingest snapshot"
            )
        # Cached remote rows describe the pre-batch graph; drop them
        # before any mutation so post-batch pushes re-fetch at the new
        # version (the exchange protocol version-checks every frame).
        self.view.clear_remote()
        return super()._execute_ingest(updates)

    def _refresh(self, entry: ResidentSource) -> PushStats:
        try:
            return super()._refresh(entry)
        except ClusterError:
            # The push may have absorbed a partial iteration before the
            # exchange failed; the state vector is not trustworthy. Evict
            # so the next query re-admits from scratch.
            self.cache.evict(entry.source)
            raise
