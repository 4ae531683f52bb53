"""Dynamic hub-vector index (the paper's Section 6 integration claim).

HubPPR [46] and the distributed scheme of Guo et al. [18] accelerate PPR
queries with *pre-computed PPR vectors of selected hub vertices*; the
paper argues its parallel local update "is helpful for both these two
works to maintain the indexed PPR vectors on dynamic graphs". This module
realizes exactly that integration: a :class:`DynamicHubIndex` selects the
top-degree vertices as hubs and keeps one ε-approximate contribution
vector per hub fresh under the update stream, sharing the graph and its
CSR snapshots across all hub trackers.

The index then answers two query families directly from maintained state:

* ``contribution(v, hub)`` — ``pi_v(hub)``, how strongly ``v`` contributes
  to / discovers the hub;
* ``rank_for_hub(hub, k)`` — the certified top-k contributors of a hub.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..config import Backend, PPRConfig
from ..errors import ConfigError, VertexError
from ..graph.csr import CSRGraph
from ..graph.delta import CSRView
from ..graph.digraph import DynamicDiGraph
from ..graph.update import EdgeUpdate
from .certify import CertifiedEntry, certified_top_k
from .invariant import restore_states
from .push_parallel import parallel_local_push
from .state import PPRState, decode_states, encode_states
from .stats import PushStats


def select_hubs(graph: DynamicDiGraph, count: int) -> list[int]:
    """The ``count`` highest out-degree vertices (HubPPR's hub choice)."""
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count}")
    degrees = sorted(
        ((graph.out_degree(v), v) for v in graph.vertices()), reverse=True
    )
    return [v for _, v in degrees[:count]]


class DynamicHubIndex:
    """Maintain fresh PPR vectors for a set of hub vertices.

    Parameters
    ----------
    graph:
        The shared dynamic graph (all mutations flow through
        :meth:`apply_batch`).
    hubs:
        Explicit hub ids, or ``None`` to select ``num_hubs`` by degree.
    num_hubs:
        Number of hubs when auto-selecting.
    config:
        Push configuration shared by every hub vector.
    """

    def __init__(
        self,
        graph: DynamicDiGraph,
        *,
        hubs: Sequence[int] | None = None,
        num_hubs: int = 8,
        config: PPRConfig | None = None,
    ) -> None:
        self.config = config or PPRConfig()
        self.graph = graph
        hub_list = list(hubs) if hubs is not None else select_hubs(graph, num_hubs)
        if not hub_list:
            raise ConfigError("at least one hub is required")
        if len(set(hub_list)) != len(hub_list):
            raise ConfigError("hubs must be distinct")
        for hub in hub_list:
            if not graph.has_vertex(hub):
                raise VertexError(hub, f"hub {hub} is not in the graph")
        self._states: dict[int, PPRState] = {}
        csr = self._snapshot()
        for hub in hub_list:
            state = PPRState.initial(hub, graph.capacity)
            parallel_local_push(state, graph, self.config, seeds=[hub], csr=csr)
            self._states[hub] = state
        self.batches_processed = 0

    def _snapshot(self) -> CSRGraph | None:
        if self.config.backend is Backend.PURE:
            return None
        return CSRGraph.from_digraph(self.graph)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    @property
    def hubs(self) -> list[int]:
        return list(self._states)

    def is_hub(self, v: int) -> bool:
        return v in self._states

    def contribution(self, v: int, hub: int) -> float:
        """``pi_v(hub)`` from the maintained vector (<= eps from exact)."""
        return self._hub_state(hub).estimate(v)

    def rank_for_hub(self, hub: int, k: int) -> list[CertifiedEntry]:
        """Certified top-k contributors of ``hub``."""
        return certified_top_k(self._hub_state(hub), k)

    def hub_scores(self, v: int) -> dict[int, float]:
        """``v``'s contribution to every hub — a k-dimensional embedding."""
        return {hub: state.estimate(v) for hub, state in self._states.items()}

    def _hub_state(self, hub: int) -> PPRState:
        try:
            return self._states[hub]
        except KeyError:
            raise VertexError(hub, f"{hub} is not an indexed hub") from None

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #

    @property
    def states(self) -> list[PPRState]:
        """The maintained hub vectors, in hub order.

        The serving layer (:class:`repro.serve.PPRService`) mutates the
        shared graph exactly once per update and repairs every consumer in
        one :func:`~repro.core.invariant.restore_states` call; this is the
        hub-index half of that fan-out.
        """
        return list(self._states.values())

    def reconverge(
        self,
        seeds: Sequence[int],
        *,
        snapshot: CSRView | None = None,
    ) -> dict[int, PushStats]:
        """Push every hub vector back to convergence from ``seeds``.

        ``snapshot`` lets an outer layer share one CSR view of the current
        graph across the hub pushes (and its own resident sources) instead
        of rebuilding per consumer.
        """
        csr = snapshot if snapshot is not None else self._snapshot()
        results = {
            hub: parallel_local_push(
                state, self.graph, self.config, seeds=seeds, csr=csr
            )
            for hub, state in self._states.items()
        }
        self.batches_processed += 1
        return results

    def apply_batch(
        self,
        updates: Sequence[EdgeUpdate],
        *,
        snapshot: CSRView | None = None,
    ) -> dict[int, PushStats]:
        """Apply a stream batch and re-converge every hub vector.

        Graph mutation and invariant restoration happen once per update
        (restoration per hub); the per-hub pushes share one CSR snapshot
        (``snapshot`` when provided, else a fresh rebuild).
        """
        restore_states(
            self.graph,
            self.states,
            updates,
            self.config.alpha,
            kernel=self.config.kernel,
        )
        return self.reconverge([update.u for update in updates], snapshot=snapshot)

    # ------------------------------------------------------------------ #
    # persistence codec
    # ------------------------------------------------------------------ #

    def to_arrays(self) -> dict[str, np.ndarray]:
        """Serialize every hub vector to plain arrays (bit-exact).

        Hub ids in index order, then the sparse vector encoding of
        :func:`~repro.core.state.encode_states`. Rebuild with
        :meth:`from_arrays` against the same graph.
        """
        return {
            "hubs": np.fromiter(self._states, dtype=np.int64, count=len(self._states)),
            "batches": np.int64(self.batches_processed),
            **encode_states(self.states),
        }

    @classmethod
    def from_arrays(
        cls,
        graph: DynamicDiGraph,
        arrays: dict[str, np.ndarray],
        config: PPRConfig | None = None,
    ) -> "DynamicHubIndex":
        """Rebuild an index serialized by :meth:`to_arrays`.

        The hub vectors are installed as-is — no initialization pushes
        run — so the rebuilt index is bit-identical to the serialized one.
        ``graph`` must be the graph version the vectors were saved at.
        """
        hubs = arrays["hubs"].tolist()
        if not hubs:
            raise ConfigError("at least one hub is required")
        index = cls.__new__(cls)
        index.config = config or PPRConfig()
        index.graph = graph
        index._states = dict(zip(hubs, decode_states(hubs, arrays)))
        index.batches_processed = int(arrays["batches"])
        return index

    def total_index_entries(self) -> int:
        """Nonzero estimate entries across all hub vectors (index size)."""
        return int(sum(np.count_nonzero(state.p) for state in self._states.values()))

    def __repr__(self) -> str:
        return (
            f"DynamicHubIndex(hubs={len(self._states)},"
            f" n={self.graph.num_vertices}, batches={self.batches_processed})"
        )
