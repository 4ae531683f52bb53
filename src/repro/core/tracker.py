"""High-level dynamic-PPR maintenance API.

:class:`DynamicPPRTracker` owns a graph, one PPR state, and a
configuration; feed it update batches and it keeps the estimate vector
ε-approximate, returning the operation trace of every batch. This is the
object a downstream application uses; everything below it
(restore-invariant, push engines, CSR snapshots) is plumbing. Many
sources over one shared graph are maintained by
:class:`repro.core.hub_index.DynamicHubIndex`.
"""

from __future__ import annotations

from ..obs import clock
from collections.abc import Iterable, Sequence

import numpy as np

from ..config import Backend, PPRConfig
from ..graph.csr import CSRGraph
from ..graph.delta import CSRView, advance_view
from ..graph.digraph import DynamicDiGraph
from ..graph.update import EdgeUpdate
from .groundtruth import ground_truth_ppr, max_estimate_error
from .invariant import invariant_violation, restore_batch
from .push_parallel import parallel_local_push
from .push_sequential import sequential_local_push
from .state import PPRState
from .stats import BatchStats, RestoreStats


class DynamicPPRTracker:
    """Maintain an ε-approximate PPR vector for one source on a dynamic graph.

    Parameters
    ----------
    graph:
        The initial graph. The tracker takes ownership: all further
        mutations must flow through :meth:`apply_batch` so the invariant
        stays in sync. The estimate is computed from scratch on
        construction (initial state ``p = 0``, ``r = e_s``, then a push).
    source:
        Personalization vertex ``s``.
    config:
        Algorithm/backend configuration.
    sequential:
        Use the sequential push (Algorithm 2) instead of the parallel
        push — this is how the CPU-Seq baseline is expressed at this
        level. (CPU-Base additionally pushes after every single update;
        see :func:`repro.core.push_sequential.cpu_base_update`.)

    Examples
    --------
    >>> from repro.graph import DynamicDiGraph, EdgeUpdate, EdgeOp
    >>> g = DynamicDiGraph([(1, 0), (2, 0)])
    >>> tracker = DynamicPPRTracker(g, source=0)
    >>> stats = tracker.apply_batch([EdgeUpdate(0, 1, EdgeOp.INSERT)])
    >>> tracker.estimate(0) > 0
    True
    """

    def __init__(
        self,
        graph: DynamicDiGraph,
        source: int,
        config: PPRConfig | None = None,
        *,
        sequential: bool = False,
    ) -> None:
        self.config = config or PPRConfig()
        self.graph = graph
        self.sequential = sequential
        if not graph.has_vertex(source):
            graph.add_vertex(source)
        self.state = PPRState.initial(source, graph.capacity)
        self._csr: CSRView | None = None
        self.batches_processed = 0
        self.updates_processed = 0
        self.initial_stats = self._push(seeds=[source])

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    @property
    def source(self) -> int:
        return self.state.source

    def estimate(self, v: int) -> float:
        """Current ε-approximate PPR value of ``v``."""
        return self.state.estimate(v)

    def estimate_vector(self) -> np.ndarray:
        """A copy of the dense estimate vector."""
        return self.state.p[: self.graph.capacity].copy()

    def top_k(self, k: int) -> list[tuple[int, float]]:
        """The ``k`` highest-PPR vertices as ``(vertex, estimate)`` pairs."""
        return self.state.top_k(k)

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #

    def _snapshot(self) -> CSRView:
        if self._csr is None:
            self._csr = CSRGraph.from_digraph(self.graph)
        return self._csr

    def _advance_snapshot(self, updates: Sequence[EdgeUpdate]) -> None:
        """Move the CSR view past ``updates`` (already applied to the graph).

        The view advances as a delta overlay
        (:func:`~repro.graph.delta.advance_view`, O(batch) instead of
        O(m)); with no view yet the next push builds one from the graph.
        """
        if self._csr is not None:
            self._csr, _ = advance_view(self._csr, self.graph, updates)

    def set_snapshot(self, csr: CSRView) -> None:
        """Install an externally-built CSR snapshot of the *current* graph.

        The sliding-window benchmark harness builds snapshots directly
        from its window edge arrays (pure numpy, much faster than walking
        the dict graph); it must call this after every batch.
        """
        csr.ensure_covers(self.graph.capacity)
        self._csr = csr

    def _push(self, seeds: Iterable[int] | None) -> BatchStats:
        batch = BatchStats()
        start = clock.now()
        if self.sequential:
            seq = sequential_local_push(self.state, self.graph, self.config, seeds=seeds)
            batch.sequential_push = seq
        else:
            csr = self._snapshot() if self.config.backend is not Backend.PURE else None
            batch.push = parallel_local_push(
                self.state, self.graph, self.config, seeds=seeds, csr=csr
            )
        batch.wall_time = clock.now() - start
        return batch

    def apply_batch(
        self,
        updates: Sequence[EdgeUpdate],
        *,
        snapshot: CSRView | None = None,
    ) -> BatchStats:
        """Process one update batch: k restore-invariants, then one push.

        Returns the batch's operation trace (restore + push counters and
        wall time). The estimate is ε-approximate on return.

        ``snapshot`` may supply a CSR view of the graph *after* this
        batch, built externally (e.g. :meth:`repro.graph.stream.SlidingWindow.snapshot`
        or a serving layer sharing one snapshot across many trackers);
        when given, the tracker installs it instead of rebuilding its own.
        """
        start = clock.now()
        touched, change = restore_batch(
            self.graph,
            self.state,
            updates,
            self.config.alpha,
            kernel=self.config.kernel,
        )
        if snapshot is not None:
            self._csr = None  # a rejected snapshot must not leave a stale view
            self.set_snapshot(snapshot)
        else:
            self._advance_snapshot(updates)
        batch = self._push(seeds=touched)
        batch.restore = RestoreStats(len(updates), change)
        batch.wall_time = clock.now() - start
        self.batches_processed += 1
        self.updates_processed += len(updates)
        return batch

    def apply_update(self, update: EdgeUpdate) -> BatchStats:
        """Single-update convenience wrapper over :meth:`apply_batch`."""
        return self.apply_batch([update])

    # ------------------------------------------------------------------ #
    # verification
    # ------------------------------------------------------------------ #

    def current_error(self) -> float:
        """Exact max error vs. ground truth (slow; for tests/reports)."""
        truth = ground_truth_ppr(self.graph, self.source, self.config.alpha)
        return max_estimate_error(self.state.p, truth)

    def invariant_violation(self) -> float:
        """Max violation of Eq. 2 (should be float-rounding small always)."""
        return invariant_violation(self.state, self.graph, self.config.alpha)

    def is_converged(self) -> bool:
        """``max |r| <= epsilon`` — the push post-condition."""
        return self.state.residual_linf() <= self.config.epsilon

    def __repr__(self) -> str:
        return (
            f"DynamicPPRTracker(source={self.source}, n={self.graph.num_vertices},"
            f" m={self.graph.num_edges}, batches={self.batches_processed})"
        )

