"""Batched admission of cold sources into the serving pool.

A cold query (source not resident in the :class:`~repro.serve.cache.SourceCache`)
needs a from-scratch push — the expensive operation the serving layer
exists to avoid repeating. :class:`AdmissionPool` makes that cost
batch-shaped: cold sources queue up and are admitted
``admission_batch`` at a time, every push in the batch running the
vectorized engine against *one shared CSR snapshot*. On the paper's
workloads the snapshot build is a significant fraction of a single
from-scratch push, so batching amortizes it to near zero per source
(the same trick :class:`~repro.core.hub_index.DynamicHubIndex` uses for
its hub vectors).
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

from ..config import PPRConfig, ServeConfig
from ..core.push_parallel import parallel_local_push
from ..core.state import PPRState
from ..graph.delta import CSRView
from ..graph.digraph import DynamicDiGraph


class AdmissionPool:
    """Queue cold sources and admit them via batched from-scratch pushes.

    Parameters
    ----------
    config:
        Push configuration shared by every admission (the serving layer
        passes its own, so admitted states match resident ones).
    batch_size:
        Maximum sources admitted per :meth:`admit` batch; requests beyond
        it stay queued for the next batch.
    """

    def __init__(self, config: PPRConfig, batch_size: int = 8) -> None:
        self.config = config
        self.batch_size = max(1, batch_size)
        #: Insertion-ordered set: FIFO admission, O(1) membership and removal.
        self._pending: dict[int, None] = {}
        self.admissions = 0
        self.batches = 0

    @classmethod
    def from_config(cls, ppr: PPRConfig, serve: ServeConfig) -> "AdmissionPool":
        return cls(ppr, batch_size=serve.admission_batch)

    # ------------------------------------------------------------------ #
    # queueing
    # ------------------------------------------------------------------ #

    @property
    def pending(self) -> list[int]:
        """Sources queued but not yet admitted (FIFO order)."""
        return list(self._pending)

    def request(self, source: int) -> None:
        """Queue ``source`` for admission (idempotent while pending)."""
        self._pending[source] = None

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #

    def admit(
        self,
        graph: DynamicDiGraph | None,
        snapshot: CSRView | None,
        sources: Sequence[int] | None = None,
        *,
        capacity: int = 0,
    ) -> dict[int, PPRState]:
        """Push the given (or all pending) cold sources from scratch.

        Every push in the batch shares ``snapshot`` (a CSR view of
        ``graph``; ``None`` only for the pure backend). Returns the
        freshly-converged state per source; admitted sources are removed
        from the pending queue.

        ``graph=None`` pushes the given, already registered ``sources``
        against ``snapshot`` alone, at the ``capacity`` the caller pinned
        with it, and leaves queue and counters to :meth:`record`: the
        batch then reads only an immutable view and writes only its new
        states, which is how a cold read runs with the gateway lock
        released (``PPRService._admit_released``).
        """
        if sources is None:
            sources = list(itertools.islice(self._pending, self.batch_size))
        if graph is not None:
            for source in sources:
                if not graph.has_vertex(source):
                    graph.add_vertex(source)
            capacity = graph.capacity  # per batch: no source below grows it
            if snapshot is not None:
                snapshot.ensure_covers(capacity)
        admitted: dict[int, PPRState] = {}
        for source in sources:
            state = PPRState.initial(source, capacity)
            parallel_local_push(
                state, graph, self.config, seeds=[source], csr=snapshot
            )
            admitted[source] = state
        if graph is not None:
            self.record(admitted)
        return admitted

    def record(self, admitted: dict[int, PPRState]) -> None:
        """Count one admitted batch and drop its sources from the queue."""
        for source in admitted:
            self._pending.pop(source, None)
        self.admissions += len(admitted)
        if admitted:
            self.batches += 1

    def drain(
        self, graph: DynamicDiGraph, snapshot: CSRView | None
    ) -> dict[int, PPRState]:
        """Admit *everything* pending, in as many batches as needed."""
        admitted: dict[int, PPRState] = {}
        while self._pending:
            admitted.update(self.admit(graph, snapshot))
        return admitted

    def __repr__(self) -> str:
        return (
            f"AdmissionPool(pending={len(self._pending)},"
            f" admitted={self.admissions}, batches={self.batches})"
        )
