"""The multi-query PPR serving layer (:class:`PPRService`).

This is the piece the paper's maintenance machinery exists to feed
(Section 6's who-to-follow and hub-index integrations): one maintained
dynamic graph, many personalization sources answered from maintained
state. The service owns

* one :class:`~repro.graph.digraph.DynamicDiGraph` — every stream update
  is applied to it exactly once;
* a *versioned* CSR snapshot shared by every push that version triggers
  (resident refreshes, cold admissions, hub re-convergence) — advanced
  per batch as a :class:`~repro.graph.delta.DeltaCSRGraph` overlay
  (O(batch) per ingest, amortized consolidation);
* a :class:`~repro.serve.cache.SourceCache` of resident per-source states
  with LRU eviction;
* an :class:`~repro.serve.pool.AdmissionPool` that pushes a cold source
  from scratch when a read or a prefetch names it;
* optionally a :class:`~repro.core.hub_index.DynamicHubIndex` tier that is
  always resident and re-converged eagerly at ingest.

Freshness contract: under the default FRESH consistency every answer is
ε-approximate on the *latest* graph version — a lazy refresh pushes the
queried source to convergence before answering, started where a residual
now exceeds ε (a scan of ``r``, :meth:`PPRService._refresh`). Per-request
BOUNDED/ANY contracts (``max_staleness``) may serve the resident state
as-is; the answer's ``snapshot_version`` reports the version it is
actually ε-approximate on. The recorded *staleness* of a query is how
many ingested updates the state was behind when the query arrived (what
the answer's age would have been had we served without refreshing).

The service is the *engine* behind the typed gateway API
(:mod:`repro.api`): the public methods here are thin compatibility
shims that build typed requests and delegate through :attr:`PPRService.gateway`,
while the ``_execute_*`` methods are the engine the gateway drives.

See ``docs/serving.md`` for the design rationale, ``docs/api.md`` for
the gateway protocol, and ``examples/serving_demo.py`` for a runnable
walkthrough.
"""

from __future__ import annotations

from collections.abc import Sequence
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .. import obs
from ..config import Backend, PPRConfig, ServeConfig
from ..core.certify import CertifiedEntry, certified_top_k, error_bound
from ..core.hub_index import DynamicHubIndex
from ..core.invariant import restore_states
from ..core.push_parallel import parallel_local_push
from ..core.stats import PushStats
from ..obs import clock
from ..errors import ConfigError, VertexError
from ..graph.csr import CSRGraph
from ..graph.delta import CSRView, DeltaCSRGraph, advance_view
from ..graph.digraph import DynamicDiGraph
from ..graph.stream import WindowSlide
from ..graph.update import EdgeUpdate, as_batch
from ..graph.workloads import (
    PreparedWorkload,
    WorkloadSpec,
    build_workload,
    default_config,
)
from ..kernels import counters as kernel_counters
from .cache import ResidentSource, SourceCache
from .pool import AdmissionPool

if TYPE_CHECKING:  # repro.store / repro.api import repro.serve; keep runtime one-way
    from ..api.client import Client
    from ..api.gateway import Gateway
    from ..store.store import StateStore


@dataclass(frozen=True)
class ServedQuery:
    """One answered query: the ranking plus serving metadata."""

    source: int
    entries: list[CertifiedEntry]
    #: Graph/snapshot version the answer is ε-approximate on.
    snapshot_version: int
    #: Ingested updates the resident state was behind at query arrival
    #: (0 for cold admissions).
    staleness_updates: int
    #: Whether the source had to be admitted (from-scratch push) to answer.
    cold: bool
    wall_time: float

    @property
    def vertices(self) -> list[int]:
        """Ranked vertex ids, best first."""
        return [entry.vertex for entry in self.entries]


@dataclass(frozen=True)
class ServedScore:
    """One answered point-score lookup plus serving metadata."""

    source: int
    target: int
    estimate: float
    #: Rigorous bound: |estimate - true PPR| <= error_bound.
    error_bound: float
    snapshot_version: int
    staleness_updates: int
    cold: bool
    wall_time: float


@dataclass
class ServiceMetrics:
    """Aggregate serving counters, with percentile staleness.

    Per-query samples (staleness, wall time) are kept in bounded
    buffers — once :attr:`MAX_SAMPLES` is reached the oldest half is
    dropped, so percentiles and the wall-clock query rate describe the
    recent window while the scalar counters remain lifetime totals.
    """

    #: Retained per-query samples; a long-running service must not grow
    #: its metrics memory with every query it ever answered.
    MAX_SAMPLES = 100_000

    queries: int = 0
    cold_admissions: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    evictions: int = 0
    resident: int = 0
    #: Top-k answers served from a resident's memo: ``certified_top_k``
    #: ran ``top-k queries - answer_memo_hits`` times.
    answer_memo_hits: int = 0
    #: Cold reads whose lock-released push lost to a concurrent ingest,
    #: registration or admission of the same source: the state was
    #: discarded and the read answered under the lock instead.
    admission_races: int = 0
    snapshot_rebuilds: int = 0
    snapshot_delta_applies: int = 0
    snapshot_consolidations: int = 0
    updates_ingested: int = 0
    batches_ingested: int = 0
    #: Residual mass ``RestoreInvariant`` moved — ``Σ|Δ|`` over every
    #: update and every maintained vector, the quantity Lemma 3 bounds:
    #: lifetime total and the last batch's.
    residual_restored: float = 0.0
    residual_restored_last: float = 0.0
    #: Mirrors of the attached store's checkpoint counters (0 without
    #: one): ``checkpoint_ms_last`` is the stall the last checkpoint put
    #: on the ingest ack path, ``checkpoint_write_ms_last`` what its
    #: writer thread then spent; ``graph_replay_batches`` is how many WAL
    #: batches a recovery now would apply graph-only on top of the base.
    checkpoints_written: int = 0
    checkpoint_ms_last: float = 0.0
    checkpoint_write_ms_last: float = 0.0
    checkpoint_bytes_last: int = 0
    checkpoint_in_flight: int = 0
    graph_base_version: int = 0
    graph_replay_batches: int = 0
    staleness_samples: list[int] = field(default_factory=list, repr=False)
    query_seconds: list[float] = field(default_factory=list, repr=False)

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def record_query(self, staleness: int, seconds: float) -> None:
        """Count one answered query, trimming sample buffers when full."""
        self.queries += 1
        self.staleness_samples.append(staleness)
        self.query_seconds.append(seconds)
        if len(self.staleness_samples) > self.MAX_SAMPLES:
            del self.staleness_samples[: self.MAX_SAMPLES // 2]
        if len(self.query_seconds) > self.MAX_SAMPLES:
            del self.query_seconds[: self.MAX_SAMPLES // 2]

    def record_restore(self, restored: float) -> None:
        """Count one batch's restored residual mass (``Σ|Δ|``)."""
        self.residual_restored += restored
        self.residual_restored_last = restored

    def staleness_percentile(self, q: float) -> float:
        """The ``q``-th percentile of per-query arrival staleness.

        Returns ``0.0`` with no recorded queries — a fresh or restored
        service must report clean zeros, not NaN, on its stats surface.
        """
        if not self.staleness_samples:
            return 0.0
        return float(np.percentile(np.asarray(self.staleness_samples), q))

    def latency_percentile(self, q: float) -> float:
        """The ``q``-th percentile of per-query wall time, in seconds."""
        if not self.query_seconds:
            return 0.0
        return float(np.percentile(np.asarray(self.query_seconds), q))

    @property
    def queries_per_second(self) -> float:
        total = sum(self.query_seconds)
        return len(self.query_seconds) / total if total > 0 else 0.0

    def to_dict(self) -> dict:
        """JSON-safe structured snapshot (the ``/v1/stats`` payload).

        Every value is a plain int/float — the sample buffers themselves
        stay private; percentiles summarize them.
        """
        return {
            "queries": self.queries,
            "queries_per_second": self.queries_per_second,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "hit_rate": self.hit_rate,
            "evictions": self.evictions,
            "resident": self.resident,
            "answer_memo_hits": self.answer_memo_hits,
            "admission_races": self.admission_races,
            "cold_admissions": self.cold_admissions,
            "updates_ingested": self.updates_ingested,
            "batches_ingested": self.batches_ingested,
            "residual_restored": self.residual_restored,
            "residual_restored_last": self.residual_restored_last,
            "checkpoints_written": self.checkpoints_written,
            "checkpoint_ms_last": self.checkpoint_ms_last,
            "checkpoint_write_ms_last": self.checkpoint_write_ms_last,
            "checkpoint_bytes_last": self.checkpoint_bytes_last,
            "checkpoint_in_flight": self.checkpoint_in_flight,
            "graph_base_version": self.graph_base_version,
            "graph_replay_batches": self.graph_replay_batches,
            "snapshot_rebuilds": self.snapshot_rebuilds,
            "snapshot_delta_applies": self.snapshot_delta_applies,
            "snapshot_consolidations": self.snapshot_consolidations,
            # kernel_calls / kernel_fallbacks / push_iterations: the
            # process-wide dispatch totals of repro.kernels.
            **kernel_counters(),
            "staleness_p50": self.staleness_percentile(50),
            "staleness_p99": self.staleness_percentile(99),
            "latency_p50_s": self.latency_percentile(50),
            "latency_p99_s": self.latency_percentile(99),
            "latency_p999_s": self.latency_percentile(99.9),
        }

    def describe(self) -> str:
        """Multi-line human-readable summary (CLI / demo output)."""
        return "\n".join(
            [
                f"queries:            {self.queries}"
                f" ({self.queries_per_second:,.0f}/s wall)",
                f"cache:              {self.cache_hits} hits /"
                f" {self.cache_misses} misses ({self.hit_rate:.0%} hit rate),"
                f" {self.evictions} evictions, {self.resident} resident",
                f"cold admissions:    {self.cold_admissions}",
                f"updates ingested:   {self.updates_ingested}"
                f" in {self.batches_ingested} batches,"
                f" {self.snapshot_rebuilds} snapshot rebuilds",
                f"delta snapshots:    {self.snapshot_delta_applies} applied,"
                f" {self.snapshot_consolidations} consolidations",
                f"staleness (updates): p50={self.staleness_percentile(50):.0f}"
                f" p99={self.staleness_percentile(99):.0f}",
            ]
        )


class PPRService:
    """Serve many concurrent PPR top-k queries from maintained state.

    Parameters
    ----------
    graph:
        The dynamic graph. The service takes ownership: all further
        mutations must flow through :meth:`ingest` so resident states and
        the hub index stay invariant-consistent.
    config:
        Push configuration shared by every resident source and hub.
        Defaults to the vectorized backend, the only one the serving
        layer runs: every push it makes reads a CSR view.
    serve:
        Serving-layer knobs (:class:`repro.config.ServeConfig`). When
        ``serve.store`` is set, a :class:`repro.store.StateStore` is
        attached at construction (writing a baseline checkpoint) and every
        ingested batch is persisted — see ``docs/persistence.md``.
    hubs:
        Explicit hub vertex ids for the always-resident hub tier;
        overrides ``serve.num_hubs`` auto-selection.
    store:
        An explicit :class:`repro.store.StateStore` to attach (overrides
        ``serve.store``); ``None`` with no ``serve.store`` keeps the
        service purely in-memory.

    Examples
    --------
    >>> from repro.graph import DynamicDiGraph, insertions
    >>> g = DynamicDiGraph([(1, 0), (2, 0), (2, 1), (0, 2)])
    >>> service = PPRService(g)
    >>> service.query(0, k=2).vertices[0]
    0
    >>> _ = service.ingest(insertions([(1, 2)]))
    >>> service.query(0, k=2).snapshot_version
    1
    """

    def __init__(
        self,
        graph: DynamicDiGraph,
        config: PPRConfig | None = None,
        serve: ServeConfig | None = None,
        *,
        hubs: Sequence[int] | None = None,
        store: "StateStore | None" = None,
    ) -> None:
        self.config = config or PPRConfig(backend=Backend.NUMPY)
        if self.config.backend is not Backend.NUMPY:
            raise ConfigError(
                "the serving layer requires Backend.NUMPY: every push it"
                f" makes reads a CSR view (got {self.config.backend.value})"
            )
        self.serve = serve or ServeConfig()
        self.graph = graph
        self.cache = SourceCache.from_config(self.serve)
        self.pool = AdmissionPool(self.config)
        self.hub_index: DynamicHubIndex | None = None
        if hubs is not None or self.serve.num_hubs > 0:
            self.hub_index = DynamicHubIndex(
                graph,
                hubs=hubs,
                num_hubs=max(self.serve.num_hubs, 1),
                config=self.config,
            )
        self.graph_version = 0
        self._csr: CSRView | None = None
        self._csr_version = -1
        #: Attached shared-memory bundle (shm-bootstrapped replicas only):
        #: pins the mapping for as long as this service hands out views.
        self._shm_bundle = None
        self._metrics = ServiceMetrics()
        self._gateway: "Gateway | None" = None
        self.store: "StateStore | None" = None
        if store is None and self.serve.store is not None:
            from ..store.store import StateStore  # runtime import: no cycle

            store = StateStore.from_config(self.serve.store)
        if store is not None:
            self.attach_store(store)

    # ------------------------------------------------------------------ #
    # gateway seam
    # ------------------------------------------------------------------ #

    @property
    def gateway(self) -> "Gateway":
        """The typed request/response gateway fronting this engine.

        The single public seam of the serving layer (:mod:`repro.api`):
        the legacy convenience methods below (:meth:`query`,
        :meth:`ingest`, …) are thin shims that build typed requests and
        delegate here, so every operation — embedded or over HTTP —
        flows through one validation/scheduling path.
        """
        if self._gateway is None:
            from ..api.gateway import Gateway  # runtime import: no cycle

            self._gateway = Gateway(self)
        return self._gateway

    @property
    def api(self) -> "Client":
        """An embedded :class:`repro.api.Client` bound to this engine."""
        from ..api.client import Client  # runtime import: no cycle

        return Client(self.gateway)

    # ------------------------------------------------------------------ #
    # durability
    # ------------------------------------------------------------------ #

    def attach_store(self, store: "StateStore", *, checkpoint: bool = True) -> None:
        """Persist every future ingest through ``store``.

        By default a baseline checkpoint of the *current* state — graph
        base included — is written immediately, so the store can always
        recover without replaying history it never saw (the WAL only
        covers post-attach batches). ``checkpoint=False`` is for a
        service that was itself rebuilt from ``store``'s directory.
        """
        self.store = store
        if checkpoint:
            store.invalidate_base()
            store.checkpoint(self)
            store.wait()

    def detach_store(self) -> "StateStore | None":
        """Stop persisting; returns the previously attached store."""
        store, self.store = self.store, None
        return store

    @classmethod
    def restore(
        cls,
        *,
        graph: DynamicDiGraph,
        config: PPRConfig,
        serve: ServeConfig,
        residents: Sequence[ResidentSource],
        hub_index: DynamicHubIndex | None,
        graph_version: int,
        updates_ingested: int,
        batches_ingested: int,
    ) -> "PPRService":
        """Rebuild a service from checkpointed state, running no pushes.

        The restoration path of :mod:`repro.store`: ``residents`` are
        installed as-is in the given (LRU→MRU) order, ``hub_index`` is
        adopted without re-convergence, and the version/staleness
        counters resume where the checkpoint left them. Lifetime query
        metrics (hits, admissions, …) restart at zero — they are
        observability, not state.
        """
        serve_inert = serve.with_(num_hubs=0, store=None)
        service = cls(graph, config, serve_inert)
        service.serve = serve
        service.hub_index = hub_index
        service.graph_version = graph_version
        service._metrics.updates_ingested = updates_ingested
        service._metrics.batches_ingested = batches_ingested
        for entry in residents:
            service.cache.put(entry)
        service.cache.hits = 0
        service.cache.misses = 0
        service.cache.evictions = 0
        return service

    @classmethod
    def from_shared_snapshot(
        cls,
        descriptor: dict,
        *,
        config: PPRConfig | None = None,
        serve: ServeConfig | None = None,
        hubs: Sequence[int] | None = None,
        graph_version: int = 0,
    ) -> "PPRService":
        """Build a replica by *attaching* a published shared-memory snapshot.

        The replica-bootstrap path of the cluster tier
        (:mod:`repro.cluster`): ``descriptor`` names a
        :class:`~repro.graph.shm.SharedArrayBundle` published by the
        coordinator — the primary's order-exact
        :meth:`~repro.graph.digraph.DynamicDiGraph.to_arrays` dump, plus
        (when present) the consolidated CSR arrays of the same version.
        The graph is built straight from the shared arrays (vectorized
        copies, no per-edge Python) and the CSR is installed directly over
        them, so the replica rebuilds no snapshot. The new service starts at
        ``graph_version`` with an empty resident cache; passing the
        primary's ``hubs`` rebuilds (and re-converges) the same hub tier.
        Answers are bit-identical to the primary's — the round trip
        preserves adjacency iteration order, and the shared CSR is the
        same order-exact consolidation a local rebuild would produce.

        The attached bundle is pinned on the service (``_shm_bundle``) so
        the mapping outlives every numpy view handed out.
        """
        from ..graph.shm import SharedArrayBundle

        bundle = SharedArrayBundle.attach(descriptor)
        arrays = bundle.arrays()
        graph = DynamicDiGraph.from_arrays(arrays)
        service = cls(graph, config, serve, hubs=hubs)
        service.graph_version = graph_version
        if "csr_indptr" in arrays:
            service.set_snapshot(
                CSRGraph(
                    arrays["csr_indptr"],
                    arrays["csr_indices"],
                    arrays["csr_dout"],
                )
            )
        service._shm_bundle = bundle
        return service

    # ------------------------------------------------------------------ #
    # snapshots
    # ------------------------------------------------------------------ #

    def _snapshot(self) -> CSRView:
        """The shared CSR view of the current graph version.

        Normally advanced incrementally by :meth:`ingest`
        (:meth:`_advance_snapshot`); the full rebuild here is the cold
        start and the fallback when the version chain was broken.
        """
        if self._csr is None or self._csr_version != self.graph_version:
            with obs.span("snapshot.rebuild", version=self.graph_version):
                self._csr = DeltaCSRGraph.wrap(CSRGraph.from_digraph(self.graph))
                self._csr_version = self.graph_version
                self._metrics.snapshot_rebuilds += 1
        return self._csr

    def _advance_snapshot(self, batch: np.ndarray) -> None:
        """Derive the new version's view from the previous one, if possible.

        The delta hot path: when the cached view covers the *previous*
        version, layer this batch's row overlay on it (O(batch), not
        O(m)), consolidating once the overlay outgrows its threshold
        (:func:`~repro.graph.delta.advance_view`). Otherwise the next
        :meth:`_snapshot` rebuilds.
        """
        if self._csr is None or self._csr_version != self.graph_version - 1:
            return
        with obs.span("snapshot.advance", updates=len(batch)) as span:
            self._csr, consolidated = advance_view(self._csr, self.graph, batch)
            self._csr_version = self.graph_version
            if consolidated:
                self._metrics.snapshot_consolidations += 1
                span.set(consolidated=True)
            else:
                self._metrics.snapshot_delta_applies += 1

    def shared_snapshot_arrays(self) -> dict[str, np.ndarray]:
        """The current version's CSR as flat arrays for shm publication.

        A delta overlay view is consolidated first (the consolidation is
        order-exact, so a replica pushing on these arrays stays
        bit-identical to one that rebuilt its own snapshot) and the
        consolidated view is kept as this service's snapshot — the work
        is not thrown away.
        """
        view = self._snapshot()
        if isinstance(view, DeltaCSRGraph):
            view = view.consolidate()
            self._csr = DeltaCSRGraph.wrap(view)
        return {
            "csr_indptr": view.indptr,
            "csr_indices": view.indices,
            "csr_dout": view.dout,
        }

    def set_snapshot(self, csr: CSRView) -> None:
        """Install an externally-built snapshot of the *current* version.

        A worker attaching a shared-memory bootstrap installs the
        coordinator's CSR arrays here, sparing the service its own
        O(n + m) rebuild. Accepts a frozen
        :class:`~repro.graph.csr.CSRGraph` or a
        :class:`~repro.graph.delta.DeltaCSRGraph` overlay view.
        """
        csr.ensure_covers(self.graph.capacity)
        self._csr = csr
        self._csr_version = self.graph_version

    @property
    def snapshot_version(self) -> int:
        """Version of the currently-cached snapshot (-1 before the first)."""
        return self._csr_version

    # ------------------------------------------------------------------ #
    # ingest path
    # ------------------------------------------------------------------ #

    def ingest(
        self,
        updates: Sequence[EdgeUpdate] | WindowSlide,
        *,
        snapshot: CSRGraph | None = None,
    ) -> dict[int, PushStats]:
        """Apply one update batch (compatibility shim over the gateway).

        Builds an :class:`~repro.api.requests.IngestBatch` and delegates
        through :attr:`gateway`; see :meth:`_execute_ingest` for the
        engine semantics and durability contract. Returns the push traces
        of the pushes the ingest ran.
        """
        from ..api.requests import IngestBatch

        if isinstance(updates, WindowSlide):
            updates = list(updates.updates)
        result = self.gateway.execute(
            IngestBatch(updates=tuple(updates), snapshot=snapshot)
        )
        return dict(result.traces)

    def _execute_ingest(
        self,
        updates: Sequence[EdgeUpdate],
        *,
        snapshot: CSRGraph | None = None,
    ) -> dict[int, PushStats]:
        """Apply one update batch and restore every maintained consumer.

        The graph applies the batch once, atomically; the invariant repair
        then fans out to every resident source and every hub vector. A
        batch the graph rejects (e.g. deleting an absent edge) raises
        :class:`~repro.errors.EdgeError` and changes nothing — graph,
        states, view, version and log are as they were.
        Resident pushes are deferred to the next read of each source that
        needs them; the hub tier re-converges here, on the new snapshot.
        Returns the push traces of the hub pushes that ran.

        ``snapshot`` may supply a pre-built CSR view of the graph *after*
        this batch (see :meth:`set_snapshot`).

        With a store attached, the batch is appended to the write-ahead
        log as soon as it has fully applied — before it is acknowledged
        to the caller and before any checkpoint can include it — so a
        batch the graph *rejects* (e.g. deleting an absent edge) never
        poisons the log, while every acknowledged batch is durable.
        Every ``StoreConfig.checkpoint_interval`` batches the ingest
        also *captures* a checkpoint; the files are written off this
        path and are on disk before the next batch is acknowledged.
        """
        batch = as_batch(updates)
        with obs.span("engine.ingest", updates=len(batch)):
            states = [entry.state for entry in self.cache.entries()]
            if self.hub_index is not None:
                states += self.hub_index.states
            # A batch the graph rejects raises here, before anything changed.
            deltas = restore_states(
                self.graph,
                states,
                batch,
                self.config.alpha,
                kernel=self.config.kernel,
            )
            self._metrics.record_restore(float(np.abs(deltas).sum()))
            if self.store is not None:
                self.store.log_batch(self.graph_version + 1, batch)
            self.graph_version += 1
            self._metrics.updates_ingested += len(batch)
            self._metrics.batches_ingested += 1
            if snapshot is not None:
                self.set_snapshot(snapshot)
            else:
                self._advance_snapshot(batch)

            traces: dict[int, PushStats] = {}
            if self.hub_index is not None:
                touched = batch[:, 0].tolist()
                with obs.span("hub.reconverge", touched=len(touched)):
                    traces = self.hub_index.reconverge(
                        touched, snapshot=self._snapshot()
                    )
            if self.store is not None:
                self.store.maybe_checkpoint(self)
            return traces

    def _refresh(self, entry: ResidentSource) -> PushStats:
        """Push one resident back to convergence on the current version.

        The first frontier is a scan of ``r`` (``seeds=None``): a converged
        push leaves ``|r| <= ε`` everywhere and RestoreInvariant writes only
        an update's ``r[u]``, so it is exactly the touched vertices that
        pass ``pushCond`` — with no per-resident log of them to keep.
        """
        # The versions move only when the push returns; one that raises
        # (ConvergenceError) has already rewritten p and r.
        entry.memo_stamp = None
        with obs.span("push.refresh", source=entry.source) as span:
            stats = parallel_local_push(
                entry.state, self.graph, self.config, csr=self._snapshot()
            )
            span.set(iterations=stats.num_iterations)
        entry.mark_converged(self.graph_version, self._metrics.updates_ingested)
        return stats

    # ------------------------------------------------------------------ #
    # query path
    # ------------------------------------------------------------------ #

    def query(
        self,
        source: int,
        k: int | None = None,
        *,
        max_staleness: int | None = 0,
    ) -> ServedQuery:
        """Answer one top-k query (compatibility shim over the gateway).

        Builds a :class:`~repro.api.requests.TopKQuery` at the matching
        consistency (``max_staleness=0`` → FRESH, ``s`` → BOUNDED(s),
        ``None`` → ANY) and delegates through :attr:`gateway`; see
        :meth:`_execute_query` for the engine semantics.
        """
        from ..api.requests import TopKQuery, consistency_for

        result = self.gateway.execute(
            TopKQuery(
                source=source, k=k, consistency=consistency_for(max_staleness)
            )
        )
        assert result.served is not None  # embedded execution always attaches it
        return result.served

    def _resident(
        self,
        source: int,
        max_staleness: int | None,
        release: AbstractContextManager | None = None,
        k: int | None = None,
    ) -> tuple[ResidentSource, int, bool]:
        """The resident entry serving ``source`` under a staleness contract.

        Returns ``(entry, arrival_staleness, cold)``. Cold sources are
        admitted (always fresh) and certified at ``k`` (see
        :meth:`_admit`, which ``release`` lets give the gateway lock
        up); resident ones are refreshed only when their version lag
        exceeds ``max_staleness`` (``None`` = never, the ANY contract).
        """
        entry = self.cache.get(source)
        if entry is None:
            entry = self._admit(source, k, release)
            if entry is None:
                # Lost a race: answer under the lock, as if this read had
                # arrived after whatever it lost to. The lookup below
                # counts the miss (or hit) again.
                self.cache.misses -= 1
                return self._resident(source, max_staleness, k=k)
            return entry, 0, True
        staleness = self._metrics.updates_ingested - entry.updates_reflected
        behind = self.graph_version - entry.version
        if behind > 0 and max_staleness is not None and behind > max_staleness:
            self._refresh(entry)
        return entry, staleness, False

    def _execute_query(
        self,
        source: int,
        k: int | None = None,
        *,
        max_staleness: int | None = 0,
        release: AbstractContextManager | None = None,
    ) -> ServedQuery:
        """Answer one top-k query, ε-fresh up to the staleness contract.

        Under the default contract (``max_staleness=0``, FRESH) the
        answer is ε-approximate on the *latest* graph version: resident
        sources are refreshed in place if stale; a cold source is pushed
        from scratch and certified by :meth:`_admit`. A looser contract
        (BOUNDED/ANY) may serve the resident state as-is; the answer's
        ``snapshot_version`` then reports the version it is actually
        ε-approximate on. ``release`` lets a cold admission give the
        gateway lock up (see :meth:`_admit`).
        """
        k = self.serve.top_k if k is None else k
        start = clock.now()
        with obs.span("engine.query", source=source, k=k) as span:
            entry, staleness, cold = self._resident(source, max_staleness, release, k)
            if cold:  # certified with its push
                answer = list(entry.memo[k])
            else:
                answer = self._certified(entry, k)
            span.set(cold=cold, staleness=staleness)
        entry.queries += 1
        wall = clock.now() - start
        self._metrics.record_query(staleness, wall)
        return ServedQuery(
            source=source,
            entries=answer,
            snapshot_version=entry.version,
            staleness_updates=staleness,
            cold=cold,
            wall_time=wall,
        )

    def _certified(self, entry: ResidentSource, k: int) -> list[CertifiedEntry]:
        """``certified_top_k(entry.state, k)``, computed once per state.

        The answer is a function of ``(k, graph_version, entry.version)``:
        an ingest repairs ``r`` of *every* resident — the certified bound
        moves even for one served unrefreshed under BOUNDED/ANY — and
        bumps ``graph_version``; a refresh rewrites ``p`` and ``r`` and
        bumps ``entry.version``; an admission or a recovery makes a new
        entry. A hit is a fresh list of the same frozen entries.
        """
        stamp = (self.graph_version, entry.version)
        if entry.memo_stamp != stamp:
            entry.memo.clear()
            entry.memo_stamp = stamp
        answer = entry.memo.get(k)
        if answer is None:
            with obs.span("topk.certify", source=entry.source, k=k):
                answer = entry.memo[k] = tuple(certified_top_k(entry.state, k))
        else:
            self._metrics.answer_memo_hits += 1
        return list(answer)

    def _execute_score(
        self,
        source: int,
        target: int,
        *,
        max_staleness: int | None = 0,
    ) -> ServedScore:
        """One point score: ``target``'s value in ``source``'s PPR vector.

        Same residency/consistency mechanics as :meth:`_execute_query`,
        but the answer is a single estimate with its rigorous error
        bound instead of a ranking. Unknown targets raise
        :class:`~repro.errors.VertexError` (a query cannot register a
        vertex it only *scores*; sources, as in :meth:`_execute_query`,
        are registered on demand).
        """
        start = clock.now()
        if not self.graph.has_vertex(target):
            raise VertexError(target)
        entry, staleness, cold = self._resident(source, max_staleness)
        entry.queries += 1
        wall = clock.now() - start
        self._metrics.record_query(staleness, wall)
        return ServedScore(
            source=source,
            target=target,
            estimate=entry.state.estimate(target),
            error_bound=error_bound(entry.state),
            snapshot_version=entry.version,
            staleness_updates=staleness,
            cold=cold,
            wall_time=wall,
        )

    def query_many(
        self,
        sources: Sequence[int],
        k: int | None = None,
        *,
        max_staleness: int | None = 0,
    ) -> list[ServedQuery]:
        """Answer a query batch (compatibility shim over the gateway)."""
        from ..api.requests import BatchQuery, consistency_for

        result = self.gateway.execute(
            BatchQuery(
                sources=tuple(sources),
                k=k,
                consistency=consistency_for(max_staleness),
            )
        )
        return [r.served for r in result.results]

    def _execute_query_many(
        self,
        sources: Sequence[int],
        k: int | None = None,
        *,
        max_staleness: int | None = 0,
    ) -> list[ServedQuery]:
        """Answer a batch of queries: :meth:`_execute_query` per source, in order.

        A batch answers exactly what the same reads sent one by one
        would: each cold source is pushed once, when the batch reaches
        it, against the view every push of this version reads.
        """
        return [
            self._execute_query(s, k, max_staleness=max_staleness) for s in sources
        ]

    def _ensure_vertices(self, sources: Sequence[int]) -> None:
        """Register unknown source ids (new users) before admission.

        Growing the id space invalidates the cached snapshot even though
        the graph version is unchanged — its arrays are capacity-sized.
        """
        new = [s for s in dict.fromkeys(sources) if not self.graph.has_vertex(s)]
        if not new:
            return
        for s in new:
            self.graph.add_vertex(s)
        if self.store is not None:
            self.store.log_vertices(self.graph_version, new)
        if self._csr is not None and self._csr_version == self.graph_version:
            # Registering vertices adds no adjacency: pad the overlay's
            # dense arrays instead of invalidating the whole snapshot.
            view = self._csr
            if not isinstance(view, DeltaCSRGraph):
                view = DeltaCSRGraph.wrap(view)
            self._csr = view.with_capacity(self.graph.capacity)
        else:
            self._csr_version = -1

    def _admit(
        self,
        source: int,
        k: int | None = None,
        release: AbstractContextManager | None = None,
    ) -> ResidentSource | None:
        """Push ``source`` from scratch, certify it at ``k``, install it.

        Under the lock: register the source, then pin the view, the
        capacity and the version (and build the view's kernel arrays,
        cached on it). The push and the certify read the pinned view
        alone. With ``release`` (a top-level top-k read) and an
        immutable view they run inside it, the lock given up — an ingest
        or a registration running meanwhile makes a new view — and back
        under the lock the state and its memo entry are installed only
        if version and capacity have not moved and nobody made
        ``source`` resident meanwhile; then the answer is the one a
        serialized read would have got. Otherwise the state is
        discarded, never merged, counted in ``admission_races``, and
        ``None`` sends the read down the locked path once. Without
        ``release`` (a nested read, a prefetch) or on a live view (the
        shard tier) everything runs under the lock.
        """
        self._ensure_vertices([source])
        view = self._snapshot()
        if isinstance(view, (CSRGraph, DeltaCSRGraph)):
            view.kernel_arrays()
        else:
            release = None
        pinned = (self.graph_version, self.graph.capacity)
        with obs.span("push.admit", source=source):
            with release or nullcontext():
                state = self.pool.admit(view, source, pinned[1])
                if k is not None:
                    with obs.span("topk.certify", source=source, k=k):
                        answer = tuple(certified_top_k(state, k))
        if release is not None and (
            (self.graph_version, self.graph.capacity) != pinned or source in self.cache
        ):
            self._metrics.admission_races += 1
            return None
        self._metrics.cold_admissions += 1
        entry = ResidentSource(
            state=state,
            version=self.graph_version,
            updates_reflected=self._metrics.updates_ingested,
        )
        self.cache.put(entry)
        if k is not None:
            entry.memo[k] = answer
            entry.memo_stamp = (self.graph_version, entry.version)
        return entry

    def prefetch(self, source: int) -> None:
        """Admit ``source`` ahead of its reads (compatibility shim)."""
        from ..api.requests import Prefetch

        self.gateway.execute(Prefetch(sources=(source,)))

    def _execute_prefetch(self, source: int) -> bool:
        """Admit ``source`` now if it is not resident, answering nothing.

        Returns whether this call pushed it.
        """
        if source in self.cache:
            return False
        self._admit(source)
        return True

    # ------------------------------------------------------------------ #
    # hub tier passthrough
    # ------------------------------------------------------------------ #

    @property
    def hubs(self) -> list[int]:
        """Hub ids of the always-resident tier ([] when disabled)."""
        return self.hub_index.hubs if self.hub_index is not None else []

    def hub_scores(self, v: int) -> dict[int, float]:
        """``v``'s contribution to every hub (requires the hub tier)."""
        if self.hub_index is None:
            raise ConfigError("hub tier disabled: set ServeConfig.num_hubs > 0")
        return self.hub_index.hub_scores(v)

    def rank_for_hub(self, hub: int, k: int) -> list[CertifiedEntry]:
        """Certified top-k contributors of ``hub`` (compatibility shim)."""
        from ..api.requests import HubQuery

        result = self.gateway.execute(HubQuery(hub=hub, k=k))
        return list(result.entries)

    def _execute_rank_for_hub(self, hub: int, k: int | None) -> list[CertifiedEntry]:
        """Certified top-k contributors of ``hub`` (requires the hub tier)."""
        if self.hub_index is None:
            raise ConfigError("hub tier disabled: set ServeConfig.num_hubs > 0")
        return self.hub_index.rank_for_hub(hub, self.serve.top_k if k is None else k)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def is_resident(self, source: int) -> bool:
        return source in self.cache

    def resident_sources(self) -> list[int]:
        """Resident source ids, least recently queried first."""
        return self.cache.sources()

    def metrics(self) -> ServiceMetrics:
        """A snapshot of the aggregate serving counters."""
        self._metrics.cache_hits = self.cache.hits
        self._metrics.cache_misses = self.cache.misses
        self._metrics.evictions = self.cache.evictions
        self._metrics.resident = len(self.cache)
        store = self.store
        if store is not None:
            self._metrics.checkpoints_written = store.checkpoints_written
            self._metrics.checkpoint_ms_last = store.checkpoint_ms_last
            self._metrics.checkpoint_write_ms_last = store.checkpoint_write_ms_last
            self._metrics.checkpoint_bytes_last = store.checkpoint_bytes_last
            self._metrics.checkpoint_in_flight = int(store.checkpoint_in_flight)
            self._metrics.graph_replay_batches = store.graph_replay_batches
            self._metrics.graph_base_version = (
                store.checkpoint_version or 0
            ) - store.graph_replay_batches
        return self._metrics

    def __repr__(self) -> str:
        return (
            f"PPRService(resident={len(self.cache)}/{self.cache.capacity},"
            f" version={self.graph_version}, n={self.graph.num_vertices},"
            f" m={self.graph.num_edges}, hubs={len(self.hubs)})"
        )


def workload_service(
    dataset: str,
    *,
    epsilon: float = 1e-5,
    workers: int = 40,
    cache_capacity: int = 64,
    num_hubs: int = 0,
    top_k: int = 10,
    config: PPRConfig | None = None,
) -> tuple[PPRService, PreparedWorkload]:
    """A deterministic service over a dataset analog's initial window.

    Same spec, same service, bit-for-bit — two processes building from
    the same arguments serve identical certified answers, which is the
    property the gateway CI smoke asserts across the HTTP boundary.

    The workload is built uncached (:func:`build_workload`): the returned
    one is the only reference to the dataset edges, so a caller that
    drops it holds nothing of stream length — the service keeps only the
    initial-window graph.
    """
    prepared = build_workload(WorkloadSpec(dataset=dataset))
    cfg = config or default_config(epsilon=epsilon).with_(
        backend=Backend.NUMPY, workers=workers
    )
    service = PPRService(
        prepared.initial_graph(),
        cfg,
        ServeConfig(
            cache_capacity=cache_capacity,
            num_hubs=num_hubs,
            top_k=top_k,
        ),
    )
    return service, prepared
