"""The gateway: validate, route, and schedule typed requests.

:class:`Gateway` is the single public seam between callers (embedded
:class:`~repro.api.client.Client`, the HTTP front-end, the ``PPRService``
compatibility shims) and the serving engine beneath. It owns three
responsibilities the engine should not:

* **protocol** — requests are validated dataclasses, answers are typed
  responses, failures are :class:`~repro.api.responses.ErrorInfo` with
  the stable codes of :mod:`repro.errors` (never raw tracebacks);
* **scheduling** — :meth:`submit_many` runs mixed read/write traffic in
  arrival order with writes as barriers, and *coalesces* runs of
  same-shaped top-k reads between writes into one batched engine call,
  deduplicating repeated sources (heavy-tailed query mixes repeat the
  same hot sources constantly — one certify serves them all);
* **ordering** — an :class:`~repro.api.requests.IngestBatch` carrying
  ``expect_version`` applies only against that exact snapshot version
  (optimistic concurrency), so external writers can order their writes
  against the versions their reads observed.

One lock orders execution: the HTTP front-end's worker threads and
embedded callers share a gateway safely. Every request runs under it
but one: a single top-level top-k read that misses the cache gives it
up for its from-scratch push and certify, which read only the immutable
view pinned under the lock, and takes it back to install the result —
or, if an ingest, a registration or another admission of the source got
there first, to discard it and answer under the lock (see
``PPRService._admit``). Answers are those of some serial order
of the requests. Consistency levels (FRESH / BOUNDED / ANY) are
enforced per read via the engine's staleness contract. See
``docs/api.md`` for the full protocol.
"""

from __future__ import annotations

import threading
from collections import Counter
from collections.abc import Sequence
from typing import TYPE_CHECKING

from .. import obs
from ..config import ApiConfig
from ..obs import clock
from ..errors import (
    ConfigError,
    ConflictError,
    DeadlineError,
    OverloadError,
    ReproError,
    RequestError,
)
from .admission import AdmissionController
from .scheduling import ReadRun, fail_run, plan_schedule, scatter_run_results
from .requests import (
    ApiRequest,
    BatchQuery,
    CheckpointNow,
    Health,
    HubQuery,
    IngestBatch,
    Prefetch,
    Ready,
    ScoreQuery,
    Stats,
    TopKQuery,
)
from .responses import (
    ApiResponse,
    BatchResult,
    CheckpointResult,
    ErrorInfo,
    HealthResult,
    HubResult,
    IngestResult,
    PrefetchResult,
    ReadyResult,
    ScoreResult,
    StatsResult,
    TopKResult,
)

if TYPE_CHECKING:
    from ..serve.service import PPRService, ServedQuery

#: Request class -> response class, used to shape error responses.
RESPONSE_FOR: dict[type[ApiRequest], type[ApiResponse]] = {
    TopKQuery: TopKResult,
    BatchQuery: BatchResult,
    HubQuery: HubResult,
    ScoreQuery: ScoreResult,
    IngestBatch: IngestResult,
    Prefetch: PrefetchResult,
    CheckpointNow: CheckpointResult,
    Stats: StatsResult,
    Health: HealthResult,
    Ready: ReadyResult,
}


class _Release:
    """Gives the gateway lock up for one block and takes it back.

    Only a top-level top-k read holds one, and only its cold push and
    certify run inside it (``PPRService._admit``). ``waited``
    sums both acquisitions' waits, so ``queue.wait`` still gets one
    observation per request.
    """

    __slots__ = ("lock", "waited")

    def __init__(self, lock: threading.RLock) -> None:
        self.lock = lock
        self.waited = 0.0

    def __enter__(self) -> None:
        self.lock.release()

    def __exit__(self, *exc: object) -> None:
        queued = clock.now()
        self.lock.acquire()
        waited = clock.now() - queued
        self.waited += waited
        obs.record_span("queue.wait", start=queued, duration=waited, observe=False)


class GatewayFront:
    """The front door every gateway shares: ``submit`` and ``submit_many``.

    The single-process :class:`Gateway` and the two multi-process
    gateways (:class:`repro.workers.WorkerGateway`) differ in *how* a
    request executes, not in how it is admitted, failed, or scheduled.
    A subclass provides :meth:`execute` (one request, typed errors
    raised), :meth:`_execute_run` (one coalesced read run), the
    :attr:`head_version` failures are stamped with, and a re-entrant
    ``_lock``; this class turns those into the protocol edge.
    """

    def __init__(self, config: ApiConfig | None = None) -> None:
        self.config = config or ApiConfig()
        #: Per-op request counts plus scheduler counters (stats surface).
        self.counters: Counter[str] = Counter()
        #: Bounded-queue backpressure gate; None when admission_queue == 0.
        self.admission: AdmissionController | None = (
            AdmissionController(self.config.admission_queue)
            if self.config.admission_queue
            else None
        )

    @property
    def head_version(self) -> int:
        """Newest acknowledged graph version (stamped on failures)."""
        raise NotImplementedError

    def execute(self, request: ApiRequest) -> ApiResponse:
        """Execute one request, raising typed errors (the embedded path)."""
        raise NotImplementedError

    def _execute_run(
        self,
        requests: Sequence[ApiRequest],
        run: ReadRun,
        responses: list[ApiResponse | None],
    ) -> None:
        """Answer one coalesced read run into ``responses``."""
        raise NotImplementedError

    def submit(self, request: ApiRequest) -> ApiResponse:
        """Execute one request; failures become error-carrying responses.

        The protocol edge: every :class:`~repro.errors.ReproError` is
        mapped to a typed response whose ``error`` holds the stable code
        and structured details. Non-library exceptions propagate — they
        are bugs, not protocol outcomes.

        With :attr:`~repro.config.ApiConfig.admission_queue` set, the
        request first passes the bounded admission gate: past its
        priority class's depth threshold it is shed *before* waiting on
        the lock, failing with stable code ``OVERLOAD`` (HTTP 429).
        """
        try:
            if self.admission is not None:
                self.admission.admit(request)
                try:
                    return self.execute(request)
                finally:
                    self.admission.release()
            return self.execute(request)
        except ReproError as exc:
            self.counters["errors"] += 1
            if isinstance(exc, OverloadError):
                self.counters["shed"] += 1
            elif isinstance(exc, DeadlineError):
                self.counters["deadline_exceeded"] += 1
            shape = RESPONSE_FOR.get(type(request), ApiResponse)
            return shape.failure(
                ErrorInfo.from_exception(exc),
                snapshot_version=self.head_version,
            )

    def submit_many(self, requests: Sequence[ApiRequest]) -> list[ApiResponse]:
        """Run a request sequence in order, coalescing reads between writes.

        Writes (:attr:`~repro.api.requests.ApiRequest.is_write`) execute
        at their arrival position — a read never observes a version its
        predecessor writes had not produced, nor one a successor write
        already advanced. Between writes, maximal runs of
        :class:`~repro.api.requests.TopKQuery` sharing ``(k,
        consistency)`` are answered by **one** batched call
        (:meth:`_execute_run`): repeated sources are deduplicated (one
        certify answers all duplicates bit-identically — with the
        gateway lock held there is no intervening write, so the
        duplicate answers are the ones per-request dispatch would have
        produced) and cold sources are admitted together in
        shared-snapshot push batches. A multi-process gateway splits the
        run into per-worker chunks that execute concurrently; routing is
        by ownership, so its answers are bit-identical to the
        single-process scheduler's for the same trace. Responses come
        back in request order.

        The barrier/coalescing policy itself lives in
        :mod:`repro.api.scheduling`, so every gateway plans identical
        steps for identical traffic.
        """
        with self._lock:  # one atomic schedule; RLock keeps submit() happy
            responses: list[ApiResponse | None] = [None] * len(requests)
            steps = plan_schedule(requests, max_batch=self.config.max_batch)
            for step in steps:
                if isinstance(step, ReadRun):
                    self._execute_run(requests, step, responses)
                else:
                    responses[step.position] = self.submit(requests[step.position])
            return [r for r in responses if r is not None]


class Gateway(GatewayFront):
    """Typed request/response front door of one :class:`PPRService`.

    Parameters
    ----------
    service:
        The serving engine to front. The gateway becomes its single
        entry point; the engine's legacy methods delegate back here.
    config:
        Gateway knobs (:class:`repro.config.ApiConfig`): read-coalescing
        width, bind address for the HTTP front-end, defaults.

    Examples
    --------
    >>> from repro import DynamicDiGraph, PPRService
    >>> from repro.api import TopKQuery
    >>> service = PPRService(DynamicDiGraph([(1, 0), (2, 0), (0, 1)]))
    >>> response = service.gateway.submit(TopKQuery(source=0, k=2))
    >>> response.ok and response.vertices[0] == 0
    True
    """

    def __init__(self, service: "PPRService", config: ApiConfig | None = None) -> None:
        super().__init__(config)
        self.service = service
        # One engine, one scheduler: a directly-constructed gateway becomes
        # the service's own (so the compatibility shims route through it,
        # not through a second lazily-created one); if the service already
        # has a gateway, share its lock so serialization still holds across
        # both front doors.
        if service._gateway is None:
            service._gateway = self
            self._lock = threading.RLock()
        else:
            self._lock = service._gateway._lock
        # Install the observability config process-wide — but only when it
        # actually asks for something, so a default-configured gateway
        # never clobbers a tracer someone else already set up.
        if self.config.obs.enabled or self.config.obs.export_path:
            obs.configure(self.config.obs)

    # ------------------------------------------------------------------ #
    # single-request paths
    # ------------------------------------------------------------------ #

    # Bound on this class too: tools that wrap ``Gateway.submit`` (the
    # benchmark's tracer) look the name up in the class's own namespace.
    submit = GatewayFront.submit

    @property
    def head_version(self) -> int:
        return self.service.graph_version

    def execute(self, request: ApiRequest) -> ApiResponse:
        """Execute one request, raising typed errors (the embedded path)."""
        if not isinstance(request, ApiRequest):
            raise RequestError(f"not an ApiRequest: {request!r}")
        # A top-level top-k read may give the lock up for a cold push; one
        # nested in submit_many's schedule, which holds it, may not.
        release = (
            _Release(self._lock)
            if type(request) is TopKQuery and not self._lock._is_owned()
            else None
        )
        queued = clock.now()
        with self._lock:
            start = clock.now()
            waited = start - queued
            self.counters[request.op] += 1
            # Checked under the lock so time spent queued on it counts
            # against the budget — an overloaded gateway fails the wait,
            # it does not serve answers nobody is waiting for anymore.
            deadline = getattr(request, "deadline", None)
            if deadline is not None and deadline.expired():
                raise deadline.to_error()
            if release is None:
                obs.observe("queue.wait", waited)
            else:  # observed once, with the re-acquisition's wait added
                release.waited = waited
            try:
                source = getattr(request, "source", None)
                ctx = obs.trace_of(request)
                if ctx is None:
                    with obs.measured(f"request.{request.op}", source=source):
                        return self._dispatch(request, start, release)
                with obs.activate(ctx):
                    # The wait is observed through the always-on path;
                    # record the span without a second histogram feed.
                    obs.record_span(
                        "queue.wait", start=queued, duration=waited, observe=False
                    )
                    with obs.span("gateway.execute", op=request.op):
                        with obs.measured(
                            f"request.{request.op}",
                            trace_id=ctx.trace_id,
                            source=source,
                        ):
                            return self._dispatch(request, start, release)
            finally:
                if release is not None:
                    obs.observe("queue.wait", release.waited)

    def _dispatch(
        self, request: ApiRequest, start: float, release: _Release | None
    ) -> ApiResponse:
        """Route one admitted request to the engine (lock already held)."""
        if isinstance(request, TopKQuery):
            served = self.service._execute_query(
                request.source,
                request.k,
                max_staleness=request.consistency.max_staleness,
                release=release,
            )
            return self._topk_result(served, request.k)
        if isinstance(request, BatchQuery):
            return self._execute_batch(request, start)
        if isinstance(request, ScoreQuery):
            score = self.service._execute_score(
                request.source,
                request.target,
                max_staleness=request.consistency.max_staleness,
            )
            return ScoreResult(
                source=score.source,
                target=score.target,
                estimate=score.estimate,
                error_bound=score.error_bound,
                cold=score.cold,
                snapshot_version=score.snapshot_version,
                staleness=score.staleness_updates,
                wall_time_s=score.wall_time,
            )
        if isinstance(request, HubQuery):
            entries = self.service._execute_rank_for_hub(request.hub, request.k)
            return HubResult(
                hub=request.hub,
                k=len(entries),
                entries=tuple(entries),
                snapshot_version=self.service.graph_version,
                wall_time_s=clock.now() - start,
            )
        if isinstance(request, IngestBatch):
            return self._execute_ingest(request, start)
        if isinstance(request, Prefetch):
            admitted = sum(
                self.service._execute_prefetch(source) for source in request.sources
            )
            return PrefetchResult(
                requested=len(request.sources),
                admitted=admitted,
                snapshot_version=self.service.graph_version,
                wall_time_s=clock.now() - start,
            )
        if isinstance(request, CheckpointNow):
            if self.service.store is None:
                raise ConfigError(
                    "no state store attached: set ServeConfig.store or"
                    " call PPRService.attach_store"
                )
            path = self.service.store.checkpoint(self.service)
            self.service.store.wait()  # the reply says "written"
            return CheckpointResult(
                path=str(path),
                written=True,
                snapshot_version=self.service.graph_version,
                wall_time_s=clock.now() - start,
            )
        if isinstance(request, Stats):
            stats = dict(self.service.metrics().to_dict())
            stats["gateway"] = dict(self.counters)
            if self.admission is not None:
                stats["admission"] = self.admission.to_dict()
            stats["obs"] = obs.snapshot()
            return StatsResult(
                stats=stats,
                snapshot_version=self.service.graph_version,
                wall_time_s=clock.now() - start,
            )
        if isinstance(request, Health):
            service = self.service
            return HealthResult(
                status="ok",
                graph_version=service.graph_version,
                num_vertices=service.graph.num_vertices,
                num_edges=service.graph.num_edges,
                resident=len(service.cache),
                hubs=len(service.hubs),
                snapshot_version=service.graph_version,
                wall_time_s=clock.now() - start,
            )
        if isinstance(request, Ready):
            # A single-process gateway has no replication machinery that
            # could be degraded: alive implies ready.
            return ReadyResult(
                ready=True,
                status="ready",
                primary="embedded",
                epoch=0,
                replicas=(),
                snapshot_version=self.service.graph_version,
                wall_time_s=clock.now() - start,
            )
        raise RequestError(f"unhandled request type: {type(request).__name__}")

    # ------------------------------------------------------------------ #
    # scheduling: mixed read/write traffic
    # ------------------------------------------------------------------ #

    def _execute_run(
        self,
        requests: Sequence[ApiRequest],
        run: ReadRun,
        responses: list[ApiResponse | None],
    ) -> None:
        """Answer one coalesced run of top-k reads via a single batch."""
        first = requests[run.positions[0]]
        assert isinstance(first, TopKQuery)
        self.counters["reads_coalesced"] += run.coalesced
        batch_request = BatchQuery(
            sources=run.sources,
            k=first.k,
            consistency=first.consistency,
            deadline=run.deadline,
        )
        batch = self._submit_run(requests, run, batch_request)
        if batch.error is not None:
            fail_run(requests, run, batch.error, batch.snapshot_version, responses)
            return
        assert isinstance(batch, BatchResult)
        by_source = {result.source: result for result in batch.results}
        scatter_run_results(requests, run, by_source, responses)

    def _submit_run(
        self,
        requests: Sequence[ApiRequest],
        run: ReadRun,
        batch_request: BatchQuery,
    ) -> ApiResponse:
        """Submit one coalesced run, stitching member traces to it.

        The shared execution runs as a ``schedule.run`` span on the first
        sampled member's trace; every other sampled member gets a
        ``schedule.member`` span in *its own* trace carrying the run
        span's id and timing, so a coalesced request's trace still shows
        where (and for how long) its answer was actually computed.
        """
        member_ctxs = [obs.trace_of(requests[p]) for p in run.positions]
        lead = next((ctx for ctx in member_ctxs if ctx is not None), None)
        if lead is None:
            return self.submit(batch_request)
        with obs.activate(lead):
            with obs.span(
                "schedule.run",
                members=len(run.positions),
                coalesced=run.coalesced,
                unique_sources=len(run.sources),
            ) as run_span:
                obs.attach(batch_request, obs.current())
                batch = self.submit(batch_request)
        run_id = getattr(run_span, "span_id", None)
        if run_id is not None:
            for position, ctx in zip(run.positions, member_ctxs):
                if ctx is None:
                    continue
                obs.record_span(
                    "schedule.member",
                    start=run_span.start,
                    duration=run_span.duration,
                    ctx=ctx,
                    observe=False,
                    run_span=run_id,
                    run_trace=run_span.trace_id,
                    position=position,
                    source=getattr(requests[position], "source", None),
                )
        return batch

    # ------------------------------------------------------------------ #
    # response shaping
    # ------------------------------------------------------------------ #

    def _topk_result(self, served: "ServedQuery", k: int | None) -> TopKResult:
        return TopKResult(
            source=served.source,
            k=k if k is not None else self.service.serve.top_k,
            entries=tuple(served.entries),
            cold=served.cold,
            served=served,
            snapshot_version=served.snapshot_version,
            staleness=served.staleness_updates,
            wall_time_s=served.wall_time,
        )

    def _execute_batch(self, request: BatchQuery, start: float) -> BatchResult:
        served = self.service._execute_query_many(
            list(request.sources),
            request.k,
            max_staleness=request.consistency.max_staleness,
        )
        results = tuple(self._topk_result(answer, request.k) for answer in served)
        return BatchResult(
            results=results,
            snapshot_version=self.service.graph_version,
            staleness=max((r.staleness for r in results), default=0),
            wall_time_s=clock.now() - start,
        )

    def _execute_ingest(self, request: IngestBatch, start: float) -> IngestResult:
        service = self.service
        if (
            request.expect_version is not None
            and request.expect_version != service.graph_version
        ):
            raise ConflictError(request.expect_version, service.graph_version)
        previous = service.graph_version
        traces = service._execute_ingest(
            list(request.updates), snapshot=request.snapshot
        )
        return IngestResult(
            accepted=len(request.updates),
            previous_version=previous,
            pushes=len(traces),
            traces=traces,
            snapshot_version=service.graph_version,
            wall_time_s=clock.now() - start,
        )

    def __repr__(self) -> str:
        return (
            f"Gateway(service={self.service!r},"
            f" requests={sum(self.counters.values())})"
        )
