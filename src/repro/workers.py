"""One worker-group runtime under both multi-process gateways.

"N worker processes behind one coordinator" is the served analogue of the
paper's parallel push; replication (:mod:`repro.cluster`) and sharding
(:mod:`repro.shard`) are two data-distribution *policies* over that one
shape. This module is the shape — everything about a fleet of child
processes on duplex pipes, nothing about PPR:

* :class:`WorkerHandle` — one process, its pipe, and the coordinator's
  bookkeeping about it;
* :class:`WorkerGroup` — spawn + ``HELLO`` handshake, ticketed sends,
  **one** await loop over every pipe, ship-all/await-all rounds with
  retry-once-on-death and abandon-on-deadline, the per-slot respawn
  budget, and the ``SHUTDOWN``/``BYE`` drain;
* :class:`WorkerGateway` — the typed request/response front both
  gateways share: the lock/queue-wait/span wrapper, chunked batch,
  prefetch and coalesced-run execution, parameterised by the tier label
  and the hooks a policy implements (``respawn``, ``on_frame``,
  ``on_outcome``, ``_partition``, ``_admit_sources``, ``_before_read``);
* :class:`WorkerFleet` — the context-manager facade
  (``PPRCluster``/``PPRShards``).

See "Worker supervision" in ``docs/architecture.md`` for the protocol.
"""

from __future__ import annotations

import multiprocessing
import threading
from collections import Counter
from collections.abc import Callable, Iterator, Sequence
from multiprocessing import connection
from typing import TYPE_CHECKING, Any

from . import obs
from .api.gateway import GatewayFront
from .api.requests import ApiRequest, BatchQuery, Deadline, Prefetch, TopKQuery
from .api.responses import (
    ApiResponse,
    BatchResult,
    ErrorInfo,
    PrefetchResult,
    TopKResult,
)
from .api.scheduling import ReadRun, scatter_run_results
from .config import WORKER_START, ApiConfig
from .errors import ClusterError, ReproError
from .graph.shm import sweep_stale
from .obs import clock

if TYPE_CHECKING:
    from .api.client import Client

# Frame tags every tier shares (each tier's ``messages.py`` owns the rest).
HELLO = "hello"  # worker -> coordinator: (HELLO, version), the spawn handshake
REQUESTS = "requests"  # (REQUESTS, ticket, request): one read
RESPONSES = "responses"  # (RESPONSES, ticket, responses, version, spans)
SHUTDOWN = "shutdown"  # (SHUTDOWN,): drain and exit
BYE = "bye"  # (BYE, version): clean shutdown acknowledgement

#: How long a spawned worker may take to send ``HELLO``.
SPAWN_TIMEOUT_S = 60.0
#: How long an awaited worker may stay silent before it counts as dead.
RESPONSE_TIMEOUT_S = 300.0

#: ``make_frame(ticket) -> frame``: runs immediately before the send, so
#: it is also where a tier does its pre-send work.
FrameMaker = Callable[[int], tuple]


class WorkerDied(Exception):
    """Internal control flow: a worker stopped answering."""


class DeadlineExpired(Exception):
    """Internal control flow: a request's deadline lapsed mid-await.

    Distinct from :class:`WorkerDied` because the worker may be perfectly
    healthy (just slow, or wedged under SIGSTOP): its in-flight ticket is
    abandoned — a late answer is absorbed, not a protocol error — and the
    slot is respawned so a wedged process cannot hold it.
    """


class WorkerHandle:
    """Coordinator-side view of one worker process."""

    def __init__(
        self,
        name: str,
        target: Callable[[Any, connection.Connection], None],
        spec: Any,
        ctx: multiprocessing.context.BaseContext,
    ) -> None:
        self.spec = spec
        self.conn, child = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=target, args=(spec, child), name=name, daemon=True
        )
        self.process.start()
        child.close()
        #: Highest graph version this worker has acknowledged.
        self.applied_version = -1
        #: Reads/chunks dispatched to this worker (stats surface).
        self.dispatched = 0
        #: Tickets whose answers nobody awaits anymore (deadline- or
        #: failure-abandoned rounds): their late replies are absorbed, not
        #: protocol errors.
        self.abandoned: set[int] = set()
        #: Replies that arrived while another worker was being awaited;
        #: taken by the await that wants them.
        self.pending: list[tuple] = []
        #: The pipe hit EOF or was closed: excluded from poll sets (a
        #: closed pipe is permanently "ready", which would spin the loop).
        self.broken = False

    def alive(self) -> bool:
        return self.process.is_alive()

    def send(self, frame: tuple) -> None:
        try:
            self.conn.send(frame)
        except (OSError, ValueError) as exc:
            raise WorkerDied(str(exc)) from exc
        # Under fork, siblings spawned later inherit this pipe's fds, so
        # a write into a dead worker can succeed silently instead of
        # raising EPIPE. A liveness check narrows that window; the await
        # loop is the guaranteed backstop.
        if not self.process.is_alive():
            raise WorkerDied(f"{self.process.name} is not alive")

    def close(self, *, terminate: bool = False, timeout: float = 5.0) -> None:
        """Join the worker; ``terminate`` kills it outright (no wait).

        The forced path uses SIGKILL, not SIGTERM: a worker wedged under
        SIGSTOP is still ``is_alive()`` yet never processes SIGTERM
        (stopped processes leave catchable signals pending). SIGKILL
        takes effect regardless of stop state. ``timeout`` bounds each
        join (graceful shutdown passes its remaining drain budget).
        """
        if terminate and self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=timeout)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=timeout)
        self.broken = True
        self.conn.close()


class WorkerGroup:
    """A supervised fleet of worker processes on duplex pipes.

    Parameters
    ----------
    tier / noun / crash_event:
        Labels only: ``tier`` prefixes the ``<tier>.await`` and
        ``<tier>.respawn`` spans, ``noun`` names a worker in errors, span
        attributes and process names, ``crash_event`` is the event
        emitted when a worker is replaced.
    target:
        ``target(spec, conn)`` — the worker process's entry point. It
        must send ``(HELLO, version)`` first and answer ``(SHUTDOWN,)``
        with ``(BYE, version)``.
    hooks:
        The tier's policy, three methods: ``respawn(index) -> handle``
        builds the replacement for a dead slot; ``on_frame(index, frame)
        -> bool`` consumes frames that are not the awaited answer (acks,
        relay traffic) and returns False for the rest; ``on_outcome(index,
        ok)`` hears how every round member ended.
    max_respawns:
        Respawn budget *per slot*: a poison batch crash-looping one
        worker exhausts that slot's budget, unrelated deaths elsewhere
        keep their own.
    counters:
        The owner's stats counter; ``respawns`` is bumped here.
    """

    def __init__(
        self,
        tier: str,
        noun: str,
        crash_event: str,
        target: Callable[[Any, connection.Connection], None],
        hooks: Any,
        *,
        max_respawns: int,
        counters: Counter[str],
    ) -> None:
        self.tier = tier
        self.noun = noun
        self.crash_event = crash_event
        self.target = target
        self.hooks = hooks
        self.max_respawns = max_respawns
        self.counters = counters
        self.handles: list[WorkerHandle] = []
        self._ctx = multiprocessing.get_context(WORKER_START)
        self._ticket = 0
        self._respawn_counts: dict[int, int] = {}

    # -- lifecycle ----------------------------------------------------- #

    def spawn(self, index: int, spec: Any) -> tuple[WorkerHandle, int]:
        """Start one worker and complete its ``HELLO`` handshake.

        Returns the handle and the version the worker came up at; what
        that version must be is the tier's call. The handle is *not*
        installed into :attr:`handles` — the caller (initial population,
        or the ``respawn`` hook) does that once it accepts the worker.
        """
        who = f"{self.noun} {index}"
        handle = WorkerHandle(f"ppr-{self.noun}-{index}", self.target, spec, self._ctx)
        limit = clock.now() + SPAWN_TIMEOUT_S
        try:
            while not handle.conn.poll(0.05):
                if clock.now() > limit or not handle.alive():
                    raise ClusterError(f"{who} never completed its spawn handshake")
            tag, version = handle.conn.recv()
            if tag != HELLO:
                raise ClusterError(f"{who} sent {tag!r} instead of hello")
        except (EOFError, OSError) as exc:
            handle.close(terminate=True)
            raise ClusterError(f"{who} died during spawn: {exc}") from exc
        except ClusterError:
            handle.close(terminate=True)
            raise
        handle.applied_version = version
        return handle, version

    def revive(self, index: int) -> None:
        """Replace the worker in slot ``index`` (dead, wedged, or abandoned)."""
        count = self._respawn_counts.get(index, 0) + 1
        if count > self.max_respawns:
            raise ClusterError(
                f"{self.noun} {index} died and its respawn budget"
                f" ({self.max_respawns}) is exhausted"
            )
        self._respawn_counts[index] = count
        obs.event(self.crash_event, respawn=count, **{self.noun: index})
        with obs.span(f"{self.tier}.respawn", **{self.noun: index}):
            self.handles[index].close(terminate=True)
            self.handles[index] = self.hooks.respawn(index)
        self.counters["respawns"] += 1

    def close(self, deadline_s: float | None = None) -> None:
        """Drain and stop every worker.

        Each live worker gets ``SHUTDOWN`` and acknowledges with ``BYE``
        after finishing the frame it was serving. ``deadline_s`` bounds
        the whole drain: past it, the remaining workers get SIGKILL
        joins with a minimal timeout.
        """
        limit = clock.now() + deadline_s if deadline_s is not None else None
        for handle in self.handles:
            try:
                handle.send((SHUTDOWN,))
            except WorkerDied:
                pass
        for handle in self.handles:
            if limit is None:
                handle.close()
            else:
                handle.close(timeout=max(0.1, min(5.0, limit - clock.now())))

    # -- the one await loop -------------------------------------------- #

    def send(self, index: int, make_frame: FrameMaker) -> int:
        """Ship ``make_frame(ticket)`` to slot ``index``; returns the ticket."""
        self._ticket += 1
        frame = make_frame(self._ticket)
        self.handles[index].send(frame)
        return frame[1]

    def abandon(self, tickets: dict[int, int]) -> None:
        """Nobody awaits these ``{index: ticket}`` anymore.

        A reply that already arrived (buffered while something else was
        awaited) is dropped now; one still in flight is dropped when it
        lands.
        """
        for index, ticket in tickets.items():
            handle = self.handles[index]
            for at, frame in enumerate(handle.pending):
                if frame[1] == ticket:
                    self._discard(handle, handle.pending.pop(at))
                    break
            else:
                handle.abandoned.add(ticket)

    @staticmethod
    def _discard(handle: WorkerHandle, frame: tuple) -> None:
        """Drop an abandoned reply, keeping its version and spans."""
        if frame[0] == RESPONSES:
            accept_responses(handle, frame)

    def _pump(self, timeout: float) -> Iterator[tuple[int, WorkerHandle, tuple]]:
        """Receive at most one frame from every unbroken pipe that has one.

        The poll set is rebuilt per call: handling a frame can replace a
        handle (a relay reviving a dead owner).
        """
        live = {h.conn: (i, h) for i, h in enumerate(self.handles) if not h.broken}
        for conn in connection.wait(list(live), timeout):
            index, handle = live[conn]
            if handle.broken:  # closed by a revive an earlier frame triggered
                continue
            try:
                frame = conn.recv()
            except (EOFError, OSError):
                handle.broken = True
                continue
            yield index, handle, frame

    def _sift(self, index: int, handle: WorkerHandle, frame: tuple) -> None:
        """File one frame that is not the awaited answer.

        Every frame a worker sends after ``HELLO`` — bar ``BYE`` and what
        the tier's ``on_frame`` consumes — carries its ticket at index 1.
        """
        if frame[0] == BYE or self.hooks.on_frame(index, frame):
            return
        if frame[1] in handle.abandoned:
            handle.abandoned.discard(frame[1])
            self._discard(handle, frame)
            return
        handle.pending.append(frame)

    def drain(self) -> None:
        """Absorb whatever has already arrived (non-blocking)."""
        while True:
            frames = list(self._pump(0))
            if not frames:
                return
            for index, handle, frame in frames:
                self._sift(index, handle, frame)

    def await_reply(
        self, index: int, want: str, ticket: int, deadline: Deadline | None = None
    ) -> tuple:
        """Block until slot ``index`` answers ``(want, ticket, ...)``.

        While waiting, *every* worker's pipe is polled, not just the
        awaited one: frames that are not the answer go to the tier's
        ``on_frame`` hook the moment they arrive on any pipe (relay
        traffic must be forwarded event-driven — a worker blocked in a
        fetch only progresses when its peer's reply is forwarded), late
        replies to abandoned tickets are dropped, and other workers'
        replies are buffered in their handle's ``pending`` list.

        Raises :class:`WorkerDied` when the worker dies (also when the
        response timeout lapses). Bounded by the request's own
        ``deadline`` too: an overdue answer is worthless, so the wait
        fails fast with :class:`DeadlineExpired`.
        """
        with obs.span(f"{self.tier}.await", **{self.noun: index}):
            pending = self.handles[index].pending
            for at, frame in enumerate(pending):
                if frame[0] == want and frame[1] == ticket:
                    return pending.pop(at)
            # The handle the ticket was sent to: a slot replaced mid-await
            # (closed, hence broken) will never answer it.
            awaited = self.handles[index]
            timeout_at = clock.now() + RESPONSE_TIMEOUT_S
            while True:
                got: tuple | None = None
                for slot, handle, frame in self._pump(0.05):
                    if (
                        got is None
                        and frame[0] == want
                        and handle is awaited
                        and frame[1] == ticket
                    ):
                        got = frame
                    else:
                        self._sift(slot, handle, frame)
                if got is not None:
                    return got
                if awaited.broken or not (awaited.alive() or awaited.conn.poll(0)):
                    raise WorkerDied(f"{self.noun} exited")
                now = clock.now()
                if deadline is not None and deadline.expired(now):
                    raise DeadlineExpired()
                if now > timeout_at:
                    raise WorkerDied(f"{self.noun} timed out")

    # -- one call, one round ------------------------------------------- #

    def round(
        self,
        frames: dict[int, FrameMaker],
        want: str,
        deadline: Deadline | None = None,
        *,
        retry: bool = True,
    ) -> dict[int, tuple]:
        """Ship every frame, then await every ``want`` reply.

        All frames go out before any answer is awaited, so the workers
        compute in parallel. A worker that dies is revived and its frame
        re-shipped once; a second death is a typed
        :class:`~repro.errors.ClusterError` — or, with ``retry=False``,
        the slot is simply missing from the result. When the deadline
        expires the slot being awaited is replaced and the typed
        :class:`~repro.errors.DeadlineError` raised. On *any* exceptional
        exit every still-unawaited ticket is abandoned, so a sibling's
        late reply can never be mistaken for a later round's answer.
        """
        tickets: dict[int, int] = {}
        replies: dict[int, tuple] = {}
        revived: set[int] = set()

        def ship(index: int) -> None:
            try:
                tickets[index] = self.send(index, frames[index])
            except WorkerDied as exc:
                died(index, exc)

        def died(index: int, exc: WorkerDied) -> None:
            tickets.pop(index, None)
            self.hooks.on_outcome(index, False)
            if not retry:
                return
            if index in revived:
                raise ClusterError(
                    f"{self.noun} {index} died twice serving one request"
                ) from exc
            revived.add(index)
            self.revive(index)
            if deadline is not None and deadline.expired():
                # Nobody is waiting anymore; the slot is healthy again.
                raise deadline.to_error()
            ship(index)

        try:
            for index in frames:
                ship(index)
            for index in frames:
                while index in tickets:
                    try:
                        replies[index] = self.await_reply(
                            index, want, tickets[index], deadline
                        )
                    except WorkerDied as exc:
                        died(index, exc)
                    except DeadlineExpired:
                        del tickets[index]  # its pipe is about to be replaced
                        self.hooks.on_outcome(index, False)
                        self.revive(index)
                        raise deadline.to_error() from None
                    else:
                        del tickets[index]
                        self.hooks.on_outcome(index, True)
        except BaseException:
            self.abandon(tickets)
            raise
        return replies

    def call(
        self,
        index: int,
        make_frame: FrameMaker,
        want: str,
        deadline: Deadline | None = None,
        *,
        retry: bool = True,
    ) -> tuple | None:
        """A :meth:`round` of one; None when ``retry=False`` and it died."""
        return self.round({index: make_frame}, want, deadline, retry=retry).get(index)

    def broadcast(
        self, make_frame: FrameMaker, want: str, *, retry: bool = True
    ) -> dict[int, tuple]:
        """A :meth:`round` that ships the same frame to every slot."""
        frames = dict.fromkeys(range(len(self.handles)), make_frame)
        return self.round(frames, want, retry=retry)


def accept_responses(handle: WorkerHandle, frame: tuple) -> Sequence[ApiResponse]:
    """Fold one ``RESPONSES`` frame's version and spans; return its answers."""
    handle.applied_version = max(handle.applied_version, frame[3])
    obs.ingest_spans(frame[4])
    return frame[2]


class WorkerGateway(GatewayFront):
    """The typed gateway both multi-process tiers share.

    A subclass is a *policy* over a :class:`WorkerGroup`: it sets the
    labels below, populates ``self.group.handles``, routes requests in
    ``_execute_routed``, and implements the group's hooks plus
    ``_partition`` (sources -> owning slot). Everything here is what the
    replicated and the sharded gateway would otherwise both spell out.
    """

    #: ``"cluster"`` / ``"shard"``: prefixes every span, stage histogram
    #: and event name of the tier.
    tier: str
    #: What one worker is called in errors and span attributes.
    noun: str
    #: Event emitted when a worker is replaced.
    crash_event: str

    def __init__(
        self,
        config: ApiConfig | None,
        target: Callable[[Any, connection.Connection], None],
        max_respawns: int,
    ) -> None:
        super().__init__(config)
        # Reap segments a SIGKILLed predecessor left behind (the way
        # StateStore sweeps stale checkpoint temporaries at open).
        sweep_stale()
        self._lock = threading.RLock()
        self._closed = False
        #: Acknowledged head version: the newest version an acked write
        #: produced.
        self._head = 0
        self.group = WorkerGroup(
            self.tier,
            self.noun,
            self.crash_event,
            target,
            self,
            max_respawns=max_respawns,
            counters=self.counters,
        )

    @property
    def head_version(self) -> int:
        return self._head

    def close(self, *, deadline_s: float | None = None) -> None:
        """Drain and stop every worker (idempotent); see :meth:`WorkerGroup.close`."""
        with self._lock:
            if not self._closed:
                self._closed = True
                self.group.close(deadline_s)

    def __enter__(self) -> "WorkerGateway":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- hooks a tier may leave alone ---------------------------------- #

    def on_frame(self, index: int, frame: tuple) -> bool:
        return False

    def on_outcome(self, index: int, ok: bool) -> None:
        pass

    def _admit_sources(self, sources: Sequence[int]) -> None:
        """Called with a read's sources before they are routed."""

    def _before_read(self, index: int, request: ApiRequest) -> None:
        """Called immediately before a read is shipped to slot ``index``."""

    def _partition(self, sources: Sequence[int]) -> dict[int, list[int]]:
        """Group sources by owning slot, preserving per-chunk order."""
        raise NotImplementedError

    def _execute_routed(self, request: ApiRequest) -> ApiResponse:
        raise NotImplementedError

    # -- the typed protocol -------------------------------------------- #

    def execute(self, request: ApiRequest) -> ApiResponse:
        """Execute one request, raising typed errors (the embedded path).

        Latency lands in the ``<tier>.<op>`` stage histograms (distinct
        from the single-process gateway's ``request.<op>`` stages, so
        the timings never mix); a sampled request's coordinator work is
        wrapped in a ``gateway.execute`` span with ``tier=<tier>``.
        """
        queued = clock.now()
        with self._lock:
            waited = clock.now() - queued
            obs.observe("queue.wait", waited)
            source = getattr(request, "source", None)
            stage = f"{self.tier}.{request.op}"
            ctx = obs.trace_of(request)
            if ctx is None:
                with obs.measured(stage, source=source):
                    return self._execute(request)
            with obs.activate(ctx):
                obs.record_span(
                    "queue.wait", start=queued, duration=waited, observe=False
                )
                with obs.span("gateway.execute", op=request.op, tier=self.tier):
                    with obs.measured(stage, trace_id=ctx.trace_id, source=source):
                        return self._execute(request)

    def _execute(self, request: ApiRequest) -> ApiResponse:
        if self._closed:
            raise ClusterError(f"{self.tier} gateway is closed")
        self.counters[request.op] += 1
        # Under the lock, so queueing on a busy coordinator counts
        # against the budget (matching the single-process gateway).
        deadline = getattr(request, "deadline", None)
        if deadline is not None and deadline.expired():
            raise deadline.to_error()
        try:
            return self._execute_routed(request)
        except (WorkerDied, DeadlineExpired) as exc:
            # Backstop: rounds convert these; anything that still escapes
            # (a death inside a respawn's own catch-up, say) must not
            # reach HTTP clients as internal control flow.
            raise ClusterError(
                f"{self.noun} failure escaped the retry path: {exc}"
            ) from exc
        except (EOFError, BrokenPipeError, ConnectionError) as exc:
            # A pipe breaking mid-request is a tier failure (stable code
            # CLUSTER, HTTP 503), never a raw EOFError to the caller.
            raise ClusterError(f"{self.noun} channel broke mid-request: {exc}") from exc

    # -- reads --------------------------------------------------------- #

    def _read(self, index: int, request: ApiRequest) -> FrameMaker:
        """The ``REQUESTS`` frame carrying one read to slot ``index``."""

        def make_frame(ticket: int) -> tuple:
            self._before_read(index, request)
            # Worker-side spans join this request's trace: the context
            # rides the request as a pickled instance attribute.
            obs.attach(request, obs.current())
            self.group.handles[index].dispatched += 1
            return (REQUESTS, ticket, request)

        return make_frame

    def _scatter(
        self, per_worker: dict[int, ApiRequest], deadline: Deadline | None
    ) -> dict[int, ApiResponse]:
        """One request per worker, as one :meth:`WorkerGroup.round`."""
        replies = self.group.round(
            {index: self._read(index, r) for index, r in per_worker.items()},
            RESPONSES,
            deadline,
        )
        return {
            index: accept_responses(self.group.handles[index], frame)[0]
            for index, frame in replies.items()
        }

    def _read_one(self, index: int, request: ApiRequest) -> ApiResponse:
        """One read on one worker, with crash detection and one retry.

        The retry lands on the *respawned* worker — recovered at head
        version — so the answer is still a correct answer at its stated
        snapshot version, merely cold where the dead worker was warm.
        """
        deadline = getattr(request, "deadline", None)
        return self._scatter({index: request}, deadline)[index]

    def _run_chunks(self, chunks: dict[int, list[int]], request: BatchQuery):
        """Execute per-worker BatchQuery chunks concurrently (one scatter)."""
        per_worker = {
            index: BatchQuery(
                sources=tuple(sources),
                k=request.k,
                consistency=request.consistency,
                deadline=request.deadline,
            )
            for index, sources in chunks.items()
        }
        results = self._scatter(per_worker, request.deadline)
        for index, sources in chunks.items():
            response = results[index]
            if response.error is not None:
                raise response.error.to_exception()
            assert isinstance(response, BatchResult)
            yield sources, response.results

    def _execute_batch(self, request: BatchQuery) -> BatchResult:
        start = clock.now()
        self._admit_sources(request.sources)
        by_position: dict[int, TopKResult] = {}
        source_positions: dict[int, list[int]] = {}
        for position, source in enumerate(request.sources):
            source_positions.setdefault(source, []).append(position)
        cursor = {source: 0 for source in source_positions}
        for chunk_sources, chunk_results in self._run_chunks(
            self._partition(request.sources), request
        ):
            for source, result in zip(chunk_sources, chunk_results):
                positions = source_positions[source]
                by_position[positions[cursor[source]]] = result
                cursor[source] += 1
        results = tuple(by_position[i] for i in range(len(request.sources)))
        return BatchResult(
            results=results,
            snapshot_version=self._head,
            staleness=max((r.staleness for r in results), default=0),
            wall_time_s=clock.now() - start,
        )

    def _execute_prefetch(self, request: Prefetch) -> PrefetchResult:
        """Admit each source on the worker that owns it.

        Admission pushes are the most expensive per-source work in the
        system, so the per-worker chunks go out as one scatter round —
        parallel, like every other chunked read path.
        """
        start = clock.now()
        self._admit_sources(request.sources)
        per_worker = {
            index: Prefetch(sources=tuple(sources))
            for index, sources in self._partition(request.sources).items()
        }
        admitted = 0
        for response in self._scatter(per_worker, None).values():
            if response.error is not None:
                raise response.error.to_exception()
            assert isinstance(response, PrefetchResult)
            admitted += response.admitted
        return PrefetchResult(
            requested=len(request.sources),
            admitted=admitted,
            snapshot_version=self._head,
            wall_time_s=clock.now() - start,
        )

    # -- scheduling: coalesced read runs ------------------------------- #

    def _execute_run(
        self,
        requests: Sequence[ApiRequest],
        run: ReadRun,
        responses: list[ApiResponse | None],
    ) -> None:
        """Answer one coalesced read run via parallel per-worker batches.

        Mirrors the single-process scheduler's tracing: the run executes
        under the first traced member's context in a ``schedule.run``
        span, so per-worker chunk spans (and the worker-side execution
        they ship back) link into that member's trace.
        """
        lead = next(
            (
                ctx
                for ctx in (obs.trace_of(requests[p]) for p in run.positions)
                if ctx is not None
            ),
            None,
        )
        if lead is None:
            self._execute_run_inner(requests, run, responses)
            return
        with obs.activate(lead):
            with obs.span(
                "schedule.run",
                members=len(run.positions),
                coalesced=run.coalesced,
                tier=self.tier,
            ):
                self._execute_run_inner(requests, run, responses)

    def _execute_run_inner(
        self,
        requests: Sequence[ApiRequest],
        run: ReadRun,
        responses: list[ApiResponse | None],
    ) -> None:
        first = requests[run.positions[0]]
        assert isinstance(first, TopKQuery)
        self.counters["reads_coalesced"] += run.coalesced
        self._admit_sources(run.sources)
        by_source: dict[int, TopKResult] = {}
        probe = BatchQuery(
            sources=run.sources,
            k=first.k,
            consistency=first.consistency,
            deadline=run.deadline,
        )
        try:
            for sources, results in self._run_chunks(
                self._partition(run.sources), probe
            ):
                by_source.update(zip(sources, results))
        except ReproError as exc:
            # Match the single-process scheduler: one failing batch fails
            # the whole run with that error.
            self.counters["errors"] += 1
            error = ErrorInfo.from_exception(exc)
            by_source = {
                source: TopKResult.failure(
                    error, snapshot_version=self._head, source=source
                )
                for source in run.sources
            }
        scatter_run_results(requests, run, by_source, responses)


class WorkerFleet:
    """Context-manager facade over a :class:`WorkerGateway`.

    ``PPRCluster`` and ``PPRShards`` are this with their own
    constructor: use as a context manager so workers are always drained.
    """

    gateway: WorkerGateway

    @property
    def api(self) -> "Client":
        """An embedded typed client bound to the fleet's gateway."""
        from .api.client import Client

        return Client(self.gateway)

    def close(self) -> None:
        self.gateway.close()

    def __enter__(self) -> "WorkerFleet":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(gateway={self.gateway!r})"
