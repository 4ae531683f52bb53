"""Trace contexts, spans, and the process-wide tracer.

Model (see ``docs/observability.md`` for the walkthrough):

* A **trace** is one request's journey through the stack, identified by
  a random 64-bit hex id minted at the front door (``http.py`` or the
  embedded ``Client``). The sampling decision is made exactly once, at
  ingress, with a deterministic accumulator — at ``sample_rate=0.01``
  every 100th ingress samples, no RNG involved.
* A **span** is one timed operation inside a trace (``gateway.execute``,
  ``engine.query``, ``wal.append``, ``replica.apply``...). Spans nest via
  ``parent_id``; ids are ``<pid hex>-<seq hex>`` so spans minted in
  replica worker processes can never collide with the coordinator's.
* A :class:`TraceContext` is the immutable pair ``(trace_id, span_id)``
  a child span should attach under. It is what travels: stashed on the
  (frozen) request dataclasses via ``object.__setattr__`` — riding the
  instance ``__dict__`` through pickling across cluster pipes without
  touching the generated ``__init__``/``__eq__`` — and shipped alongside
  WAL delta frames.

Cost discipline: with tracing disabled (or the request unsampled) every
entry point here returns a shared no-op singleton after a couple of
attribute checks (``tests/test_obs.py::TestSampling`` pins that an
unsampled request attaches no context at all).

Finished spans land in a bounded ring buffer (``trace(id)`` scans it for
``GET /v1/trace/<id>``), feed the per-stage histograms, and — when an
``export_path`` is configured — append to a JSONL event sink that
``repro trace export`` turns into a Chrome ``trace_event`` file.
"""

from __future__ import annotations

import json
import os
import secrets
import threading
from collections import deque
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any

from ..config import ObsConfig
from . import clock
from .histograms import HistogramRegistry
from .slowlog import SlowQueryLog

#: Instance-dict attribute carrying a request's TraceContext across layers.
TRACE_ATTR = "trace_ctx"


@dataclass(frozen=True)
class TraceContext:
    """Where in a sampled trace the next child span belongs."""

    trace_id: str
    span_id: str

    def to_dict(self) -> dict[str, str]:
        return {"trace_id": self.trace_id, "span_id": self.span_id}


class Span:
    """One open timed operation; mutable until finished into the ring."""

    __slots__ = (
        "trace_id", "span_id", "parent_id", "name",
        "start", "duration", "attrs", "events", "pid",
    )

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        name: str,
        attrs: dict[str, Any],
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = clock.now()
        self.duration: float | None = None
        self.attrs = attrs
        self.events: list[dict[str, Any]] = []
        self.pid = os.getpid()

    def set(self, **attrs: Any) -> None:
        """Attach attributes to the open span."""
        self.attrs.update(attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """Record a point-in-time event inside the span."""
        entry: dict[str, Any] = {"name": name, "at": clock.now()}
        entry.update(attrs)
        self.events.append(entry)

    def to_dict(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "pid": self.pid,
            "attrs": self.attrs,
            "events": self.events,
        }


class _NoopSpan:
    """Absorbs instrumentation when tracing is off or the request unsampled."""

    __slots__ = ()

    def set(self, **attrs: Any) -> None:
        pass

    def event(self, name: str, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class _Active:
    """The contextvar payload: current context plus the open span (if any)."""

    __slots__ = ("ctx", "span")

    def __init__(self, ctx: TraceContext, span: Span | None) -> None:
        self.ctx = ctx
        self.span = span


#: The active trace position of the current thread/task, or ``None``.
_ACTIVE: ContextVar[_Active | None] = ContextVar("repro_obs_active", default=None)


class _SpanHandle:
    """``with tracer.span(...)`` guard: activates, finishes, restores."""

    __slots__ = ("_tracer", "span", "_token")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        self._token = _ACTIVE.set(
            _Active(TraceContext(self.span.trace_id, self.span.span_id), self.span)
        )
        self.span.start = clock.now()
        return self.span

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        _ACTIVE.reset(self._token)
        if exc is not None:
            self.span.set(error=getattr(exc, "code", type(exc).__name__))
        self._tracer.finish(self.span)
        return False


class Ingress:
    """Context manager owning a sampled trace's root span (the front door)."""

    __slots__ = ("_tracer", "span", "_token")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    @property
    def ctx(self) -> TraceContext:
        """Context to :func:`attach` to the request(s) this ingress admits."""
        return TraceContext(self.span.trace_id, self.span.span_id)

    @property
    def trace_id(self) -> str:
        return self.span.trace_id

    def __enter__(self) -> "Ingress":
        self._token = _ACTIVE.set(_Active(self.ctx, self.span))
        self.span.start = clock.now()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        _ACTIVE.reset(self._token)
        if exc is not None:
            self.span.set(error=getattr(exc, "code", type(exc).__name__))
        self._tracer.finish(self.span)
        return False


class _NoopIngress:
    """Unsampled/disabled front door: ``ctx is None`` tells callers to skip."""

    __slots__ = ()
    ctx = None
    trace_id = None

    def __enter__(self) -> "_NoopIngress":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


NOOP_INGRESS = _NoopIngress()


class _Activation:
    """``with tracer.activate(ctx)``: adopt a shipped context (no open span)."""

    __slots__ = ("_ctx", "_token")

    def __init__(self, ctx: TraceContext | None) -> None:
        self._ctx = ctx
        self._token = None

    def __enter__(self) -> TraceContext | None:
        if self._ctx is not None:
            self._token = _ACTIVE.set(_Active(self._ctx, None))
        return self._ctx

    def __exit__(self, *exc: Any) -> bool:
        if self._token is not None:
            _ACTIVE.reset(self._token)
        return False


class _Measured:
    """Always-on request envelope: histogram + slow-log, trace or no trace."""

    __slots__ = ("_tracer", "_stage", "_trace_id", "_source", "_start")

    def __init__(
        self,
        tracer: "Tracer",
        stage: str,
        trace_id: str | None,
        source: int | None,
    ) -> None:
        self._tracer = tracer
        self._stage = stage
        self._trace_id = trace_id
        self._source = source

    def __enter__(self) -> "_Measured":
        self._start = clock.now()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        duration = clock.now() - self._start
        status = "OK" if exc is None else str(
            getattr(exc, "code", type(exc).__name__)
        )
        self._tracer.histograms.observe(self._stage, duration)
        self._tracer.slowlog.record(
            stage=self._stage,
            duration_s=duration,
            status=status,
            trace_id=self._trace_id,
            source=self._source,
        )
        return False


class Tracer:
    """Process-wide span collector: ring buffer, histograms, slow log, sink.

    One instance lives at module scope (reachable through the
    :mod:`repro.obs` facade functions); gateways install their
    :class:`~repro.config.ObsConfig` into it at construction, replica
    workers configure it with ``outbox=True`` so their finished spans can
    be drained and shipped back over the pipe.
    """

    def __init__(self) -> None:
        self.histograms = HistogramRegistry()
        self._lock = threading.Lock()
        self._sink = None
        self._reset_locked(ObsConfig())

    # -- lifecycle ------------------------------------------------------ #

    def _reset_locked(self, config: ObsConfig) -> None:
        self.config = config
        self.enabled = config.enabled
        self.ring: deque[dict[str, Any]] = deque(maxlen=config.ring_capacity)
        self.slowlog = SlowQueryLog(
            config.slowlog_capacity, config.slowlog_threshold_ms
        )
        self._accumulator = 0.0
        self._span_seq = 0
        self._outbox: list[dict[str, Any]] | None = None
        self._close_sink_locked()
        self.traces_started = 0
        self.spans_finished = 0

    def _close_sink_locked(self) -> None:
        if self._sink is not None:
            try:
                self._sink.close()
            except OSError:
                pass
            self._sink = None

    def configure(self, config: ObsConfig, *, outbox: bool = False) -> None:
        """Install a fresh config, dropping all previously collected state."""
        with self._lock:
            self._reset_locked(config)
            if outbox:
                self._outbox = []
        self.histograms.reset()

    def reset(self) -> None:
        """Back to the disabled defaults (tests do this between cases)."""
        self.configure(ObsConfig())
        _ACTIVE.set(None)

    # -- span creation -------------------------------------------------- #

    def _next_span_id_locked(self) -> str:
        self._span_seq += 1
        return f"{os.getpid():x}-{self._span_seq:x}"

    def ingress(self, name: str, **attrs: Any) -> Ingress | _NoopIngress:
        """Mint (or decline) a trace at the front door."""
        if not self.enabled:
            return NOOP_INGRESS
        with self._lock:
            self._accumulator += self.config.sample_rate
            if self._accumulator < 1.0:
                return NOOP_INGRESS
            self._accumulator -= 1.0
            span_id = self._next_span_id_locked()
            self.traces_started += 1
        trace_id = secrets.token_hex(8)
        return Ingress(self, Span(trace_id, span_id, None, name, attrs))

    def span(self, name: str, **attrs: Any) -> _SpanHandle | _NoopSpan:
        """Open a child span under the active context (no-op otherwise)."""
        if not self.enabled:
            return NOOP_SPAN
        active = _ACTIVE.get()
        if active is None:
            return NOOP_SPAN
        with self._lock:
            span_id = self._next_span_id_locked()
        return _SpanHandle(
            self,
            Span(active.ctx.trace_id, span_id, active.ctx.span_id, name, attrs),
        )

    def activate(self, ctx: TraceContext | None) -> _Activation:
        """Adopt a context that arrived attached to a request or a frame."""
        return _Activation(ctx if self.enabled else None)

    def current(self) -> TraceContext | None:
        """The active context (parent for the next child span), if any."""
        active = _ACTIVE.get()
        return active.ctx if active is not None else None

    def measured(
        self,
        stage: str,
        *,
        trace_id: str | None = None,
        source: int | None = None,
    ) -> _Measured:
        """Always-on request envelope feeding histogram + slow-query log."""
        return _Measured(self, stage, trace_id, source)

    # -- direct recording ----------------------------------------------- #

    def record_span(
        self,
        name: str,
        *,
        start: float,
        duration: float,
        ctx: TraceContext | None = None,
        observe: bool = True,
        **attrs: Any,
    ) -> None:
        """Record an already-timed interval as a finished span.

        ``observe=False`` skips the histogram feed — used where the
        interval was already observed through an always-on path (e.g.
        ``queue.wait``) so sampling cannot double-count it.
        """
        if not self.enabled:
            return
        if ctx is None:
            ctx = self.current()
            if ctx is None:
                return
        with self._lock:
            span_id = self._next_span_id_locked()
        span = Span(ctx.trace_id, span_id, ctx.span_id, name, attrs)
        span.start = start
        span.duration = duration
        self.finish(span, observe=observe)

    def event(self, name: str, **attrs: Any) -> None:
        """Attach a point event to the open span (or record a point span)."""
        if not self.enabled:
            return
        active = _ACTIVE.get()
        if active is None:
            return
        if active.span is not None:
            active.span.event(name, **attrs)
        else:
            at = clock.now()
            self.record_span(name, start=at, duration=0.0, observe=False, **attrs)

    def observe(self, stage: str, seconds: float) -> None:
        """Feed the always-on per-stage histograms directly."""
        self.histograms.observe(stage, seconds)

    # -- collection ----------------------------------------------------- #

    def finish(self, span: Span, *, observe: bool = True) -> None:
        """Close a span into the ring/histograms/outbox/sink."""
        if span.duration is None:
            span.duration = clock.now() - span.start
        if observe:
            self.histograms.observe(span.name, span.duration)
        record = span.to_dict()
        with self._lock:
            self.ring.append(record)
            self.spans_finished += 1
            if self._outbox is not None:
                self._outbox.append(record)
            self._write_sink_locked(record)

    def drain(self) -> list[dict[str, Any]]:
        """Pop the outbox (replica workers ship these back per frame)."""
        with self._lock:
            if not self._outbox:
                return []
            drained, self._outbox = self._outbox, []
            return drained

    def ingest_spans(self, records: list[dict[str, Any]]) -> None:
        """Adopt spans finished in another process (coordinator side)."""
        if not records:
            return
        for record in records:
            duration = record.get("duration")
            if duration is not None:
                self.histograms.observe(record["name"], duration)
        with self._lock:
            self.ring.extend(records)
            self.spans_finished += len(records)
            for record in records:
                self._write_sink_locked(record)

    def _write_sink_locked(self, record: dict[str, Any]) -> None:
        if self.config.export_path is None:
            return
        if self._sink is None:
            self._sink = open(self.config.export_path, "a", encoding="utf-8")
        self._sink.write(json.dumps(record) + "\n")
        self._sink.flush()

    # -- query surfaces -------------------------------------------------- #

    def trace(self, trace_id: str) -> list[dict[str, Any]]:
        """Every retained span of one trace, ordered by start time."""
        with self._lock:
            spans = [dict(s) for s in self.ring if s["trace_id"] == trace_id]
        spans.sort(key=lambda s: s["start"])
        return spans

    def slow(self, threshold_ms: float | None = None) -> list[dict[str, Any]]:
        """Slow-query log entries (optionally re-filtered by threshold)."""
        return self.slowlog.entries(threshold_ms)

    def snapshot(self) -> dict[str, Any]:
        """The ``obs`` section of ``/v1/stats`` (and ``/v1/metrics``)."""
        with self._lock:
            tracing = {
                "enabled": self.enabled,
                "sample_rate": self.config.sample_rate,
                "traces_started": self.traces_started,
                "spans_finished": self.spans_finished,
                "ring_depth": len(self.ring),
                "ring_capacity": self.config.ring_capacity,
            }
        return {
            "tracing": tracing,
            "slowlog": self.slowlog.to_dict(),
            "histograms": self.histograms.to_dict(),
        }


#: The process-wide tracer behind the :mod:`repro.obs` facade.
TRACER = Tracer()
