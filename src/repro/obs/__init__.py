"""``repro.obs`` — end-to-end tracing, structured events, profiling.

The observability layer threaded through the whole stack (HTTP front
door → typed gateway → admission queue → scheduler → cluster pipes →
serving engine → push kernels → WAL). One process-wide
:class:`~repro.obs.trace.Tracer` collects:

* **Spans** — sampled request traces in a bounded ring buffer, served by
  ``GET /v1/trace/<id>`` and exportable to Chrome ``trace_event`` format
  (``repro trace export``).
* **Histograms** — always-on cumulative per-stage latency distributions
  (the ``repro_latency_seconds`` Prometheus family at ``/v1/metrics``).
* **Slow-query log** — always-on bounded ring of over-threshold
  requests (``GET /v1/slow``).

Usage, front door to kernel::

    ing = obs.ingress("http.request", route="/v1/query")
    with ing:                      # ing.ctx is None when unsampled
        obs.attach(request, ing.ctx)
        response = gateway.submit(request)

    # anywhere below, under an activated context:
    with obs.span("engine.query", source=source) as span:
        result = engine.query(source)
        span.set(iterations=result.iterations)

Everything degrades to a few attribute checks when tracing is disabled
or the request unsampled — see ``docs/observability.md``.
"""

from __future__ import annotations

from typing import Any

from ..config import ObsConfig
from . import clock
from .export import (
    chrome_trace,
    export_chrome_trace,
    format_tree,
    read_jsonl,
    span_children,
)
from .histograms import DEFAULT_BUCKETS, Histogram, HistogramRegistry
from .slowlog import SlowQueryLog
from .trace import (
    NOOP_SPAN,
    TRACE_ATTR,
    TRACER,
    Ingress,
    Span,
    TraceContext,
    Tracer,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "Histogram",
    "HistogramRegistry",
    "Ingress",
    "NOOP_SPAN",
    "ObsConfig",
    "SlowQueryLog",
    "Span",
    "TRACER",
    "TRACE_ATTR",
    "TraceContext",
    "Tracer",
    "activate",
    "attach",
    "chrome_trace",
    "clock",
    "configure",
    "current",
    "drain",
    "event",
    "export_chrome_trace",
    "format_tree",
    "ingest_spans",
    "ingress",
    "measured",
    "observe",
    "read_jsonl",
    "record_span",
    "reset",
    "slow",
    "snapshot",
    "span",
    "span_children",
    "trace",
    "trace_of",
]


# -- facade over the process-wide tracer -------------------------------- #

def configure(config: ObsConfig, *, outbox: bool = False) -> None:
    """Install ``config`` process-wide (dropping collected state)."""
    TRACER.configure(config, outbox=outbox)


def reset() -> None:
    """Back to disabled defaults; tests call this between cases."""
    TRACER.reset()


def enabled() -> bool:
    return TRACER.enabled


def ingress(name: str, **attrs: Any):
    """Mint (or decline, per sampling) a trace at a front door."""
    return TRACER.ingress(name, **attrs)


def span(name: str, **attrs: Any):
    """Open a child span under the active context; no-op outside one."""
    return TRACER.span(name, **attrs)


def activate(ctx: TraceContext | None):
    """Adopt a shipped/attached context for the duration of a block."""
    return TRACER.activate(ctx)


def current() -> TraceContext | None:
    """The context a child span would attach under right now."""
    return TRACER.current()


def measured(stage: str, *, trace_id: str | None = None, source: int | None = None):
    """Always-on request envelope: stage histogram + slow-query log."""
    return TRACER.measured(stage, trace_id=trace_id, source=source)


def record_span(
    name: str,
    *,
    start: float,
    duration: float,
    ctx: TraceContext | None = None,
    observe: bool = True,
    **attrs: Any,
) -> None:
    """Record an already-timed interval as a finished span."""
    TRACER.record_span(
        name, start=start, duration=duration, ctx=ctx, observe=observe, **attrs
    )


def event(name: str, **attrs: Any) -> None:
    """Attach a point event (e.g. ``replica-crashed``) to the open span."""
    TRACER.event(name, **attrs)


def observe(stage: str, seconds: float) -> None:
    """Feed one observation to the always-on per-stage histograms."""
    TRACER.observe(stage, seconds)


def drain() -> list[dict[str, Any]]:
    """Pop finished spans from the outbox (replica workers, per frame)."""
    return TRACER.drain()


def ingest_spans(records: list[dict[str, Any]]) -> None:
    """Adopt spans that finished in another process (coordinator side)."""
    TRACER.ingest_spans(records)


def trace(trace_id: str) -> list[dict[str, Any]]:
    """All retained spans of a trace, by start time (``/v1/trace/<id>``)."""
    return TRACER.trace(trace_id)


def slow(threshold_ms: float | None = None) -> list[dict[str, Any]]:
    """Slow-query log entries (``/v1/slow``)."""
    return TRACER.slow(threshold_ms)


def snapshot() -> dict[str, Any]:
    """The ``obs`` stats section: tracing counters, slow log, histograms."""
    return TRACER.snapshot()


# -- request plumbing ---------------------------------------------------- #

def attach(request: Any, ctx: TraceContext | None) -> None:
    """Stash a context on a (frozen) request dataclass.

    Uses ``object.__setattr__``: the context rides the instance
    ``__dict__`` (so it pickles across cluster pipes) without becoming a
    dataclass field — construction sites and generated ``__eq__`` (which
    read-coalescing dedup relies on) are untouched.
    """
    if ctx is not None:
        object.__setattr__(request, TRACE_ATTR, ctx)


def trace_of(request: Any) -> TraceContext | None:
    """The context attached to a request, if it is part of a sampled trace."""
    return getattr(request, TRACE_ATTR, None)
