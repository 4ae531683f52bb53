"""Typed gateway API — the single public entry point of the engine.

The seam every future scaling layer (sharding, async execution,
replication) plugs into, separating a typed query/operation protocol from
the storage/execution engines beneath it:

* :mod:`~repro.api.requests` / :mod:`~repro.api.responses` — frozen
  dataclasses for every operation, with per-request
  :class:`~repro.api.requests.Consistency` levels (FRESH / BOUNDED / ANY)
  and stable error codes;
* :class:`~repro.api.gateway.Gateway` — validates, routes, and schedules
  mixed read/write traffic (reads coalesced between write barriers,
  writes orderable against snapshot versions);
* :class:`~repro.api.client.Client` — the embedded canonical API;
* :mod:`~repro.api.admission` — bounded-queue backpressure and priority
  load shedding (ANY reads shed first) behind
  :attr:`~repro.config.ApiConfig.admission_queue`;
* :mod:`~repro.api.metrics` — Prometheus text rendering of the stats
  surface (``GET /v1/metrics``);
* :mod:`~repro.api.http` — the stdlib HTTP/JSON front-end behind
  ``python -m repro serve``.

See ``docs/api.md`` for the protocol reference and ``docs/load.md`` for
the overload model (deadlines, admission, shedding).
"""

from .admission import (
    AdmissionController,
    AdmissionQueue,
    Priority,
    priority_of,
    shed_threshold,
)
from .client import Client
from .gateway import Gateway
from .http import GatewayHTTPServer, HttpClient, make_server
from .metrics import render_prometheus
from .requests import (
    ANY,
    FRESH,
    ApiRequest,
    BatchQuery,
    CheckpointNow,
    Consistency,
    Deadline,
    Health,
    HubQuery,
    IngestBatch,
    Prefetch,
    Ready,
    REQUEST_TYPES,
    ScoreQuery,
    Stats,
    TopKQuery,
    consistency_for,
    request_from_dict,
)
from .resilience import CircuitBreaker, DeterministicJitter, RetryPolicy
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

__all__ = [
    "ANY",
    "AdmissionController",
    "AdmissionQueue",
    "ApiRequest",
    "ApiResponse",
    "BatchQuery",
    "BatchResult",
    "CheckpointNow",
    "CheckpointResult",
    "CircuitBreaker",
    "Client",
    "Consistency",
    "Deadline",
    "DeterministicJitter",
    "ErrorInfo",
    "FRESH",
    "Gateway",
    "GatewayHTTPServer",
    "Health",
    "HealthResult",
    "HttpClient",
    "HubQuery",
    "HubResult",
    "IngestBatch",
    "IngestResult",
    "Prefetch",
    "PrefetchResult",
    "Priority",
    "REQUEST_TYPES",
    "Ready",
    "ReadyResult",
    "RetryPolicy",
    "ScoreQuery",
    "ScoreResult",
    "Stats",
    "StatsResult",
    "TopKQuery",
    "TopKResult",
    "consistency_for",
    "make_server",
    "priority_of",
    "render_prometheus",
    "request_from_dict",
    "shed_threshold",
]
