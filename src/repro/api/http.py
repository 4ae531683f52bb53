"""Stdlib HTTP/JSON front-end for the gateway (``repro serve``).

A thin :mod:`http.server`-based adapter — no third-party web framework —
mapping routes onto the typed protocol:

========  =============== =================================================
method    route           operation
========  =============== =================================================
``POST``  ``/v1/query``   one request object, or ``{"requests": [...]}``
                          for a scheduled (read-coalesced) sequence
``POST``  ``/v1/ingest``  an :class:`~repro.api.requests.IngestBatch`
``GET``   ``/v1/stats``   structured metrics
``GET``   ``/v1/metrics`` Prometheus text exposition of the same stats
``GET``   ``/v1/healthz`` liveness probe (200 while the process serves)
``GET``   ``/v1/readyz``  readiness probe (503 while degraded/failing over)
``GET``   ``/v1/trace/<id>`` spans of one sampled trace (:mod:`repro.obs`)
``GET``   ``/v1/slow``    slow-query log (``?threshold_ms=`` re-filters)
========  =============== =================================================

With tracing enabled (``ObsConfig.enabled``), sampled requests mint
their trace at this front door: the response JSON carries ``trace_id``
(also sent as an ``X-Trace-Id`` header), which keys ``/v1/trace/<id>``.

Bodies and responses are the ``to_dict`` forms of the request/response
dataclasses, so the wire protocol is exactly the embedded one — an HTTP
answer is bit-identical JSON to the embedded client's ``to_dict()`` for
the same snapshot version (floats serialize via ``repr``, the shortest
round-trip form). Error codes map onto HTTP statuses (``REQUEST`` → 400,
``VERTEX``/``EDGE`` → 404, ``CONFLICT`` → 409, …); unknown routes,
malformed JSON and an unusable ``Content-Length`` come back as the same
structured error envelope.

The server is a :class:`~http.server.ThreadingHTTPServer`; the gateway's
internal lock orders engine access across worker threads, and a cold
top-k read's push runs with it released, so two connections' cold reads
use two cores (see :mod:`repro.api.gateway`). Connections
are persistent (HTTP/1.1 keep-alive) and every response — headers and
body — leaves in one ``send`` with Nagle's algorithm off, so a request
on a warm connection costs the engine's time, not a delayed-ACK timer.
"""

from __future__ import annotations

import json
import re
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.error import HTTPError
from urllib.parse import parse_qs, urlencode, urlsplit
from urllib.request import Request, urlopen

from .. import obs
from ..errors import ReproError, RequestError
from .gateway import Gateway
from .metrics import render_prometheus
from .requests import Health, IngestBatch, Ready, Stats, request_from_dict
from .resilience import DeterministicJitter, RetryPolicy
from .responses import ErrorInfo, StatsResult

#: Stable error code -> HTTP status.
STATUS_FOR_CODE = {
    "REQUEST": 400,
    "CONFIG": 400,
    "VERTEX": 404,
    "EDGE": 404,
    "GRAPH": 400,
    "CONFLICT": 409,
    "STREAM": 400,
    "CONVERGENCE": 500,
    "BACKEND": 500,
    "STORE": 500,
    "OVERLOAD": 429,
    "DEADLINE": 503,
    "CLUSTER": 503,
    "REPRO": 500,
    "INTERNAL": 500,
}


def status_for(error: ErrorInfo | None) -> int:
    """The HTTP status expressing a response's error (200 when ok)."""
    if error is None:
        return 200
    return STATUS_FOR_CODE.get(error.code, 500)


class GatewayHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one gateway."""

    daemon_threads = True

    def __init__(self, gateway: Gateway, host: str, port: int) -> None:
        self.gateway = gateway
        super().__init__((host, port), GatewayRequestHandler)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


class GatewayRequestHandler(BaseHTTPRequestHandler):
    """Route HTTP traffic onto the typed gateway protocol."""

    server_version = "repro-gateway"
    protocol_version = "HTTP/1.1"
    #: Headers and body are two writes; unbuffered they are two segments,
    #: and on a keep-alive connection Nagle holds the second until the
    #: client's delayed ACK (40 ms). Buffer them and let the one flush per
    #: request (``handle_one_request``) send both — 64 KiB holds every
    #: response but a very large batch; ``TCP_NODELAY`` keeps a larger one
    #: from stalling between its segments.
    wbufsize = 64 * 1024
    disable_nagle_algorithm = True
    #: Quiet by default; ``repro serve --verbose`` flips it.
    log_traffic = False

    @property
    def gateway(self) -> Gateway:
        return self.server.gateway  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if self.log_traffic:
            super().log_message(format, *args)

    # -------------------------------------------------------------- #
    # plumbing
    # -------------------------------------------------------------- #

    def _send(
        self,
        status: int,
        content_type: str,
        body: bytes,
        trace_id: str | None = None,
    ) -> None:
        """The one response writer: status line, headers and body."""
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if trace_id is not None:
            self.send_header("X-Trace-Id", trace_id)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_json(
        self, status: int, payload: dict[str, Any], trace_id: str | None = None
    ) -> None:
        self._send(
            status, "application/json", json.dumps(payload).encode("utf-8"), trace_id
        )

    def _send_error_info(self, error: ErrorInfo, status: int | None = None) -> None:
        self._send_json(
            status_for(error) if status is None else status,
            {"ok": False, "error": error.to_dict()},
        )

    def _read_body(self) -> Any:
        declared = self.headers.get("Content-Length", "")
        # Matched, not int()-ed: "abc" would raise out of do_POST, "-1" would
        # read to EOF, and int() itself refuses a few thousand digits.
        if not re.fullmatch(r"[0-9]{1,18}", declared):
            # Where this request's body ends is unknown, so nothing after
            # it on the connection can be trusted to be a request.
            self.close_connection = True
            raise RequestError(
                "POST needs a Content-Length that is a non-negative integer,"
                f" got {declared!r}"
            )
        length = int(declared)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise RequestError("empty request body (want a JSON object)")
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise RequestError(f"malformed JSON body: {exc}") from exc

    # -------------------------------------------------------------- #
    # routes
    # -------------------------------------------------------------- #

    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        parts = urlsplit(self.path)
        route = parts.path
        if route == "/v1/healthz":
            self._send_gateway(Health())
        elif route == "/v1/readyz":
            self._send_ready()
        elif route == "/v1/stats":
            self._send_gateway(Stats())
        elif route == "/v1/metrics":
            self._send_metrics()
        elif route.startswith("/v1/trace/"):
            self._send_trace(route[len("/v1/trace/"):])
        elif route == "/v1/slow":
            self._send_slow(parse_qs(parts.query))
        else:
            self._send_error_info(
                ErrorInfo(code="REQUEST", message=f"unknown route: GET {self.path}"),
                status=404,
            )

    def do_POST(self) -> None:  # noqa: N802 - http.server contract
        try:
            if self.path == "/v1/query":
                payload = self._read_body()
                if isinstance(payload, dict) and "requests" in payload:
                    items = payload["requests"]
                    if not isinstance(items, list):
                        raise RequestError("'requests' must be a JSON array")
                    requests = [request_from_dict(item) for item in items]
                    # One ingress (and so one trace) for the whole batch:
                    # its members share the root span, and the scheduler's
                    # run spans show which members coalesced together.
                    ing = obs.ingress(
                        "http.request", route="/v1/query", requests=len(requests)
                    )
                    with ing:
                        for request in requests:
                            obs.attach(request, ing.ctx)
                        responses = self.gateway.submit_many(requests)
                        body = {"responses": [r.to_dict() for r in responses]}
                        if ing.trace_id is not None:
                            body["trace_id"] = ing.trace_id
                        with obs.span("http.respond"):
                            self._send_json(200, body, trace_id=ing.trace_id)
                else:
                    self._send_gateway(request_from_dict(payload))
            elif self.path == "/v1/ingest":
                payload = self._read_body()
                if not isinstance(payload, dict):
                    raise RequestError("ingest body must be a JSON object")
                self._send_gateway(IngestBatch.from_dict(payload))
            else:
                self.close_connection = True  # the body stays unread
                self._send_error_info(
                    ErrorInfo(
                        code="REQUEST", message=f"unknown route: POST {self.path}"
                    ),
                    status=404,
                )
        except ReproError as exc:
            self._send_error_info(ErrorInfo.from_exception(exc))

    def _send_gateway(self, request: Any) -> None:
        ing = obs.ingress("http.request", route=self.path, op=request.op)
        with ing:
            obs.attach(request, ing.ctx)
            response = self.gateway.submit(request)
            payload = response.to_dict()
            if ing.trace_id is not None:
                payload["trace_id"] = ing.trace_id
            with obs.span("http.respond", status=status_for(response.error)):
                self._send_json(
                    status_for(response.error), payload, trace_id=ing.trace_id
                )

    def _send_ready(self) -> None:
        """Readiness maps the ``ready`` bit onto HTTP: 200 ready, 503 not.

        Distinct from ``/v1/healthz`` (pure liveness, 200 while the
        process serves): a load balancer drains a backend on 503 here —
        e.g. mid-failover, a dead replica, or an open circuit breaker —
        without the supervisor restarting a perfectly alive process.
        """
        ing = obs.ingress("http.request", route=self.path, op="ready")
        with ing:
            request = Ready()
            obs.attach(request, ing.ctx)
            response = self.gateway.submit(request)
            payload = response.to_dict()
            if ing.trace_id is not None:
                payload["trace_id"] = ing.trace_id
            status = status_for(response.error)
            if status == 200 and not getattr(response, "ready", True):
                status = 503
            with obs.span("http.respond", status=status):
                self._send_json(status, payload, trace_id=ing.trace_id)

    def _send_trace(self, trace_id: str) -> None:
        spans = obs.trace(trace_id)
        if not spans:
            self._send_error_info(
                ErrorInfo(
                    code="REQUEST",
                    message=f"unknown or expired trace: {trace_id!r}",
                ),
                status=404,
            )
            return
        self._send_json(200, {"ok": True, "trace_id": trace_id, "spans": spans})

    def _send_slow(self, query: dict[str, list[str]]) -> None:
        threshold_ms: float | None = None
        raw = query.get("threshold_ms")
        if raw:
            try:
                threshold_ms = float(raw[0])
            except ValueError:
                self._send_error_info(
                    ErrorInfo(
                        code="REQUEST",
                        message=f"threshold_ms must be a number, got {raw[0]!r}",
                    )
                )
                return
        entries = obs.slow(threshold_ms)
        self._send_json(
            200,
            {
                "ok": True,
                "threshold_ms": (
                    threshold_ms
                    if threshold_ms is not None
                    else obs.TRACER.slowlog.threshold_ms
                ),
                "entries": entries,
            },
        )

    def _send_metrics(self) -> None:
        response = self.gateway.submit(Stats())
        if response.error is not None or not isinstance(response, StatsResult):
            self._send_error_info(
                response.error
                or ErrorInfo(code="INTERNAL", message="stats unavailable")
            )
            return
        self._send(
            200,
            "text/plain; version=0.0.4",
            render_prometheus(response.stats).encode("utf-8"),
        )


def make_server(
    gateway: Gateway, host: str | None = None, port: int | None = None
) -> GatewayHTTPServer:
    """Bind (but do not run) the HTTP front-end.

    Defaults come from the gateway's :class:`~repro.config.ApiConfig`;
    port ``0`` gets an ephemeral port (check ``server.server_address``).
    Call ``serve_forever()`` (from any thread) and ``shutdown()`` to stop.
    """
    return GatewayHTTPServer(
        gateway,
        gateway.config.host if host is None else host,
        gateway.config.port if port is None else port,
    )


#: Error codes safe to retry on an idempotent request: transient serving
#: conditions (failover window, queue spike, missed deadline), never a
#: problem with the request itself.
RETRYABLE_CODES = frozenset({"CLUSTER", "DEADLINE", "OVERLOAD"})

#: Write operations — never retried (a lost ack could double-apply).
_NON_IDEMPOTENT_OPS = frozenset({"ingest", "checkpoint"})


class HttpClient:
    """Minimal stdlib HTTP client speaking the gateway protocol.

    The network twin of :class:`repro.api.client.Client`, used by tests,
    the smoke script, and ``examples/http_client_demo.py``. Raises the
    typed :class:`~repro.errors.ReproError` a failed response encodes.

    With a :class:`~repro.api.resilience.RetryPolicy`, *idempotent*
    requests (every GET; query reads, but never writes) that fail with a
    transport error or a transient typed failure (``CLUSTER`` /
    ``DEADLINE`` / ``OVERLOAD``) are retried under exponential backoff
    with deterministic jitter; each attempt gets the full ``timeout``.
    Writes are never retried — a lost ack could mean a double-apply —
    which is what ``expect_version`` conditional ingest is for.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retry = retry
        self._jitter = DeterministicJitter()

    def _request(
        self,
        method: str,
        route: str,
        payload: dict[str, Any] | None = None,
        *,
        idempotent: bool | None = None,
    ) -> dict[str, Any]:
        if idempotent is None:
            idempotent = method == "GET"
        policy = self.retry
        attempts = policy.attempts if (policy is not None and idempotent) else 1
        for attempt in range(attempts):
            if attempt:
                time.sleep(policy.backoff_s(attempt - 1, self._jitter.next()))
            try:
                return self._request_once(method, route, payload)
            except ReproError as exc:
                if exc.code not in RETRYABLE_CODES or attempt == attempts - 1:
                    raise
            except HTTPError:
                # A decoded non-typed server answer — not transient.
                raise
            except OSError:
                # URLError (connection refused/reset, socket timeout):
                # the server may be mid-restart or mid-failover.
                if attempt == attempts - 1:
                    raise
        raise AssertionError("unreachable: retry loop returns or raises")

    def _request_once(
        self, method: str, route: str, payload: dict[str, Any] | None = None
    ) -> dict[str, Any]:
        url = f"{self.base_url}{route}"
        data = json.dumps(payload).encode("utf-8") if payload is not None else None
        request = Request(
            url,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"} if data else {},
        )
        try:
            with urlopen(request, timeout=self.timeout) as response:
                return json.loads(response.read())
        except HTTPError as exc:
            body = json.loads(exc.read() or b"{}")
            info = body.get("error")
            if info:
                raise ErrorInfo(
                    code=str(info.get("code", "INTERNAL")),
                    message=str(info.get("message", "")),
                    details=dict(info.get("details", {})),
                ).to_exception() from None
            raise

    def query(self, payload: dict[str, Any]) -> dict[str, Any]:
        """POST one request object to ``/v1/query``."""
        return self._request(
            "POST",
            "/v1/query",
            payload,
            idempotent=payload.get("op") not in _NON_IDEMPOTENT_OPS,
        )

    def query_many(self, payloads: list[dict[str, Any]]) -> list[dict[str, Any]]:
        """POST a scheduled request sequence to ``/v1/query``."""
        body = self._request(
            "POST",
            "/v1/query",
            {"requests": payloads},
            idempotent=all(
                p.get("op") not in _NON_IDEMPOTENT_OPS for p in payloads
            ),
        )
        return list(body["responses"])

    def ingest(
        self,
        updates: list[list[Any]],
        *,
        expect_version: int | None = None,
    ) -> dict[str, Any]:
        payload: dict[str, Any] = {"updates": updates}
        if expect_version is not None:
            payload["expect_version"] = expect_version
        return self._request("POST", "/v1/ingest", payload)

    def stats(self) -> dict[str, Any]:
        return self._request("GET", "/v1/stats")

    def metrics(self) -> str:
        """GET the Prometheus text exposition from ``/v1/metrics``."""
        url = f"{self.base_url}/v1/metrics"
        with urlopen(Request(url, method="GET"), timeout=self.timeout) as response:
            return response.read().decode("utf-8")

    def trace(self, trace_id: str) -> list[dict[str, Any]]:
        """GET the spans of one sampled trace from ``/v1/trace/<id>``."""
        body = self._request("GET", f"/v1/trace/{trace_id}")
        return list(body["spans"])

    def slow(self, threshold_ms: float | None = None) -> list[dict[str, Any]]:
        """GET the slow-query log from ``/v1/slow``."""
        route = "/v1/slow"
        if threshold_ms is not None:
            # urlencode percent-escapes the "+" of exponent notation,
            # which parse_qs would otherwise decode into a space.
            route += "?" + urlencode({"threshold_ms": float(threshold_ms)})
        body = self._request("GET", route)
        return list(body["entries"])

    def healthz(self) -> dict[str, Any]:
        return self._request("GET", "/v1/healthz")

    def readyz(self) -> dict[str, Any]:
        """GET ``/v1/readyz`` — the readiness payload, degraded or not.

        A degraded cluster answers HTTP 503 *with* the full per-replica
        payload; this returns that payload (``ready: false``) rather than
        raising, so probes can report what exactly is degraded.
        """
        url = f"{self.base_url}/v1/readyz"
        try:
            with urlopen(Request(url, method="GET"), timeout=self.timeout) as resp:
                return json.loads(resp.read())
        except HTTPError as exc:
            if exc.code == 503:
                body = json.loads(exc.read() or b"{}")
                if "ready" in body:
                    return body
            raise
