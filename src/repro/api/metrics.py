"""Prometheus-style text rendering of the serving stats surface.

:func:`render_prometheus` flattens the ``/v1/stats`` payload — the
:meth:`~repro.serve.service.ServiceMetrics.to_dict` snapshot plus the
gateway's per-op counters, the admission gate, and (when replicated) the
cluster section — into the Prometheus text exposition format (version
0.0.4): ``# HELP`` / ``# TYPE`` comment pairs followed by
``name{labels} value`` sample lines. The HTTP front-end serves it at
``GET /v1/metrics`` so a stock Prometheus scraper (or ``curl``) can
watch a serving process without speaking the JSON protocol.

Counters here are *lifetime totals* (monotonically non-decreasing across
scrapes, modulo process restart); gauges are instantaneous values —
queue depth, residency. Nested dict sections become labelled samples
(``repro_gateway_requests_total{op="top_k"}``); list-valued cluster
entries get an ``index`` label per replica.

Latency is exported as **cumulative histograms** — one
``repro_latency_seconds`` family with a ``stage`` label
(``request.top_k``, ``queue.wait``, ``engine.query``, ...), standard
``_bucket``/``_sum``/``_count`` series fed by :mod:`repro.obs`. Unlike
the point-in-time percentile gauges they replaced, these aggregate
across scrapes and instances (``histogram_quantile()`` works); the
sample-window percentiles remain available as JSON in ``/v1/stats``.
"""

from __future__ import annotations

import re
from typing import Any, Iterable, Mapping

#: Metric name prefix for every exported sample.
PREFIX = "repro"

#: Top-level stats keys that are instantaneous values, not lifetime
#: totals. Everything else numeric is exported as a counter.
GAUGE_KEYS = frozenset(
    {
        "queries_per_second",
        "hit_rate",
        "resident",
        "staleness_p50",
        "staleness_p99",
        "residual_restored_last",
        "checkpoint_ms_last",
        "checkpoint_write_ms_last",
        "checkpoint_bytes_last",
        "checkpoint_in_flight",
        "graph_base_version",
        "graph_replay_batches",
        "depth",
        "capacity",
        "replicas",
        "shards",
        "head",
    }
)

#: Stats keys not exported to Prometheus at all: the sample-window
#: percentile gauges stay in ``/v1/stats`` for humans, but the scrape
#: surface carries the cumulative ``repro_latency_seconds`` histograms
#: instead (point-in-time percentiles cannot be aggregated).
UNEXPORTED_KEYS = frozenset({"latency_p50_s", "latency_p99_s", "latency_p999_s"})

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")


def _sanitize(name: str) -> str:
    """Coerce an arbitrary stats key into a legal metric-name segment."""
    cleaned = re.sub(r"[^a-zA-Z0-9_]", "_", str(name))
    if not cleaned or not re.match(r"[a-zA-Z_]", cleaned):
        cleaned = f"_{cleaned}"
    return cleaned


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class _Writer:
    """Accumulates samples grouped under one HELP/TYPE header per metric."""

    def __init__(self) -> None:
        self._lines: list[str] = []
        self._seen: set[str] = set()

    def sample(
        self,
        name: str,
        value: float,
        *,
        kind: str,
        help_text: str,
        labels: Mapping[str, Any] | None = None,
    ) -> None:
        assert _NAME_OK.fullmatch(name), name
        if name not in self._seen:
            self._seen.add(name)
            self._lines.append(f"# HELP {name} {help_text}")
            self._lines.append(f"# TYPE {name} {kind}")
        label_text = ""
        if labels:
            inner = ",".join(
                f'{_sanitize(k)}="{v}"' for k, v in sorted(labels.items())
            )
            label_text = f"{{{inner}}}"
        rendered = repr(float(value)) if isinstance(value, float) else str(value)
        self._lines.append(f"{name}{label_text} {rendered}")

    def histogram(
        self,
        name: str,
        *,
        help_text: str,
        labels: Mapping[str, Any],
        bounds: Iterable[float],
        cumulative: Iterable[int],
        sum_value: float,
        count: int,
    ) -> None:
        """Emit one labelled cumulative histogram (``_bucket``/``_sum``/``_count``)."""
        assert _NAME_OK.fullmatch(name), name
        if name not in self._seen:
            self._seen.add(name)
            self._lines.append(f"# HELP {name} {help_text}")
            self._lines.append(f"# TYPE {name} histogram")
        base = ",".join(f'{_sanitize(k)}="{v}"' for k, v in sorted(labels.items()))
        les = [repr(float(bound)) for bound in bounds] + ["+Inf"]
        for le, value in zip(les, cumulative):
            self._lines.append(f'{name}_bucket{{{base},le="{le}"}} {value}')
        self._lines.append(f"{name}_sum{{{base}}} {repr(float(sum_value))}")
        self._lines.append(f"{name}_count{{{base}}} {count}")

    def render(self) -> str:
        return "\n".join(self._lines) + "\n"


def _emit_scalar(writer: _Writer, section: str, key: str, value: Any) -> None:
    if not _is_number(value):
        return
    base = _sanitize(key)
    if key in GAUGE_KEYS:
        name = f"{PREFIX}_{section}_{base}" if section else f"{PREFIX}_{base}"
        writer.sample(
            name, value, kind="gauge",
            help_text=f"Instantaneous {key.replace('_', ' ')}.",
        )
        return
    name = (
        f"{PREFIX}_{section}_{base}_total" if section else f"{PREFIX}_{base}_total"
    )
    writer.sample(
        name, value, kind="counter",
        help_text=f"Lifetime total of {key.replace('_', ' ')}.",
    )


def _emit_counter_map(
    writer: _Writer, name: str, label: str, entries: Mapping[str, Any],
    help_text: str,
) -> None:
    for key in sorted(entries):
        if _is_number(entries[key]):
            writer.sample(
                name, entries[key], kind="counter",
                help_text=help_text, labels={label: key},
            )


def _emit_indexed(
    writer: _Writer, name: str, values: Iterable[Any], help_text: str
) -> None:
    for index, value in enumerate(values):
        if _is_number(value):
            writer.sample(
                name, value, kind="gauge",
                help_text=help_text, labels={"index": index},
            )


def _emit_obs(writer: _Writer, section: Mapping[str, Any]) -> None:
    """Render the :mod:`repro.obs` stats section (histograms + counters)."""
    histograms = section.get("histograms")
    if isinstance(histograms, Mapping):
        for stage in sorted(histograms):
            data = histograms[stage]
            if not isinstance(data, Mapping):
                continue
            counts = list(data.get("counts", []))
            cumulative: list[int] = []
            running = 0
            for count in counts:
                running += count
                cumulative.append(running)
            writer.histogram(
                f"{PREFIX}_latency_seconds",
                help_text="Cumulative per-stage latency distribution (seconds).",
                labels={"stage": stage},
                bounds=list(data.get("bounds", [])),
                cumulative=cumulative,
                sum_value=float(data.get("sum", 0.0)),
                count=int(data.get("count", 0)),
            )
    tracing = section.get("tracing")
    if isinstance(tracing, Mapping):
        for key, help_text in (
            ("traces_started", "Sampled traces minted at the front doors."),
            ("spans_finished", "Spans collected into the trace ring buffer."),
        ):
            if _is_number(tracing.get(key)):
                writer.sample(
                    f"{PREFIX}_obs_{key}_total", tracing[key],
                    kind="counter", help_text=help_text,
                )
    slowlog = section.get("slowlog")
    if isinstance(slowlog, Mapping) and _is_number(slowlog.get("recorded")):
        writer.sample(
            f"{PREFIX}_obs_slowlog_recorded_total", slowlog["recorded"],
            kind="counter",
            help_text="Requests recorded into the slow-query ring.",
        )


def render_prometheus(stats: Mapping[str, Any]) -> str:
    """Render one ``/v1/stats`` payload as Prometheus exposition text."""
    writer = _Writer()
    for key, value in stats.items():
        if (
            key in ("gateway", "admission", "cluster", "shard", "obs")
            or key in UNEXPORTED_KEYS
        ):
            continue
        _emit_scalar(writer, "", key, value)

    obs_section = stats.get("obs")
    if isinstance(obs_section, Mapping):
        _emit_obs(writer, obs_section)

    gateway = stats.get("gateway")
    if isinstance(gateway, Mapping):
        _emit_counter_map(
            writer, f"{PREFIX}_gateway_requests_total", "op", gateway,
            "Requests handled by the gateway, by operation/counter name.",
        )

    admission = stats.get("admission")
    if isinstance(admission, Mapping):
        for key in ("capacity", "depth"):
            _emit_scalar(writer, "admission", key, admission.get(key))
        for counter, help_text in (
            ("admitted", "Requests admitted past the backpressure gate."),
            ("shed", "Requests shed by the backpressure gate."),
        ):
            entries = admission.get(counter)
            if isinstance(entries, Mapping):
                _emit_counter_map(
                    writer,
                    f"{PREFIX}_admission_{counter}_total",
                    "priority",
                    entries,
                    help_text,
                )

    cluster = stats.get("cluster")
    if isinstance(cluster, Mapping):
        for key, value in cluster.items():
            if key == "gateway" and isinstance(value, Mapping):
                _emit_counter_map(
                    writer,
                    f"{PREFIX}_cluster_requests_total",
                    "op",
                    value,
                    "Requests handled by the cluster gateway, by counter name.",
                )
            elif isinstance(value, (list, tuple)):
                _emit_indexed(
                    writer,
                    f"{PREFIX}_cluster_{_sanitize(key)}",
                    value,
                    f"Per-replica {key.replace('_', ' ')}.",
                )
            else:
                _emit_scalar(writer, "cluster", key, value)

    shard = stats.get("shard")
    if isinstance(shard, Mapping):
        _emit_shard(writer, shard)
    return writer.render()


def _emit_shard(writer: _Writer, shard: Mapping[str, Any]) -> None:
    """Render the sharded tier's stats section.

    Per-shard list entries become ``{shard="<id>"}``-labelled samples:
    owned in-edges as a gauge (placement balance at a glance), frontier
    exchange traffic as lifetime counters (the cross-shard cost of the
    push workload), applied versions as gauges (replication skew).
    """

    def per_shard(
        key: str, name: str, *, kind: str, help_text: str
    ) -> None:
        values = shard.get(key)
        if not isinstance(values, (list, tuple)):
            return
        for index, value in enumerate(values):
            if _is_number(value):
                writer.sample(
                    name, value, kind=kind,
                    help_text=help_text, labels={"shard": index},
                )

    per_shard(
        "edges", f"{PREFIX}_shard_edges", kind="gauge",
        help_text="In-edges owned by each shard's vertex slice.",
    )
    per_shard(
        "frontier_bytes", f"{PREFIX}_shard_frontier_bytes_total",
        kind="counter",
        help_text="Frontier-exchange bytes relayed for each shard's pushes.",
    )
    per_shard(
        "exchange_rounds", f"{PREFIX}_shard_exchange_rounds_total",
        kind="counter",
        help_text="Cross-shard row fetches relayed for each shard's pushes.",
    )
    per_shard(
        "applied_versions", f"{PREFIX}_shard_applied_version", kind="gauge",
        help_text="Graph version each shard has applied and acknowledged.",
    )
    per_shard(
        "dispatched", f"{PREFIX}_shard_dispatched_total", kind="counter",
        help_text="Read dispatches routed to each shard.",
    )
    gateway = shard.get("gateway")
    if isinstance(gateway, Mapping):
        _emit_counter_map(
            writer, f"{PREFIX}_shard_requests_total", "op", gateway,
            "Requests handled by the shard coordinator, by counter name.",
        )
    for key in ("shards", "head", "respawns", "batches_shipped",
                "checkpoint_rounds"):
        _emit_scalar(writer, "shard", key, shard.get(key))
