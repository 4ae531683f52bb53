"""Turn what a run observed into the metrics BENCHMARK.json names.

Three sources, kept apart: client-side samples and ``/v1/stats`` deltas
of an untraced run (end-to-end and *untraced* per-layer metrics), the
span file of the traced run (*traced* per-layer metrics), and the store
directory. A metric a workload has no op for — or whose wrapper target no
longer resolves — is ``None`` and prints as ``n/a``.
"""

from __future__ import annotations

import statistics
from collections.abc import Sequence
from dataclasses import dataclass, field

from perf import spans as sp
from perf.loadgen import Sample
from perf.stats import percentile, samples_beyond, segment_median

#: name -> (value or None, sample count)
Metrics = dict[str, tuple[float | None, int]]


@dataclass
class Phase:
    """One timed phase as the load generator saw it."""

    clients: int
    start: float
    end: float
    samples: list[Sample]
    has_writes: bool
    stats_before: dict = field(default_factory=dict)
    stats_after: dict = field(default_factory=dict)
    cpu_s: float = 0.0

    @property
    def ok(self) -> list[Sample]:
        return [s for s in self.samples if s.error is None]

    def of(self, kind: str) -> list[Sample]:
        return [s for s in self.ok if s.kind == kind]


def _p50(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def throughput(clients: int, latencies_ms: Sequence[float]) -> float:
    """Closed loop: clients × ops / Σ latency, in ops per second."""
    return clients * len(latencies_ms) / (sum(latencies_ms) / 1e3)


def latency_stats(
    phase: Phase, samples: list[Sample], tail: float = 95.0
) -> tuple[float, float, float]:
    """(p50 ms, ``tail``-th percentile ms, ops/s) of ``samples``.

    Read-only phases report the median of five segment values, which one
    disturbed segment cannot move. Phases with writes pool the whole
    phase: a checkpoint stall is periodic work that a median over
    segments would hide.
    """
    stamped = [(s.done, s.latency_ms) for s in samples]
    values = [value for _, value in stamped]

    def rate(part: Sequence[float]) -> float:
        return throughput(phase.clients, part)

    def high(part: Sequence[float]) -> float:
        return percentile(part, tail)

    if phase.has_writes:
        return _p50(values), high(values), rate(values)
    return (
        segment_median(stamped, phase.start, phase.end, _p50, q=50.0),
        segment_median(stamped, phase.start, phase.end, high, q=tail),
        segment_median(stamped, phase.start, phase.end, rate, q=50.0),
    )


def end_to_end(phase: Phase, setup_s: float, peak_rss_mb: float) -> Metrics:
    ops = phase.ok
    n = len(ops)
    # p90, not p95: a 12 s run of the two single-client workloads has some
    # 170-250 requests, and only the 90th percentile keeps ten beyond it.
    p50, p90, rate = latency_stats(phase, ops, tail=90.0)
    return {
        "setup_s": (setup_s, 3),
        "op_p50_ms": (p50, n),
        "op_p90_ms": (p90, samples_beyond(n, 90.0)),
        "ops_per_s": (rate, n),
        "peak_rss_mb": (peak_rss_mb, 1),
    }


# ------------------------------------------------------------------ #
# untraced per-layer metrics
# ------------------------------------------------------------------ #


def _delta(phase: Phase, *path: str) -> float:
    def dig(stats: dict) -> float:
        node: object = stats
        for key in path:
            node = node.get(key, 0) if isinstance(node, dict) else 0
        return float(node) if isinstance(node, (int, float)) else 0.0

    return dig(phase.stats_after) - dig(phase.stats_before)


def cache_counts(phase: Phase) -> tuple[float | None, float, int]:
    """(hit rate, evictions, lookups) of the timed phase, from stats deltas."""
    hits = _delta(phase, "cache_hits")
    lookups = hits + _delta(phase, "cache_misses")
    return (hits / lookups if lookups else None), _delta(phase, "evictions"), int(lookups)


def untraced(phase: Phase) -> Metrics:
    out: Metrics = {}
    reads, writes = phase.of("read"), phase.of("write")
    ops = phase.ok
    overhead = [s.latency_ms - s.engine_s * 1e3 for s in ops]
    out["api.http.overhead_p50_ms"] = (_p50(overhead), len(ops))
    waits = _delta(phase, "obs", "histograms", "queue.wait", "count")
    out["api.gateway.lock_wait_ms"] = (
        _delta(phase, "obs", "histograms", "queue.wait", "sum") * 1e3 / waits
        if waits
        else None,
        int(waits),
    )
    for kind, group in (("read", reads), ("write", writes)):
        out[f"serve.engine_{kind}_p50_ms"] = (
            _p50([s.engine_s * 1e3 for s in group]) if group else None,
            len(group),
        )
    hit_rate, evictions, lookups = cache_counts(phase)
    out["serve.cache.hit_rate"] = (hit_rate, lookups)
    out["serve.cache.evictions"] = (evictions, lookups)
    out["graph.delta.applies"] = (_delta(phase, "snapshot_delta_applies"), len(writes))
    out["graph.delta.consolidations"] = (
        _delta(phase, "snapshot_consolidations"),
        len(writes),
    )
    out["graph.csr.rebuilds"] = (_delta(phase, "snapshot_rebuilds"), len(writes))

    # The issue's per-op-type client metrics. They cannot be end-to-end
    # metrics under the driver's contract (every end-to-end metric must be
    # measured, and non-zero, on every workload), so they live here.
    if reads:
        p50, p95, rate = latency_stats(phase, reads)
        out["read_p50_ms"] = (p50, len(reads))
        out["read_p95_ms"] = (p95, samples_beyond(len(reads), 95.0))
        out["reads_per_s"] = (rate, len(reads))
    if writes:
        latencies = [s.latency_ms for s in writes]
        out["write_p50_ms"] = (_p50(latencies), len(writes))
        out["write_p95_ms"] = (percentile(latencies, 95.0), samples_beyond(len(writes), 95.0))
        out["updates_per_s"] = (
            sum(s.updates for s in writes) / (sum(latencies) / 1e3),
            len(writes),
        )
    out["server.cpu_ms_per_op"] = (phase.cpu_s * 1e3 / len(phase.samples), len(phase.samples))
    failed = len(phase.samples) - len(ops)
    out["failed_share"] = (failed / max(len(phase.samples), 1), len(phase.samples))
    return out


def shard_metrics(phase: Phase) -> Metrics:
    """The sharded tier's counters, from ``/v1/stats`` deltas."""
    reads = len(phase.of("read"))
    before = phase.stats_before.get("shard", {})
    after = phase.stats_after.get("shard", {})
    dispatched = [
        b - a for a, b in zip(before.get("dispatched", []), after.get("dispatched", []))
    ]
    skew = max(dispatched) / min(dispatched) if dispatched and min(dispatched) else None
    return {
        "shard.exchange_rounds_per_read": (
            _delta(phase, "gateway", "exchange_rounds") / reads if reads else None,
            reads,
        ),
        "shard.frontier_kb_per_read": (
            _delta(phase, "gateway", "frontier_bytes") / 1024.0 / reads
            if reads
            else None,
            reads,
        ),
        "shard.dispatch_skew": (skew, len(dispatched)),
        "shard.respawns": (float(after.get("respawns", 0)), 1),
    }


# ------------------------------------------------------------------ #
# traced per-layer metrics
# ------------------------------------------------------------------ #

_ROUTES = {"/v1/query": "read", "/v1/ingest": "write"}


def match_requests(
    all_spans: list[dict], samples: list[Sample]
) -> list[tuple[Sample, dict]]:
    """Pair each timed client sample with the root span it contains.

    One client, closed loop: requests do not overlap, so the handler span
    of a request is the one root that lies inside the client's interval.
    """
    roots = sorted(
        (
            s
            for s in all_spans
            if s["parent"] == -1 and s["attrs"].get("route") in _ROUTES
        ),
        key=lambda s: s["start"],
    )
    pairs = []
    cursor = 0
    for sample in sorted(samples, key=lambda s: s.sent):
        while cursor < len(roots) and roots[cursor]["start"] < sample.sent:
            cursor += 1
        if cursor < len(roots) and roots[cursor]["end"] <= sample.done:
            pairs.append((sample, roots[cursor]))
            cursor += 1
    return pairs


def _mean(values: Sequence[float]) -> float | None:
    return statistics.fmean(values) if values else None


def traced(
    all_spans: list[dict], phase: Phase, untraced_engine_ms: Sequence[float], kind: str
) -> tuple[Metrics, dict]:
    """Per-layer metrics of the traced run, plus a layer-share report.

    ``trace.overhead_pct`` is the median, over this run's ``kind`` ops, of
    traced engine time over ``untraced_engine_ms``: the same requests in
    the same order on an untraced single-client server, paired one to one
    (a push costs 0.1 to 50 ms depending on the source, so medians of two
    unpaired samples differ by more than tracing costs).
    """
    pairs = match_requests(all_spans, phase.ok)
    grouped = sp.by_request(all_spans)
    index = {s["id"]: s for s in all_spans}
    reads = [(s, r) for s, r in pairs if s.kind == "read"]
    writes = [(s, r) for s, r in pairs if s.kind == "write"]

    per_request = {root["id"]: sp.layer_self_times(grouped[root["id"]]) for _, root in pairs}

    def layer_ms(group: list, prefix: str) -> float | None:
        return _mean(
            [
                1e3
                * sum(
                    spent
                    for layer, spent in per_request[root["id"]].items()
                    if layer.startswith(prefix)
                )
                for _, root in group
            ]
        )

    def named(group: list, name: str) -> list[dict]:
        return [
            span
            for _, root in group
            for span in grouped[root["id"]]
            if span["name"] == name
        ]

    def per(group: list, name: str, scale: float) -> float | None:
        if not group:
            return None
        return scale * sum(sp.duration(s) for s in named(group, name)) / len(group)

    def per_count(group: list, name: str) -> tuple[float | None, int]:
        found = named(group, name)
        count = sum(s["attrs"].get("count", 0) for s in found)
        spent = sum(sp.duration(s) for s in found)
        return (1e6 * spent / count if count else None), count

    out: Metrics = {}
    out["api.http.wire_p50_ms"] = (
        _p50([s.latency_ms - 1e3 * sp.duration(r) for s, r in pairs]) if pairs else None,
        len(pairs),
    )
    out["api.http.self_ms"] = (layer_ms(pairs, "api.http"), len(pairs))
    out["api.gateway.self_ms"] = (layer_ms(pairs, "api.gateway"), len(pairs))
    out["serve.self_ms_per_read"] = (layer_ms(reads, "serve."), len(reads))
    out["serve.self_ms_per_write"] = (layer_ms(writes, "serve."), len(writes))
    out["core.certify.ms_per_read"] = (per(reads, "core.certify", 1e3), len(reads))

    pushes = named(pairs, "core.push")
    by_kind: dict[str, list[dict]] = {"cold": [], "refresh": []}
    for push in pushes:
        admitted = sp.has_ancestor(push, index, "serve.pool")
        by_kind["cold" if admitted else "refresh"].append(push)
    for label, group in by_kind.items():
        out[f"core.push.{label}_ms"] = (
            _mean([1e3 * sp.duration(p) for p in group]),
            len(group),
        )
        out[f"core.push.edges_per_{label}_push"] = (
            _mean([p["attrs"].get("edges", 0) for p in group]),
            len(group),
        )
    out["core.push.iterations_per_push"] = (
        _mean([p["attrs"].get("iterations", 0) for p in pushes]),
        len(pushes),
    )
    phases = named(pairs, "kernels.phase")
    out["kernels.phase_ms"] = (_mean([1e3 * sp.duration(p) for p in phases]), len(phases))
    out["kernels.compiled_share"] = (
        _mean([float(p["attrs"].get("kernel") == "compiled") for p in phases]),
        len(phases),
    )
    us, calls = per_count(writes, "core.invariant")
    out["core.invariant.us_per_call"] = (us, calls)
    out["core.invariant.calls_per_write"] = (
        calls / len(writes) if writes else None,
        len(writes),
    )
    us, calls = per_count(writes, "graph.apply")
    out["graph.apply_us_per_update"] = (us, calls)
    out["graph.delta.apply_ms_per_write"] = (
        per(writes, "graph.delta.apply", 1e3),
        len(writes),
    )
    out["store.wal.append_ms_per_write"] = (per(writes, "store.wal", 1e3), len(writes))
    checkpoints = named(writes, "store.checkpoint")
    out["store.checkpoint.ms"] = (
        _mean([1e3 * sp.duration(c) for c in checkpoints]),
        len(checkpoints),
    )
    write_latency_s = sum(s.latency_ms for s, _ in writes) / 1e3
    out["store.checkpoint.stall_share"] = (
        sum(sp.duration(c) for c in checkpoints) / write_latency_s if writes else None,
        len(checkpoints),
    )

    group = reads if kind == "read" else writes
    ratios = [
        s.engine_s * 1e3 / plain for (s, _), plain in zip(group, untraced_engine_ms) if plain > 0
    ]
    out["trace.overhead_pct"] = (100.0 * (_p50(ratios) - 1.0) if ratios else None, len(ratios))

    report = {
        "requests": len(pairs),
        "unmatched": len(phase.ok) - len(pairs),
        "reconcile_worst": max(
            (sp.reconciliation_error(grouped[root["id"]]) for _, root in pairs),
            default=0.0,
        ),
        "shares": {
            label: _layer_shares(group, per_request)
            for label, group in (("read", reads), ("write", writes))
            if group
        },
    }
    return out, report


def _layer_shares(group: list, per_request: dict) -> dict[str, float]:
    """Layer → share of the summed handler spans of ``group``."""
    total = sum(sp.duration(root) for _, root in group)
    shares: dict[str, float] = {}
    for _, root in group:
        for layer, spent in per_request[root["id"]].items():
            shares[layer] = shares.get(layer, 0.0) + spent
    return {layer: spent / total for layer, spent in sorted(shares.items())} if total else {}
