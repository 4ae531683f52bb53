"""The observability layer (:mod:`repro.obs`).

Contracts under test:

1. **sampling** — the decision happens once at ingress, with a
   deterministic accumulator: exactly ``sample_rate`` of ingresses mint
   a trace, in a reproducible pattern, no RNG;
2. **bounded memory** — finished spans live in a fixed-size ring and the
   slow-query log is a fixed-size ring: a burst of any size costs
   O(capacity), never O(burst);
3. **propagation** — contexts attach to frozen request dataclasses,
   survive pickling (the cluster pipes), and replica-side spans drain
   through the outbox into the coordinator's one queryable trace;
4. **fault tolerance** — a replica SIGKILLed mid-request still yields a
   complete trace: the crash is an event, the respawn a span, and the
   retried execution arrives from the new worker process;
5. **one clock** — spans, ``Timer``, and ``repro.parallel.metrics`` all
   read the same monotonic source, so their numbers are comparable.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import time

import pytest

from repro import obs
from repro.api.requests import TopKQuery
from repro.cluster import PPRCluster
from repro.config import ApiConfig, ClusterConfig, ObsConfig, ServeConfig
from repro.errors import ConfigError
from repro.obs import clock
from repro.obs.export import (
    chrome_trace,
    export_chrome_trace,
    format_tree,
    read_jsonl,
    span_children,
)
from repro.obs.histograms import DEFAULT_BUCKETS, Histogram, HistogramRegistry
from repro.obs.slowlog import SlowQueryLog

from tests.test_cluster import fresh_service


def enable(**changes) -> None:
    obs.configure(ObsConfig(enabled=True, sample_rate=1.0).with_(**changes))


class TestObsConfig:
    def test_defaults_are_disabled_tracing(self):
        config = ObsConfig()
        assert not config.enabled
        assert config.sample_rate == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sample_rate": -0.1},
            {"sample_rate": 1.5},
            {"ring_capacity": 0},
            {"slowlog_capacity": 0},
            {"slowlog_threshold_ms": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            ObsConfig(**kwargs)

    def test_with_returns_modified_copy(self):
        config = ObsConfig(enabled=True, export_path="/tmp/x.jsonl")
        stripped = config.with_(export_path=None)
        assert stripped.enabled and stripped.export_path is None
        assert config.export_path == "/tmp/x.jsonl"


class TestSampling:
    def test_accumulator_samples_exactly_the_configured_fraction(self):
        enable(sample_rate=0.25)
        decisions = [obs.ingress("t").ctx is not None for _ in range(100)]
        assert sum(decisions) == 25
        # Deterministic: every 4th ingress, reproducibly — no RNG.
        assert decisions == [(i % 4) == 3 for i in range(100)]

    def test_rate_zero_never_samples_rate_one_always_does(self):
        enable(sample_rate=0.0)
        assert all(obs.ingress("t").ctx is None for _ in range(50))
        enable(sample_rate=1.0)
        assert all(obs.ingress("t").ctx is not None for _ in range(50))

    def test_disabled_tracer_is_inert(self):
        obs.reset()
        ing = obs.ingress("http.request")
        assert ing.ctx is None and ing.trace_id is None
        with ing:
            assert obs.span("x") is obs.NOOP_SPAN
            obs.event("nothing")  # swallowed
        obs.record_span("x", start=0.0, duration=1.0)
        snap = obs.snapshot()["tracing"]
        assert snap["traces_started"] == 0
        assert snap["spans_finished"] == 0

    def test_unsampled_request_attaches_no_context(self):
        obs.reset()
        request = TopKQuery(source=0, k=3)
        obs.attach(request, None)
        assert obs.trace_of(request) is None
        assert obs.TRACE_ATTR not in request.__dict__


class TestSpans:
    def test_parent_child_linkage_and_attrs(self):
        enable()
        with obs.ingress("root", route="/v1/query") as ing:
            with obs.span("child") as child:
                child.set(k=5)
                with obs.span("grand"):
                    pass
        spans = obs.trace(ing.trace_id)
        by_name = {span["name"]: span for span in spans}
        assert set(by_name) == {"root", "child", "grand"}
        assert by_name["root"]["parent_id"] is None
        assert by_name["child"]["parent_id"] == by_name["root"]["span_id"]
        assert by_name["grand"]["parent_id"] == by_name["child"]["span_id"]
        assert by_name["root"]["attrs"] == {"route": "/v1/query"}
        assert by_name["child"]["attrs"] == {"k": 5}
        assert len({span["span_id"] for span in spans}) == 3
        # Ids embed the pid, so worker spans can never collide.
        assert all(
            span["span_id"].startswith(f"{os.getpid():x}-") for span in spans
        )

    def test_exceptions_mark_the_span_and_propagate(self):
        enable()
        with pytest.raises(ValueError):
            with obs.ingress("boom") as ing:
                raise ValueError("nope")
        (span,) = obs.trace(ing.trace_id)
        assert span["attrs"]["error"] == "ValueError"
        assert span["duration"] >= 0.0

    def test_activate_adopts_a_shipped_context(self):
        enable()
        ctx = obs.TraceContext(trace_id="t" * 16, span_id="dead-beef")
        assert obs.current() is None
        with obs.activate(ctx):
            assert obs.current() == ctx
            with obs.span("shipped"):
                pass
        assert obs.current() is None
        (span,) = obs.trace(ctx.trace_id)
        assert span["parent_id"] == ctx.span_id
        # activate(None) must be a harmless no-op (unsampled requests).
        with obs.activate(None):
            assert obs.current() is None

    def test_event_attaches_to_open_span_or_becomes_point_span(self):
        enable()
        with obs.ingress("root") as ing:
            obs.event("replica-crashed", replica=1)
            with obs.activate(obs.current()):  # context without open span
                obs.event("floating", detail="x")
        spans = obs.trace(ing.trace_id)
        by_name = {span["name"]: span for span in spans}
        assert by_name["root"]["events"][0]["name"] == "replica-crashed"
        assert by_name["root"]["events"][0]["replica"] == 1
        assert by_name["floating"]["duration"] == 0.0

    def test_ring_bounds_retained_spans(self):
        enable(ring_capacity=8)
        with obs.ingress("burst") as ing:
            for _ in range(100):
                with obs.span("step"):
                    pass
        snap = obs.snapshot()["tracing"]
        assert snap["ring_depth"] == 8
        assert snap["spans_finished"] == 101  # counted even when dropped
        assert len(obs.trace(ing.trace_id)) == 8

    def test_contexts_pickle_with_their_request(self):
        request = TopKQuery(source=0, k=3)
        ctx = obs.TraceContext(trace_id="abc123", span_id="1-2")
        obs.attach(request, ctx)
        clone = pickle.loads(pickle.dumps(request))
        assert obs.trace_of(clone) == ctx
        # The ride-along attribute never perturbs dataclass equality
        # (read-coalescing dedup compares requests).
        assert clone == TopKQuery(source=0, k=3)

    def test_outbox_drains_for_shipping_and_ingests_remotely(self):
        obs.configure(ObsConfig(enabled=True), outbox=True)
        with obs.ingress("replica.work") as ing:
            with obs.span("inner"):
                pass
        records = obs.drain()
        assert [record["name"] for record in records] == ["inner", "replica.work"]
        assert obs.drain() == []  # popped, not copied
        # The coordinator adopts shipped spans into its own ring.
        enable()
        obs.ingest_spans(records)
        assert {s["name"] for s in obs.trace(ing.trace_id)} == {
            "inner",
            "replica.work",
        }
        assert obs.snapshot()["histograms"]["inner"]["count"] == 1


class TestHistograms:
    def test_buckets_are_cumulative_with_inf_overflow(self):
        histogram = Histogram(bounds=(0.001, 0.01, 0.1))
        for seconds in (0.0005, 0.005, 0.05, 5.0):
            histogram.observe(seconds)
        assert histogram.cumulative() == [1, 2, 3, 4]
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(5.0555)

    def test_observation_on_a_bound_lands_in_that_le_bucket(self):
        histogram = Histogram(bounds=(0.001, 0.01))
        histogram.observe(0.001)
        assert histogram.counts == [1, 0, 0]  # le="0.001" includes 0.001

    def test_registry_creates_stages_on_demand(self):
        registry = HistogramRegistry()
        registry.observe("request.top_k", 0.002)
        registry.observe("queue.wait", 0.0001)
        registry.observe("request.top_k", 0.2)
        snapshot = registry.to_dict()
        assert list(snapshot) == ["queue.wait", "request.top_k"]  # sorted
        assert snapshot["request.top_k"]["count"] == 2
        assert len(DEFAULT_BUCKETS) + 1 == len(snapshot["queue.wait"]["counts"])

    def test_measured_envelope_is_always_on(self):
        # Tracing disabled: the envelope still feeds histogram + slowlog.
        obs.configure(ObsConfig(slowlog_threshold_ms=0.0))
        with obs.measured("request.top_k", trace_id="t1", source=7):
            pass
        assert obs.snapshot()["histograms"]["request.top_k"]["count"] == 1
        entry = obs.slow()[-1]
        assert entry["stage"] == "request.top_k"
        assert entry["trace_id"] == "t1" and entry["source"] == 7
        assert entry["status"] == "OK"

    def test_measured_records_error_status_and_reraises(self):
        obs.configure(ObsConfig(slowlog_threshold_ms=0.0))
        with pytest.raises(ValueError):
            with obs.measured("request.score"):
                raise ValueError("nope")
        assert obs.slow()[-1]["status"] == "ValueError"


class TestSlowQueryLog:
    def test_burst_cannot_grow_the_log_unbounded(self):
        # The regression the ring exists for: the moment the system
        # degrades, *every* request crosses the threshold — the log must
        # stay O(capacity) however large the burst.
        log = SlowQueryLog(capacity=16, threshold_ms=1.0)
        for i in range(10_000):
            log.record(stage="request.top_k", duration_s=0.5, source=i)
        assert len(log) == 16
        assert log.recorded == 10_000
        entries = log.entries()
        assert len(entries) == 16
        assert entries[-1]["source"] == 9_999  # newest retained

    def test_under_threshold_requests_are_ignored(self):
        log = SlowQueryLog(capacity=4, threshold_ms=10.0)
        assert log.record(stage="x", duration_s=0.001) is False
        assert log.record(stage="x", duration_s=0.5) is True
        assert len(log) == 1 and log.recorded == 1

    def test_entries_refilter_by_threshold(self):
        log = SlowQueryLog(capacity=8, threshold_ms=1.0)
        log.record(stage="fast", duration_s=0.002)
        log.record(stage="slow", duration_s=0.2)
        assert [e["stage"] for e in log.entries(threshold_ms=100.0)] == ["slow"]


class TestExport:
    SPANS = [
        {
            "trace_id": "t1", "span_id": "a-1", "parent_id": None,
            "name": "http.request", "start": 1.0, "duration": 0.05,
            "pid": 100, "attrs": {"route": "/v1/query"}, "events": [],
        },
        {
            "trace_id": "t1", "span_id": "a-2", "parent_id": "a-1",
            "name": "engine.query", "start": 1.01, "duration": 0.03,
            "pid": 101, "attrs": {},
            "events": [{"name": "replica-crashed", "at": 1.02}],
        },
    ]

    def test_chrome_trace_document_shape(self):
        document = chrome_trace(self.SPANS)
        assert document["displayTimeUnit"] == "ms"
        first, second = document["traceEvents"]
        assert first["ph"] == "X" and first["cat"] == "repro"
        assert first["ts"] == pytest.approx(1.0e6)  # microseconds
        assert first["dur"] == pytest.approx(0.05e6)
        assert second["pid"] == 101
        assert second["args"]["parent_id"] == "a-1"
        assert second["args"]["events"][0]["name"] == "replica-crashed"
        assert json.loads(json.dumps(document)) == document

    def test_jsonl_sink_roundtrip(self, tmp_path):
        sink = tmp_path / "spans.jsonl"
        obs.configure(ObsConfig(enabled=True, export_path=str(sink)))
        with obs.ingress("http.request") as ing:
            with obs.span("engine.query"):
                pass
        obs.reset()  # closes the sink
        records = read_jsonl(sink)
        assert {record["name"] for record in records} == {
            "http.request",
            "engine.query",
        }
        assert all(record["trace_id"] == ing.trace_id for record in records)
        out = tmp_path / "trace.json"
        assert export_chrome_trace(records, out) == 2
        assert json.loads(out.read_text())["traceEvents"]

    def test_format_tree_indents_children_and_marks_events(self):
        lines = format_tree(self.SPANS).splitlines()
        assert lines[0].startswith("http.request")
        assert lines[1].startswith("  engine.query")
        assert "!replica-crashed" in lines[1]

    def test_span_children_groups_roots_under_none(self):
        grouped = span_children(self.SPANS)
        assert [s["span_id"] for s in grouped[None]] == ["a-1"]
        assert [s["span_id"] for s in grouped["a-1"]] == ["a-2"]


class TestOneClock:
    def test_single_monotonic_source(self):
        # Satellite of the ISSUE: bench and serve timings must come off
        # the same clock so they are directly comparable.
        from repro.parallel import metrics
        from repro.utils.timer import Timer

        assert clock.now is time.perf_counter
        assert metrics.now is clock.now
        timer = Timer()
        with timer:
            pass
        assert timer.elapsed >= 0.0

    def test_span_timestamps_come_from_the_shared_clock(self):
        enable()
        before = clock.now()
        with obs.ingress("t") as ing:
            pass
        after = clock.now()
        (span,) = obs.trace(ing.trace_id)
        assert before <= span["start"] <= after


class TestClusterTracePropagation:
    def test_sigkilled_replica_yields_complete_trace_with_crash_event(self):
        config = ApiConfig(
            obs=ObsConfig(enabled=True, sample_rate=1.0, slowlog_threshold_ms=0.0)
        )
        with PPRCluster(
            fresh_service(), ClusterConfig(replicas=2), config
        ) as cluster:
            client = cluster.api
            assert client.top_k(0, k=3).ok  # warm both the path and replica 0

            os.kill(cluster.gateway.replicas[0].process.pid, signal.SIGKILL)
            answer = client.top_k(0, k=3)  # detects the corpse mid-request
            assert answer.ok
            assert cluster.gateway.counters["respawns"] == 1

            entry = obs.slow()[-1]
            assert entry["trace_id"] is not None
            spans = obs.trace(entry["trace_id"])
            names = {span["name"] for span in spans}
            # The respawn is a span on the primary's trace...
            assert "cluster.respawn" in names
            # ...the crash itself an event (or point span) inside it.
            markers = [
                event
                for span in spans
                for event in span["events"]
                if event["name"] == "replica-crashed"
            ]
            assert markers or "replica-crashed" in names
            # The retried execution arrives from the *new* worker, so the
            # trace is complete: ingress through replica-side engine work.
            assert {"client.request", "gateway.execute", "engine.query"} <= names
            assert len({span["pid"] for span in spans}) >= 2
            ids = {span["span_id"] for span in spans}
            assert all(
                span["parent_id"] in ids
                for span in spans
                if span["parent_id"] is not None
            )

    def test_replica_spans_fold_into_one_coordinator_trace(self):
        config = ApiConfig(obs=ObsConfig(enabled=True, slowlog_threshold_ms=0.0))
        service = fresh_service()
        with PPRCluster(service, ClusterConfig(replicas=2), config) as cluster:
            assert cluster.api.ingest([(2, 3)]).ok
            entry = next(
                e for e in obs.slow() if e["stage"] == "cluster.ingest"
            )
            # APPLIED frames (carrying the replica spans) are absorbed
            # pipelined; FRESH reads barrier each replica to head first.
            assert cluster.api.top_k(0, k=3).ok
            assert cluster.api.top_k(1, k=3).ok
            assert cluster.gateway.replica_versions() == [1, 1]
            spans = obs.trace(entry["trace_id"])
            names = {span["name"] for span in spans}
            assert "cluster.ship_wal" in names
            assert "replica.apply" in names  # shipped back through the outbox
            # Both replicas applied the delta under the same trace.
            apply_pids = {
                span["pid"] for span in spans if span["name"] == "replica.apply"
            }
            assert len(apply_pids) == 2
