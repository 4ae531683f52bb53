"""HTTP front-end tests: live round-trips against an ephemeral server.

Spins a real :class:`repro.api.GatewayHTTPServer` on an OS-assigned port
and exercises the JSON protocol end to end: query/ingest/stats/healthz
round-trips bit-identical to the embedded client, the scheduled
``{"requests": [...]}`` form, and the 4xx paths (malformed JSON, unknown
route, unknown op, bad field types, version conflicts).
"""

from __future__ import annotations

import http.client
import json
import re
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import Backend, PPRConfig, PPRService, ServeConfig
from repro.api import HttpClient, make_server
from repro.errors import ConflictError, RequestError, VertexError

from tests.conftest import exchange, random_graph

NUMPY_CONFIG = PPRConfig(epsilon=1e-6, backend=Backend.NUMPY, workers=4)


@pytest.fixture()
def live():
    """(server, HttpClient, service) on an ephemeral port; torn down after."""
    graph = random_graph(np.random.default_rng(13), n=40, m=200)
    service = PPRService(
        graph, NUMPY_CONFIG, ServeConfig(cache_capacity=16)
    )
    server = make_server(service.gateway, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, HttpClient(server.url), service
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def raw_post(url: str, body: bytes) -> urllib.error.HTTPError | dict:
    request = urllib.request.Request(
        url, data=body, method="POST", headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc


class TestRoundTrips:
    def test_topk_bit_identical_to_embedded_client(self, live):
        _, http, service = live
        answer = http.query({"source": 0, "k": 5})
        # The HTTP query itself ran first; the embedded twin reads the
        # same resident state at the same snapshot version.
        embedded = service.api.top_k(0, k=5)
        assert answer["ok"]
        assert answer["cold"]  # first query of this source admits it
        assert not embedded.cold  # the twin reads the now-resident state
        assert answer["snapshot_version"] == embedded.snapshot_version
        assert [(e["vertex"], e["estimate"]) for e in answer["entries"]] == [
            (e.vertex, e.estimate) for e in embedded.entries
        ]

    def test_scheduled_request_sequence(self, live):
        _, http, service = live
        responses = http.query_many(
            [
                {"op": "top_k", "source": 0, "k": 3},
                {"op": "ingest", "updates": [[0, 1]]},
                {"op": "top_k", "source": 0, "k": 3},
            ]
        )
        assert [r["op"] for r in responses] == ["top_k", "ingest", "top_k"]
        assert [r["snapshot_version"] for r in responses] == [0, 1, 1]
        assert service.graph_version == 1

    def test_ingest_endpoint_and_conflict(self, live):
        _, http, service = live
        acknowledged = http.ingest([[0, 1], [1, 0, "insert"]], expect_version=0)
        assert acknowledged["accepted"] == 2
        assert acknowledged["previous_version"] == 0
        assert acknowledged["snapshot_version"] == 1
        with pytest.raises(ConflictError):
            http.ingest([[1, 2]], expect_version=0)

    def test_stats_and_healthz(self, live):
        _, http, service = live
        http.query({"source": 0})
        stats = http.stats()
        assert stats["ok"]
        assert stats["stats"]["queries"] == 1
        assert stats["stats"]["gateway"]["top_k"] == 1
        health = http.healthz()
        assert health["status"] == "ok"
        assert health["num_vertices"] == service.graph.num_vertices
        assert health["num_edges"] == service.graph.num_edges

    def test_score_and_consistency_over_http(self, live):
        _, http, _ = live
        top = http.query({"source": 0, "k": 1})
        best = top["entries"][0]
        score = http.query(
            {"op": "score", "source": 0, "target": best["vertex"],
             "consistency": "any"}
        )
        assert score["estimate"] == best["estimate"]


class TestErrorPaths:
    def test_malformed_json_is_400(self, live):
        server, _, _ = live
        error = raw_post(f"{server.url}/v1/query", b"{definitely not json")
        assert isinstance(error, urllib.error.HTTPError) and error.code == 400
        body = json.loads(error.read())
        assert body["error"]["code"] == "REQUEST"

    def test_empty_body_is_400(self, live):
        server, _, _ = live
        error = raw_post(f"{server.url}/v1/query", b"")
        assert isinstance(error, urllib.error.HTTPError) and error.code == 400

    def test_unknown_route_is_404(self, live):
        server, _, _ = live
        for method, route in (("GET", "/v1/nope"), ("POST", "/v2/query")):
            request = urllib.request.Request(
                f"{server.url}{route}",
                data=b"{}" if method == "POST" else None,
                method=method,
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 404
            assert json.loads(excinfo.value.read())["error"]["code"] == "REQUEST"

    def test_unknown_op_is_400_with_request_code(self, live):
        _, http, _ = live
        with pytest.raises(RequestError):
            http.query({"op": "frobnicate"})

    def test_bad_field_types_are_400(self, live):
        server, _, _ = live
        error = raw_post(
            f"{server.url}/v1/query", json.dumps({"source": "zero"}).encode()
        )
        assert isinstance(error, urllib.error.HTTPError) and error.code == 400

    def test_unknown_score_target_is_404_vertex(self, live):
        server, http, _ = live
        with pytest.raises(VertexError):
            http.query({"op": "score", "source": 0, "target": 10**9})
        error = raw_post(
            f"{server.url}/v1/query",
            json.dumps({"op": "score", "source": 0, "target": 10**9}).encode(),
        )
        assert isinstance(error, urllib.error.HTTPError) and error.code == 404

    def test_batch_of_requests_with_one_bad_entry_is_400(self, live):
        server, _, _ = live
        error = raw_post(
            f"{server.url}/v1/query",
            json.dumps({"requests": [{"source": 0}, {"op": "nope"}]}).encode(),
        )
        # Parse failures void the whole schedule (atomic admission).
        assert isinstance(error, urllib.error.HTTPError) and error.code == 400

    def test_ingest_body_must_be_object(self, live):
        server, _, _ = live
        error = raw_post(f"{server.url}/v1/ingest", json.dumps([1, 2]).encode())
        assert isinstance(error, urllib.error.HTTPError) and error.code == 400


def raw_bytes(server, request: bytes) -> bytes:
    """Write raw bytes, read to EOF. Times out if the server neither
    answers nor closes."""
    with socket.create_connection(server.server_address[:2], timeout=5) as sock:
        sock.sendall(request)
        received = b""
        while chunk := sock.recv(65536):
            received += chunk
    return received


def raw_exchange(server, request: bytes) -> tuple[bytes, dict[str, str], bytes]:
    """:func:`raw_bytes`, split into (status line, headers, body)."""
    head, _, body = raw_bytes(server, request).partition(b"\r\n\r\n")
    status, *lines = head.split(b"\r\n")
    headers = dict(line.decode().split(": ", 1) for line in lines)
    return status, headers, body


class TestBodyFraming:
    """A POST whose body length is unusable gets the envelope and loses
    the connection: what follows on it cannot be told from body bytes."""

    @pytest.mark.parametrize(
        "length", [b"Content-Length: abc\r\n", b"Content-Length: -1\r\n", b""],
        ids=["not-a-number", "negative", "missing"],
    )
    def test_bad_content_length_is_400_and_closes(self, live, length):
        server, _, _ = live
        status, headers, body = raw_exchange(
            server,
            b"POST /v1/query HTTP/1.1\r\nHost: t\r\n" + length + b'\r\n{"source": 0}',
        )
        assert status == b"HTTP/1.1 400 Bad Request"
        assert headers["Connection"] == "close"
        assert int(headers["Content-Length"]) == len(body)
        error = json.loads(body)["error"]
        assert error["code"] == "REQUEST" and "Content-Length" in error["message"]

    def test_unread_body_of_an_unknown_post_route_is_not_a_request(self, live):
        server, _, _ = live
        smuggled = b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n"
        status, headers, body = raw_exchange(
            server,
            b"POST /v2/query HTTP/1.1\r\nHost: t\r\nContent-Length: "
            + str(len(smuggled)).encode() + b"\r\n\r\n" + smuggled,
        )
        assert status == b"HTTP/1.1 404 Not Found"
        assert headers["Connection"] == "close"
        assert json.loads(body)["error"]["code"] == "REQUEST"  # and nothing after it


@pytest.fixture()
def keepalive(live):
    """One persistent connection to the ``live`` server."""
    conn = http.client.HTTPConnection(*live[0].server_address[:2], timeout=10)
    yield conn
    conn.close()


class TestFrontDoor:
    """Keep-alive is the supported way in: a response is one segment, so
    no request waits out the client's delayed ACK (40 ms a request)."""

    def test_every_response_is_one_send(self, live, keepalive, server_sends):
        port = live[0].server_address[1]
        exchanges = [
            ("POST", "/v1/query", {"source": 0, "k": 5}, 200),
            ("POST", "/v1/ingest", {"updates": [[0, 1]]}, 200),
            ("POST", "/v1/query",
             {"requests": [{"source": 0, "k": 3}, {"source": 1, "k": 3}]}, 200),
            ("GET", "/v1/stats", None, 200),
            ("GET", "/v1/metrics", None, 200),
            ("POST", "/v1/query", {"op": "frobnicate"}, 400),
            ("GET", "/v1/nope", None, 404),
            ("GET", "/v1/trace/feedface", None, 404),
            ("GET", "/v1/slow", None, 200),
            ("GET", "/v1/readyz", None, 200),
        ]
        for method, route, payload, want in exchanges:
            before = len(server_sends)
            status, response, body = exchange(keepalive, method, route, payload)
            sent = [n for p, n in server_sends[before:] if p == port]
            assert status == want, (route, body)
            assert int(response.getheader("Content-Length")) == len(body)
            assert len(sent) == 1 and sent[0] > len(body), (route, sent)
        assert keepalive.sock is not None  # still the connection it opened

    def test_the_stdlib_error_page_is_one_send_too(self, live, server_sends):
        """``send_error`` writes headers and page separately as well; it
        never reaches the per-request flush, the one at ``finish`` sends."""
        server, _, _ = live
        port = server.server_address[1]
        status, headers, body = raw_exchange(
            server, b"BREW /v1/query HTTP/1.1\r\nHost: t\r\n\r\n"
        )
        assert status.startswith(b"HTTP/1.1 501")
        assert int(headers["Content-Length"]) == len(body) > 0
        assert len([n for p, n in server_sends if p == port]) == 1
        # A request line too broken to carry a version gets the bare page.
        del server_sends[:]
        assert b"Bad request syntax" in raw_bytes(server, b"NOT-HTTP\r\n\r\n")
        assert len([n for p, n in server_sends if p == port]) == 1

    def test_accepted_sockets_have_nagle_off(self, live, keepalive):
        server, _, _ = live
        accepted = []
        accept = server.get_request

        def recording():
            pair = accept()
            accepted.append(pair[0])
            return pair

        server.get_request = recording
        assert exchange(keepalive, "GET", "/v1/healthz")[0] == 200
        assert accepted[0].getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

    def test_a_response_larger_than_the_buffer_arrives_whole(self, keepalive):
        batch = {"requests": [{"source": s % 16, "k": 40} for s in range(48)]}
        status, _, body = exchange(keepalive, "POST", "/v1/query", batch)
        assert status == 200 and len(body) > 64 * 1024
        responses = json.loads(body)["responses"]
        assert len(responses) == 48 and all(r["ok"] for r in responses)
        # ... and the connection is still in step for the next request.
        assert exchange(keepalive, "GET", "/v1/healthz")[0] == 200

    def test_fifty_requests_on_one_connection_take_no_timer(self, keepalive):
        read = {"source": 0, "k": 5}
        exchange(keepalive, "POST", "/v1/query", read)  # admit
        start = time.perf_counter()
        for _ in range(50):
            assert exchange(keepalive, "POST", "/v1/query", read)[0] == 200
        # 50 x 40 ms = 2 s with the stall; ~20 ms without.
        assert time.perf_counter() - start < 1.0


def raw_get(url: str) -> tuple[int, dict, bytes]:
    request = urllib.request.Request(url, method="GET")
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, dict(response.headers), response.read()


def scrape(server) -> dict[str, float]:
    """Parse /v1/metrics into {sample_name_with_labels: value}."""
    status, headers, body = raw_get(f"{server.url}/v1/metrics")
    assert status == 200
    assert headers["Content-Type"].startswith("text/plain")
    samples: dict[str, float] = {}
    for line in body.decode().splitlines():
        if not line or line.startswith("#"):
            continue
        name, value = line.rsplit(" ", 1)
        samples[name] = float(value)
    return samples


class TestMetricsEndpoint:
    def test_exposition_format_is_parseable(self, live):
        server, http, _ = live
        http.query({"op": "top_k", "source": 0, "k": 3})
        # Pre-create the request.stats histogram stage: scraping runs a
        # Stats request itself, and the two scrapes below must expose
        # the same sample *names*.
        http.query({"op": "stats"})
        status, headers, body = raw_get(f"{server.url}/v1/metrics")
        assert status == 200
        assert headers["Content-Type"] == "text/plain; version=0.0.4"
        lines = body.decode().splitlines()
        assert lines, "metrics body must not be empty"
        sample_re = re.compile(
            r'^[a-z_][a-z0-9_]*(\{[a-z0-9_]+="[^"]*"(,[a-z0-9_]+="[^"]*")*\})?'
            r" [-+]?[0-9.e+-]+$"
        )
        helped: set[str] = set()
        typed: set[str] = set()
        for line in lines:
            if line.startswith("# HELP "):
                helped.add(line.split(" ", 3)[2])
            elif line.startswith("# TYPE "):
                typed.add(line.split(" ", 3)[2])
            else:
                assert sample_re.match(line), f"unparseable sample: {line!r}"
                base = line.split("{", 1)[0].split(" ", 1)[0]
                # Histogram series share their family's announcement.
                for suffix in ("_bucket", "_sum", "_count"):
                    if base not in helped and base.endswith(suffix):
                        base = base[: -len(suffix)]
                # Every sample is announced before it appears.
                assert base in helped and base in typed
        # The text client sees the same exposition (scraping bumps the
        # stats counter, so compare sample names, not values).
        client_names = {
            line.rsplit(" ", 1)[0]
            for line in http.metrics().splitlines()
            if line and not line.startswith("#")
        }
        raw_names = {
            line.rsplit(" ", 1)[0]
            for line in body.decode().splitlines()
            if line and not line.startswith("#")
        }
        assert client_names == raw_names

    def test_counters_are_monotone_across_scrapes(self, live):
        server, http, _ = live
        http.query({"op": "top_k", "source": 0, "k": 3})
        before = scrape(server)
        for source in (0, 1, 2):
            http.query({"op": "top_k", "source": source, "k": 3})
        after = scrape(server)
        key = 'repro_gateway_requests_total{op="top_k"}'
        assert after[key] == before[key] + 3
        assert after["repro_queries_total"] >= before["repro_queries_total"]
        # Scrapes themselves never perturb request counters.
        untouched = scrape(server)
        assert untouched[key] == after[key]

    def test_prometheus_naming_conventions(self, live):
        server, http, _ = live
        http.query({"op": "top_k", "source": 0, "k": 3})
        samples = scrape(server)
        assert "repro_queries_total" in samples  # counters get _total
        assert "repro_hit_rate" in samples  # gauges do not
        # Point-in-time percentile gauges stay in /v1/stats JSON only;
        # the scrape surface carries cumulative histograms instead.
        assert "repro_latency_p999_s" not in samples
        assert all(name.startswith("repro_") for name in samples)

    def test_write_path_signals_reach_stats_and_metrics(self, live, tmp_path):
        """Residual mass restored per batch (Lemma 3's quantity) and the
        store's checkpoint cost, on both stats surfaces."""
        from repro import StateStore, StoreConfig

        server, http, service = live
        service.attach_store(
            StateStore(tmp_path, StoreConfig(root=str(tmp_path), checkpoint_interval=1))
        )
        http.query({"op": "top_k", "source": 0, "k": 3})
        http.ingest([[0, 1], [5, 0]])
        service.store.wait()  # the batch's checkpoint is written off the ack path
        stats = http.stats()["stats"]
        assert stats["checkpoints_written"] == 2  # baseline + the batch's
        assert stats["checkpoint_bytes_last"] > 0 and stats["checkpoint_ms_last"] > 0
        assert stats["checkpoint_write_ms_last"] > 0
        assert stats["checkpoint_in_flight"] == 0
        assert (stats["graph_base_version"], stats["graph_replay_batches"]) == (0, 1)
        assert stats["residual_restored_last"] > 0
        samples = scrape(server)
        assert samples["repro_checkpoints_written_total"] == 2
        assert samples["repro_checkpoint_bytes_last"] == stats["checkpoint_bytes_last"]
        assert samples["repro_checkpoint_ms_last"] == stats["checkpoint_ms_last"]
        for gauge in (
            "checkpoint_write_ms_last",
            "checkpoint_in_flight",
            "graph_base_version",
            "graph_replay_batches",
        ):
            assert samples[f"repro_{gauge}"] == stats[gauge]
        assert samples["repro_residual_restored_last"] == stats["residual_restored_last"]
        assert samples["repro_residual_restored_total"] == stats["residual_restored"]

    def test_latency_is_a_cumulative_histogram_per_stage(self, live):
        server, http, _ = live
        http.query({"op": "top_k", "source": 0, "k": 3})
        samples = scrape(server)
        stage = 'stage="request.top_k"'
        count_key = f"repro_latency_seconds_count{{{stage}}}"
        assert samples[count_key] >= 1
        assert samples[f"repro_latency_seconds_sum{{{stage}}}"] > 0
        buckets = [
            value for name, value in samples.items()
            if name.startswith("repro_latency_seconds_bucket{")
            and stage in name
        ]
        # _bucket series are cumulative and end at the +Inf total.
        assert buckets == sorted(buckets)
        inf_key = f'repro_latency_seconds_bucket{{{stage},le="+Inf"}}'
        assert samples[inf_key] == samples[count_key]
        # The admission wait is measured on every request, always on.
        assert 'repro_latency_seconds_count{stage="queue.wait"}' in samples


@pytest.fixture()
def guarded():
    """A server whose gateway runs the bounded admission gate."""
    from repro.api import Gateway, make_server as _make_server
    from repro.config import ApiConfig

    graph = random_graph(np.random.default_rng(7), n=30, m=150)
    service = PPRService(
        graph, NUMPY_CONFIG, ServeConfig(cache_capacity=8)
    )
    gateway = Gateway(service, ApiConfig(admission_queue=2))
    server = _make_server(gateway, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, gateway
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


class TestOverloadAndDeadlineOverHttp:
    def occupy(self, gateway, slots: int) -> None:
        from repro.api.requests import IngestBatch
        from repro.graph.update import EdgeOp, EdgeUpdate

        for _ in range(slots):
            gateway.admission.admit(
                IngestBatch(updates=(EdgeUpdate(0, 1, EdgeOp.INSERT),))
            )

    def test_shed_any_read_is_429_with_stable_code(self, guarded):
        server, gateway = guarded
        self.occupy(gateway, 1)  # depth 1 >= ANY threshold of capacity 2
        try:
            error = raw_post(
                f"{server.url}/v1/query",
                json.dumps(
                    {"op": "top_k", "source": 0, "k": 3, "consistency": "any"}
                ).encode(),
            )
            assert isinstance(error, urllib.error.HTTPError)
            assert error.code == 429
            body = json.loads(error.read())
            assert body["error"]["code"] == "OVERLOAD"
            assert body["error"]["details"]["priority"] == "any"
            # FRESH still clears the gate at this depth: ANY sheds first.
            ok = raw_post(
                f"{server.url}/v1/query",
                json.dumps(
                    {"op": "top_k", "source": 0, "k": 3, "consistency": "fresh"}
                ).encode(),
            )
            assert isinstance(ok, dict) and ok["ok"]
        finally:
            gateway.admission.release()

    def test_full_gate_sheds_fresh_but_never_stats(self, guarded):
        server, gateway = guarded
        self.occupy(gateway, 2)  # full: depth == capacity
        try:
            error = raw_post(
                f"{server.url}/v1/query",
                json.dumps(
                    {"op": "top_k", "source": 0, "k": 3, "consistency": "fresh"}
                ).encode(),
            )
            assert isinstance(error, urllib.error.HTTPError)
            assert error.code == 429
            status, _, _ = raw_get(f"{server.url}/v1/stats")
            assert status == 200
            status, _, _ = raw_get(f"{server.url}/v1/metrics")
            assert status == 200
        finally:
            gateway.admission.release()
            gateway.admission.release()

    def test_shed_counters_surface_in_metrics(self, guarded):
        server, gateway = guarded
        self.occupy(gateway, 1)
        try:
            raw_post(
                f"{server.url}/v1/query",
                json.dumps(
                    {"op": "top_k", "source": 0, "k": 3, "consistency": "any"}
                ).encode(),
            )
        finally:
            gateway.admission.release()
        samples = scrape(server)
        assert samples['repro_admission_shed_total{priority="any"}'] == 1
        assert samples["repro_admission_capacity"] == 2

    def test_expired_deadline_is_503_with_stable_code(self, guarded):
        server, _ = guarded
        # A 1 ns budget re-armed at parse time is expired by execution.
        error = raw_post(
            f"{server.url}/v1/query",
            json.dumps(
                {"op": "top_k", "source": 0, "k": 3, "timeout_ms": 1e-6}
            ).encode(),
        )
        assert isinstance(error, urllib.error.HTTPError)
        assert error.code == 503
        body = json.loads(error.read())
        assert body["error"]["code"] == "DEADLINE"
        assert body["error"]["details"]["budget_ms"] == 1e-6

    def test_generous_deadline_round_trips_fine(self, guarded):
        server, _ = guarded
        ok = raw_post(
            f"{server.url}/v1/query",
            json.dumps(
                {"op": "top_k", "source": 0, "k": 3, "timeout_ms": 30000.0}
            ).encode(),
        )
        assert isinstance(ok, dict) and ok["ok"]


class TestServiceMetricsEdgeCases:
    def test_empty_window_reports_clean_zeros(self):
        from repro.serve.service import ServiceMetrics

        metrics = ServiceMetrics()
        for q in (50.0, 99.0, 99.9):
            assert metrics.latency_percentile(q) == 0.0
            assert metrics.staleness_percentile(q) == 0.0
        assert metrics.queries_per_second == 0.0
        payload = metrics.to_dict()
        assert payload["latency_p999_s"] == 0.0
        assert payload["queries"] == 0

    def test_single_sample_is_every_percentile(self):
        from repro.serve.service import ServiceMetrics

        metrics = ServiceMetrics()
        metrics.record_query(staleness=3, seconds=0.25)
        for q in (0.0, 50.0, 99.0, 99.9, 100.0):
            assert metrics.latency_percentile(q) == 0.25
            assert metrics.staleness_percentile(q) == 3.0

    def test_p999_on_short_histories_tracks_the_max(self):
        from repro.serve.service import ServiceMetrics

        metrics = ServiceMetrics()
        for i in range(10):
            metrics.record_query(staleness=i, seconds=0.001 * (i + 1))
        p999 = metrics.latency_percentile(99.9)
        assert 0.009 < p999 <= 0.010
        assert metrics.latency_percentile(50.0) == pytest.approx(0.0055)
        payload = metrics.to_dict()
        assert payload["latency_p999_s"] == p999
        assert payload["latency_p99_s"] <= p999

    def test_sample_buffers_stay_bounded(self):
        from repro.serve.service import ServiceMetrics

        metrics = ServiceMetrics()
        metrics.MAX_SAMPLES = 8  # instance override, class default untouched
        for i in range(20):
            metrics.record_query(staleness=0, seconds=0.001)
        assert len(metrics.query_seconds) <= 8
        assert metrics.queries == 20  # lifetime counter unaffected by trim


@pytest.fixture()
def traced():
    """A server whose gateway traces every request (sample_rate=1)."""
    from repro.api import Gateway, make_server as _make_server
    from repro.config import ApiConfig, ObsConfig

    graph = random_graph(np.random.default_rng(13), n=40, m=200)
    service = PPRService(
        graph, NUMPY_CONFIG, ServeConfig(cache_capacity=16)
    )
    gateway = Gateway(
        service,
        ApiConfig(
            obs=ObsConfig(enabled=True, sample_rate=1.0, slowlog_threshold_ms=0.0)
        ),
    )
    server = _make_server(gateway, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, HttpClient(server.url)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def trace_spans(http, trace_id, required, deadline_s=5.0):
    """Poll the trace route until ``required`` span names appear.

    The server records ``http.request``/``http.respond`` *after* the
    response bytes are flushed, so an immediate fetch can race the
    handler thread's last microseconds.
    """
    import time

    deadline = time.monotonic() + deadline_s
    while True:
        spans = http.trace(trace_id)
        if required <= {span["name"] for span in spans}:
            return spans
        if time.monotonic() >= deadline:
            return spans
        time.sleep(0.02)


class TestTraceRoutes:
    def test_sampled_response_carries_a_queryable_trace_id(self, traced):
        server, http = traced
        answer = http.query({"op": "top_k", "source": 0, "k": 3})
        assert answer["ok"] and answer["trace_id"]
        required = {"http.request", "gateway.execute", "http.respond"}
        spans = trace_spans(http, answer["trace_id"], required)
        names = {span["name"] for span in spans}
        assert required <= names
        ids = {span["span_id"] for span in spans}
        assert all(
            span["parent_id"] in ids
            for span in spans
            if span["parent_id"] is not None
        )

    def test_x_trace_id_header_matches_body(self, traced):
        server, _ = traced
        request = urllib.request.Request(
            f"{server.url}/v1/query",
            data=json.dumps({"op": "top_k", "source": 1, "k": 3}).encode(),
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            headers = dict(response.headers)
            body = json.loads(response.read())
        assert headers["X-Trace-Id"] == body["trace_id"]

    def test_batch_travels_as_one_trace(self, traced):
        server, http = traced
        body = http._request(
            "POST",
            "/v1/query",
            {"requests": [{"source": 0, "k": 3}, {"source": 1, "k": 3}]},
        )
        assert [r["ok"] for r in body["responses"]] == [True, True]
        required = {"http.request", "schedule.run"}
        spans = trace_spans(http, body["trace_id"], required)
        assert {s["name"] for s in spans} >= required
        assert len({s["trace_id"] for s in spans}) == 1

    def test_unknown_trace_is_404(self, traced):
        server, _ = traced
        try:
            raw_get(f"{server.url}/v1/trace/nonesuch")
        except urllib.error.HTTPError as error:
            assert error.code == 404
        else:  # pragma: no cover - failure path
            pytest.fail("expected a 404 for an unknown trace id")

    def test_slow_log_route_refilters_by_threshold(self, traced):
        server, http = traced
        http.query({"op": "top_k", "source": 0, "k": 3})
        entries = http.slow(threshold_ms=0.0)
        assert entries and any(
            entry["stage"] == "request.top_k" for entry in entries
        )
        assert entries[-1]["trace_id"]  # sampled: joinable to /v1/trace
        assert http.slow(threshold_ms=1e9) == []


class TestReadiness:
    def test_single_process_is_trivially_ready(self, live):
        server, http, _ = live
        body = http.readyz()
        assert body["ready"] is True
        assert body["primary"] == "embedded"
        assert body["epoch"] == 0
        status, _, raw = raw_get(f"{server.url}/v1/readyz")
        assert status == 200 and json.loads(raw)["ready"] is True

    def test_degraded_cluster_is_503_but_still_carries_the_payload(self):
        from repro.cluster import PPRCluster
        from repro.config import ClusterConfig

        graph = random_graph(np.random.default_rng(13), n=40, m=200)
        service = PPRService(graph, serve=ServeConfig(cache_capacity=16))
        with PPRCluster(service, ClusterConfig(replicas=2)) as cluster:
            server = make_server(cluster.gateway, port=0)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            try:
                http = HttpClient(server.url)
                assert http.readyz()["ready"] is True

                cluster.gateway.kill_primary()
                body = http.readyz()  # HTTP 503, payload preserved
                assert body["ready"] is False
                assert body["primary"] is None
                # Liveness is independent: the process still answers 200.
                assert http.healthz()["status"] == "ok"

                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    raw_get(f"{server.url}/v1/readyz")
                assert excinfo.value.code == 503
            finally:
                server.shutdown()
                server.server_close()
                thread.join(timeout=5)


class TestClientRetry:
    """Retry loop unit tests: `_request_once` is stubbed, no server."""

    @staticmethod
    def client(attempts: int = 3) -> HttpClient:
        from repro.api.resilience import RetryPolicy

        return HttpClient(
            "http://127.0.0.1:1",  # never dialed: _request_once is stubbed
            retry=RetryPolicy(attempts=attempts, base_backoff_s=0.0),
        )

    def test_transient_cluster_error_is_retried_to_success(self, monkeypatch):
        from repro.errors import ClusterError

        http = self.client()
        calls: list[str] = []

        def flaky(method, route, payload=None):
            calls.append(route)
            if len(calls) < 3:
                raise ClusterError("primary failing over")
            return {"ok": True}

        monkeypatch.setattr(http, "_request_once", flaky)
        assert http._request("GET", "/v1/stats") == {"ok": True}
        assert len(calls) == 3

    def test_budget_exhaustion_raises_the_last_typed_error(self, monkeypatch):
        from repro.errors import ClusterError

        http = self.client(attempts=2)
        calls: list[str] = []

        def always_down(method, route, payload=None):
            calls.append(route)
            raise ClusterError("no live replicas")

        monkeypatch.setattr(http, "_request_once", always_down)
        with pytest.raises(ClusterError):
            http._request("GET", "/v1/stats")
        assert len(calls) == 2

    def test_non_retryable_code_raises_on_first_attempt(self, monkeypatch):
        http = self.client()
        calls: list[str] = []

        def bad_request(method, route, payload=None):
            calls.append(route)
            raise RequestError("unknown op")

        monkeypatch.setattr(http, "_request_once", bad_request)
        with pytest.raises(RequestError):
            http._request("POST", "/v1/query", {"op": "top_k"}, idempotent=True)
        assert len(calls) == 1

    def test_writes_are_never_retried(self, monkeypatch):
        from repro.errors import ClusterError

        http = self.client()
        calls: list[str] = []

        def flaky(method, route, payload=None):
            calls.append(route)
            raise ClusterError("mid-failover")

        monkeypatch.setattr(http, "_request_once", flaky)
        with pytest.raises(ClusterError):
            http.ingest([(1, 2)])
        assert len(calls) == 1  # a write must not be re-applied blindly

        calls.clear()
        with pytest.raises(ClusterError):
            http.query({"op": "ingest", "insert": [[1, 2]]})
        assert len(calls) == 1  # op-level idempotence check on POST /v1/query

    def test_reads_via_query_post_are_retryable(self, monkeypatch):
        from repro.errors import ClusterError

        http = self.client()
        calls: list[str] = []

        def flaky(method, route, payload=None):
            calls.append(route)
            if len(calls) == 1:
                raise ClusterError("replica died")
            return {"ok": True, "entries": []}

        monkeypatch.setattr(http, "_request_once", flaky)
        assert http.query({"op": "top_k", "source": 0, "k": 3})["ok"] is True
        assert len(calls) == 2

    def test_connection_errors_are_retried(self, monkeypatch):
        http = self.client()
        calls: list[str] = []

        def refused(method, route, payload=None):
            calls.append(route)
            if len(calls) == 1:
                raise ConnectionRefusedError("server restarting")
            return {"status": "ok"}

        monkeypatch.setattr(http, "_request_once", refused)
        assert http._request("GET", "/v1/healthz") == {"status": "ok"}
        assert len(calls) == 2

    def test_no_policy_means_single_shot(self, monkeypatch):
        from repro.errors import ClusterError

        http = HttpClient("http://127.0.0.1:1")  # retry=None
        calls: list[str] = []

        def flaky(method, route, payload=None):
            calls.append(route)
            raise ClusterError("down")

        monkeypatch.setattr(http, "_request_once", flaky)
        with pytest.raises(ClusterError):
            http._request("GET", "/v1/stats")
        assert len(calls) == 1
