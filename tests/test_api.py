"""Gateway API tests: protocol validation, consistency levels, scheduling.

Covers the acceptance points of the typed gateway: request validation
(stable ``REQUEST`` errors), error-code mapping across the
serialize/reconstruct boundary, FRESH/BOUNDED/ANY read consistency, the
read-coalescing scheduler's bit-identical equivalence with direct
``query_many``, write ordering via ``expect_version``, and the
compatibility shims on ``PPRService``.
"""

from __future__ import annotations

import json

import pytest

from repro import (
    ApiConfig,
    Backend,
    ConfigError,
    ConflictError,
    ConsistencyLevel,
    DynamicDiGraph,
    EdgeError,
    EdgeOp,
    EdgeUpdate,
    PPRConfig,
    PPRService,
    RequestError,
    ServeConfig,
    VertexError,
    insertions,
)
from repro.api import (
    ANY,
    FRESH,
    BatchQuery,
    CheckpointNow,
    Client,
    Consistency,
    ErrorInfo,
    Gateway,
    Health,
    HubQuery,
    IngestBatch,
    Prefetch,
    ScoreQuery,
    Stats,
    TopKQuery,
    request_from_dict,
)
from repro.errors import ERROR_CODES, ReproError, error_from_dict
from repro.serve import ServiceMetrics

from tests.conftest import random_graph

NUMPY_CONFIG = PPRConfig(epsilon=1e-6, backend=Backend.NUMPY, workers=4)


def small_service(rng=None, **serve_kwargs) -> PPRService:
    import numpy as np

    graph = random_graph(rng or np.random.default_rng(7), n=40, m=200)
    serve_kwargs.setdefault("cache_capacity", 16)
    return PPRService(graph, NUMPY_CONFIG, ServeConfig(**serve_kwargs))


# ---------------------------------------------------------------------- #
# request validation + round-trip
# ---------------------------------------------------------------------- #


class TestRequestValidation:
    def test_negative_source_rejected(self):
        with pytest.raises(RequestError):
            TopKQuery(source=-1)

    def test_non_integer_source_rejected(self):
        with pytest.raises(RequestError):
            TopKQuery(source="zero")
        with pytest.raises(RequestError):
            TopKQuery(source=True)

    def test_bad_k_rejected(self):
        with pytest.raises(RequestError):
            TopKQuery(source=0, k=0)
        with pytest.raises(RequestError):
            TopKQuery(source=0, k=2.5)

    def test_empty_batch_rejected(self):
        with pytest.raises(RequestError):
            BatchQuery(sources=())

    def test_bounded_needs_bound_level(self):
        with pytest.raises(RequestError):
            Consistency(ConsistencyLevel.FRESH, bound=3)
        with pytest.raises(RequestError):
            Consistency.bounded(-1)

    def test_consistency_parse_forms(self):
        assert Consistency.from_dict("any") == ANY
        parsed = Consistency.from_dict({"level": "bounded", "bound": 3})
        assert parsed == Consistency.bounded(3)
        assert parsed.max_staleness == 3
        assert FRESH.max_staleness == 0 and ANY.max_staleness is None
        with pytest.raises(RequestError):
            Consistency.from_dict("super-fresh")

    def test_ingest_update_forms(self):
        batch = IngestBatch(updates=[(1, 2), [3, 4, "delete"], [5, 6, -1]])
        assert [u.is_insert for u in batch.updates] == [True, False, False]
        with pytest.raises(RequestError):
            IngestBatch(updates=[(1, 2, "upsert")])
        with pytest.raises(RequestError):
            IngestBatch(updates=[(1,)])

    @pytest.mark.parametrize(
        "item, expected",
        [
            ([3, 4, "delete"], EdgeUpdate(3, 4, EdgeOp.DELETE)),
            ([0, 0, "insert"], EdgeUpdate(0, 0, EdgeOp.INSERT)),
            ([True, 2, "insert"], "u must be an integer vertex id, got True"),
            ([1, False, "delete"], "v must be an integer vertex id, got False"),
            ([1.0, 2, "insert"], "u must be an integer vertex id, got 1.0"),
            ([-1, 2, "insert"], "u must be >= 0, got -1"),
            ([1, -2, "delete"], "v must be >= 0, got -2"),
            ([1, 2, "upsert"], "bad update op: 'upsert'"),
            ([1, 2, "INSERT"], "bad update op: 'INSERT'"),
            ([1, 2, ["insert"]], "bad update op: ['insert']"),
            ([1, 2, None], "bad update op: None"),
            ([1, 2, "+"], EdgeUpdate(1, 2, EdgeOp.INSERT)),
            ([1, 2, -1], EdgeUpdate(1, 2, EdgeOp.DELETE)),
            ([1, 2], EdgeUpdate(1, 2, EdgeOp.INSERT)),
            (
                [1, 2, "insert", 4],
                "bad update (want [u, v] or [u, v, op]): [1, 2, 'insert', 4]",
            ),
            ({"u": 1, "v": 2, "op": "delete"}, EdgeUpdate(1, 2, EdgeOp.DELETE)),
            ({"u": 1}, "v must be an integer vertex id, got None"),
            ((1, 2, "delete"), EdgeUpdate(1, 2, EdgeOp.DELETE)),
        ],
    )
    def test_update_parse_outcomes(self, item, expected):
        """The wire form's exact-type fast path and everything that falls
        through to the general one parse, or fail, with one behaviour."""
        if isinstance(expected, str):
            with pytest.raises(RequestError) as caught:
                IngestBatch(updates=[item])
            assert str(caught.value) == expected
        else:
            (update,) = IngestBatch(updates=[item]).updates
            assert update == expected
            assert type(update.op) is EdgeOp

    def test_unknown_op_rejected(self):
        with pytest.raises(RequestError):
            request_from_dict({"op": "frobnicate"})
        with pytest.raises(RequestError):
            request_from_dict("not an object")

    def test_missing_op_defaults_to_top_k(self):
        request = request_from_dict({"source": 3, "k": 2})
        assert isinstance(request, TopKQuery)
        assert (request.source, request.k) == (3, 2)

    @pytest.mark.parametrize(
        "request_",
        [
            TopKQuery(source=3, k=5, consistency=Consistency.bounded(2)),
            BatchQuery(sources=(1, 2, 1), consistency=ANY),
            HubQuery(hub=4, k=3),
            ScoreQuery(source=1, target=2),
            IngestBatch(updates=[(1, 2), (3, 4, "delete")], expect_version=7),
            Prefetch(sources=(9,)),
            CheckpointNow(),
            Stats(),
            Health(),
        ],
    )
    def test_wire_round_trip(self, request_):
        payload = json.loads(json.dumps(request_.to_dict()))
        assert request_from_dict(payload) == request_


# ---------------------------------------------------------------------- #
# error codes
# ---------------------------------------------------------------------- #


class TestErrorCodes:
    def test_every_class_has_a_distinct_stable_code(self):
        assert len(ERROR_CODES) == 14
        for code, cls in ERROR_CODES.items():
            assert cls.code == code

    def test_to_dict_round_trip_preserves_class_and_details(self):
        err = VertexError(17)
        back = error_from_dict(json.loads(json.dumps(err.to_dict())))
        assert type(back) is VertexError
        assert back.vertex == 17
        assert str(back) == str(err)

    def test_unknown_code_falls_back_to_base(self):
        assert type(error_from_dict({"code": "??", "message": "x"})) is ReproError

    def test_keyerror_str_quoting_suppressed(self):
        # KeyError.__str__ would render repr-quoted garbage inside JSON.
        assert str(VertexError(3)) == "invalid vertex: 3"
        assert str(EdgeError(1, 2)) == "invalid edge: 1 -> 2"
        info = ErrorInfo.from_exception(EdgeError(1, 2))
        assert json.loads(json.dumps(info.to_dict()))["message"] == "invalid edge: 1 -> 2"
        assert info.details == {"u": 1, "v": 2}

    def test_error_info_reconstructs_typed_exception(self):
        exc = ErrorInfo.from_exception(ConflictError(3, 5)).to_exception()
        assert isinstance(exc, ConflictError)
        assert (exc.expected, exc.actual) == (3, 5)


# ---------------------------------------------------------------------- #
# consistency levels
# ---------------------------------------------------------------------- #


class TestConsistency:
    def make(self):
        service = small_service()
        gateway = service.gateway
        gateway.submit(TopKQuery(source=0))  # resident at version 0
        for _ in range(3):
            service.ingest(insertions([(0, 1)]))
        return service, gateway

    def test_fresh_refreshes_to_latest(self):
        service, gateway = self.make()
        response = gateway.submit(TopKQuery(source=0, consistency=FRESH))
        assert response.snapshot_version == service.graph_version == 3

    def test_any_serves_resident_state(self):
        service, gateway = self.make()
        response = gateway.submit(TopKQuery(source=0, consistency=ANY))
        assert response.snapshot_version == 0
        assert service.graph_version == 3
        assert response.staleness == 3  # three single-update batches behind

    def test_bounded_within_bound_serves_stale(self):
        service, gateway = self.make()
        response = gateway.submit(
            TopKQuery(source=0, consistency=Consistency.bounded(5))
        )
        assert response.snapshot_version == 0

    def test_bounded_beyond_bound_refreshes(self):
        service, gateway = self.make()
        response = gateway.submit(
            TopKQuery(source=0, consistency=Consistency.bounded(2))
        )
        assert response.snapshot_version == 3

    def test_cold_admission_is_always_fresh(self):
        service, gateway = self.make()
        response = gateway.submit(TopKQuery(source=1, consistency=ANY))
        assert response.cold
        assert response.snapshot_version == service.graph_version

    def test_stale_read_matches_pre_ingest_answer(self):
        service = small_service()
        before = service.query(0, k=5)
        service.ingest(insertions([(0, 1), (1, 0)]))
        stale = service.query(0, k=5, max_staleness=None)
        assert [e.vertex for e in stale.entries] == [e.vertex for e in before.entries]
        assert [e.estimate for e in stale.entries] == [
            e.estimate for e in before.entries
        ]


# ---------------------------------------------------------------------- #
# scheduling: coalescing + write ordering
# ---------------------------------------------------------------------- #


class TestScheduling:
    def test_coalesced_equals_direct_query_many(self):
        import numpy as np

        rng = np.random.default_rng(3)
        coalesced = small_service(rng=np.random.default_rng(3))
        direct = small_service(rng=np.random.default_rng(3))
        sources = [0, 5, 0, 9, 5, 0, 7, 9]
        responses = coalesced.gateway.submit_many(
            [TopKQuery(source=s, k=4) for s in sources]
        )
        served = direct._execute_query_many(sources, 4)
        assert coalesced.gateway.counters["reads_coalesced"] == 4  # 8 reads, 4 unique
        for response, answer in zip(responses, served):
            assert response.ok
            assert response.source == answer.source
            assert [e.vertex for e in response.entries] == [
                e.vertex for e in answer.entries
            ]
            assert [e.estimate for e in response.entries] == [
                e.estimate for e in answer.entries
            ]
        assert rng is not None  # quiet linters about the unused seed twin

    def test_coalescing_respects_write_barriers(self):
        service = small_service()
        responses = service.gateway.submit_many(
            [
                TopKQuery(source=0),
                IngestBatch(updates=[(0, 1)]),
                TopKQuery(source=0),
            ]
        )
        assert [r.snapshot_version for r in responses] == [0, 1, 1]

    def test_mixed_shapes_do_not_coalesce_across_consistency(self):
        service = small_service()
        responses = service.gateway.submit_many(
            [
                TopKQuery(source=0, k=3),
                TopKQuery(source=0, k=5),  # different k: separate group
                TopKQuery(source=0, k=5, consistency=ANY),
            ]
        )
        assert all(r.ok for r in responses)
        assert [len(r.entries) for r in responses] == [3, 5, 5]
        assert service.gateway.counters["reads_coalesced"] == 0

    def test_coalesced_duplicate_cold_flags_match_dispatch(self):
        # Per-request dispatch admits on the first occurrence only; the
        # coalesced schedule must report the same per-request cold flags.
        coalesced = small_service()
        responses = coalesced.gateway.submit_many(
            [TopKQuery(source=2), TopKQuery(source=2)]
        )
        dispatch = small_service()
        dispatched = [
            dispatch.gateway.submit(TopKQuery(source=2)) for _ in range(2)
        ]
        assert [r.cold for r in responses] == [r.cold for r in dispatched] == [
            True,
            False,
        ]

    def test_explicit_gateway_becomes_the_service_gateway(self):
        # One engine, one scheduler: a directly-constructed gateway (the
        # `repro serve` pattern) must be the one the shims route through.
        service = small_service()
        gateway = Gateway(service, ApiConfig(max_batch=4))
        assert service.gateway is gateway
        # A second explicit gateway shares the first's lock.
        assert Gateway(service)._lock is gateway._lock

    def test_expect_version_conflict(self):
        service = small_service()
        client = service.api
        version = client.health().graph_version
        client.ingest([(0, 1)], expect_version=version)
        with pytest.raises(ConflictError) as excinfo:
            client.ingest([(1, 2)], expect_version=version)
        assert excinfo.value.expected == version
        assert excinfo.value.actual == version + 1
        # submit() maps the same failure into an error response.
        response = service.gateway.submit(
            IngestBatch(updates=[(1, 2)], expect_version=version)
        )
        assert not response.ok and response.error.code == "CONFLICT"

    def test_failed_ingest_leaves_version_unchanged(self):
        service = small_service()
        response = service.gateway.submit(
            IngestBatch(updates=[(0, 1), (0, 1, "delete"), (5, 4, "delete")])
        )
        # Deleting an absent edge fails mid-batch; version must not move.
        assert not response.ok
        assert response.error.code in ("EDGE", "GRAPH")
        assert service.graph_version == 0


# ---------------------------------------------------------------------- #
# compatibility shims + client
# ---------------------------------------------------------------------- #


class TestShimsAndClient:
    def test_legacy_methods_route_through_gateway(self):
        service = small_service()
        service.query(0, k=3)
        service.query_many([1, 2], k=3)
        service.ingest(insertions([(0, 1)]))
        service.prefetch(9)
        counters = service.gateway.counters
        assert counters["top_k"] >= 1
        assert counters["batch"] == 1
        assert counters["ingest"] == 1
        assert counters["prefetch"] == 1

    def test_hub_shim_routes_through_gateway(self):
        import numpy as np

        graph = random_graph(np.random.default_rng(7), n=40, m=200)
        service = PPRService(graph, NUMPY_CONFIG, ServeConfig(num_hubs=2))
        entries = service.rank_for_hub(service.hubs[0], 3)
        assert len(entries) == 3
        assert service.gateway.counters["hub_top_k"] == 1

    def test_client_raises_typed_errors(self):
        service = small_service()
        with pytest.raises(VertexError):
            service.api.score(0, 10**9)
        with pytest.raises(ConfigError):
            service.api.hub_top_k(0)  # hub tier disabled
        with pytest.raises(ConfigError):
            service.api.checkpoint_now()  # no store attached

    def test_client_score_matches_topk_estimate(self):
        service = small_service()
        client = service.api
        top = client.top_k(0, k=1)
        score = client.score(0, top.entries[0].vertex)
        assert score.estimate == top.entries[0].estimate
        assert score.error_bound >= 0

    def test_client_prefetch_then_batch_admits_pending(self):
        service = small_service()
        client = service.api
        assert client.prefetch(3, 4).admitted == 2
        client.top_k_many([3, 4])
        assert service.is_resident(3) and service.is_resident(4)

    def test_gateway_rejects_non_request(self):
        service = small_service()
        with pytest.raises(RequestError):
            service.gateway.execute({"op": "top_k"})

    def test_client_reuses_service_gateway(self):
        service = small_service()
        assert Client(service).gateway is service.gateway
        assert service.api.gateway is service.gateway

    def test_client_config_applies_before_first_use(self):
        service = small_service()
        client = Client(service, ApiConfig(max_batch=4))
        assert client.config.max_batch == 4
        assert service.gateway.config.max_batch == 4


# ---------------------------------------------------------------------- #
# metrics surface
# ---------------------------------------------------------------------- #


class TestMetricsSurface:
    def test_empty_metrics_are_clean_zeros(self):
        metrics = ServiceMetrics()
        assert metrics.staleness_percentile(99) == 0.0
        assert metrics.latency_percentile(50) == 0.0
        payload = metrics.to_dict()
        assert payload["queries"] == 0
        assert payload["staleness_p99"] == 0.0
        assert payload["queries_per_second"] == 0.0
        json.dumps(payload)  # JSON-safe

    def test_stats_request_carries_metrics_and_gateway_counters(self):
        service = small_service()
        service.query(0)
        response = service.gateway.submit(Stats())
        assert response.stats["queries"] == 1
        assert response.stats["gateway"]["top_k"] == 1
        json.dumps(response.to_dict())
