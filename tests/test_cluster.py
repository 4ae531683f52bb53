"""The replicated serving tier (:mod:`repro.cluster`).

Three contracts under test:

1. **protocol equivalence** — a :class:`~repro.cluster.ClusterGateway`
   answers the typed protocol bit-identically to a single-process
   :class:`~repro.api.Gateway` receiving the same traffic (hashed
   placement pins every source's history to one replica);
2. **replication** — writes ship as ordered WAL-framed deltas, replicas
   track applied versions, and consistency contracts hold across the
   process boundary;
3. **fault tolerance** — a replica killed mid-stream is respawned,
   recovers from the primary's durable store, and its
   ``certified_top_k`` answers are bit-identical to a single-process
   service recovered from the same store at the same version.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from repro import DynamicDiGraph, PPRService
from repro.api.gateway import Gateway
from repro.api.requests import (
    ANY,
    FRESH,
    BatchQuery,
    Consistency,
    Deadline,
    Health,
    IngestBatch,
    Prefetch,
    ScoreQuery,
    Stats,
    TopKQuery,
)
from repro.cluster import PPRCluster, ReplicaSpec
from repro.config import ClusterConfig, ServeConfig, ShardConfig, StoreConfig
from repro.errors import ClusterError, ConflictError
from repro.graph import insertions
from repro.shard import PPRShards
from repro.store.recovery import recover_service
from repro.store.wal import pack_record, unpack_record

EDGES = [(1, 0), (2, 0), (2, 1), (0, 2), (3, 1), (4, 3), (1, 4), (3, 0)]


def fresh_service(**serve_kwargs) -> PPRService:
    return PPRService(DynamicDiGraph(EDGES), serve=ServeConfig(**serve_kwargs))


def entries_of(response):
    return [(e.vertex, e.estimate) for e in response.entries]


@pytest.fixture
def cluster():
    with PPRCluster(fresh_service(), ClusterConfig(replicas=2)) as c:
        yield c


class Tier:
    """One multi-process tier as the supervision tests see it.

    Both tiers sit on one worker runtime (:mod:`repro.workers`), so the
    crash, wedge and budget contracts below hold for replicas and shards
    alike; what differs is only how a fleet is built and which source a
    given worker slot owns.
    """

    def __init__(self, name: str) -> None:
        self.name = name

    def fleet(self, workers: int = 2, **knobs):
        if self.name == "cluster":
            return PPRCluster(
                fresh_service(), ClusterConfig(replicas=workers, **knobs)
            )
        return PPRShards(DynamicDiGraph(EDGES), ShardConfig(shards=workers, **knobs))

    def source_of(self, fleet, slot: int) -> int:
        """A source whose reads route to worker ``slot``."""
        if self.name == "cluster":
            return slot  # hashed placement: source % replicas
        owner = fleet.gateway.partitioner.owner
        return next(s for s in range(5) if owner(s) == slot)


@pytest.fixture(params=["cluster", "shard"])
def tier(request) -> Tier:
    return Tier(request.param)


def signal_worker(fleet, slot: int, sig: int) -> None:
    os.kill(fleet.gateway.group.handles[slot].process.pid, sig)


class TestReplicaSpec:
    #: A descriptor's shape is all the spec validates; nothing attaches it.
    SHM = {"segment": "repro-shm-0-test-0", "layout": {}, "meta": {}}

    def _spec(self, service, **sources):
        return ReplicaSpec(
            replica_id=0,
            config=service.config,
            serve=service.serve,
            hubs=(),
            graph_version=0,
            **sources,
        )

    def test_either_bootstrap_source_alone_is_accepted(self, tmp_path):
        service = fresh_service()
        assert self._spec(service, graph_shm=self.SHM).store_root is None
        assert self._spec(service, store_root=str(tmp_path)).graph_shm is None

    def test_exactly_one_bootstrap_source(self, tmp_path):
        service = fresh_service()
        with pytest.raises(ClusterError):
            self._spec(service)
        with pytest.raises(ClusterError):
            self._spec(service, graph_shm=self.SHM, store_root=str(tmp_path))

    def test_replica_serve_config_must_not_carry_a_store(self, tmp_path):
        service = fresh_service()
        with pytest.raises(ClusterError):
            ReplicaSpec(
                replica_id=0,
                config=service.config,
                serve=service.serve.with_(store=StoreConfig(root=str(tmp_path))),
                hubs=(),
                graph_version=0,
                graph_shm=self.SHM,
            )


class TestWireCodec:
    def test_delta_frames_are_wal_records(self):
        updates = tuple(insertions([(5, 6), (6, 5)]))
        record = unpack_record(pack_record(9, updates))
        assert record.seq == 9
        assert record.updates == updates


class TestProtocolEquivalence:
    def test_reads_bit_identical_to_single_process(self, cluster):
        single = fresh_service()
        burst = [TopKQuery(source=s, k=3, consistency=FRESH)
                 for s in (0, 1, 2, 0, 3, 1)]
        ours = cluster.gateway.submit_many(burst)
        theirs = single.gateway.submit_many(burst)
        for left, right in zip(ours, theirs):
            assert left.ok and right.ok
            assert entries_of(left) == entries_of(right)
            assert left.cold == right.cold
            assert left.snapshot_version == right.snapshot_version
            assert left.staleness == right.staleness

    def test_interleaved_reads_and_writes_match_single_process(self, cluster):
        single = fresh_service()
        trace = [
            TopKQuery(source=0, k=3),
            IngestBatch(updates=tuple(insertions([(2, 3)]))),
            TopKQuery(source=0, k=3),
            TopKQuery(source=3, k=3),
            IngestBatch(updates=tuple(insertions([(4, 0)]))),
            TopKQuery(source=0, k=3, consistency=Consistency.bounded(1)),
            TopKQuery(source=3, k=3, consistency=ANY),
        ]
        ours = cluster.gateway.submit_many(trace)
        theirs = single.gateway.submit_many(trace)
        for left, right in zip(ours, theirs):
            assert left.ok and right.ok
            assert left.snapshot_version == right.snapshot_version
            if hasattr(left, "entries"):
                assert entries_of(left) == entries_of(right)
                assert left.staleness == right.staleness

    def test_batch_query_preserves_request_order_and_duplicates(self, cluster):
        single = fresh_service()
        request = BatchQuery(sources=(3, 0, 3, 1, 0), k=3)
        ours = cluster.gateway.submit(request)
        theirs = single.gateway.submit(request)
        assert [r.source for r in ours.results] == [3, 0, 3, 1, 0]
        for left, right in zip(ours.results, theirs.results):
            assert entries_of(left) == entries_of(right)
            assert left.cold == right.cold

    def test_score_and_prefetch_route_by_owner(self, cluster):
        score = cluster.gateway.submit(ScoreQuery(source=1, target=0))
        assert score.ok and score.estimate > 0
        prefetch = cluster.gateway.submit(Prefetch(sources=(0, 1, 2, 3)))
        assert prefetch.ok and prefetch.requested == 4

    def test_health_and_checkpoint_run_on_the_primary(self, cluster):
        health = cluster.gateway.submit(Health())
        assert health.ok and health.graph_version == 0
        # No store attached: a typed CONFIG failure, not a crash.
        from repro.api.requests import CheckpointNow

        response = cluster.gateway.submit(CheckpointNow())
        assert not response.ok and response.error.code == "CONFIG"

    def test_conflict_error_surfaces_from_primary(self, cluster):
        request = IngestBatch(
            updates=tuple(insertions([(5, 0)])), expect_version=7
        )
        with pytest.raises(ConflictError):
            cluster.gateway.execute(request)
        assert not cluster.gateway.submit(request).ok

    def test_client_works_unchanged_over_the_cluster(self, cluster):
        client = cluster.api
        assert client.top_k(0, k=3).vertices[0] == 0
        assert client.ingest([(2, 4)]).snapshot_version == 1
        assert client.health().graph_version == 1
        stats = client.stats().stats
        assert stats["cluster"]["replicas"] == 2


class TestReplication:
    def test_writes_ship_to_every_replica(self, cluster):
        for edge in [(2, 3), (3, 4), (4, 2)]:
            assert cluster.api.ingest([edge]).ok
        # FRESH reads ride the FIFO behind the deltas; afterwards both
        # replicas have acknowledged head.
        cluster.gateway.submit_many(
            [TopKQuery(source=s, k=3, consistency=FRESH) for s in (0, 1)]
        )
        assert cluster.gateway.replica_versions() == [3, 3]
        assert cluster.gateway.counters["deltas_shipped"] == 3

    def test_empty_ingest_still_ships_so_versions_never_diverge(self, cluster):
        # An empty batch bumps the primary's version; replicas must
        # follow or every later delta looks like a replication gap.
        assert cluster.gateway.submit(IngestBatch(updates=())).ok
        assert cluster.api.ingest([(2, 3)]).ok
        answer = cluster.api.top_k(0, k=3, consistency=FRESH)
        assert answer.snapshot_version == 2
        assert cluster.gateway.replica_versions() == [2, 2]
        assert cluster.gateway.counters["respawns"] == 0

    def test_consistency_contracts_across_the_boundary(self, cluster):
        cluster.gateway.submit(BatchQuery(sources=(0, 1), k=3))
        cluster.api.ingest([(2, 3)])
        head = cluster.service.graph_version
        fresh = cluster.api.top_k(0, k=3, consistency=FRESH)
        assert fresh.snapshot_version == head
        lagged = cluster.api.top_k(1, k=3, consistency=ANY)
        assert lagged.snapshot_version <= head


class TestFaultTolerance:
    def test_killed_replica_respawns_and_recovers_from_store(self, tmp_path):
        root = str(tmp_path / "store")
        service = fresh_service(
            store=StoreConfig(root=root, checkpoint_interval=2)
        )
        with PPRCluster(service, ClusterConfig(replicas=2)) as cluster:
            for edge in [(2, 3), (3, 0), (4, 1)]:
                assert cluster.api.ingest([edge]).ok
            assert cluster.api.top_k(0, k=3).ok  # replica 0 is warm

            os.kill(cluster.gateway.replicas[0].process.pid, signal.SIGKILL)
            # The corpse is detected at the next interaction — shipping
            # this delta or awaiting the read below — and the respawned
            # worker recovers from the store at head version.
            assert cluster.api.ingest([(0, 4)]).ok

            answer = cluster.api.top_k(0, k=3, consistency=FRESH)
            assert answer.ok
            assert cluster.gateway.counters["respawns"] == 1
            head = cluster.service.graph_version
            assert answer.snapshot_version == head

            # The recovered answer must be bit-identical to a
            # single-process service recovered from the same store.
            shadow = recover_service(root, attach=False)
            assert shadow.graph_version == head
            expected = shadow.query(0, k=3)
            assert answer.vertices == expected.vertices
            assert [e.estimate for e in answer.entries] == [
                e.estimate for e in expected.entries
            ]

    def test_killed_replica_respawns_from_snapshot_without_store(self):
        service = fresh_service()
        with PPRCluster(service, ClusterConfig(replicas=2)) as cluster:
            cluster.api.ingest([(2, 3)])
            os.kill(cluster.gateway.replicas[1].process.pid, signal.SIGKILL)
            # Source 1 is owned by replica 1: the read detects the death,
            # respawns from an order-exact snapshot, and retries.
            answer = cluster.api.top_k(1, k=3)
            assert answer.ok and answer.snapshot_version == 1
            assert cluster.gateway.counters["respawns"] == 1

            single = fresh_service()
            single.ingest(insertions([(2, 3)]))
            expected = single.query(1, k=3)
            assert answer.vertices == expected.vertices
            assert [e.estimate for e in answer.entries] == [
                e.estimate for e in expected.entries
            ]

    def test_respawn_budget_exhaustion_raises_cluster_error(self, tier):
        with tier.fleet(workers=1, max_respawns=0) as fleet:
            signal_worker(fleet, 0, signal.SIGKILL)
            response = fleet.gateway.submit(TopKQuery(source=0, k=3))
            assert not response.ok
            assert response.error.code == "CLUSTER"

    def test_respawn_budget_is_per_replica_slot(self, tier):
        # One flaky worker must not consume its siblings' budgets.
        with tier.fleet(max_respawns=1) as fleet:
            first, second = tier.source_of(fleet, 0), tier.source_of(fleet, 1)
            signal_worker(fleet, 0, signal.SIGKILL)
            assert fleet.api.top_k(first, k=3).ok  # slot 0 respawn #1
            signal_worker(fleet, 1, signal.SIGKILL)
            assert fleet.api.top_k(second, k=3).ok  # slot 1 respawn #1
            assert fleet.gateway.counters["respawns"] == 2
            # Slot 0 dying again exceeds *its* budget.
            signal_worker(fleet, 0, signal.SIGKILL)
            response = fleet.gateway.submit(TopKQuery(source=first, k=3))
            assert not response.ok and response.error.code == "CLUSTER"

    def test_closed_gateway_refuses_traffic(self):
        cluster = PPRCluster(fresh_service(), ClusterConfig(replicas=1))
        cluster.close()
        cluster.close()  # idempotent
        response = cluster.gateway.submit(TopKQuery(source=0, k=3))
        assert not response.ok and response.error.code == "CLUSTER"


class TestClusterStats:
    def test_stats_surface_reports_topology(self, cluster):
        cluster.api.ingest([(2, 3)])
        cluster.api.top_k(0, k=3)
        stats = cluster.gateway.submit(Stats())
        section = stats.stats["cluster"]
        assert section["replicas"] == 2
        assert section["dispatched"] == [1, 0]  # source 0 lives on replica 0
        assert section["deltas_shipped"] == 1
        assert len(section["applied_versions"]) == 2


class TestFrontDoorOnBothTiers:
    """One HTTP handler fronts every gateway: what `tests/test_http.py`
    pins on the single process holds over replicas and over shards."""

    def test_keepalive_responses_are_one_send_each(self, tier, server_sends):
        import http.client
        import json

        from tests.conftest import exchange, serving

        with tier.fleet() as fleet, serving(fleet.gateway) as server:
            port = server.server_address[1]
            conn = http.client.HTTPConnection(*server.server_address[:2], timeout=30)
            read = {"source": tier.source_of(fleet, 0), "k": 3}
            try:
                for method, route, payload in [
                    ("POST", "/v1/query", read),
                    ("POST", "/v1/query", read),
                    ("POST", "/v1/ingest", {"updates": [[2, 3]]}),
                    ("POST", "/v1/query", {"requests": [read, read]}),
                    ("GET", "/v1/metrics", None),
                    ("GET", "/v1/stats", None),
                ]:
                    before = len(server_sends)
                    status, _, body = exchange(conn, method, route, payload)
                    assert status == 200, (route, body)
                    sent = [n for p, n in server_sends[before:] if p == port]
                    assert len(sent) == 1, (route, sent)
            finally:
                conn.close()
            # The engine counters every tier's /v1/stats carries: the
            # write authority's on replicas, the shards' summed (the
            # second read hit; the batch's twin reads coalesced).
            hits = json.loads(body)["stats"]["answer_memo_hits"]
            assert hits >= (1 if tier.name == "shard" else 0)


class TestGatewayParity:
    """The cluster front door mirrors Gateway's scheduler bookkeeping."""

    def test_reads_coalesced_counter_matches_single_process(self):
        single_service = fresh_service()
        single = Gateway(single_service)
        with PPRCluster(fresh_service(), ClusterConfig(replicas=2)) as cluster:
            burst = [TopKQuery(source=s, k=3) for s in (0, 0, 1, 1, 2)]
            cluster.gateway.submit_many(burst)
            single.submit_many(burst)
            assert (
                cluster.gateway.counters["reads_coalesced"]
                == single.counters["reads_coalesced"]
                == 2
            )


class TestDeadlinesUnderFaults:
    """Fault injection: a wedged (SIGSTOP) worker must degrade, not hang.

    SIGKILL (above) exercises the *crash* path — the corpse fails the
    liveness check and the request retries on a respawn. SIGSTOP is the
    nastier failure: the process stays alive, its pipe stays open, and it
    simply never answers. Only the request's own deadline bounds the
    caller's wait; on expiry the gateway must return a typed DEADLINE
    failure, replace the wedged worker, and keep serving. Every case
    runs on both tiers.
    """

    def test_sigstopped_worker_degrades_to_deadline_not_hang(self, tier):
        with tier.fleet() as fleet:
            source = tier.source_of(fleet, 0)
            assert fleet.api.top_k(source, k=3).ok  # worker 0 is live
            signal_worker(fleet, 0, signal.SIGSTOP)

            start = time.monotonic()
            response = fleet.gateway.submit(
                TopKQuery(source=source, k=3, deadline=Deadline.after_ms(250.0))
            )
            elapsed = time.monotonic() - start

            assert not response.ok
            assert response.error.code == "DEADLINE"
            assert response.error.details["budget_ms"] == 250.0
            # Bounded by the deadline (plus respawn cost), nowhere near
            # the 300 s worker response timeout.
            assert elapsed < 30.0
            assert fleet.gateway.counters["deadline_exceeded"] == 1
            # The wedged worker was replaced, not left holding the pipe.
            assert fleet.gateway.counters["respawns"] == 1
            # And the slot serves again — same source, fresh worker.
            after = fleet.gateway.submit(TopKQuery(source=source, k=3))
            assert after.ok

    def test_unaffected_replica_keeps_serving_during_the_wedge(self):
        # Replicated tier only: a shard's push fetches rows from its
        # peers, so a wedged shard does stall reads owned elsewhere.
        with PPRCluster(fresh_service(), ClusterConfig(replicas=2)) as cluster:
            signal_worker(cluster, 0, signal.SIGSTOP)
            # Source 1 is owned by replica 1 (hashed placement): traffic
            # to the healthy slot must not block on the wedged one.
            answer = cluster.gateway.submit(
                TopKQuery(source=1, k=3, deadline=Deadline.after_ms(5000.0))
            )
            assert answer.ok
            assert cluster.gateway.counters["respawns"] == 0

    def test_already_expired_deadline_fails_without_touching_workers(self, tier):
        with tier.fleet() as fleet:
            expired = Deadline.after_ms(1.0)
            time.sleep(0.01)
            response = fleet.gateway.submit(
                TopKQuery(source=0, k=3, deadline=expired)
            )
            assert not response.ok
            assert response.error.code == "DEADLINE"
            assert response.error.details["elapsed_ms"] >= 1.0
            assert fleet.gateway.counters["respawns"] == 0
            assert fleet.gateway.counters["deadline_exceeded"] == 1

    def test_deadline_failure_consumes_respawn_budget_like_a_crash(self, tier):
        with tier.fleet(max_respawns=1) as fleet:
            source = tier.source_of(fleet, 0)
            signal_worker(fleet, 0, signal.SIGSTOP)
            first = fleet.gateway.submit(
                TopKQuery(source=source, k=3, deadline=Deadline.after_ms(150.0))
            )
            assert first.error.code == "DEADLINE"  # respawn #1 for slot 0
            signal_worker(fleet, 0, signal.SIGSTOP)
            second = fleet.gateway.submit(
                TopKQuery(source=source, k=3, deadline=Deadline.after_ms(150.0))
            )
            # The second wedge exceeds slot 0's budget: the abandonment
            # cannot replace the worker, so the failure escalates to the
            # tier's own typed error instead of a deadline.
            assert not second.ok
            assert second.error.code == "CLUSTER"

    def test_timed_out_batch_does_not_poison_its_healthy_sibling(self):
        # Both replicas wedged: the batch's chunk on replica 0 times out
        # and replica 0 is replaced. Replica 1 was merely slow — its chunk
        # finishes later, into a pipe nobody awaits that ticket on. The
        # next read routed there must absorb the late answer, not choke
        # on it ("broke protocol: got 'responses' while awaiting ...").
        with PPRCluster(fresh_service(), ClusterConfig(replicas=2)) as cluster:
            gateway = cluster.gateway
            for slot in (0, 1):
                signal_worker(cluster, slot, signal.SIGSTOP)
            timed_out = gateway.submit(
                BatchQuery(sources=(0, 1, 2, 3), deadline=Deadline.after_ms(250.0))
            )
            assert timed_out.error.code == "DEADLINE"
            assert gateway.counters["respawns"] == 1  # only replica 0
            survivor = gateway.replicas[1].process.pid
            waker = threading.Timer(0.3, os.kill, (survivor, signal.SIGCONT))
            waker.start()
            try:
                answer = gateway.submit(TopKQuery(source=1, k=3))
            finally:
                waker.join()
            assert answer.ok, answer.error
            assert gateway.replicas[1].process.pid == survivor
            assert gateway.replicas[1].pending == []
