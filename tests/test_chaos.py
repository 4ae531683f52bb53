"""Deterministic fault injection and primary failover.

Three layers under test:

1. **the chaos subsystem itself** (:mod:`repro.chaos`) — plans are
   validated, JSON round-trip clean, and fire deterministically on exact
   visit counts with per-replica scoping;
2. **failover** — a dead primary (chaos CRASH, fsync fence, or the
   ``kill_primary`` hook) promotes the most-caught-up replica under a
   bumped epoch with zero acked-write loss; stale-epoch (zombie) frames
   are fenced; FRESH reads degrade to a typed 503 during the window
   while ANY keeps serving; readiness tracks the whole arc;
3. **client resilience** — circuit breakers eject a failing replica
   from the read rotation and let it back in after cooldown.

Bit-identity caveat: a resident source refreshed *incrementally* is not
bit-identical to a from-scratch computation at the same version (float
accumulation order), so oracle comparisons here either query sources
untouched during the run or mirror the exact access pattern.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro import DynamicDiGraph, PPRService, chaos
from repro.api.requests import (
    ANY,
    FRESH,
    Deadline,
    Health,
    IngestBatch,
    Ready,
    TopKQuery,
)
from repro.chaos import Fault, FaultKind, FaultPlan
from repro.cluster import PPRCluster, messages
from repro.config import ClusterConfig, ServeConfig, StoreConfig
from repro.errors import ConfigError
from repro.graph import insertions
from repro.store.recovery import recover_service
from repro.store.wal import pack_record

EDGES = [(1, 0), (2, 0), (2, 1), (0, 2), (3, 1), (4, 3), (1, 4), (3, 0)]


def fresh_service(**serve_kwargs) -> PPRService:
    return PPRService(DynamicDiGraph(EDGES), serve=ServeConfig(**serve_kwargs))


def entries_of(response):
    return [(e.vertex, e.estimate) for e in response.entries]


class TestFaultPlan:
    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan(
            faults=(
                Fault("wal.fsync", FaultKind.ERROR, at=3, message="disk gone"),
                Fault("cluster.ship", FaultKind.DROP, at=2, count=2, replica=1),
            ),
            name="torn-disk",
        )
        path = tmp_path / "plan.json"
        plan.dump(path)
        assert FaultPlan.load(path) == plan
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        assert len(plan) == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"site": ""},
            {"site": "x", "at": 0},
            {"site": "x", "count": 0},
            {"site": "x", "replica": -1},
        ],
    )
    def test_invalid_fault_is_typed(self, kwargs):
        with pytest.raises(ConfigError):
            Fault(kind=FaultKind.ERROR, **kwargs)

    def test_from_dict_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            Fault.from_dict({"site": "x", "kind": "meteor"})

    def test_plan_rejects_non_fault_entries(self):
        with pytest.raises(ConfigError):
            FaultPlan(faults=({"site": "x"},))  # type: ignore[arg-type]


class TestInjector:
    def test_fires_on_the_exact_visit_window(self):
        chaos.install(
            FaultPlan(faults=(Fault("s", FaultKind.DROP, at=3, count=2),))
        )
        fired = [chaos.fire("s") is not None for _ in range(6)]
        assert fired == [False, False, True, True, False, False]

    def test_no_plan_is_a_no_op(self):
        chaos.reset()
        assert chaos.fire("anything") is None
        chaos.check("anything")  # must not raise

    def test_replica_scoping(self):
        plan = FaultPlan(faults=(Fault("s", FaultKind.DROP, replica=1),))
        chaos.install(plan, replica=0)
        assert chaos.fire("s") is None  # wrong process: counter untouched
        chaos.install(plan, replica=1)
        assert chaos.fire("s") is not None

    def test_coordinator_context_passes_replica_explicitly(self):
        chaos.install(
            FaultPlan(faults=(Fault("ship", FaultKind.DROP, replica=2),))
        )
        assert chaos.fire("ship", replica=0) is None
        assert chaos.fire("ship", replica=2) is not None

    def test_reinstall_resets_counters_deterministically(self):
        plan = FaultPlan(faults=(Fault("s", FaultKind.DROP, at=2),))
        for _ in range(2):
            chaos.install(plan)
            assert chaos.fire("s") is None
            assert chaos.fire("s") is not None

    def test_check_raises_oserror_with_the_scripted_message(self):
        chaos.install(
            FaultPlan(faults=(Fault("io", FaultKind.ERROR, message="boom"),))
        )
        with pytest.raises(OSError, match="boom"):
            chaos.check("io")

    def test_injected_log_records_firing_order_and_context(self):
        chaos.install(
            FaultPlan(
                faults=(
                    Fault("a", FaultKind.DROP),
                    Fault("b", FaultKind.DUP),
                )
            )
        )
        chaos.fire("b", seq=7)
        chaos.fire("a")
        log = chaos.injected()
        assert [(e["site"], e["kind"]) for e in log] == [
            ("b", "dup"), ("a", "drop"),
        ]
        assert log[0]["seq"] == 7


class TestFailover:
    def test_primary_crash_promotes_with_zero_acked_write_loss(self, tmp_path):
        root = str(tmp_path / "store")
        chaos.install(
            FaultPlan(
                faults=(Fault("primary.apply", FaultKind.CRASH, at=3),),
                name="kill-primary",
            )
        )
        service = fresh_service(store=StoreConfig(root=root))
        acked: list[tuple[int, int]] = []
        with PPRCluster(service, ClusterConfig(replicas=3)) as cluster:
            for i in range(6):
                edge = (20 + i, i % 5)
                response = cluster.api.ingest([edge])
                # The write that kills the primary is itself forwarded to
                # the promoted node: every single ack survives the crash.
                assert response.ok
                acked.append(edge)
                # ANY reads keep answering inside the failover window.
                assert cluster.api.top_k(i % 3, k=5, consistency=ANY).ok
            gateway = cluster.gateway
            assert gateway.epoch == 1
            assert gateway._primary_index is not None
            assert gateway.counters["failovers"] == 1
            ready = cluster.api.ready()
            assert ready.ready and ready.primary.startswith("replica-")

            # Post-heal FRESH answers are bit-identical to a
            # single-process oracle fed the acked writes, at the same
            # version (sources untouched during the run: no resident
            # state to diverge on).
            answer = cluster.api.top_k(3, k=5, consistency=FRESH)
            oracle = fresh_service()
            for edge in acked:
                oracle.ingest(insertions([edge]))
            expected = oracle.gateway.submit(
                TopKQuery(source=3, k=5, consistency=FRESH)
            )
            assert answer.snapshot_version == expected.snapshot_version == 6
            assert entries_of(answer) == entries_of(expected)

    def test_promoted_primary_starts_its_own_graph_base(self, tmp_path):
        """The promoted replica's graph came from a snapshot plus shipped
        deltas, not from the directory's base + log: its first checkpoint
        writes a new base, and the store recovers on it afterwards."""
        from repro.store.recovery import recover

        root = str(tmp_path / "store")
        chaos.install(
            FaultPlan(faults=(Fault("primary.apply", FaultKind.CRASH, at=3),))
        )
        service = fresh_service(
            store=StoreConfig(root=root, checkpoint_interval=2)
        )
        oracle = fresh_service()
        with PPRCluster(service, ClusterConfig(replicas=2)) as cluster:
            for i in range(7):
                assert cluster.api.ingest([(20 + i, i % 5)]).ok
                oracle.ingest(insertions([(20 + i, i % 5)]))
            assert cluster.gateway.counters["failovers"] == 1
        chaos.reset()
        result = recover(root, attach=False)
        # v2 was the embedded primary's (base v0); the promoted node took
        # over at v3 with one logged batch pending, so its first
        # checkpoint — v4 — is the new base, and v6 sits on it.
        assert (result.checkpoint_version, result.base_version) == (6, 4)
        assert (result.graph_batches, result.replayed_batches) == (2, 1)
        assert result.service.graph == oracle.graph
        recovered = result.service.gateway.submit(
            TopKQuery(source=3, k=5, consistency=FRESH)
        )
        expected = oracle.gateway.submit(TopKQuery(source=3, k=5, consistency=FRESH))
        assert entries_of(recovered) == entries_of(expected)

    def test_fsync_fence_degrades_then_fails_over(self, tmp_path):
        root = str(tmp_path / "store")
        chaos.install(
            FaultPlan(
                faults=(Fault("wal.fsync", FaultKind.ERROR, at=3),),
                name="disk-gone",
            )
        )
        service = fresh_service(store=StoreConfig(root=root))
        with PPRCluster(service, ClusterConfig(replicas=2)) as cluster:
            gateway = cluster.gateway
            acked = []
            for i in range(2):
                edge = (20 + i, i)
                assert cluster.api.ingest([edge]).ok
                acked.append(edge)

            # Third append hits the injected fsync error: the frame is
            # rolled back, the store fenced, the write surfaces as a
            # typed STORE failure — and is NOT acked.
            failed = cluster.gateway.submit(
                IngestBatch(updates=tuple(insertions([(30, 0)])))
            )
            assert not failed.ok and failed.error.code == "STORE"
            assert service.store.failed
            assert gateway._head == 2  # acked head did not advance

            # Degraded window: no write authority yet. FRESH reads give
            # a typed 503, ANY keeps serving, readiness says degraded.
            fresh = cluster.gateway.submit(
                TopKQuery(source=0, k=3, consistency=FRESH)
            )
            assert not fresh.ok and fresh.error.code == "CLUSTER"
            assert cluster.gateway.submit(
                TopKQuery(source=0, k=3, consistency=ANY)
            ).ok
            ready = cluster.api.ready()
            assert not ready.ready
            assert ready.status == "degraded" and ready.primary is None
            # Liveness stays green throughout: the process is fine.
            assert cluster.gateway.submit(Health()).ok

            # The next write performs the failover and lands on the
            # promoted primary, which now owns the store.
            edge = (31, 1)
            assert cluster.api.ingest([edge]).ok
            acked.append(edge)
            assert gateway.epoch >= 1 and gateway._primary_index is not None
            ready = cluster.api.ready()
            assert ready.ready and ready.epoch == gateway.epoch

        # Everything acked — and nothing more — is durable: recovery
        # lands exactly at the acked head, bit-identical to an oracle.
        recovered = recover_service(root, attach=False)
        assert recovered.graph_version == len(acked) == 3
        oracle = fresh_service()
        for edge in acked:
            oracle.ingest(insertions([edge]))
        assert entries_of(recovered.query(3, k=5)) == entries_of(
            oracle.query(3, k=5)
        )

    def test_zombie_epoch_frame_is_fenced(self):
        service = fresh_service()
        with PPRCluster(service, ClusterConfig(replicas=2)) as cluster:
            gateway = cluster.gateway
            assert cluster.api.ingest([(20, 0)]).ok
            gateway.kill_primary()
            assert cluster.api.ingest([(21, 1)]).ok  # triggers promotion
            assert gateway.epoch == 1
            victim = 1 - gateway._primary_index

            # A zombie coordinator still stamping the old epoch: the
            # replica must refuse the frame, not fork its history.
            handle = gateway.replicas[victim]
            # Let the victim ack the promoted write first: an ack still in
            # flight would otherwise land during the wait below.
            deadline = time.monotonic() + 5.0
            while (
                gateway.replica_versions()[victim] < gateway._head
                and time.monotonic() < deadline
            ):
                time.sleep(0.02)
            before = gateway.replica_versions()[victim]
            assert before == gateway._head
            zombie = pack_record(
                before + 1, tuple(insertions([(99, 0)])), epoch=0
            )
            handle.send((messages.APPLY, zombie, None))
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                gateway.group.drain()
                if handle.applied_version >= before:
                    break
                time.sleep(0.02)
            assert gateway.replica_versions()[victim] == before
            assert handle.alive()
            # And the replica still serves valid reads afterwards.
            assert cluster.api.top_k(0, k=3, consistency=ANY).ok

    def test_storeless_promotion_keeps_serving_writes(self):
        service = fresh_service()
        with PPRCluster(service, ClusterConfig(replicas=2)) as cluster:
            gateway = cluster.gateway
            assert cluster.api.ingest([(20, 0)]).ok
            gateway.kill_primary()
            for i in range(3):
                assert cluster.api.ingest([(21 + i, i)]).ok
            assert gateway._primary_index is not None
            answer = cluster.api.top_k(3, k=5, consistency=FRESH)
            oracle = fresh_service()
            for edge in [(20, 0), (21, 0), (22, 1), (23, 2)]:
                oracle.ingest(insertions([edge]))
            expected = oracle.gateway.submit(
                TopKQuery(source=3, k=5, consistency=FRESH)
            )
            assert answer.snapshot_version == expected.snapshot_version == 4
            assert entries_of(answer) == entries_of(expected)

    def test_promoted_replica_slot_cannot_be_rebuilt_storeless(self):
        # Without a store, losing the promoted primary is unrecoverable
        # for that slot's state: the gateway must say so in a typed way
        # rather than silently respawn a node that would accept writes
        # into a forked history.
        service = fresh_service()
        with PPRCluster(service, ClusterConfig(replicas=2)) as cluster:
            gateway = cluster.gateway
            gateway.kill_primary()
            assert cluster.api.ingest([(20, 0)]).ok
            promoted = gateway._primary_index
            os.kill(gateway.replicas[promoted].process.pid, signal.SIGKILL)
            response = cluster.gateway.submit(
                IngestBatch(updates=tuple(insertions([(21, 1)])))
            )
            assert not response.ok and response.error.code == "CLUSTER"

    def test_failover_without_live_candidates_is_typed(self):
        service = fresh_service()
        with PPRCluster(service, ClusterConfig(replicas=1)) as cluster:
            gateway = cluster.gateway
            gateway.kill_primary()
            os.kill(gateway.replicas[0].process.pid, signal.SIGKILL)
            response = cluster.gateway.submit(
                IngestBatch(updates=tuple(insertions([(20, 0)])))
            )
            assert not response.ok and response.error.code == "CLUSTER"


class TestShipFaults:
    """Frame-level channel faults on the coordinator→replica seam."""

    def _converged(self, cluster, head):
        cluster.gateway.submit_many(
            [TopKQuery(source=s, k=3, consistency=FRESH) for s in (0, 1)]
        )
        return cluster.gateway.replica_versions() == [head, head]

    def test_duplicated_frame_is_absorbed_idempotently(self):
        chaos.install(
            FaultPlan(
                faults=(Fault("cluster.ship", FaultKind.DUP, at=2, replica=1),)
            )
        )
        with PPRCluster(fresh_service(), ClusterConfig(replicas=2)) as cluster:
            for edge in [(20, 0), (21, 1), (22, 2)]:
                assert cluster.api.ingest([edge]).ok
            assert self._converged(cluster, 3)
            assert cluster.gateway.counters["respawns"] == 0
            assert chaos.injected()[0]["kind"] == "dup"

    def test_dropped_frame_forces_gap_detection_and_rebuild(self):
        chaos.install(
            FaultPlan(
                faults=(Fault("cluster.ship", FaultKind.DROP, at=2, replica=1),)
            )
        )
        with PPRCluster(fresh_service(), ClusterConfig(replicas=2)) as cluster:
            for edge in [(20, 0), (21, 1), (22, 2)]:
                assert cluster.api.ingest([edge]).ok
            # Replica 1 saw seq 1 then seq 3: the gap kills it; the next
            # interaction respawns it at head. Reads stay correct
            # throughout — worst case they land on the rebuilt worker.
            answer = cluster.api.top_k(1, k=3, consistency=FRESH)
            assert answer.ok and answer.snapshot_version == 3
            assert cluster.gateway.counters["respawns"] >= 1

    def test_delayed_frame_reorders_and_the_replica_recovers(self):
        chaos.install(
            FaultPlan(
                faults=(
                    Fault("cluster.ship", FaultKind.DELAY, at=2, replica=0),
                )
            )
        )
        with PPRCluster(fresh_service(), ClusterConfig(replicas=2)) as cluster:
            for edge in [(20, 0), (21, 1), (22, 2)]:
                assert cluster.api.ingest([edge]).ok
            answer = cluster.api.top_k(0, k=3, consistency=FRESH)
            assert answer.ok and answer.snapshot_version == 3


class TestResilienceRouting:
    def test_breaker_ejects_failing_replica_then_readmits(self):
        config = ClusterConfig(
            replicas=2, breaker_failures=1, breaker_cooldown=2
        )
        with PPRCluster(fresh_service(), config) as cluster:
            gateway = cluster.gateway
            os.kill(gateway.replicas[0].process.pid, signal.SIGSTOP)
            failed = gateway.submit(
                TopKQuery(source=0, k=3, deadline=Deadline.after_ms(200.0))
            )
            assert not failed.ok  # DEADLINE; breaker 0 trips open
            assert gateway.breakers[0].state == "open"

            # While open, owner-0 reads reroute to the healthy sibling.
            rerouted_before = gateway.counters["reads_rerouted"]
            assert gateway.submit(TopKQuery(source=0, k=3)).ok
            assert gateway.counters["reads_rerouted"] == rerouted_before + 1

            # Cooldown elapses in denied requests; the probe succeeds on
            # the respawned (healthy) worker and the breaker closes.
            assert gateway.submit(TopKQuery(source=0, k=3)).ok
            assert gateway.submit(TopKQuery(source=0, k=3)).ok
            assert gateway.breakers[0].state == "closed"

    def test_readiness_reports_open_breaker_as_degraded(self):
        config = ClusterConfig(
            replicas=2, breaker_failures=1, breaker_cooldown=100
        )
        with PPRCluster(fresh_service(), config) as cluster:
            gateway = cluster.gateway
            os.kill(gateway.replicas[0].process.pid, signal.SIGSTOP)
            gateway.submit(
                TopKQuery(source=0, k=3, deadline=Deadline.after_ms(200.0))
            )
            ready = gateway.submit(Ready())
            assert not ready.ready and ready.status == "degraded"
            states = [r["breaker"] for r in ready.replicas]
            assert "open" in states


class TestChaosStatsSurface:
    def test_injected_faults_appear_in_cluster_stats(self):
        chaos.install(
            FaultPlan(
                faults=(Fault("cluster.ship", FaultKind.DUP, at=1, replica=0),)
            )
        )
        with PPRCluster(fresh_service(), ClusterConfig(replicas=2)) as cluster:
            assert cluster.api.ingest([(20, 0)]).ok
            stats = cluster.api.stats().stats
            section = stats["cluster"]
            assert section["epoch"] == 0
            assert section["primary"] == "embedded"
            assert section["failovers"] == 0
            assert [b["state"] for b in section["breakers"]] == [
                "closed", "closed",
            ]
            assert section["chaos"][0]["site"] == "cluster.ship"
