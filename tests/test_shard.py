"""The partitioned serving tier (:mod:`repro.shard`).

Four contracts under test:

1. **protocol equivalence** — a :class:`~repro.shard.ShardedGateway`
   answers the typed protocol bit-identically to a single-process
   :class:`~repro.api.gateway.Gateway` receiving the same traffic, even
   though every source's rows and states live on exactly one shard and
   pushes fetch remote in-rows through the coordinator relay;
2. **writes** — every shard applies every batch in lock-step, optimistic
   concurrency is checked at the coordinator, and a delete that any
   shard vetoes rejects the batch atomically with the single-process
   engine's typed ``EDGE`` error;
3. **durability and recovery** — each shard persists to its own WAL and
   checkpoints; a SIGKILLed shard is respawned from *its own* store via
   the coordinator manifest, and a whole fleet cold-starts from
   ``store_root`` alone, both bit-identical to the oracle afterwards;
4. **fault injection** — the ``shard.exchange`` / ``shard.apply`` chaos
   sites degrade to typed ``CLUSTER`` errors or deterministic
   revive-and-retry, never a hang.

Bit-identity caveat (same as the cluster tier): a resident source
refreshed incrementally is not bit-identical to a from-scratch
computation at the same version, so oracle comparisons mirror the exact
access pattern on both arms.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro import DynamicDiGraph, PPRService, chaos
from repro.api.requests import (
    ANY,
    FRESH,
    CheckpointNow,
    Consistency,
    IngestBatch,
    Ready,
    TopKQuery,
)
from repro.chaos import Fault, FaultKind, FaultPlan
from repro.config import (
    Backend,
    PPRConfig,
    ServeConfig,
    ShardConfig,
    StoreConfig,
)
from repro.errors import ConfigError, ConflictError, EdgeError
from repro.graph import deletions, insertions
from repro.graph.workloads import WorkloadSpec, prepare_workload
from repro.shard import PPRShards, ShardedGateway
from repro.shard.graph import ShardGraph
from repro.shard.manifest import read_manifest
from repro.shard.partitioner import HashPartitioner

EDGES = [(1, 0), (2, 0), (2, 1), (0, 2), (3, 1), (4, 3), (1, 4), (3, 0)]

#: The default serving config: a FRESH read after an ingest refreshes
#: its source, which is what drives cross-shard fetches through the
#: coordinator relay.
SERVE = ServeConfig()


def fresh_service() -> PPRService:
    return PPRService(DynamicDiGraph(EDGES), serve=SERVE)


def entries_of(response):
    return [(e.vertex, e.estimate) for e in response.entries]


def identical(left, right) -> bool:
    return (
        left.ok == right.ok
        and entries_of(left) == entries_of(right)
        and left.cold == right.cold
        and left.snapshot_version == right.snapshot_version
        and left.staleness == right.staleness
    )


@pytest.fixture
def fleet():
    with PPRShards(DynamicDiGraph(EDGES), ShardConfig(shards=2), serve=SERVE) as f:
        yield f


class TestConfigSurface:
    def test_hub_tier_is_rejected(self):
        with pytest.raises(ConfigError):
            ShardedGateway(
                DynamicDiGraph(EDGES),
                ShardConfig(shards=2),
                serve=ServeConfig(num_hubs=2),
            )

    def test_non_numpy_backend_is_rejected(self):
        with pytest.raises(ConfigError):
            ShardedGateway(
                DynamicDiGraph(EDGES),
                ShardConfig(shards=2),
                ppr=PPRConfig(backend=Backend.PURE),
            )


class TestPerShardMemory:
    def test_largest_of_four_hash_shards_holds_at_most_60pct_of_the_graph(self):
        """What partitioning must actually shed: degree and presence
        arrays are replicated on every shard, so the saving has to come
        from the in-adjacency rows a shard does not own."""
        arrays = (
            prepare_workload(WorkloadSpec(dataset="youtube"))
            .initial_graph()
            .to_arrays()
        )
        whole = ShardGraph.from_full_arrays(arrays, HashPartitioner(1), 0)
        four = HashPartitioner(4)
        largest = max(
            ShardGraph.from_full_arrays(arrays, four, shard).memory_bytes()
            for shard in range(4)
        )
        assert largest <= 0.60 * whole.memory_bytes()


class TestProtocolEquivalence:
    def test_reads_bit_identical_to_single_process(self, fleet):
        single = fresh_service()
        burst = [
            TopKQuery(source=s, k=3, consistency=FRESH)
            for s in (0, 1, 2, 0, 3, 1, 4)
        ]
        ours = fleet.gateway.submit_many(burst)
        theirs = single.gateway.submit_many(burst)
        for left, right in zip(ours, theirs):
            assert left.ok and right.ok
            assert identical(left, right)

    def test_interleaved_writes_and_mixed_consistency(self, fleet):
        single = fresh_service()
        bounded = Consistency.bounded(2)
        for step, edge in enumerate([(5, 0), (6, 1), (0, 3), (7, 5)]):
            write = IngestBatch(updates=tuple(insertions([edge])))
            mine = fleet.gateway.submit(write)
            its = single.gateway.submit(write)
            assert mine.ok and its.ok
            assert mine.snapshot_version == its.snapshot_version == step + 1
            reads = [
                TopKQuery(source=0, k=3, consistency=FRESH),
                TopKQuery(source=1, k=3, consistency=bounded),
                TopKQuery(source=edge[0], k=3, consistency=ANY),
            ]
            for left, right in zip(
                fleet.gateway.submit_many(reads),
                single.gateway.submit_many(reads),
            ):
                assert identical(left, right)

    def test_cross_shard_fetches_actually_happened(self, fleet):
        """The equivalence above must not be vacuous: pushes on this
        graph cross the partition and ride the coordinator relay."""
        for s in range(5):
            assert fleet.api.top_k(s, k=3).ok
        section = fleet.api.stats().stats["shard"]
        assert sum(section["exchange_rounds"]) > 0
        assert sum(section["frontier_bytes"]) > 0


class TestWrites:
    def test_conflict_on_stale_expect_version(self, fleet):
        assert fleet.api.ingest([(5, 0)]).ok
        with pytest.raises(ConflictError):
            fleet.gateway.execute(
                IngestBatch(
                    updates=tuple(insertions([(6, 1)])),
                    expect_version=0,
                )
            )

    def test_delete_veto_is_atomic_and_matches_the_oracle(self, fleet):
        single = fresh_service()
        batch = IngestBatch(
            updates=tuple(insertions([(9, 0)]) + deletions([(8, 7)]))
        )
        with pytest.raises(EdgeError) as oracle:
            single.gateway.execute(batch)
        with pytest.raises(EdgeError) as ours:
            fleet.gateway.execute(batch)
        assert str(ours.value) == str(oracle.value)
        # Atomic: the vetoed batch mutated no shard — the version did
        # not advance and the prefix insert is absent everywhere.
        assert fleet.api.stats().stats["shard"]["head"] == 0
        assert fleet.api.top_k(0, k=5).snapshot_version == 0


class TestOperationalSurface:
    def test_ready_reports_per_shard_payloads(self, fleet):
        assert fleet.api.ingest([(5, 0)]).ok
        ready = fleet.api.ready()
        assert ready.ready
        assert len(ready.replicas) == 2
        for payload in ready.replicas:
            assert payload["role"] == "shard"
            assert payload["alive"]
            assert payload["applied_version"] == 1
            assert payload["lag"] == 0
            assert payload["exchange_backlog"] == 0

    def test_stats_shard_section(self, fleet):
        assert fleet.api.top_k(0, k=3).ok
        section = fleet.api.stats().stats["shard"]
        assert section["shards"] == 2
        assert len(section["per_shard"]) == 2
        assert sum(section["edges"]) == len(EDGES)
        owned = [p["owned_vertices"] for p in section["per_shard"]]
        assert sum(owned) == 5  # vertices 0..4, each owned exactly once


class TestDurabilityAndRecovery:
    def make_fleet(self, root) -> PPRShards:
        return PPRShards(
            DynamicDiGraph(EDGES),
            ShardConfig(shards=2),
            serve=SERVE,
            store_root=str(root),
            store_config=StoreConfig(root=str(root), checkpoint_interval=2),
        )

    def test_sigkilled_shard_recovers_from_its_own_store(self, tmp_path):
        with self.make_fleet(tmp_path) as fleet:
            for edge in [(5, 0), (6, 1), (0, 3), (7, 5)]:
                assert fleet.api.ingest([edge]).ok
            os.kill(fleet.gateway.shards[0].process.pid, signal.SIGKILL)
            # The next write round trips over the corpse, revives the
            # shard from its own checkpoint + WAL tail, and completes.
            assert fleet.api.ingest([(8, 2)]).ok
            assert fleet.gateway.counters["respawns"] >= 1

            single = fresh_service()
            for edge in [(5, 0), (6, 1), (0, 3), (7, 5), (8, 2)]:
                assert single.gateway.submit(
                    IngestBatch(updates=tuple(insertions([edge])))
                ).ok
            for source in (0, 1, 2, 5):
                assert identical(
                    fleet.api.top_k(source, k=4),
                    single.api.top_k(source, k=4),
                )

    def test_shard_checkpoints_sit_on_a_slice_base_and_the_log(self, tmp_path):
        """Per-shard stores persist like the single-process one: the slice
        is dumped once, checkpoint rounds write residents only, and
        recovery rebuilds the slice from base + log — registrations of
        never-seen ids (broadcast, not WAL'd) included."""
        import numpy as np

        from repro.shard import partitioner_from_manifest
        from repro.shard.manifest import recover_shard, shard_store_root

        batches = [[(5, 0)], [(6, 1)], [(0, 3)], [(7, 5)], [(8, 2)]]
        with self.make_fleet(tmp_path) as fleet:
            for batch in batches[:3]:
                assert fleet.api.ingest(batch).ok
            assert fleet.api.top_k(11, k=3).ok  # registers id 11 everywhere
            for batch in batches[3:]:
                assert fleet.api.ingest(batch).ok
        oracle = fresh_service()
        for batch in batches[:3]:
            oracle.ingest(insertions(batch))
        oracle.query(11, 3)
        for batch in batches[3:]:
            oracle.ingest(insertions(batch))
        partitioner = partitioner_from_manifest(read_manifest(str(tmp_path)).partitioner)
        for shard in range(2):
            root = shard_store_root(tmp_path, shard)
            assert [p.name for p in (root / "graph").iterdir()] == [
                "graph-000000000000.npz"
            ]
            result = recover_shard(root, partitioner=partitioner, attach=False)
            assert (result.checkpoint_version, result.base_version) == (4, 0)
            assert (result.graph_batches, result.replayed_batches) == (4, 1)
            expected = ShardGraph.from_full_arrays(
                oracle.graph.to_arrays(), partitioner, shard
            ).to_arrays()
            rebuilt = result.service.graph.to_arrays()
            for key in ("present", "dout", "din", "in_edges"):
                assert np.array_equal(rebuilt[key], expected[key]), key

    def test_cold_start_recovers_the_whole_fleet(self, tmp_path):
        with self.make_fleet(tmp_path) as fleet:
            for edge in [(5, 0), (6, 1), (0, 3)]:
                assert fleet.api.ingest([edge]).ok
            assert fleet.gateway.submit(CheckpointNow()).ok
        manifest = read_manifest(str(tmp_path))
        assert manifest.shards == 2
        assert manifest.version == 3

        recovered = ShardedGateway.recover(str(tmp_path))
        try:
            single = fresh_service()
            for edge in [(5, 0), (6, 1), (0, 3)]:
                assert single.gateway.submit(
                    IngestBatch(updates=tuple(insertions([edge])))
                ).ok
            burst = [TopKQuery(source=s, k=4, consistency=FRESH)
                     for s in (0, 1, 2, 3, 5)]
            for left, right in zip(
                recovered.submit_many(burst),
                single.gateway.submit_many(burst),
            ):
                assert identical(left, right)
        finally:
            recovered.close()

    def test_a_table_placed_store_is_refused_not_routed_by_hash(self, tmp_path):
        import json

        with self.make_fleet(tmp_path) as fleet:
            assert fleet.api.ingest([(5, 0)]).ok
            assert fleet.gateway.submit(CheckpointNow()).ok
        path = read_manifest(str(tmp_path)).path
        payload = json.loads(path.read_text())
        payload["partitioner"] = {
            "kind": "degree",
            "shards": 2,
            "table_keys": [0, 1, 2],
            "table_values": [1, 0, 1],
        }
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match="'degree'"):
            ShardedGateway.recover(str(tmp_path))


class TestChaosSites:
    def test_dropped_exchange_is_a_typed_cluster_error_not_a_hang(self):
        chaos.install(
            FaultPlan(faults=(Fault("shard.exchange", FaultKind.DROP, at=1),))
        )
        with PPRShards(
            DynamicDiGraph(EDGES), ShardConfig(shards=2), serve=SERVE
        ) as fleet:
            responses = [fleet.gateway.submit(TopKQuery(source=s, k=3))
                         for s in range(5)]
            failed = [r for r in responses if not r.ok]
            assert len(failed) == 1, "exactly the dropped fetch fails"
            assert failed[0].error.code == "CLUSTER"
            assert chaos.injected()[0]["site"] == "shard.exchange"
            # The fleet is not wedged: every source answers correctly
            # afterwards (cold flags differ across arms here because the
            # failed attempt perturbs the access pattern).
            single = fresh_service()
            for s in range(5):
                retried = fleet.api.top_k(s, k=3)
                oracle = single.api.top_k(s, k=3)
                assert retried.ok
                assert entries_of(retried) == entries_of(oracle)
                assert retried.snapshot_version == oracle.snapshot_version

    def test_delayed_exchange_still_answers_identically(self):
        chaos.install(
            FaultPlan(faults=(Fault("shard.exchange", FaultKind.DELAY, at=1),))
        )
        with PPRShards(
            DynamicDiGraph(EDGES), ShardConfig(shards=2), serve=SERVE
        ) as fleet:
            single = fresh_service()
            for s in range(5):
                assert identical(
                    fleet.api.top_k(s, k=3), single.api.top_k(s, k=3)
                )
            assert chaos.injected()[0]["kind"] == "delay"

    def test_apply_fault_is_typed_and_the_retried_write_converges(self):
        chaos.install(
            FaultPlan(
                faults=(Fault("shard.apply", FaultKind.ERROR, at=1, replica=1),)
            )
        )
        with PPRShards(
            DynamicDiGraph(EDGES), ShardConfig(shards=2), serve=SERVE
        ) as fleet:
            # Shard 1 dies applying the first batch; its replacement is
            # a fresh chaos install whose visit counter restarts at zero,
            # so the re-shipped frame hits the same scripted fault — the
            # deterministic outcome is a typed CLUSTER error, no hang.
            write = IngestBatch(updates=tuple(insertions([(5, 0)])))
            failed = fleet.gateway.submit(write)
            assert not failed.ok and failed.error.code == "CLUSTER"
            assert fleet.gateway.counters["respawns"] >= 1
            # Clear the plan and retry the *same* batch: the surviving
            # shard absorbs the duplicate frame idempotently, the
            # replacement applies it, and the fleet converges.
            chaos.reset()
            retried = fleet.gateway.submit(write)
            assert retried.ok and retried.snapshot_version == 1
            single = fresh_service()
            assert single.api.ingest([(5, 0)]).ok
            for s in (0, 1, 5):
                left = fleet.api.top_k(s, k=3)
                right = single.api.top_k(s, k=3)
                assert left.ok
                assert entries_of(left) == entries_of(right)
                assert left.snapshot_version == right.snapshot_version

    def test_failed_round_leaves_no_stranded_replies(self):
        # Shard 0 dies twice applying the batch, so the round exits
        # through a CLUSTER error before shard 1's APPLIED is awaited.
        # That reply must be absorbed when it lands — not buffered forever
        # in the handle's pending list, where it would also inflate
        # /v1/readyz's exchange_backlog.
        chaos.install(
            FaultPlan(
                faults=(Fault("shard.apply", FaultKind.ERROR, at=1, replica=0),)
            )
        )
        with PPRShards(
            DynamicDiGraph(EDGES), ShardConfig(shards=2), serve=SERVE
        ) as fleet:
            write = IngestBatch(updates=tuple(insertions([(5, 0)])))
            failed = fleet.gateway.submit(write)
            assert not failed.ok and failed.error.code == "CLUSTER"
            chaos.reset()
            assert fleet.gateway.submit(write).ok
            assert fleet.api.top_k(0, k=3).ok
            assert [h.pending for h in fleet.gateway.shards] == [[], []]
            ready = fleet.gateway.submit(Ready())
            assert [r["exchange_backlog"] for r in ready.replicas] == [0, 0]

    def test_injected_faults_appear_in_shard_stats(self):
        chaos.install(
            FaultPlan(faults=(Fault("shard.exchange", FaultKind.DELAY, at=1),))
        )
        with PPRShards(
            DynamicDiGraph(EDGES), ShardConfig(shards=2), serve=SERVE
        ) as fleet:
            for s in range(5):
                fleet.api.top_k(s, k=3)
            section = fleet.api.stats().stats["shard"]
            assert section["chaos"][0]["site"] == "shard.exchange"
