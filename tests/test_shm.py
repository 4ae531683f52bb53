"""Shared-memory snapshots (:mod:`repro.graph.shm`).

The lifecycle contracts the zero-copy bootstrap path depends on:

1. **roundtrip** — arrays packed by the creator come back bit-identical
   (and read-only) through a picklable descriptor;
2. **supersession** — publishing a new version unlinks the one it
   supersedes; the current version always stays;
3. **POSIX semantics** — an attached reader's views stay valid after the
   owner unlinks (version bump while readers attached);
4. **cleanup** — gateway close / publisher close / ``sweep_stale`` leave
   no ``repro-shm-*`` segment behind, including segments whose creator
   pid is gone (the SIGKILL backstop).

Plus the bootstrap contract of
:meth:`~repro.graph.digraph.DynamicDiGraph.from_arrays`: a replica builds
its graph from a shared snapshot with array copies alone — no per-edge
Python — order-exactly, and serves reads and writes from it.
"""

from __future__ import annotations

import errno
import glob
import os
import pickle
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro import DynamicDiGraph, PPRService
from repro.api.requests import FRESH, TopKQuery
from repro.cluster import PPRCluster
from repro.config import ClusterConfig, ServeConfig, ShardConfig
from repro.errors import GraphError
from repro.graph import (
    SharedArrayBundle,
    SnapshotPublisher,
    insertions,
    sweep_stale,
)
from repro.graph.shm import SEGMENT_PREFIX
from repro.shard import PPRShards
from tests.conftest import random_graph
from tests.dict_digraph import DictDiGraph

EDGES = [(1, 0), (2, 0), (2, 1), (0, 2), (3, 1), (4, 3), (1, 4), (3, 0)]


def segment_exists(name: str) -> bool:
    return os.path.exists(f"/dev/shm/{name}")


def _no_space(*args, **kwargs):
    raise OSError(errno.ENOSPC, "No space left on device")


@pytest.fixture
def graph_arrays() -> dict[str, np.ndarray]:
    return DynamicDiGraph(EDGES).to_arrays()


class TestSharedArrayBundle:
    def test_roundtrip_bit_identical(self, graph_arrays):
        with SharedArrayBundle.create(graph_arrays, tag="t") as bundle:
            attached = SharedArrayBundle.attach(bundle.descriptor)
            try:
                for key, arr in graph_arrays.items():
                    assert np.array_equal(attached.arrays()[key], arr)
                    assert attached.arrays()[key].dtype == arr.dtype
            finally:
                attached.close()
            bundle.unlink()

    def test_attached_views_are_read_only(self, graph_arrays):
        with SharedArrayBundle.create(graph_arrays, tag="t") as bundle:
            views = bundle.arrays()
            with pytest.raises(ValueError):
                views["vertices"][0] = 99
            bundle.unlink()

    def test_descriptor_is_picklable_and_carries_meta(self, graph_arrays):
        bundle = SharedArrayBundle.create(
            graph_arrays, tag="t", meta={"num_edges": 8}
        )
        try:
            descriptor = pickle.loads(pickle.dumps(bundle.descriptor))
            assert descriptor["meta"]["num_edges"] == 8
            attached = SharedArrayBundle.attach(descriptor)
            assert attached.meta["num_edges"] == 8
            attached.close()
        finally:
            bundle.unlink()
            bundle.close()

    def test_segment_name_embeds_creator_pid(self, graph_arrays):
        with SharedArrayBundle.create(graph_arrays, tag="t") as bundle:
            assert bundle.name.startswith(f"{SEGMENT_PREFIX}-{os.getpid()}-t-")
            bundle.unlink()

    def test_unlink_is_owner_only_and_idempotent(self, graph_arrays):
        bundle = SharedArrayBundle.create(graph_arrays, tag="t")
        attached = SharedArrayBundle.attach(bundle.descriptor)
        attached.unlink()  # non-owner: must be a no-op
        assert segment_exists(bundle.name)
        attached.close()
        bundle.unlink()
        bundle.unlink()  # idempotent
        assert not segment_exists(bundle.name)
        bundle.close()

    def test_attach_after_unlink_raises(self, graph_arrays):
        bundle = SharedArrayBundle.create(graph_arrays, tag="t")
        descriptor = bundle.descriptor
        bundle.unlink()
        bundle.close()
        with pytest.raises(FileNotFoundError):
            SharedArrayBundle.attach(descriptor)

    def test_unallocatable_segment_raises_typed_error_naming_the_size(
        self, graph_arrays, monkeypatch
    ):
        monkeypatch.setattr(shared_memory, "SharedMemory", _no_space)
        with pytest.raises(GraphError, match=r"[\d,]+-byte shared-memory") as info:
            SharedArrayBundle.create(graph_arrays, tag="full")
        assert "No space left on device" in str(info.value)
        assert isinstance(info.value.__cause__, OSError)

    @pytest.mark.parametrize("tier", ["--replicas", "--shards"])
    def test_serve_exits_with_code_and_message_not_a_traceback(
        self, tier, monkeypatch, capsys
    ):
        from repro.cli import main

        monkeypatch.setattr(shared_memory, "SharedMemory", _no_space)
        assert main(["serve", "youtube", "--port", "0", tier, "2"]) == 2
        err = capsys.readouterr().err
        assert "error [GRAPH]" in err and "No space left on device" in err

    def test_failed_copy_unlinks_the_segment(self, graph_arrays, monkeypatch):
        def refuse(dst, src):
            raise MemoryError("copy refused")

        monkeypatch.setattr(np, "copyto", refuse)
        with pytest.raises(MemoryError):
            SharedArrayBundle.create(graph_arrays, tag="copyfail")
        leaked = glob.glob(f"/dev/shm/{SEGMENT_PREFIX}-{os.getpid()}-copyfail-*")
        assert leaked == []

    def test_empty_arrays_still_roundtrip(self):
        arrays = {"empty": np.zeros(0, dtype=np.int64)}
        with SharedArrayBundle.create(arrays, tag="t") as bundle:
            attached = SharedArrayBundle.attach(bundle.descriptor)
            assert attached.arrays()["empty"].shape == (0,)
            attached.close()
            bundle.unlink()


class TestSnapshotPublisher:
    def test_publish_supersedes_the_previous_version(self, graph_arrays):
        with SnapshotPublisher(tag="pub") as pub:
            d1 = pub.publish(1, graph_arrays)
            d2 = pub.publish(2, graph_arrays)
            assert pub.versions() == [2]
            assert pub.current_version == 2
            assert not segment_exists(d1["segment"])
            assert segment_exists(d2["segment"])

    def test_publish_is_idempotent_per_version(self, graph_arrays):
        with SnapshotPublisher(tag="pub") as pub:
            d1 = pub.publish(1, graph_arrays)
            assert pub.publish(1, graph_arrays) == d1

    def test_readers_survive_a_version_bump(self, graph_arrays):
        pub = SnapshotPublisher(tag="pub")
        d1 = pub.publish(1, graph_arrays)
        reader = SharedArrayBundle.attach(d1)
        vertices = reader.arrays()["vertices"]
        expected = vertices.copy()
        pub.publish(2, graph_arrays)  # supersedes and unlinks v1
        assert not segment_exists(d1["segment"])
        # POSIX unlink removes the *name*; the reader's mapping survives.
        assert np.array_equal(vertices, expected)
        reader.close()
        pub.close()

    def test_descriptor_of_missing_version_raises(self, graph_arrays):
        with SnapshotPublisher(tag="pub") as pub:
            with pytest.raises(GraphError):
                pub.descriptor()
            pub.publish(1, graph_arrays)
            with pytest.raises(GraphError):
                pub.descriptor(7)

    def test_close_unlinks_everything(self, graph_arrays):
        pub = SnapshotPublisher(tag="pub")
        d1 = pub.publish(1, graph_arrays)
        d2 = pub.publish(2, graph_arrays)
        pub.close()
        assert not segment_exists(d1["segment"])
        assert not segment_exists(d2["segment"])
        assert pub.versions() == []


class TestSweepStale:
    def test_dead_pid_segment_is_swept(self):
        name = f"{SEGMENT_PREFIX}-999999999-orphan-deadbeef"
        shm = shared_memory.SharedMemory(create=True, size=64, name=name)
        shm.close()
        assert segment_exists(name)
        removed = sweep_stale()
        assert name in removed
        assert not segment_exists(name)

    @pytest.mark.parametrize("tier", ["cluster", "shard"])
    def test_gateway_construction_sweeps_a_dead_coordinators_segments(self, tier):
        name = f"{SEGMENT_PREFIX}-999999999-orphan-{tier}"
        shared_memory.SharedMemory(create=True, size=64, name=name).close()
        assert segment_exists(name)
        if tier == "cluster":
            fleet = PPRCluster(
                PPRService(DynamicDiGraph(EDGES)), ClusterConfig(replicas=1)
            )
        else:
            fleet = PPRShards(DynamicDiGraph(EDGES), ShardConfig(shards=1))
        with fleet:
            assert not segment_exists(name)

    def test_live_pid_segment_is_kept(self, graph_arrays):
        with SharedArrayBundle.create(graph_arrays, tag="live") as bundle:
            assert bundle.name not in sweep_stale()
            assert segment_exists(bundle.name)
            bundle.unlink()

    def test_include_alive_sweeps_everything(self, graph_arrays):
        bundle = SharedArrayBundle.create(graph_arrays, tag="live")
        assert bundle.name in sweep_stale(include_alive=True)
        bundle.unlink()  # idempotent against the sweep
        bundle.close()


def _no_per_edge_python(monkeypatch):
    """Make every per-update graph method raise: a bootstrap that still
    walks edges one by one fails instead of passing slowly."""

    def boom(*args, **kwargs):
        raise AssertionError("bootstrap ran per-edge Python")

    for name in ("add_edge", "add_vertex", "apply", "apply_batch"):
        monkeypatch.setattr(DynamicDiGraph, name, boom)


class TestArrayBootstrap:
    def test_from_arrays_is_order_exact_with_the_dict_oracle(self, rng, monkeypatch):
        arrays = random_graph(rng).to_arrays()
        oracle = DictDiGraph.from_arrays(arrays)
        _no_per_edge_python(monkeypatch)
        graph = DynamicDiGraph.from_arrays(arrays)
        monkeypatch.undo()
        graph.check_consistency()
        for key, value in oracle.to_arrays().items():
            assert graph.to_arrays()[key].tobytes() == value.tobytes()
        for v in oracle.vertices():
            assert np.array_equal(graph.in_row(v), oracle.in_row(v))

    def test_scalars_and_membership_come_from_the_arrays(
        self, graph_arrays, monkeypatch
    ):
        graph = DynamicDiGraph(EDGES)
        _no_per_edge_python(monkeypatch)
        rebuilt = DynamicDiGraph.from_arrays(graph_arrays)
        assert rebuilt.num_vertices == graph.num_vertices
        assert rebuilt.num_edges == graph.num_edges
        assert rebuilt.max_vertex_id == graph.max_vertex_id
        assert rebuilt.capacity == graph.capacity
        assert rebuilt.has_vertex(0) and not rebuilt.has_vertex(99)
        assert 0 in rebuilt and 99 not in rebuilt
        assert len(rebuilt) == graph.num_vertices

    def test_service_bootstraps_without_per_edge_python(self, monkeypatch):
        primary = PPRService(DynamicDiGraph(EDGES))
        arrays = dict(primary.graph.to_arrays())
        arrays.update(primary.shared_snapshot_arrays())
        bundle = SharedArrayBundle.create(arrays)
        try:
            _no_per_edge_python(monkeypatch)
            replica = PPRService.from_shared_snapshot(bundle.descriptor)
            for source in (0, 1, 3):
                ours = replica.gateway.submit(
                    TopKQuery(source=source, k=4, consistency=FRESH)
                )
                theirs = primary.gateway.submit(
                    TopKQuery(source=source, k=4, consistency=FRESH)
                )
                assert ours.ok and theirs.ok
                assert [(e.vertex, e.estimate) for e in ours.entries] == [
                    (e.vertex, e.estimate) for e in theirs.entries
                ]
            monkeypatch.undo()
            replica.ingest(insertions([(4, 0)]))
            primary.ingest(insertions([(4, 0)]))
            ours = replica.query(0, k=4)
            theirs = primary.query(0, k=4)
            assert [(e.vertex, e.estimate) for e in ours.entries] == [
                (e.vertex, e.estimate) for e in theirs.entries
            ]
        finally:
            bundle.unlink()
            bundle.close()


class TestServingTiersOverSharedMemory:
    @staticmethod
    def _answers(gateway, sources):
        answers = []
        for source in sources:
            r = gateway.submit(TopKQuery(source=source, k=4, consistency=FRESH))
            assert r.ok
            answers.append([(e.vertex, e.estimate) for e in r.entries])
        return answers

    def test_cluster_shm_bootstrap_matches_single_process(self):
        sources = (0, 1, 2, 3)
        single = PPRService(DynamicDiGraph(EDGES), serve=ServeConfig())
        service = PPRService(DynamicDiGraph(EDGES), serve=ServeConfig())
        with PPRCluster(service, ClusterConfig(replicas=2)) as cluster:
            assert self._answers(cluster.gateway, sources) == self._answers(
                single.gateway, sources
            )

    def test_cluster_close_unlinks_published_segments(self):
        service = PPRService(DynamicDiGraph(EDGES), serve=ServeConfig())
        with PPRCluster(service, ClusterConfig(replicas=2)) as cluster:
            publisher = cluster.gateway._publisher
            names = [
                publisher.descriptor(v)["segment"] for v in publisher.versions()
            ]
            assert names and all(segment_exists(n) for n in names)
        assert all(not segment_exists(n) for n in names)

    def test_shard_shm_seed_matches_single_process(self):
        sources = (0, 1, 4)
        single = PPRService(DynamicDiGraph(EDGES), serve=ServeConfig())
        with PPRShards(DynamicDiGraph(EDGES), ShardConfig(shards=2)) as fleet:
            assert self._answers(fleet.gateway, sources) == self._answers(
                single.gateway, sources
            )

    def test_shard_close_unlinks_the_seed_segment(self):
        with PPRShards(DynamicDiGraph(EDGES), ShardConfig(shards=2)) as fleet:
            name = fleet.gateway._seed_bundle.name
            assert segment_exists(name)
        assert not segment_exists(name)
