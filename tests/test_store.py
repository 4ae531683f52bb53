"""Durable state store: WAL framing, checkpoints, retention, recovery.

The load-bearing test is :class:`TestCrashRecovery` — the acceptance
contract of :mod:`repro.store`: a service recovered from checkpoint +
WAL-tail replay answers ``certified_top_k`` bit-for-bit like an
uninterrupted run at the same graph version.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    Backend,
    DynamicDiGraph,
    PPRConfig,
    PPRService,
    ServeConfig,
    StateStore,
    StoreConfig,
    StoreError,
    insertions,
    recover_service,
)
from repro.graph.generators import erdos_renyi_graph
from repro.graph.update import EdgeOp, EdgeUpdate
from repro.store.checkpoint import (
    checkpoint_version as checkpoint_version_of,
    latest_checkpoint,
    list_checkpoints,
    list_graph_bases,
    read_checkpoint,
    restore_service,
)
from repro.store.recovery import recover
from tests.conftest import self_contained_checkpoint
from repro.store.wal import (
    WriteAheadLog,
    decode_updates,
    encode_updates,
    scan_segment,
    truncate_torn_tail,
)

NUMPY_CONFIG = PPRConfig(epsilon=1e-6, backend=Backend.NUMPY, workers=4)


def _batch(*pairs: tuple[int, int], op: EdgeOp = EdgeOp.INSERT) -> list[EdgeUpdate]:
    return [EdgeUpdate(u, v, op) for u, v in pairs]


def _service(seed: int = 3, n: int = 50, m: int = 250) -> PPRService:
    rng = np.random.default_rng(seed)
    graph = DynamicDiGraph(map(tuple, erdos_renyi_graph(n, m, rng=rng).tolist()))
    return PPRService(graph, NUMPY_CONFIG, ServeConfig(cache_capacity=16, num_hubs=2))


def _random_batches(rng: np.random.Generator, count: int, n: int = 50):
    batches = []
    for _ in range(count):
        pairs = rng.integers(0, n, size=(5, 2))
        batches.append(insertions((int(a), int(b)) for a, b in pairs if a != b))
    return [b for b in batches if b]


# ---------------------------------------------------------------------- #
# WAL
# ---------------------------------------------------------------------- #


class TestWalCodec:
    def test_roundtrip(self):
        batch = _batch((0, 1), (2, 3)) + _batch((1, 0), op=EdgeOp.DELETE)
        assert decode_updates(encode_updates(batch)) == batch

    def test_empty_batch(self):
        assert decode_updates(encode_updates([])) == []

    def test_bad_length_rejected(self):
        with pytest.raises(StoreError):
            decode_updates(b"\x00" * 23)

    def test_bad_op_rejected(self):
        rows = np.array([[0, 1, 7]], dtype="<i8")
        with pytest.raises(StoreError):
            decode_updates(rows.tobytes())


class TestWriteAheadLog:
    def test_append_and_read_back(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append(1, _batch((0, 1)))
        wal.append(2, _batch((1, 2), (2, 0)))
        wal.close()
        records = list(WriteAheadLog(tmp_path).iter_records())
        assert [r.seq for r in records] == [1, 2]
        assert list(records[1].updates) == _batch((1, 2), (2, 0))

    def test_rotation_creates_segments(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append(1, _batch((0, 1)))
        wal.rotate()
        wal.append(2, _batch((1, 2)))
        wal.close()
        assert len(wal.segments()) == 2
        assert [r.seq for r in wal.iter_records()] == [1, 2]

    def test_iter_after_seq_skips_prefix(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        for seq in (1, 2, 3):
            wal.append(seq, _batch((seq, 0)))
        wal.close()
        assert [r.seq for r in wal.iter_records(after_seq=2)] == [3]

    def test_sequence_gap_raises(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append(1, _batch((0, 1)))
        wal.rotate()
        wal.append(5, _batch((1, 2)))  # hole: 2..4 missing
        wal.close()
        with pytest.raises(StoreError, match="gap"):
            list(wal.iter_records())

    def test_torn_tail_detected_and_truncated(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        segment = wal.append(1, _batch((0, 1)))
        wal.append(2, _batch((1, 2)))
        wal.close()
        whole = segment.read_bytes()
        segment.write_bytes(whole[:-5])  # tear mid-frame
        scan = scan_segment(segment)
        assert [r.seq for r in scan.records] == [1]
        assert not scan.clean
        dropped = truncate_torn_tail(segment)
        assert dropped > 0
        assert scan_segment(segment).clean

    def test_corrupt_crc_stops_scan(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        segment = wal.append(1, _batch((0, 1)))
        wal.append(2, _batch((1, 2)))
        wal.close()
        data = bytearray(segment.read_bytes())
        data[25] ^= 0xFF  # flip one payload byte of the first frame
        segment.write_bytes(bytes(data))
        assert scan_segment(segment).records == ()

    def test_drop_segments_covered_by(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append(1, _batch((0, 1)))
        wal.rotate()
        wal.append(2, _batch((1, 2)))
        wal.rotate()
        wal.append(3, _batch((2, 0)))
        wal.close()
        wal.drop_segments_covered_by(2)
        assert [r.seq for r in wal.iter_records()] == [3]

    def test_maintenance_decides_by_segment_name_and_decodes_nothing(
        self, tmp_path, monkeypatch
    ):
        """Retention is O(#segments): a closed segment's seq range is in the
        file names. Regression: it used to decode every retained record."""
        from repro.store import wal as wal_module

        wal = WriteAheadLog(tmp_path)
        seq = 0
        for _ in range(50):  # 50 closed segments of 3 records: [1..3], [4..6], ...
            for _ in range(3):
                seq += 1
                wal.append(seq, _batch((seq % 7, (seq + 1) % 7)))
            wal.rotate()
        wal.append(seq + 1, _batch((0, 1)))  # the open segment
        decoded = []
        real = wal_module.decode_updates
        monkeypatch.setattr(
            wal_module,
            "decode_updates",
            lambda payload: decoded.append(len(payload)) or real(payload),
        )
        # v100 falls inside [100..102]: that segment straddles and is kept.
        dropped = wal.drop_segments_covered_by(100)
        assert decoded == []
        assert len(dropped) == 33
        assert wal.segments()[0].name == "wal-0000000000000100.log"
        assert wal.bytes_after(147) == sum(
            p.stat().st_size for p in wal.segments()[-2:]
        )
        assert decoded == []
        # Replay skips whole segments by name too: only [148..150] and the
        # open segment are read for a tail past v149.
        assert [r.seq for r in wal.iter_records(after_seq=149)] == [150, 151]
        assert len(decoded) == 4
        # The open segment is never dropped, whatever the version.
        wal.drop_segments_covered_by(10**9)
        assert [p.name for p in wal.segments()] == ["wal-0000000000000151.log"]
        wal.close()
        # A fresh handle cannot bound a newest segment it did not write.
        assert WriteAheadLog(tmp_path).drop_segments_covered_by(10**9) == []

    def test_every_append_is_fsynced(self, tmp_path, monkeypatch):
        """An acknowledged batch is on stable storage: one fsync per
        append, one more when the segment is rotated or closed."""
        import repro.store.wal as wal_module

        synced: list[int] = []
        real_fsync = wal_module.os.fsync
        monkeypatch.setattr(
            wal_module.os, "fsync", lambda fd: synced.append(fd) or real_fsync(fd)
        )
        wal = WriteAheadLog(tmp_path)
        for seq in (1, 2, 3):
            wal.append(seq, _batch((0, seq)))
            assert len(synced) == seq
        wal.rotate()
        assert len(synced) == 4
        wal.append(4, _batch((0, 4)))
        wal.close()
        assert len(synced) == 6
        assert [r.seq for r in wal.iter_records()] == [1, 2, 3, 4]


# ---------------------------------------------------------------------- #
# checkpoints
# ---------------------------------------------------------------------- #


class TestCheckpoint:
    def test_roundtrip_restores_bit_exact_state(self, tmp_path):
        service = _service()
        service.query_many([0, 1, 2])
        service.ingest(insertions([(0, 5), (5, 9)]))
        path = self_contained_checkpoint(tmp_path, service)
        restored = restore_service(read_checkpoint(path))
        assert restored.graph_version == service.graph_version
        assert restored.graph == service.graph
        assert restored.resident_sources() == service.resident_sources()
        assert restored.hubs == service.hubs
        for s in (0, 1, 2):
            a = restored.cache.peek(s)
            b = service.cache.peek(s)
            assert np.array_equal(a.state.p, b.state.p)
            assert np.array_equal(a.state.r, b.state.r)
            assert a.version == b.version
            # The next refresh scans r for its frontier: the same push.
            assert restored._refresh(a) == service._refresh(b)
            assert np.array_equal(a.state.p.view(np.int64), b.state.p.view(np.int64))
            assert np.array_equal(a.state.r.view(np.int64), b.state.r.view(np.int64))

    def test_restored_csr_is_bit_identical(self, tmp_path):
        from repro.graph.csr import CSRGraph

        service = _service()
        service.ingest(insertions([(3, 7)]))
        path = self_contained_checkpoint(tmp_path, service)
        restored = restore_service(read_checkpoint(path))
        a = CSRGraph.from_digraph(service.graph)
        b = CSRGraph.from_digraph(restored.graph)
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.dout, b.dout)

    def test_config_survives(self, tmp_path):
        service = _service()
        path = self_contained_checkpoint(tmp_path, service)
        checkpoint = read_checkpoint(path)
        assert checkpoint.config == NUMPY_CONFIG
        assert checkpoint.serve.cache_capacity == 16
        assert checkpoint.serve.num_hubs == 2

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(StoreError):
            read_checkpoint(tmp_path / "checkpoint-000000000000.npz")

    def test_corrupt_file_raises(self, tmp_path):
        path = tmp_path / "checkpoint-000000000007.npz"
        path.write_bytes(b"this is not a zip archive")
        with pytest.raises(StoreError, match="unreadable"):
            read_checkpoint(path)

    def test_latest_falls_back_past_damage(self, tmp_path):
        service = _service()
        self_contained_checkpoint(tmp_path, service)
        service.ingest(insertions([(1, 4)]))
        newest = self_contained_checkpoint(tmp_path, service)
        newest.write_bytes(b"garbage")
        checkpoint = latest_checkpoint(tmp_path / "checkpoints")
        assert checkpoint.version == 0

    def test_latest_falls_back_past_a_damaged_or_missing_base(self, tmp_path):
        """A checkpoint without its graph base restores nothing: the
        fallback takes the older checkpoint *and its older base*."""
        service = _service()
        self_contained_checkpoint(tmp_path, service)
        service.ingest(insertions([(1, 4)]))
        self_contained_checkpoint(tmp_path, service)
        old_base, new_base = list_graph_bases(tmp_path / "graph")
        new_base.write_bytes(new_base.read_bytes()[:100])
        checkpoint = latest_checkpoint(tmp_path / "checkpoints")
        assert (checkpoint.version, checkpoint.base_version) == (0, 0)
        new_base.unlink()
        assert latest_checkpoint(tmp_path / "checkpoints").version == 0
        old_base.unlink()
        with pytest.raises(StoreError, match="all candidates damaged"):
            latest_checkpoint(tmp_path / "checkpoints")

    def test_latest_none_for_empty_dir(self, tmp_path):
        assert latest_checkpoint(tmp_path) is None
        assert latest_checkpoint(tmp_path / "missing") is None


# ---------------------------------------------------------------------- #
# StateStore: cadence, retention, compaction
# ---------------------------------------------------------------------- #


class TestStateStore:
    def test_checkpoint_cadence_and_wal_compaction(self, tmp_path):
        service = _service()
        store = StateStore(
            tmp_path, StoreConfig(root=str(tmp_path), checkpoint_interval=2)
        )
        service.attach_store(store)  # baseline checkpoint at v0
        rng = np.random.default_rng(0)
        for batch in _random_batches(rng, 5):
            service.ingest(batch)
        store.wait()
        status = store.status()
        # v0 baseline pruned down to retain_checkpoints=2: v2 and v4 remain,
        # both sitting on the one graph base written at attach.
        assert [c.version for c in status.checkpoints] == [2, 4]
        assert [c.base_version for c in status.checkpoints] == [0, 0]
        assert status.bases == (0,)
        # Only the tail past the newest checkpoint replays through ingest;
        # the log itself is kept back to the base: it *is* the graph delta.
        assert status.replay_batches == 1
        assert status.graph_replay_batches == 4
        assert status.wal_records == 5

    def test_retention_prunes_old_checkpoints(self, tmp_path):
        service = _service()
        store = StateStore(
            tmp_path,
            StoreConfig(
                root=str(tmp_path), checkpoint_interval=1, retain_checkpoints=3
            ),
        )
        service.attach_store(store)
        rng = np.random.default_rng(1)
        for batch in _random_batches(rng, 6):
            service.ingest(batch)
        store.wait()
        versions = [c.version for c in store.status().checkpoints]
        assert len(versions) == 3
        assert versions == sorted(versions)
        assert versions[-1] == service.graph_version

    def test_checkpoint_dir_is_fsynced_before_the_wal_is_compacted(
        self, tmp_path, monkeypatch
    ):
        """Power-loss ordering: the rename in ``checkpoints/`` must be on
        disk before any unlink in ``wal/`` — else the unlinks can outlive
        the name of the checkpoint that made them safe. The WAL rotates on
        the ack path, before the writer thread touches a file."""
        import os

        from repro.store import checkpoint as checkpoint_module

        service = _service()
        store = StateStore(
            tmp_path, StoreConfig(root=str(tmp_path), checkpoint_interval=100)
        )
        service.attach_store(store)
        service.ingest(insertions([(0, 7)]))

        events: list[str] = []
        real_fsync, real_replace = os.fsync, os.replace
        directories = {
            os.stat(store.checkpoint_dir).st_ino: "fsync checkpoints/",
            os.stat(store.wal_dir).st_ino: "fsync wal/",
        }

        def fsync(fd):
            events.append(directories.get(os.fstat(fd).st_ino, "fsync file"))
            real_fsync(fd)

        def replace(src, dst):
            events.append("rename")
            real_replace(src, dst)

        def recording(name):
            real = getattr(WriteAheadLog, name)

            def method(self, *args):
                events.append(name)
                return real(self, *args)

            return method

        monkeypatch.setattr(checkpoint_module.os, "fsync", fsync)
        monkeypatch.setattr(checkpoint_module.os, "replace", replace)
        for name in ("rotate", "drop_segments_covered_by"):
            monkeypatch.setattr(WriteAheadLog, name, recording(name))
        store.checkpoint(service)
        store.wait()
        # rotate() closes (and fsyncs) the open segment; then the tmp file.
        assert events[:5] == [
            "rotate", "fsync file", "fsync file", "rename", "fsync checkpoints/"
        ]
        assert "drop_segments_covered_by" in events[5:]

    def test_opening_a_store_sweeps_crashed_checkpoint_tmps(self, tmp_path):
        service = _service()
        store = StateStore(tmp_path, StoreConfig(root=str(tmp_path)))
        service.attach_store(store)
        store.close()
        stale = store.checkpoint_dir / "checkpoint-000000000009.npz.tmp"
        stale.write_bytes(b"a crash between tmp-write and rename")
        keep = store.checkpoint_dir / "notes.tmp"
        keep.write_bytes(b"not ours")

        reopened = StateStore(tmp_path, StoreConfig(root=str(tmp_path)))
        assert not stale.exists()
        assert keep.exists()
        assert [c.version for c in reopened.status().checkpoints] == [0]

    def test_checkpoint_counters_reach_the_service_metrics(self, tmp_path):
        service = _service()
        assert service.metrics().to_dict()["checkpoints_written"] == 0
        store = StateStore(
            tmp_path, StoreConfig(root=str(tmp_path), checkpoint_interval=1)
        )
        service.attach_store(store)
        service.query_many([0, 1])
        service.ingest(insertions([(0, 7), (3, 9)]))
        assert service.metrics().to_dict()["checkpoint_ms_last"] > 0  # the ack stall
        store.wait()
        stats = service.metrics().to_dict()
        newest = store.status().checkpoints[-1]
        assert stats["checkpoints_written"] == 2
        assert stats["checkpoint_bytes_last"] == newest.size_bytes
        assert stats["checkpoint_write_ms_last"] > 0
        assert stats["checkpoint_in_flight"] == 0
        assert (stats["graph_base_version"], stats["graph_replay_batches"]) == (0, 1)
        # Σ|Δ| of the batch over residents and hub vectors (Lemma 3's
        # quantity): the last batch is also the lifetime total here.
        assert stats["residual_restored_last"] > 0
        assert stats["residual_restored"] == stats["residual_restored_last"]

    def test_next_ingest_returns_with_the_previous_checkpoint_durable(
        self, tmp_path
    ):
        """The join contract: the checkpoint batch N triggered is written
        off the ack path, and is on disk — compaction included — by the
        time batch N+1 is acknowledged."""
        service = _service()
        store = StateStore(
            tmp_path,
            StoreConfig(
                root=str(tmp_path), checkpoint_interval=2, retain_checkpoints=1
            ),
        )
        service.attach_store(store)
        rng = np.random.default_rng(5)
        # Two batches outgrow a quarter of this small graph's base, so the
        # checkpoint at v2 also starts a new base and frees the log.
        big = [_batch(*map(tuple, rng.integers(0, 50, size=(80, 2)).tolist()))] * 2
        for batch in big:
            service.ingest(batch)
        service.ingest(_batch((0, 1)))
        assert not store.checkpoint_in_flight and store.dirty == 1
        assert [p.name for p in list_checkpoints(store.checkpoint_dir)] == [
            "checkpoint-000000000002.npz"
        ]
        assert [p.name for p in list_graph_bases(store.graph_dir)] == [
            "graph-000000000002.npz"
        ]
        assert [p.name for p in store.wal.segments()] == ["wal-0000000000000003.log"]
        store.close()
        recovered = recover(tmp_path, attach=False)
        assert (recovered.base_version, recovered.graph_batches) == (2, 0)
        assert recovered.service.graph == service.graph

    def test_checkpoint_bytes_do_not_grow_with_the_edge_count(self, tmp_path):
        """Graph bytes are written once per base; what every interval
        writes is the residents. Doubling the graph (a disjoint copy: same
        residents, same batches) leaves the checkpoint within 10 %."""
        rng = np.random.default_rng(9)
        edges = erdos_renyi_graph(200, 1600, rng=rng).tolist()
        sizes = {}
        for copies in (1, 2):
            graph = DynamicDiGraph(
                (u + 200 * c, v + 200 * c) for c in range(copies) for u, v in edges
            )
            service = PPRService(graph, NUMPY_CONFIG, ServeConfig(cache_capacity=16))
            service.query_many(range(8))
            root = tmp_path / f"x{copies}"
            store = StateStore(root, StoreConfig(root=str(root), checkpoint_interval=2))
            service.attach_store(store)
            for i in range(6):
                service.ingest(_batch((i, i + 20), (i + 1, i + 40)))
            store.close()
            checkpoints = list_checkpoints(store.checkpoint_dir)
            bases = list_graph_bases(store.graph_dir)
            assert [p.name for p in bases] == ["graph-000000000000.npz"]
            sizes[copies] = (checkpoints[-1].stat().st_size, bases[0].stat().st_size)
        (state_1, graph_1), (state_2, graph_2) = sizes[1], sizes[2]
        assert abs(state_2 - state_1) <= 0.10 * state_1
        assert graph_2 > 1.8 * graph_1

    def test_writer_failure_fences_the_store_at_the_join(self, tmp_path):
        from repro import chaos
        from repro.chaos import Fault, FaultKind, FaultPlan

        service = _service()
        store = StateStore(
            tmp_path, StoreConfig(root=str(tmp_path), checkpoint_interval=1)
        )
        service.attach_store(store)
        chaos.install(
            FaultPlan(faults=(Fault("checkpoint.write", FaultKind.ERROR, at=1),))
        )
        try:
            service.ingest(insertions([(0, 7)]))  # acknowledged: the WAL has it
            with pytest.raises(StoreError, match="checkpoint write failed"):
                service.ingest(insertions([(1, 8)]))  # surfaces at the join
        finally:
            chaos.reset()
        assert store.failed
        with pytest.raises(StoreError, match="fenced"):
            service.ingest(insertions([(2, 9)]))
        store.close()  # already surfaced: closing does not raise it again
        assert recover_service(tmp_path, attach=False).graph_version == 1

    def test_close_joins_the_writer_and_raises_an_unseen_failure(self, tmp_path):
        import threading

        from repro import chaos
        from repro.chaos import Fault, FaultKind, FaultPlan

        service = _service()
        store = StateStore(tmp_path, StoreConfig(root=str(tmp_path)))
        service.attach_store(store)
        store.checkpoint(service)
        store.close()
        assert not store.checkpoint_in_flight
        assert not [
            t for t in threading.enumerate() if t.name.startswith("checkpoint-writer")
        ]
        chaos.install(
            FaultPlan(faults=(Fault("checkpoint.rename", FaultKind.ERROR, at=1),))
        )
        try:
            store.checkpoint(service)
            with pytest.raises(StoreError, match="checkpoint write failed"):
                store.close()
        finally:
            chaos.reset()

    def test_query_time_vertex_registrations_survive_recovery(self, tmp_path):
        """A never-seen id queried as a source grows the graph with no WAL
        record; checkpoints that sit on an older base carry it."""
        reference, persisted = _service(), _service()
        store = StateStore(
            tmp_path, StoreConfig(root=str(tmp_path), checkpoint_interval=2)
        )
        persisted.attach_store(store)
        for service in (reference, persisted):
            service.ingest(insertions([(0, 7)]))
            service.query(60, 5)  # id 60 is new: capacity grows to 61
            service.ingest(insertions([(3, 9)]))  # checkpoint at v2
            service.ingest(insertions([(60, 4)]))
        store.close()
        result = recover(tmp_path, attach=True)
        recovered = result.service
        assert (result.base_version, result.graph_batches) == (0, 2)
        assert recovered.store.registered == [(1, 60)]
        assert recovered.graph.capacity == reference.graph.capacity == 61
        assert list(recovered.graph.vertices()) == list(reference.graph.vertices())
        for s in (0, 60):
            assert recovered.query(s, 10).entries == reference.query(s, 10).entries
        recovered.store.close()

    def test_serve_config_auto_attaches_store(self, tmp_path):
        root = tmp_path / "auto"
        rng = np.random.default_rng(2)
        graph = DynamicDiGraph(map(tuple, erdos_renyi_graph(30, 120, rng=rng).tolist()))
        service = PPRService(
            graph,
            NUMPY_CONFIG,
            ServeConfig(store=StoreConfig(root=str(root), checkpoint_interval=1)),
        )
        assert service.store is not None
        assert (root / "checkpoints").exists()
        service.ingest(insertions([(0, 7)]))
        recovered = recover_service(root)
        assert recovered.graph_version == 1
        assert recovered.graph == service.graph


# ---------------------------------------------------------------------- #
# recovery
# ---------------------------------------------------------------------- #


class TestCrashRecovery:
    SOURCES = [0, 1, 2, 3, 4, 5]

    def _twin_runs(self, tmp_path, num_batches: int = 8, interval: int = 3):
        """An uninterrupted service and a persisted twin fed identically."""
        reference = _service()
        persisted = _service()
        reference.query_many(self.SOURCES)
        persisted.query_many(self.SOURCES)
        store = StateStore(
            tmp_path, StoreConfig(root=str(tmp_path), checkpoint_interval=interval)
        )
        persisted.attach_store(store)
        rng = np.random.default_rng(11)
        for batch in _random_batches(rng, num_batches):
            reference.ingest(batch)
            persisted.ingest(batch)
        store.close()
        return reference, persisted.graph_version

    def test_recovered_topk_bit_exact_vs_uninterrupted(self, tmp_path):
        """The acceptance criterion: ingest K batches, crash, recover,
        and certified_top_k matches the uninterrupted run exactly."""
        reference, version = self._twin_runs(tmp_path)
        result = recover(tmp_path, attach=False)
        recovered = result.service
        assert recovered.graph_version == reference.graph_version == version
        assert result.replayed_batches > 0  # the WAL tail actually replayed
        for s in self.SOURCES:
            assert (
                recovered.query(s, 10).entries == reference.query(s, 10).entries
            )

    def test_recovered_hub_rankings_bit_exact(self, tmp_path):
        reference, _ = self._twin_runs(tmp_path)
        recovered = recover_service(tmp_path, attach=False)
        assert recovered.hubs == reference.hubs
        for hub in reference.hubs:
            assert recovered.rank_for_hub(hub, 5) == reference.rank_for_hub(hub, 5)

    def test_recovery_survives_torn_wal_tail(self, tmp_path):
        reference, _ = self._twin_runs(tmp_path)
        # Tear the last WAL frame mid-payload, as a crash during append would.
        segments = WriteAheadLog(tmp_path / "wal").segments()
        last = segments[-1]
        last.write_bytes(last.read_bytes()[:-7])
        result = recover(tmp_path, attach=False)
        assert result.torn_bytes_dropped > 0
        # The torn batch is lost; everything up to it is intact.
        assert result.service.graph_version == reference.graph_version - 1

    def test_recovery_reattaches_store_and_keeps_persisting(self, tmp_path):
        self._twin_runs(tmp_path)
        recovered = recover_service(tmp_path)
        assert recovered.store is not None
        before = recovered.graph_version
        recovered.ingest(insertions([(2, 9)]))
        recovered.store.close()
        again = recover_service(tmp_path, attach=False)
        assert again.graph_version == before + 1

    def test_empty_store_raises(self, tmp_path):
        with pytest.raises(StoreError, match="no checkpoint"):
            recover_service(tmp_path)

    def test_missing_root_raises(self, tmp_path):
        with pytest.raises(StoreError, match="not found"):
            recover_service(tmp_path / "nope")

    def test_rejected_batch_never_poisons_the_log(self, tmp_path):
        """A batch the graph rejects must not reach the WAL: the store
        stays recoverable and later good batches log clean sequence."""
        service = _service()
        store = StateStore(
            tmp_path, StoreConfig(root=str(tmp_path), checkpoint_interval=100)
        )
        service.attach_store(store)
        service.ingest(insertions([(0, 7)]))
        from repro import EdgeError, deletions

        with pytest.raises(EdgeError):
            service.ingest(deletions([(45, 46)]))  # edge never existed
        service.ingest(insertions([(1, 8)]))  # service keeps going
        store.close()
        recovered = recover_service(tmp_path, attach=False)
        assert recovered.graph_version == 2
        assert recovered.graph.has_edge(0, 7)
        assert recovered.graph.has_edge(1, 8)
        assert not recovered.graph.has_edge(45, 46)

    def test_a_rejected_batch_changes_nothing_and_recovers_exactly(self, tmp_path):
        """A batch rejected half-way applies none of its prefix: the graph
        dump, every resident's ``p``/``r`` and the cached view's ``dout``
        keep their pre-batch bytes, and after one more acknowledged batch a
        service recovered from the abandoned store answers like the live one."""
        from repro import EdgeError, deletions
        from repro.serve import workload_service

        service, _ = workload_service("youtube", cache_capacity=4)
        service.query_many([3, 0])
        store = StateStore(
            tmp_path, StoreConfig(root=str(tmp_path), checkpoint_interval=100)
        )
        service.attach_store(store)
        graph = service.graph
        b = next(v for v in range(graph.capacity) if v != 3 and not graph.has_edge(3, v))
        dump = {key: value.tobytes() for key, value in graph.to_arrays().items()}
        states = {
            s: (service.cache.peek(s).state.p.tobytes(), service.cache.peek(s).state.r.tobytes())
            for s in service.resident_sources()
        }
        dout = service._snapshot().dout.copy()
        with pytest.raises(EdgeError):
            service.ingest(insertions([(3, b)]) + deletions([(1, 99999)]))
        assert {key: value.tobytes() for key, value in graph.to_arrays().items()} == dump
        for s, (p, r) in states.items():
            state = service.cache.peek(s).state
            assert (state.p.tobytes(), state.r.tobytes()) == (p, r)
        assert np.array_equal(service._snapshot().dout, dout)
        service.ingest(insertions([(0, 2)]))
        assert service._snapshot().dout[3] == graph.out_degree(3)
        live = [service.query(s, 5).entries for s in (3, 0)]
        store.wait()
        recovered = recover(tmp_path, attach=False).service  # the store is abandoned
        assert [recovered.query(s, 5).entries for s in (3, 0)] == live
        store.close()

    def test_ingest_works_after_recovering_fully_torn_segment(self, tmp_path):
        """A crash tearing the *first* frame of a fresh segment leaves an
        empty file behind after truncation; the recovered service must be
        able to reuse that segment name and keep ingesting."""
        service = _service()
        store = StateStore(
            tmp_path, StoreConfig(root=str(tmp_path), checkpoint_interval=100)
        )
        service.attach_store(store)
        service.ingest(insertions([(0, 7)]))
        store.close()
        # Tear the single frame of the only segment down to a partial header.
        segment = WriteAheadLog(tmp_path / "wal").segments()[0]
        segment.write_bytes(segment.read_bytes()[:9])
        recovered = recover_service(tmp_path)  # reattaches a store
        assert recovered.graph_version == 0  # the torn batch is lost
        recovered.ingest(insertions([(0, 7)]))  # must not raise
        recovered.store.close()
        again = recover_service(tmp_path, attach=False)
        assert again.graph_version == 1
        assert again.graph.has_edge(0, 7)

    def test_config_mismatch_refused(self, tmp_path):
        self._twin_runs(tmp_path)
        with pytest.raises(StoreError, match="mismatch"):
            recover_service(tmp_path, config=NUMPY_CONFIG.with_(epsilon=1e-4))

    def test_crash_during_checkpoint_rename_recovers_from_previous(
        self, tmp_path
    ):
        """Chaos at the ``checkpoint.rename`` seam: dying between the npz
        tmp-write and the atomic rename must leave the *previous*
        checkpoint authoritative, with the WAL tail carrying everything
        since — and the recovered ``certified_top_k`` bit-exact against
        the uninterrupted twin."""
        from repro import chaos
        from repro.chaos import Fault, FaultKind, FaultPlan

        reference = _service()
        persisted = _service()
        reference.query_many([0, 1, 2, 3])
        persisted.query_many([0, 1, 2, 3])
        store = StateStore(
            tmp_path, StoreConfig(root=str(tmp_path), checkpoint_interval=3)
        )
        persisted.attach_store(store)  # baseline checkpoint (plan not armed)
        # Cadence renames at v3 (visit 1) and v6 (visit 2); the injected
        # OSError is the crash window between tmp-write and rename.
        chaos.install(
            FaultPlan(
                faults=(
                    Fault(
                        "checkpoint.rename",
                        FaultKind.ERROR,
                        at=2,
                        message="power cut mid-rename",
                    ),
                ),
                name="torn-checkpoint",
            )
        )
        rng = np.random.default_rng(11)
        died_at = None
        for batch in _random_batches(rng, 8):
            reference.ingest(batch)
            try:
                persisted.ingest(batch)
                store.wait()  # the writer's failure surfaces at the join
            except StoreError as exc:
                assert isinstance(exc.__cause__, OSError)
                died_at = persisted.graph_version
                break  # the process is gone: no close(), no cleanup
        assert died_at == 6
        assert store.failed
        chaos.reset()
        torn = [p.name for p in (tmp_path / "checkpoints").glob("*.tmp")]
        assert torn == ["checkpoint-000000000006.npz.tmp"]

        # The torn tmp file is ignored; the newest *named* checkpoint is
        # still v3, and the WAL tail replays v4..v6 on top of it.
        assert latest_checkpoint(tmp_path / "checkpoints") is not None
        result = recover(tmp_path, attach=False)
        assert result.checkpoint_version == 3
        assert result.replayed_batches == 3
        recovered = result.service
        assert recovered.graph_version == reference.graph_version == 6
        for s in [0, 1, 2, 3]:
            assert (
                recovered.query(s, 10).entries == reference.query(s, 10).entries
            )
        # The next owner of the directory clears the dead one's tmp file.
        recover(tmp_path, attach=True).service.store.close()
        assert not list((tmp_path / "checkpoints").glob("*.tmp"))

    def test_matching_config_accepted(self, tmp_path):
        _, version = self._twin_runs(tmp_path)
        recovered = recover_service(tmp_path, config=NUMPY_CONFIG, attach=False)
        assert recovered.graph_version == version


# ---------------------------------------------------------------------- #
# crash points of the off-path checkpoint and the graph base
# ---------------------------------------------------------------------- #


@pytest.fixture(params=["compiled", "numpy"])
def kernel(request, monkeypatch):
    """Both push kernels; the recovered service selects from the env too."""
    from repro import kernels

    if request.param == "compiled" and kernels.load_library()[0] is None:
        pytest.skip("no C compiler on this host")
    monkeypatch.setenv("REPRO_KERNEL", request.param)
    yield request.param
    kernels.reset()


class TestCrashPoints:
    """Recovered = acknowledged, bit-identical to an uninterrupted twin, at
    every window the writer thread and the graph base opened.

    Interval 3, batches of 60 inserts over a 250-edge graph: the log
    outgrows a quarter of the base by v3 and again by v9, so the cadence
    is v3 (new base), v6 (on base v3), v9 (new base) and the writer's
    ``checkpoint.rename`` visits are graph-3, checkpoint-3, checkpoint-6,
    graph-9, checkpoint-9. A fault of kind ERROR kills the writer where a
    CRASH would kill the process; the store is then abandoned unclosed.
    """

    SOURCES = [0, 1, 2, 3]

    def _run(self, tmp_path, fault=None, batches=10):
        from repro import chaos
        from repro.chaos import Fault, FaultKind, FaultPlan

        reference, persisted = _service(), _service()
        reference.query_many(self.SOURCES)
        persisted.query_many(self.SOURCES)
        store = StateStore(
            tmp_path, StoreConfig(root=str(tmp_path), checkpoint_interval=3)
        )
        persisted.attach_store(store)  # baseline before the plan is armed
        if fault is not None:
            site, at = fault
            chaos.install(FaultPlan(faults=(Fault(site, FaultKind.ERROR, at=at),)))
        rng = np.random.default_rng(21)
        for _ in range(batches):
            pairs = rng.integers(0, 50, size=(60, 2)).tolist()
            batch = insertions((a, b) for a, b in pairs if a != b)
            reference.ingest(batch)
            persisted.ingest(batch)  # acknowledged
            try:
                store.wait()
            except StoreError:
                break  # the process died in the writer, after this ack
        chaos.reset()
        return reference, persisted, store

    def _assert_recovers(self, tmp_path, reference, **expect):
        result = recover(tmp_path, attach=False)
        for name, value in expect.items():
            assert getattr(result, name) == value, name
        recovered = result.service
        assert recovered.graph_version == reference.graph_version
        assert recovered.graph.to_arrays().keys() == reference.graph.to_arrays().keys()
        for key, value in reference.graph.to_arrays().items():
            assert np.array_equal(recovered.graph.to_arrays()[key], value)
        for s in self.SOURCES:
            assert recovered.query(s, 10).entries == reference.query(s, 10).entries
        return result

    def test_uninterrupted_cadence_is_as_documented(self, tmp_path, kernel):
        reference, _, store = self._run(tmp_path)
        store.close()
        status = store.status()
        assert [(c.version, c.base_version) for c in status.checkpoints] == [
            (6, 3), (9, 9),
        ]
        assert status.bases == (3, 9)  # graph bytes: once per base
        self._assert_recovers(
            tmp_path, reference,
            checkpoint_version=9, base_version=9, graph_batches=0, replayed_batches=1,
        )

    def test_crash_after_the_ack_before_the_writer_wrote_anything(
        self, tmp_path, kernel
    ):
        reference, persisted, store = self._run(tmp_path, ("checkpoint.write", 2))
        assert persisted.graph_version == 6 and store.failed
        assert not list(tmp_path.rglob("*.tmp"))
        self._assert_recovers(
            tmp_path, reference,
            checkpoint_version=3, base_version=3, graph_batches=0, replayed_batches=3,
        )

    def test_crash_at_the_checkpoint_rename(self, tmp_path, kernel):
        reference, persisted, _ = self._run(tmp_path, ("checkpoint.rename", 3))
        assert persisted.graph_version == 6
        assert [p.name for p in tmp_path.rglob("*.tmp")] == [
            "checkpoint-000000000006.npz.tmp"
        ]
        self._assert_recovers(
            tmp_path, reference,
            checkpoint_version=3, base_version=3, graph_batches=0, replayed_batches=3,
        )

    def test_crash_after_the_rename_before_compaction(self, tmp_path, kernel):
        reference, persisted, store = self._run(tmp_path, ("checkpoint.compact", 3))
        assert persisted.graph_version == 9
        # Durable but uncompacted: nothing was pruned or unlinked yet.
        assert [checkpoint_version_of(p) for p in list_checkpoints(store.checkpoint_dir)] == [3, 6, 9]
        assert len(list_graph_bases(store.graph_dir)) == 2
        assert store.wal.segments()[0].name == "wal-0000000000000004.log"
        self._assert_recovers(
            tmp_path, reference,
            checkpoint_version=9, base_version=9, graph_batches=0, replayed_batches=0,
        )

    @pytest.mark.parametrize(
        "visit, leftover",
        [
            (4, "graph-000000000009.npz.tmp"),  # the new base never got its name
            (5, "checkpoint-000000000009.npz.tmp"),  # it did; nothing names it yet
        ],
    )
    def test_crash_mid_rebase(self, tmp_path, kernel, visit, leftover):
        reference, persisted, store = self._run(
            tmp_path, ("checkpoint.rename", visit)
        )
        assert persisted.graph_version == 9
        assert [p.name for p in tmp_path.rglob("*.tmp")] == [leftover]
        # The old base is still there, named by both retained checkpoints.
        assert [c.base_version for c in store.status().checkpoints] == [3, 3]
        result = self._assert_recovers(
            tmp_path, reference,
            checkpoint_version=6, base_version=3, graph_batches=3, replayed_batches=3,
        )
        assert "graph base v3 + 3 batches" in result.describe()
        # The next owner sweeps the tmp and keeps sitting on the proven
        # base; an unnamed newer base goes at its first compaction.
        service = recover(tmp_path, attach=True).service
        assert not list(tmp_path.rglob("*.tmp"))
        assert service.store.base_version == 3
        service.store.checkpoint(service)
        service.store.close()
        assert 3 in service.store.status().bases
        self._assert_recovers(tmp_path, reference, checkpoint_version=9)

    @pytest.mark.parametrize("damage", ["checkpoint", "base"])
    def test_damaged_newest_falls_back_to_the_older_checkpoint_and_its_base(
        self, tmp_path, kernel, damage
    ):
        reference, _, store = self._run(tmp_path)
        store.close()
        directory = store.checkpoint_dir if damage == "checkpoint" else store.graph_dir
        newest = sorted(directory.glob("*.npz"))[-1]
        newest.write_bytes(newest.read_bytes()[: newest.stat().st_size // 2])
        # The log was kept back to the older base for exactly this.
        self._assert_recovers(
            tmp_path, reference,
            checkpoint_version=6, base_version=3, graph_batches=3, replayed_batches=4,
        )
