"""Property-based tests (hypothesis) for the durable-store codecs.

Round-trip laws the store's crash-recovery guarantee rests on:

1. any update batch survives the WAL frame codec exactly;
2. any sequence of batches written to a WAL is read back exactly — and
   truncating the file at *any* byte length still yields an intact
   prefix of whole records (torn tails never corrupt earlier frames);
3. any set of :class:`PPRState` vectors (``-0.0``, subnormals, huge
   magnitudes, all-zero vectors, states at different capacities, no
   states at all) survives the sparse vector codec bit-for-bit — and so
   does a whole checkpoint file (hubs on/off, pending seeds), while a
   format-2, format-3 or truncated file is refused with :class:`StoreError`;
4. any reachable :class:`DynamicDiGraph` survives its codec with dict
   iteration order — hence CSR layout — preserved exactly, and the
   vectorised dump is array-equal to the tuple-building one it replaced;
5. a full checkpoint of a service rebuilt from random update batches
   restores states that replay to bit-identical answers;
6. a persisted service driven by any interleaving of ingests, queries
   (never-seen ids included), checkpoints, rebases and crashes at every
   window of the checkpoint writer recovers to its acknowledged version
   with graph and certified answers bit-identical (a state machine);
7. the same machine read at every consistency and ``k``: a served answer
   is ``certified_top_k`` of the state it came from, and a resident's
   answer memo is used exactly when entry, graph version, entry version
   and ``k`` are the ones it was filled at.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro import DynamicDiGraph, PPRState
from repro.core.state import decode_states, encode_states
from repro.errors import StoreError
from repro.graph.csr import CSRGraph
from repro.graph.update import EdgeOp, EdgeUpdate
from repro.store.wal import (
    WriteAheadLog,
    decode_updates,
    encode_updates,
    scan_segment,
)
from tests.conftest import self_contained_checkpoint
from tests.dict_digraph import DictDiGraph

N_VERTICES = 12


# ---------------------------------------------------------------------- #
# strategies
# ---------------------------------------------------------------------- #

edge_updates = st.builds(
    EdgeUpdate,
    u=st.integers(0, N_VERTICES - 1),
    v=st.integers(0, N_VERTICES - 1),
    op=st.sampled_from([EdgeOp.INSERT, EdgeOp.DELETE]),
)

update_batches = st.lists(edge_updates, max_size=20)


@st.composite
def applied_update_sequences(draw, max_updates=30):
    """An update sequence valid to apply in order (deletes touch live edges)."""
    multiplicity: dict[tuple[int, int], int] = {}
    updates: list[EdgeUpdate] = []
    for _ in range(draw(st.integers(1, max_updates))):
        live = [e for e, c in multiplicity.items() if c > 0]
        if live and draw(st.booleans()):
            u, v = draw(st.sampled_from(live))
            multiplicity[(u, v)] -= 1
            updates.append(EdgeUpdate(u, v, EdgeOp.DELETE))
        else:
            u = draw(st.integers(0, N_VERTICES - 1))
            v = draw(st.integers(0, N_VERTICES - 1))
            multiplicity[(u, v)] = multiplicity.get((u, v), 0) + 1
            updates.append(EdgeUpdate(u, v, EdgeOp.INSERT))
    return updates


finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


# ---------------------------------------------------------------------- #
# 1-2: WAL
# ---------------------------------------------------------------------- #


@given(update_batches)
def test_wal_frame_codec_roundtrip(batch):
    assert decode_updates(encode_updates(batch)) == batch


@given(st.lists(update_batches, min_size=1, max_size=6), st.data())
@settings(max_examples=25)
def test_wal_write_read_and_arbitrary_truncation(tmp_path_factory, batches, data):
    tmp_path = tmp_path_factory.mktemp("wal")
    wal = WriteAheadLog(tmp_path)
    segment = None
    for seq, batch in enumerate(batches, start=1):
        segment = wal.append(seq, batch)
    wal.close()

    scan = scan_segment(segment)
    assert scan.clean
    assert [list(r.updates) for r in scan.records] == batches

    # Chop the file at a random byte length: the surviving records must be
    # an exact prefix, decoded identically — never garbage, never a gap.
    size = segment.stat().st_size
    cut = data.draw(st.integers(0, size))
    segment.write_bytes(segment.read_bytes()[:cut])
    partial = scan_segment(segment)
    kept = len(partial.records)
    assert [list(r.updates) for r in partial.records] == batches[:kept]
    assert partial.valid_bytes <= cut


# ---------------------------------------------------------------------- #
# 3: PPRState codec
# ---------------------------------------------------------------------- #


#: Mostly exact zeros (a converged vector is sparse), salted with the
#: values a value-based ``!= 0`` test or a lossy codec would mangle.
vector_entries = st.one_of(
    st.just(0.0),
    st.just(0.0),
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300]),
    finite_floats,
)

state_specs = st.lists(
    st.tuples(
        st.integers(0, 30),
        st.lists(st.tuples(vector_entries, vector_entries), max_size=40),
    ),
    max_size=5,
)


def _bits(vector: np.ndarray) -> np.ndarray:
    return vector.view(np.uint64)


def assert_states_bit_identical(clone: PPRState, state: PPRState) -> None:
    assert clone.source == state.source
    assert clone.capacity == state.capacity
    # Bitwise, not just numeric, equality (covers -0.0 and denormals).
    assert np.array_equal(_bits(clone.p), _bits(state.p))
    assert np.array_equal(_bits(clone.r), _bits(state.r))


@given(state_specs)
def test_sparse_state_codec_bit_exact(specs):
    states = []
    for source, values in specs:  # different capacities, possibly all-zero
        state = PPRState(source, capacity=max(len(values), source + 1))
        for i, (p, r) in enumerate(values):
            state.p[i] = p
            state.r[i] = r
        states.append(state)
    arrays = encode_states(states)
    # What is stored is what is non-zero *as bits*: -0.0 kept, 0.0 dropped.
    assert int(arrays["p_nnz"].sum()) == sum(
        int(np.count_nonzero(_bits(s.p))) for s in states
    )
    clones = decode_states([s.source for s in states], arrays)
    assert len(clones) == len(states)
    for clone, state in zip(clones, states):
        assert_states_bit_identical(clone, state)


@given(state_specs.filter(bool), st.data())
def test_sparse_state_codec_rejects_inconsistent_counts(specs, data):
    states = [PPRState(source, capacity=len(values)) for source, values in specs]
    arrays = encode_states(states)
    key = data.draw(st.sampled_from(["p_nnz", "r_nnz"]))
    arrays[key] = arrays[key] + 1
    with pytest.raises(ValueError):
        decode_states([s.source for s in states], arrays)


def _salted_service(hubs: bool, residents: list[int], salt: list[float], pending: bool):
    """A small service whose vectors carry ``salt`` at arbitrary slots."""
    from repro import Backend, PPRConfig, PPRService, ServeConfig

    base = [(u, (u + 1) % N_VERTICES) for u in range(N_VERTICES)] + [(0, 5), (5, 0)]
    service = PPRService(
        DynamicDiGraph(base),
        PPRConfig(epsilon=1e-4, backend=Backend.NUMPY, workers=4),
        ServeConfig(cache_capacity=4, num_hubs=2 if hubs else 0),
    )
    if residents:
        service.query_many(residents)
    if pending:  # residents left unrefreshed: touched residuals above eps
        service.ingest([EdgeUpdate(1, 7, EdgeOp.INSERT), EdgeUpdate(40, 2, EdgeOp.INSERT)])
    vectors = [e.state for e in service.cache.entries()]
    if service.hub_index is not None:
        vectors += service.hub_index.states
    for i, value in enumerate(salt):
        for j, state in enumerate(vectors):
            state.p[(i + j) % len(state.p)] = value
            state.r[(3 * i + j) % len(state.r)] = value
    return service


@given(
    hubs=st.booleans(),
    residents=st.lists(st.integers(0, N_VERTICES - 1), max_size=3, unique=True),
    salt=st.lists(vector_entries, max_size=6),
    pending=st.booleans(),
)
@settings(max_examples=20, deadline=None)
def test_checkpoint_file_roundtrip_bit_exact(
    tmp_path_factory, hubs, residents, salt, pending
):
    from repro.store.checkpoint import (
        CHECKPOINT_FORMAT,
        checkpoint_summary,
        read_checkpoint,
        restore_service,
    )

    service = _salted_service(hubs, residents, salt, pending)
    path = self_contained_checkpoint(tmp_path_factory.mktemp("ckpt"), service)
    restored = restore_service(read_checkpoint(path))

    assert restored.graph_version == service.graph_version
    assert restored.resident_sources() == service.resident_sources()  # LRU order
    for clone, entry in zip(restored.cache.entries(), service.cache.entries()):
        assert_states_bit_identical(clone.state, entry.state)
        assert (clone.version, clone.updates_reflected, clone.queries) == (
            entry.version,
            entry.updates_reflected,
            entry.queries,
        )
    assert restored.hubs == service.hubs
    if hubs:
        for clone, state in zip(restored.hub_index.states, service.hub_index.states):
            assert_states_bit_identical(clone, state)

    summary = checkpoint_summary(path)
    assert summary["format"] == CHECKPOINT_FORMAT
    vectors = [e.state for e in service.cache.entries()]
    vectors += service.hub_index.states if hubs else []
    assert summary["nnz"] == sum(
        int(np.count_nonzero(_bits(v))) for s in vectors for v in (s.p, s.r)
    )


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_truncated_checkpoint_is_refused(tmp_path_factory, data):
    from repro.store.checkpoint import read_checkpoint

    service = _salted_service(True, [0, 3], [-0.0, 5e-324], True)
    path = self_contained_checkpoint(tmp_path_factory.mktemp("ckpt"), service)
    blob = path.read_bytes()
    path.write_bytes(blob[: data.draw(st.integers(0, len(blob) - 1))])
    with pytest.raises(StoreError):
        read_checkpoint(path)


def test_format_2_checkpoint_is_refused(tmp_path):
    """A file of the previous (dense, deflated) layout: unsupported, not misread."""
    from repro.store.checkpoint import (
        checkpoint_name,
        checkpoint_summary,
        latest_checkpoint,
        read_checkpoint,
    )

    service = _salted_service(False, [0], [], False)
    current = self_contained_checkpoint(tmp_path, service)
    with np.load(current) as data:
        arrays = {key: data[key] for key in data.files}
    state = service.cache.entries()[0].state
    for key in [k for k in arrays if k.startswith("resident_")]:
        del arrays[key]
    arrays.update(
        format=np.int64(2),
        resident_meta=np.zeros((1, 3), dtype=np.int64),
        resident_lengths=np.array([len(state.p)]),
        resident_p=state.p,
        resident_r=state.r,
    )
    old = current.with_name(checkpoint_name(7))
    with open(old, "wb") as fh:
        np.savez_compressed(fh, **arrays)

    with pytest.raises(StoreError, match="unsupported checkpoint format 2"):
        read_checkpoint(old)
    assert checkpoint_summary(old) == {"format": 2}
    # Recovery skips it like any damaged candidate and falls back.
    assert latest_checkpoint(current.parent).path == current


def test_format_4_checkpoint_is_refused(tmp_path):
    """A parent-build file: the graph embedded, no base named."""
    from repro.store.checkpoint import (
        checkpoint_name,
        checkpoint_summary,
        latest_checkpoint,
        read_checkpoint,
    )

    service = _salted_service(False, [0], [], False)
    current = self_contained_checkpoint(tmp_path, service)
    with np.load(current) as data:
        arrays = {key: data[key] for key in data.files}
    del arrays["base_version"], arrays["registered"]
    for key, value in service.graph.to_arrays().items():
        arrays[f"graph_{key}"] = value
    arrays.update(format=np.int64(4))
    old = current.with_name(checkpoint_name(7))
    with open(old, "wb") as fh:
        np.savez(fh, **arrays)

    with pytest.raises(StoreError, match="unsupported checkpoint format 4"):
        read_checkpoint(old)
    assert checkpoint_summary(old) == {"format": 4}
    assert latest_checkpoint(current.parent).path == current


def test_format_3_checkpoint_is_refused(tmp_path):
    """A parent-build file: same vector layout, a config block this build's
    ``ServeConfig`` no longer accepts — refused on the format, never parsed."""
    from repro.store.checkpoint import (
        checkpoint_name,
        checkpoint_summary,
        latest_checkpoint,
        read_checkpoint,
    )

    service = _salted_service(False, [0], [], False)
    current = self_contained_checkpoint(tmp_path, service)
    with np.load(current) as data:
        arrays = {key: data[key] for key in data.files}
    arrays.update(format=np.int64(3))
    old = current.with_name(checkpoint_name(7))
    with open(old, "wb") as fh:
        np.savez(fh, **arrays)

    with pytest.raises(StoreError, match="unsupported checkpoint format 3"):
        read_checkpoint(old)
    assert checkpoint_summary(old) == {"format": 3}
    assert latest_checkpoint(current.parent).path == current


def test_format_6_checkpoint_is_refused(tmp_path):
    """A parent-build file: per-resident pending seed sets stored beside
    the vectors — refused on the format, its members never read."""
    from repro.store.checkpoint import (
        checkpoint_name,
        checkpoint_summary,
        latest_checkpoint,
        read_checkpoint,
    )

    service = _salted_service(False, [0], [], True)
    current = self_contained_checkpoint(tmp_path, service)
    with np.load(current) as data:
        arrays = {key: data[key] for key in data.files}
    assert not {"pending_ref", "pending_lengths", "pending"} & arrays.keys()
    arrays.update(
        format=np.int64(6),
        pending_ref=np.zeros(1, dtype=np.int64),
        pending_lengths=np.array([2], dtype=np.int64),
        pending=np.array([1, 40], dtype=np.int32),
    )
    old = current.with_name(checkpoint_name(7))
    with open(old, "wb") as fh:
        np.savez(fh, **arrays)

    with pytest.raises(StoreError, match="unsupported checkpoint format 6"):
        read_checkpoint(old)
    assert checkpoint_summary(old) == {"format": 6}
    assert latest_checkpoint(current.parent).path == current


def test_format_7_checkpoint_is_refused(tmp_path):
    """A parent-build file: its serve-config block still carries
    ``admission_batch``, which ``ServeConfig`` no longer accepts —
    refused on the format, the block never parsed."""
    import json

    from repro.store.checkpoint import (
        checkpoint_name,
        checkpoint_summary,
        latest_checkpoint,
        read_checkpoint,
    )

    service = _salted_service(False, [0], [], True)
    current = self_contained_checkpoint(tmp_path, service)
    with np.load(current) as data:
        arrays = {key: data[key] for key in data.files}
    serve = json.loads(str(arrays["serve_config"]))
    assert "admission_batch" not in serve
    serve["admission_batch"] = 8
    arrays.update(
        format=np.int64(7), serve_config=np.str_(json.dumps(serve, sort_keys=True))
    )
    old = current.with_name(checkpoint_name(7))
    with open(old, "wb") as fh:
        np.savez(fh, **arrays)

    with pytest.raises(StoreError, match="unsupported checkpoint format 7"):
        read_checkpoint(old)
    assert checkpoint_summary(old) == {"format": 7}
    assert latest_checkpoint(current.parent).path == current


# ---------------------------------------------------------------------- #
# 4: graph codec preserves structure AND iteration order
# ---------------------------------------------------------------------- #


@given(applied_update_sequences())
def test_graph_codec_roundtrip_preserves_csr_layout(updates):
    graph = DynamicDiGraph()
    for update in updates:
        graph.apply(update)
    clone = DynamicDiGraph.from_arrays(graph.to_arrays())
    clone.check_consistency()
    assert clone == graph
    assert clone.num_edges == graph.num_edges
    assert list(clone.vertices()) == list(graph.vertices())
    if graph.capacity:
        a = CSRGraph.from_digraph(graph)
        b = CSRGraph.from_digraph(clone)
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)  # order-exact blocks
        assert np.array_equal(a.dout, b.dout)


def _reference_to_arrays(graph: DictDiGraph) -> dict[str, np.ndarray]:
    """The tuple-building dump of the dict-of-dicts oracle's adjacency."""
    out_rows = [
        (u, v, c) for u, nbrs in graph._out.items() for v, c in nbrs.items()
    ]
    in_rows = [
        (v, u, c) for v, nbrs in graph._in.items() for u, c in nbrs.items()
    ]
    return {
        "vertices": np.fromiter(graph._out, dtype=np.int64, count=len(graph._out)),
        "out_edges": np.array(out_rows, dtype=np.int64).reshape(-1, 3),
        "in_edges": np.array(in_rows, dtype=np.int64).reshape(-1, 3),
    }


@given(st.one_of(st.just([]), applied_update_sequences()))
def test_vectorised_graph_dump_equals_the_tuple_reference(updates):
    graph, oracle = DynamicDiGraph(), DictDiGraph()
    for g in (graph, oracle):
        g.add_vertex(3)  # an isolated vertex: a row with no triples
        for update in updates:  # a multigraph: parallel edges, emptied rows
            g.apply(update)
    arrays = graph.to_arrays()
    reference = _reference_to_arrays(oracle)
    assert arrays.keys() == reference.keys()
    for key, expected in reference.items():
        assert arrays[key].dtype == expected.dtype
        assert arrays[key].shape == expected.shape
        assert np.array_equal(arrays[key], expected)


# ---------------------------------------------------------------------- #
# 5: checkpointed states replay bit-exactly
# ---------------------------------------------------------------------- #


@given(applied_update_sequences(max_updates=20))
@settings(max_examples=10)
def test_checkpointed_service_replays_bit_exact(tmp_path_factory, updates):
    from repro import Backend, PPRConfig, PPRService, ServeConfig
    from repro.store.checkpoint import (
        read_checkpoint,
        restore_service,
    )

    tmp_path = tmp_path_factory.mktemp("ckpt")
    config = PPRConfig(epsilon=1e-4, backend=Backend.NUMPY, workers=4)
    base = [(u, (u + 1) % N_VERTICES) for u in range(N_VERTICES)]
    half = len(updates) // 2

    service = PPRService(DynamicDiGraph(base), config, ServeConfig(cache_capacity=4))
    service.query_many([0, 1])
    if updates[:half]:
        service.ingest(updates[:half])
    path = self_contained_checkpoint(tmp_path, service)
    restored = restore_service(read_checkpoint(path))

    tail = updates[half:]
    if tail:
        service.ingest(tail)
        restored.ingest(tail)
    for s in (0, 1):
        assert restored.query(s, 5).entries == service.query(s, 5).entries


# ---------------------------------------------------------------------- #
# 6: the durability loop as a state machine
# ---------------------------------------------------------------------- #


class DurableServiceMachine(RuleBasedStateMachine):
    """One persisted service; every crash is followed by a recovery that
    must reproduce it, and the recovered service carries on."""

    #: Where the checkpoint writer can die, by chaos site and visit. Visit
    #: 2 of ``checkpoint.rename`` exists only when the checkpoint starts a
    #: new base: the base got its name, the checkpoint naming it did not.
    CRASH_WINDOWS = [
        None,
        ("checkpoint.write", 1),
        ("checkpoint.rename", 1),
        ("checkpoint.rename", 2),
        ("checkpoint.compact", 1),
    ]

    def __init__(self):
        super().__init__()
        from repro import (
            Backend,
            PPRConfig,
            PPRService,
            ServeConfig,
            StateStore,
            StoreConfig,
        )

        self.root = Path(tempfile.mkdtemp(prefix="repro-store-machine-"))
        base = [(u, (u + 1) % N_VERTICES) for u in range(N_VERTICES)] + [(0, 5), (5, 0)]
        self.service = PPRService(
            DynamicDiGraph(base),
            PPRConfig(epsilon=1e-4, backend=Backend.NUMPY, workers=4),
            ServeConfig(cache_capacity=4, num_hubs=2),
        )
        self.service.query_many([0, 3])
        self.store_config = StoreConfig(
            root=str(self.root), checkpoint_interval=3, retain_checkpoints=2
        )
        self.service.attach_store(StateStore(self.root, self.store_config))

    def teardown(self):
        try:
            if self.service.store is not None:
                self.service.store.close()
        finally:
            shutil.rmtree(self.root, ignore_errors=True)

    def _valid(self, updates):
        """Drop deletes of edges that are not live at their position."""
        live = {(u, v): c for u, v, c in self.service.graph.unique_edges()}
        kept = []
        for update in updates:
            key = (update.u, update.v)
            if update.op is EdgeOp.DELETE:
                if live.get(key, 0) < 1:
                    continue
                live[key] -= 1
            else:
                live[key] = live.get(key, 0) + 1
            kept.append(update)
        return kept

    @rule(batch=update_batches)
    def ingest(self, batch):
        self.service.ingest(self._valid(batch))

    @rule(source=st.integers(0, N_VERTICES + 3))
    def query(self, source):
        """Admit (ids >= N_VERTICES also register a vertex) or serve stale.

        ANY consistency on purpose: a refresh push between a checkpoint
        and a crash is not in the log, so the recovered state converges
        along a different — equally certified — path and only agrees
        within the bounds. Without one, recovery is bit-exact.
        """
        self.service.query(source, 5, max_staleness=None)

    @rule()
    def checkpoint(self):
        self.service.store.checkpoint(self.service)

    @rule(data=st.data())
    def rebase(self, data):
        """Log enough for the next checkpoint to start a new base."""
        store = self.service.store
        store.wait()
        while not store.rebase_due:
            pairs = data.draw(
                st.lists(
                    st.tuples(st.integers(0, N_VERTICES - 1), st.integers(0, N_VERTICES - 1)),
                    min_size=10,
                    max_size=10,
                )
            )
            self.service.ingest([EdgeUpdate(u, v, EdgeOp.INSERT) for u, v in pairs])
            store.wait()
        before = set(store.status().bases)
        store.checkpoint(self.service)
        store.wait()
        assert set(store.status().bases) - before == {self.service.graph_version}

    @rule(window=st.sampled_from(CRASH_WINDOWS))
    def crash_and_recover(self, window):
        from repro import chaos
        from repro.chaos import Fault, FaultKind, FaultPlan
        from repro.store.recovery import recover

        survivor = self.service  # what the crash destroys, kept as the oracle
        store = survivor.detach_store()
        try:
            store.wait()
            if window is not None:
                site, at = window
                chaos.install(FaultPlan(faults=(Fault(site, FaultKind.ERROR, at=at),)))
                store.checkpoint(survivor)
                store.wait()
        except StoreError:
            pass  # the writer died there; the store is abandoned unclosed
        finally:
            chaos.reset()
        store.wal.close()

        result = recover(self.root, store_config=self.store_config)
        recovered = result.service
        assert recovered.graph_version == survivor.graph_version
        assert result.replayed_batches <= 3  # the checkpoint interval
        ours, theirs = recovered.graph.to_arrays(), survivor.graph.to_arrays()
        for key in ("out_edges", "in_edges"):
            assert np.array_equal(ours[key], theirs[key])
        # Residents as of the last checkpoint; the survivor may since have
        # evicted some (those it would re-admit from scratch).
        for entry in recovered.cache.entries():
            twin = survivor.cache.peek(entry.source)
            if twin is not None:
                assert_states_bit_identical(entry.state, twin.state)
                assert entry.version == twin.version
                assert (
                    recovered.query(entry.source, 5, max_staleness=None).entries
                    == survivor.query(entry.source, 5, max_staleness=None).entries
                )
        for hub in survivor.hubs:
            assert recovered.rank_for_hub(hub, 4) == survivor.rank_for_hub(hub, 4)
        assert not list(self.root.rglob("*.tmp"))  # the new owner swept them
        self.service = recovered

    @invariant()
    def log_reaches_back_to_every_retained_base(self):
        store = self.service.store
        store.wait()
        status = store.status()
        for info in status.checkpoints:
            assert info.base_version in status.bases
        seqs = [r.seq for s in status.segments for r in s.records]
        oldest = min(c.base_version for c in status.checkpoints)
        assert set(range(oldest + 1, self.service.graph_version + 1)) <= set(seqs)


TestDurableService = DurableServiceMachine.TestCase
TestDurableService.settings = settings(
    max_examples=20, stateful_step_count=20, deadline=None
)


# ---------------------------------------------------------------------- #
# 7: the same loop read at every consistency — the answer memo
# ---------------------------------------------------------------------- #


def _answer_bits(entries):
    """A certified answer, floats as their bit patterns."""
    return [
        (e.vertex, e.estimate.hex(), e.lower.hex(), e.upper.hex(), e.position_certified)
        for e in entries
    ]


class AnswerMemoMachine(DurableServiceMachine):
    """The durable service again, now read FRESH / BOUNDED / ANY at several
    ``k``, in batches, around prefetches and evictions.

    Two things must hold whatever the interleaving. *What* is served is
    ``certified_top_k`` of the state it is served from, bit for bit. And a
    resident's memo answers exactly when the model below says it may: same
    entry object (so not across an eviction or a recovery), same graph
    version (not across an ingest), same entry version (not across a
    refresh), same ``k``.
    """

    KS = st.sampled_from([1, 5, 10, None])  # None: one more than there are vertices
    SOURCES = st.integers(0, N_VERTICES + 3)
    STALENESS = st.sampled_from([0, 1, 2, None])  # FRESH, BOUNDED(1|2), ANY

    def __init__(self):
        super().__init__()
        import repro.serve.service as engine

        self.engine = engine
        self.certify = engine.certified_top_k
        self.calls = 0

        def counting(state, k):
            self.calls += 1
            return self.certify(state, k)

        engine.certified_top_k = counting
        self.services = [self.service]
        warmup = self.service.metrics()  # the base machine's two reads
        self.uncounted = warmup.queries - warmup.answer_memo_hits
        #: source -> (entry, (graph version, entry version), ks served there)
        self.model = {}
        for source in self.service.resident_sources():  # ... at the default k
            self._remember(source, self.service.serve.top_k)

    def teardown(self):
        self.engine.certified_top_k = self.certify
        super().teardown()

    def _remember(self, source, k):
        entry = self.service.cache.peek(source)
        if entry is None:
            self.model.pop(source, None)
            return
        stamp = (self.service.graph_version, entry.version)
        known = self.model.get(source)
        seen = known[2] if known and known[0] is entry and known[1] == stamp else set()
        self.model[source] = (entry, stamp, seen | {k})

    def _k(self, k):
        return self.service.graph.num_vertices + 1 if k is None else k

    def _read(self, source, k, staleness):
        service = self.service
        entry = service.cache.peek(source)
        known = self.model.get(source)
        expect_hit = (
            entry is not None
            and known is not None
            and known[0] is entry
            and known[1] == (service.graph_version, entry.version)
            and k in known[2]
            # ... and this read will not refresh it first
            and (staleness is None or service.graph_version - entry.version <= staleness)
        )
        hits = service.metrics().answer_memo_hits
        served = service.query(source, k, max_staleness=staleness)
        state = service.cache.peek(source).state
        assert _answer_bits(served.entries) == _answer_bits(self.certify(state, k))
        assert service.metrics().answer_memo_hits - hits == int(expect_hit)
        served.entries.clear()  # ours to wreck: the next hit is a fresh list
        self._remember(source, k)

    @rule(source=SOURCES)
    def query(self, source):
        self._read(source, 5, None)

    @rule(source=SOURCES, k=KS, staleness=STALENESS)
    def read(self, source, k, staleness):
        self._read(source, self._k(k), staleness)

    @rule(sources=st.lists(SOURCES, min_size=1, max_size=6), k=KS, staleness=STALENESS)
    def read_many(self, sources, k, staleness):
        k = self._k(k)
        served = self.service.query_many(sources, k, max_staleness=staleness)
        for source, answer in zip(sources, served):
            # A batch wider than the cache evicts as it goes; whoever is
            # still resident is in the state its answer came from.
            entry = self.service.cache.peek(source)
            if entry is not None:
                assert _answer_bits(answer.entries) == _answer_bits(
                    self.certify(entry.state, k)
                )
            self._remember(source, k)

    @rule(source=SOURCES)
    def prefetch(self, source):
        self.service.prefetch(source)

    @rule(data=st.data())
    def evict(self, data):
        residents = self.service.resident_sources()
        if residents:
            self.service.cache.evict(data.draw(st.sampled_from(residents)))

    @rule(window=st.sampled_from(DurableServiceMachine.CRASH_WINDOWS))
    def crash_and_recover(self, window):
        # A refresh is not in the log (see the base `query`): have the
        # checkpoint hold it, so the base rule's bit-identity still applies.
        self.service.store.checkpoint(self.service)
        survivor = self.service
        super().crash_and_recover(window)
        recovered = self.service
        self.services.append(recovered)
        # The base rule read every recovered resident once at k=5: all
        # first reads, however warm the survivor's memos were.
        assert recovered.metrics().answer_memo_hits == 0
        for entry in recovered.cache.entries():
            if survivor.cache.peek(entry.source) is not None:
                self._remember(entry.source, 5)

    @invariant()
    def certify_runs_once_per_miss(self):
        misses = 0
        for service in self.services:
            metrics = service.metrics()
            misses += metrics.queries - metrics.answer_memo_hits
        assert misses - self.uncounted == self.calls


TestAnswerMemo = AnswerMemoMachine.TestCase
TestAnswerMemo.settings = TestDurableService.settings


# ---------------------------------------------------------------------- #
# 8: the same loop with cold reads parked off the gateway lock
# ---------------------------------------------------------------------- #


class ParkedColdReadMachine(DurableServiceMachine):
    """The durable service again, with a cold FRESH read parked inside its
    lock-released push while the main thread ingests, reads the same or
    another source cold, or evicts a resident.

    Whatever ran meanwhile, the parked read's answer is what the locked
    path computes now: a from-scratch push of the source against the
    current view, certified — float for float. And after every step the
    fresh residents, however they were installed, satisfy Eq. 2 with
    ``max|R_s| <= eps`` and hold memos equal to their states' certify.
    """

    DURING = st.sampled_from(["nothing", "ingest", "same", "other", "evict"])

    @rule(
        source=st.integers(0, N_VERTICES + 3),
        during=DURING,
        batch=update_batches,
        other=st.integers(0, N_VERTICES + 3),
        data=st.data(),
    )
    def parked_read(self, source, during, batch, other, data):
        from repro.core.certify import certified_top_k
        from repro.serve.pool import AdmissionPool
        from tests.conftest import Parked

        service = self.service
        if service.is_resident(source):
            return  # a hit never releases the lock
        parked = Parked(service)
        parked.read(source)
        if during == "ingest":
            service.ingest(self._valid(batch))
        elif during == "same":
            service.query(source, 5)
        elif during == "other":
            service.query(other, 5)
        elif during == "evict" and service.resident_sources():
            service.cache.evict(data.draw(st.sampled_from(service.resident_sources())))
        answer = parked.go()

        assert answer.ok and answer.snapshot_version == service.graph_version
        oracle = AdmissionPool(service.config).admit(
            service._snapshot(), source, service.graph.capacity
        )
        assert _answer_bits(answer.entries) == _answer_bits(certified_top_k(oracle, 5))

    @invariant()
    def fresh_residents_hold_eq2_and_their_memos(self):
        from repro.core.certify import certified_top_k
        from repro.core.invariant import invariant_violation

        service = self.service
        config = service.config
        for entry in service.cache.entries():
            if entry.version != service.graph_version:
                continue
            assert entry.state.residual_linf() <= config.epsilon
            assert invariant_violation(entry.state, service.graph, config.alpha) <= 1e-9
            if entry.memo_stamp == (service.graph_version, entry.version):
                for k, answer in entry.memo.items():
                    assert _answer_bits(answer) == _answer_bits(
                        certified_top_k(entry.state, k)
                    )


TestParkedColdRead = ParkedColdReadMachine.TestCase
TestParkedColdRead.settings = TestDurableService.settings
