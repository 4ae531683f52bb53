"""Property-based tests (hypothesis) for delta-CSR snapshots.

The laws the ingest hot path rests on (see ``docs/performance.md``):

1. for *any* interleaved insert/delete stream applied batch-by-batch, the
   maintained :class:`~repro.graph.delta.DeltaCSRGraph` — both its merged
   reads and its consolidation — equals ``CSRGraph.from_digraph`` of the
   live graph **array-for-array** (order-exact, hence bit-exact float
   summation in the vectorized push);
2. the sliding-window workload — each slide applied to the graph and the
   view moved past it by :func:`~repro.graph.delta.advance_view` —
   equals the ``CSRGraph.from_digraph`` rebuild at every slide;
3. a :class:`~repro.serve.PPRService` advancing its delta lineage
   answers every ``certified_top_k`` query **bit-identically** to one
   handed a fresh ``CSRGraph.from_digraph`` view every batch;
4. the compiled kernel's row layout — the view's own tables, derived
   batch by batch from the predecessor's — resolves every row to the same
   sequence as a view wrapped around a rebuilt ``CSRGraph.from_digraph``
   — so compiled pushes over it stay bit-identical — and the dead space
   of its append-only buffer stays bounded by the live overlay;
5. the overlay entry and row counts every view carries equal the
   overlay rows' total length and number after every ``apply_updates``,
   ``with_capacity`` and ``consolidated``, on random batches and on a
   window's FIFO slides — the
   O(1) consolidation check decides exactly as a re-sum would.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import Backend, PPRConfig, ServeConfig
from repro.graph import (
    CSRGraph,
    DeltaCSRGraph,
    DynamicDiGraph,
    SlidingWindow,
)
from repro.graph.delta import advance_view
from repro.graph.update import EdgeOp, EdgeUpdate, deletions, insertions
from repro.serve import PPRService
from tests.conftest import ingest_from_rebuild

N_VERTICES = 14


@st.composite
def applied_update_batches(draw, max_batches=6, max_batch=8):
    """Batches of updates valid to apply in order (deletes hit live edges)."""
    multiplicity: dict[tuple[int, int], int] = {}
    batches: list[list[EdgeUpdate]] = []
    for _ in range(draw(st.integers(1, max_batches))):
        batch: list[EdgeUpdate] = []
        for _ in range(draw(st.integers(1, max_batch))):
            live = sorted(e for e, c in multiplicity.items() if c > 0)
            if live and draw(st.booleans()):
                u, v = draw(st.sampled_from(live))
                multiplicity[(u, v)] -= 1
                batch.append(EdgeUpdate(u, v, EdgeOp.DELETE))
            else:
                u = draw(st.integers(0, N_VERTICES - 1))
                v = draw(st.integers(0, N_VERTICES - 1))
                multiplicity[(u, v)] = multiplicity.get((u, v), 0) + 1
                batch.append(EdgeUpdate(u, v, EdgeOp.INSERT))
        batches.append(batch)
    return batches


def assert_csr_equal(a: CSRGraph, b: CSRGraph) -> None:
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.dout, b.dout)


@given(applied_update_batches())
@settings(max_examples=40)
def test_delta_overlay_equals_rebuild_before_and_after_consolidation(batches):
    graph = DynamicDiGraph()
    view: DeltaCSRGraph | None = None
    for batch in batches:
        for update in batch:
            graph.apply(update)
        if view is None:
            view = DeltaCSRGraph.wrap(CSRGraph.from_digraph(graph))
            continue
        view = view.apply_updates(graph, batch)
        ref = CSRGraph.from_digraph(graph)
        # Before consolidation: every merged read equals the rebuild.
        assert view.num_edges == ref.num_edges
        ids = np.arange(graph.capacity, dtype=np.int64)
        assert np.array_equal(view.in_degrees(ids), ref.in_degrees(ids))
        s1, t1 = view.gather_in_edges(ids)
        s2, t2 = ref.gather_in_edges(ids)
        assert np.array_equal(s1, s2)
        assert np.array_equal(t1, t2)
        assert np.array_equal(view.dout[: graph.capacity], ref.dout)
        # After consolidation: array-for-array equality, and the fresh
        # base keeps answering identically.
        consolidated = view.consolidate()
        assert_csr_equal(consolidated, ref)
        assert_csr_equal(view.consolidated().consolidate(), ref)


@given(
    batch_size=st.integers(1, 30),
    num_slides=st.integers(1, 8),
    undirected=st.booleans(),
    seed=st.integers(0, 10),
)
@settings(max_examples=20, deadline=None)
def test_window_delta_snapshot_equals_rebuild(
    batch_size, num_slides, undirected, seed
):
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, 40, size=(400, 2)).astype(np.int64)
    window = SlidingWindow(edges, batch_size=batch_size, undirected=undirected)
    pairs = map(tuple, window.initial_edges.tolist())
    if undirected:
        graph = DynamicDiGraph.from_undirected_edges(pairs)
    else:
        graph = DynamicDiGraph(pairs)
    view = CSRGraph.from_digraph(graph)
    for slide in window.slides(num_slides):
        graph.apply_batch(slide.updates)
        view, _ = advance_view(view, graph, slide.updates)
        assert_csr_equal(view.consolidate(), CSRGraph.from_digraph(graph))


@given(applied_update_batches(max_batches=4, max_batch=6), st.data())
@settings(max_examples=15, deadline=None)
def test_served_answers_bit_identical_to_rebuilt_views(batches, data):
    config = PPRConfig(backend=Backend.NUMPY, epsilon=1e-3, workers=4)

    def serve(ingest) -> list[list[tuple[int, float]]]:
        graph = DynamicDiGraph([(0, 1), (1, 2), (2, 0), (3, 0)])
        service = PPRService(graph, config, ServeConfig(cache_capacity=4))
        sources = [0, 2]
        service.query_many(sources)
        answers = []
        for batch in batches:
            ingest(service, batch)
            for s in sources:
                served = service.query(s, 5)
                answers.append([(e.vertex, e.estimate) for e in served.entries])
        return answers

    # Identical float bits, not just identical rankings.
    assert serve(ingest_from_rebuild) == serve(PPRService.ingest)


def _rebuilt(graph: DynamicDiGraph) -> DeltaCSRGraph:
    """A view with no lineage: an empty overlay over a full rebuild."""
    return DeltaCSRGraph.wrap(CSRGraph.from_digraph(graph))


def _resolved_rows(arrays: dict) -> list[list[int]]:
    rows = []
    for v in range(arrays["num_rows"]):
        source = arrays["overlay_indices" if arrays["row_overlay"][v] else "base_indices"]
        start = int(arrays["row_start"][v])
        rows.append(source[start : start + int(arrays["row_count"][v])].tolist())
    return rows


@given(applied_update_batches(max_batches=12, max_batch=6))
@settings(max_examples=40, deadline=None)
def test_incremental_kernel_arrays_equal_the_from_scratch_build(batches):
    from repro import kernels
    from repro.config import KernelConfig, KernelMode
    from repro.core.push_parallel import parallel_local_push
    from repro.core.state import PPRState

    compiled = kernels.load_library()[0] is not None
    config = PPRConfig(
        backend=Backend.NUMPY,
        epsilon=1e-3,
        workers=4,
        kernel=KernelConfig(mode=KernelMode.COMPILED) if compiled else None,
    )
    graph = DynamicDiGraph([(0, 1), (1, 2), (2, 0), (3, 0)])
    view = _rebuilt(graph)
    for batch in batches:
        for update in batch:
            graph.apply(update)
        view = view.apply_updates(graph, batch)
        arrays, scratch = view.kernel_arrays(), _rebuilt(graph).kernel_arrays()
        assert arrays["num_rows"] == scratch["num_rows"] == graph.capacity
        assert _resolved_rows(arrays) == _resolved_rows(scratch)
        assert np.array_equal(arrays["dout"], scratch["dout"])
        assert view._overlay.fill <= 2 * view.overlay_entries
        if compiled:
            twin = _rebuilt(graph)
            a, b = PPRState.initial(0, graph.capacity), PPRState.initial(0, graph.capacity)
            parallel_local_push(a, graph, config, seeds=[0], csr=view)
            parallel_local_push(b, graph, config, seeds=[0], csr=twin)
            assert np.array_equal(a.p.view(np.uint64), b.p.view(np.uint64))
            assert np.array_equal(a.r.view(np.uint64), b.r.view(np.uint64))


def assert_entries_carried(view: DeltaCSRGraph) -> None:
    arrays = view.kernel_arrays()
    overlay = arrays["row_overlay"].astype(bool)
    assert view.overlay_entries == int(arrays["row_count"][overlay].sum())
    assert view.overlay_rows == int(overlay.sum())


@given(
    applied_update_batches(max_batches=10),
    st.lists(st.sampled_from(["keep", "grow", "consolidate"]), min_size=10, max_size=10),
)
@settings(max_examples=40)
def test_graph_backed_views_carry_their_overlay_entry_count(batches, moves):
    graph = DynamicDiGraph([(0, 1), (1, 2)])
    view = DeltaCSRGraph.wrap(CSRGraph.from_digraph(graph))
    assert_entries_carried(view)
    for batch, move in zip(batches, moves):
        for update in batch:
            graph.apply(update)
        view = view.apply_updates(graph, batch)
        assert_entries_carried(view)
        if move == "grow":
            view = view.with_capacity(view.num_vertices + 3)
        elif move == "consolidate":
            view = view.consolidated()
        assert_entries_carried(view)


@given(
    st.lists(
        st.tuples(st.integers(0, N_VERTICES - 1), st.integers(0, N_VERTICES - 1)),
        min_size=1,
        max_size=80,
    ),
    st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 8), st.booleans()),
        min_size=1,
        max_size=10,
    ),
    st.booleans(),
)
@settings(max_examples=40)
def test_window_views_carry_their_overlay_entry_count(stream, slides, undirected):
    """Slides of a FIFO window: each inserts the next stream edges and
    deletes the oldest ones still in the window."""
    graph = DynamicDiGraph()
    view = DeltaCSRGraph.wrap(CSRGraph.from_digraph(graph))
    window: list[tuple[int, int]] = []
    position = 0
    for inserted, deleted, consolidate in slides:
        ins = stream[position : position + inserted]
        position += len(ins)
        dels = window[: min(deleted, len(window))]
        window = window[len(dels) :] + ins
        if undirected:
            ins = [e for u, v in ins for e in ((u, v), (v, u))]
            dels = [e for u, v in dels for e in ((u, v), (v, u))]
        batch = insertions(ins) + deletions(dels)
        graph.apply_batch(batch)
        view = view.apply_updates(graph, batch)
        assert_entries_carried(view)
        if consolidate:
            view = view.consolidated()
            assert_entries_carried(view)
