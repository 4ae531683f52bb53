"""Unit tests for the delta-CSR snapshot overlay (:mod:`repro.graph.delta`)."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.config import Backend, PPRConfig, PushVariant
from repro.core.push_parallel import parallel_local_push
from repro.core.state import PPRState
from repro.errors import ConfigError, GraphError
from repro.graph import (
    CSRGraph,
    DeltaCSRGraph,
    DynamicDiGraph,
    SlidingWindow,
    random_permutation_stream,
)
from repro.graph.generators import rmat_graph
from repro.graph.update import EdgeOp, EdgeUpdate, deletions, insertions


def small_graph() -> DynamicDiGraph:
    return DynamicDiGraph([(0, 1), (1, 2), (2, 0), (3, 1), (1, 0), (0, 1)])


def assert_csr_equal(a: CSRGraph, b: CSRGraph) -> None:
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.dout, b.dout)


def apply_and_advance(
    graph: DynamicDiGraph, view: DeltaCSRGraph, updates: list[EdgeUpdate]
) -> DeltaCSRGraph:
    for update in updates:
        graph.apply(update)
    return view.apply_updates(graph, updates)


# ---------------------------------------------------------------------- #
# digraph / csr helpers
# ---------------------------------------------------------------------- #


def test_in_row_matches_from_digraph_order():
    g = small_graph()
    csr = CSRGraph.from_digraph(g)
    for u in g.vertices():
        assert np.array_equal(g.in_row(u), csr.in_neighbors(u))


def test_in_row_unknown_vertex_is_empty():
    assert small_graph().in_row(99).size == 0


def test_csr_in_degrees_vectorized():
    csr = CSRGraph.from_digraph(small_graph())
    ids = np.array([0, 1, 3], dtype=np.int64)
    assert np.array_equal(
        csr.in_degrees(ids), np.array([csr.in_degree(int(v)) for v in ids])
    )


# ---------------------------------------------------------------------- #
# wrap / reads
# ---------------------------------------------------------------------- #


def test_wrap_delegates_to_base():
    g = small_graph()
    csr = CSRGraph.from_digraph(g)
    view = DeltaCSRGraph.wrap(csr)
    assert view.num_vertices == csr.num_vertices
    assert view.num_edges == csr.num_edges
    assert view.overlay_rows == 0
    frontier = np.arange(g.capacity, dtype=np.int64)
    s1, t1 = view.gather_in_edges(frontier)
    s2, t2 = csr.gather_in_edges(frontier)
    assert np.array_equal(s1, s2)
    assert np.array_equal(t1, t2)
    assert_csr_equal(view.consolidate(), csr)


def test_apply_updates_is_order_exact_with_rebuild():
    g = small_graph()
    view = DeltaCSRGraph.wrap(CSRGraph.from_digraph(g))
    view = apply_and_advance(
        g,
        view,
        insertions([(2, 1), (4, 0), (0, 1)]) + deletions([(1, 2)]),
    )
    ref = CSRGraph.from_digraph(g)
    assert_csr_equal(view.consolidate(), ref)
    for u in g.vertices():
        assert np.array_equal(view.in_neighbors(u), ref.in_neighbors(u))
        assert view.in_degree(u) == ref.in_degree(u)
    ids = np.fromiter(g.vertices(), dtype=np.int64)
    assert np.array_equal(view.in_degrees(ids), ref.in_degrees(ids))


def test_apply_updates_grows_capacity_for_new_vertices():
    g = small_graph()
    view = DeltaCSRGraph.wrap(CSRGraph.from_digraph(g))
    view = apply_and_advance(g, view, insertions([(9, 7)]))
    assert view.num_vertices == 10
    assert view.in_degree(7) == 1
    assert view.in_degree(8) == 0  # registered id space, no adjacency
    assert int(view.dout[9]) == 1
    assert_csr_equal(view.consolidate(), CSRGraph.from_digraph(g))


def test_apply_updates_multiplicities_and_full_deletion():
    g = DynamicDiGraph([(0, 1), (0, 1), (2, 1)])
    view = DeltaCSRGraph.wrap(CSRGraph.from_digraph(g))
    view = apply_and_advance(g, view, deletions([(0, 1)]))
    assert list(view.in_neighbors(1)) == [0, 2]
    view = apply_and_advance(g, view, deletions([(0, 1)]))
    assert list(view.in_neighbors(1)) == [2]
    assert_csr_equal(view.consolidate(), CSRGraph.from_digraph(g))


def test_views_are_persistent():
    g = small_graph()
    v0 = DeltaCSRGraph.wrap(CSRGraph.from_digraph(g))
    before = v0.consolidate()
    apply_and_advance(g, v0, insertions([(4, 2)]))
    # The original view is untouched by the newer version.
    assert_csr_equal(v0.consolidate(), before)


def test_gather_in_edges_mixed_base_and_overlay():
    edges = rmat_graph(256, 2000, rng=7)
    g = DynamicDiGraph(map(tuple, edges.tolist()))
    view = DeltaCSRGraph.wrap(CSRGraph.from_digraph(g))
    rng = np.random.default_rng(0)
    for _ in range(5):
        pairs = rng.integers(0, 300, size=(8, 2))
        view = apply_and_advance(
            g, view, insertions(map(tuple, pairs.tolist()))
        )
    ref = CSRGraph.from_digraph(g)
    frontier = np.unique(rng.integers(0, g.capacity, size=64)).astype(np.int64)
    s1, t1 = view.gather_in_edges(frontier)
    s2, t2 = ref.gather_in_edges(frontier)
    assert np.array_equal(s1, s2)
    assert np.array_equal(t1, t2)


def test_with_capacity_pads_dense_arrays():
    g = small_graph()
    view = DeltaCSRGraph.wrap(CSRGraph.from_digraph(g)).with_capacity(12)
    assert view.num_vertices == 12
    assert view.in_degree(11) == 0
    assert int(view.dout[11]) == 0
    view.ensure_covers(12)
    assert view.with_capacity(4) is view  # never shrinks


def test_ensure_covers_rejects_small_views():
    view = DeltaCSRGraph.wrap(CSRGraph.from_digraph(small_graph()))
    with pytest.raises(ConfigError):
        view.ensure_covers(100)


def test_dout_validation():
    csr = CSRGraph.from_digraph(small_graph())
    with pytest.raises(GraphError):
        DeltaCSRGraph(csr, np.zeros(1, dtype=np.int64), {}, np.zeros(1, bool), 0, 0)


# ---------------------------------------------------------------------- #
# consolidation policy
# ---------------------------------------------------------------------- #


def test_overlay_accounting_and_threshold():
    g = small_graph()
    view = DeltaCSRGraph.wrap(CSRGraph.from_digraph(g))
    assert view.overlay_fraction == 0.0
    assert not view.should_consolidate(0.01)
    view = apply_and_advance(g, view, insertions([(0, 2), (3, 2)]))
    assert view.overlay_rows == 1  # both inserts hit vertex 2
    assert view.overlay_entries == len(view.in_neighbors(2))
    assert view.should_consolidate(0.01)
    with pytest.raises(ConfigError):
        view.should_consolidate(0.0)


def test_consolidated_resets_overlay():
    g = small_graph()
    view = DeltaCSRGraph.wrap(CSRGraph.from_digraph(g))
    view = apply_and_advance(g, view, insertions([(0, 2)]))
    fresh = view.consolidated()
    assert fresh.overlay_rows == 0
    assert fresh.num_edges == view.num_edges
    assert_csr_equal(fresh.base, CSRGraph.from_digraph(g))


def test_kernel_arrays_derive_from_the_predecessor_and_stay_bounded():
    """A view whose predecessor built its kernel layout derives its own
    at apply time (no from-scratch rebuild on the next compiled read),
    and an overlay that never consolidates — one edge toggled forever —
    cannot grow the buffer: dead rows are compacted away."""
    g = small_graph()
    view = DeltaCSRGraph.wrap(CSRGraph.from_digraph(g))
    assert apply_and_advance(g, view, insertions([(3, 2)]))._kernel is None
    view.kernel_arrays()  # what the first compiled read does
    derived = 0
    for step in range(40):
        batch = insertions([(2, 1)]) if step % 2 == 0 else deletions([(2, 1)])
        view = apply_and_advance(g, view, batch)
        derived += view._kernel is not None
        arrays = view.kernel_arrays()
        start, count = arrays["row_start"][1], arrays["row_count"][1]
        assert arrays["row_overlay"][1] == 1
        assert arrays["overlay_indices"][start : start + count].tolist() == (
            g.in_row(1).tolist()
        )
        assert arrays["overlay_live"] == view.overlay_entries <= 4
        assert len(arrays["overlay_indices"]) <= 2 * arrays["overlay_live"]
    assert 10 <= derived < 40  # derived most steps, rebuilt compactly on some


def test_memory_bytes_counts_overlay():
    g = small_graph()
    view = DeltaCSRGraph.wrap(CSRGraph.from_digraph(g))
    base_bytes = view.memory_bytes()
    view = apply_and_advance(g, view, insertions([(0, 2)]))
    assert view.memory_bytes() > base_bytes


# ---------------------------------------------------------------------- #
# window (edge-array) mode
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("undirected", [False, True])
def test_window_delta_snapshot_matches_full_rebuild(undirected):
    edges = random_permutation_stream(rmat_graph(256, 2500, rng=3), rng=1)
    cap = int(edges.max()) + 1
    live = SlidingWindow(edges, batch_size=21, undirected=undirected)
    full = SlidingWindow(edges, batch_size=21, undirected=undirected)
    assert_csr_equal(
        live.delta_snapshot(cap).consolidate(), full.snapshot(cap)
    )
    for _ in range(12):
        live.slide()
        full.slide()
        view = live.delta_snapshot(cap, overlay_threshold=0.2)
        assert_csr_equal(view.consolidate(), full.snapshot(cap))


def test_window_delta_snapshot_reuses_the_view():
    edges = random_permutation_stream(rmat_graph(128, 1200, rng=4), rng=2)
    window = SlidingWindow(edges, batch_size=5)
    first = window.delta_snapshot()
    again = window.delta_snapshot()
    assert again is first  # no slide in between: same maintained view
    window.slide()
    advanced = window.delta_snapshot(overlay_threshold=1e9)
    assert advanced is not first
    assert advanced.overlay_rows > 0


@pytest.mark.parametrize("undirected", [False, True])
def test_window_delta_snapshot_rebuilds_after_skipped_slides(undirected):
    """Sliding past a full window-length between calls breaks the
    incremental chain; the next call must fall back to a rebuild, not
    ask the stale view to drop edges it never held."""
    edges = random_permutation_stream(rmat_graph(128, 1500, rng=6), rng=5)
    window = SlidingWindow(edges, batch_size=40, undirected=undirected)
    cap = int(edges.max()) + 1
    window.delta_snapshot(cap)
    for _ in range(5):  # 5 * 40 > window_size of 150: chain broken
        window.slide()
    view = window.delta_snapshot(cap)
    assert_csr_equal(view.consolidate(), window.snapshot(cap))
    # And the chain re-forms incrementally afterwards.
    window.slide()
    again = window.delta_snapshot(cap)
    assert_csr_equal(again.consolidate(), window.snapshot(cap))


def test_apply_edge_delta_rejects_overdrop():
    g = DynamicDiGraph([(0, 1)])
    view = DeltaCSRGraph.wrap(CSRGraph.from_digraph(g))
    with pytest.raises(GraphError):
        view.apply_edge_delta(
            np.empty((0, 2), dtype=np.int64),
            np.array([[0, 1], [2, 1]], dtype=np.int64),
        )


def test_apply_edge_delta_rejects_too_small_capacity():
    view = DeltaCSRGraph.wrap(CSRGraph.from_digraph(DynamicDiGraph([(0, 1)])))
    with pytest.raises(GraphError):
        view.apply_edge_delta(
            np.array([[5, 6]], dtype=np.int64),
            np.empty((0, 2), dtype=np.int64),
            capacity=3,
        )


# ---------------------------------------------------------------------- #
# the push engines consume the overlay view
# ---------------------------------------------------------------------- #


def push_states(graph: DynamicDiGraph, csr, config: PPRConfig):
    state = PPRState.initial(0, graph.capacity)
    parallel_local_push(state, graph, config, seeds=[0], csr=csr)
    return state


@pytest.mark.parametrize("variant", list(PushVariant))
def test_vectorized_push_identical_on_overlay_view(variant):
    edges = rmat_graph(128, 900, rng=9)
    g = DynamicDiGraph(map(tuple, edges.tolist()))
    g.add_vertex(0)
    view = DeltaCSRGraph.wrap(CSRGraph.from_digraph(g))
    view = apply_and_advance(g, view, insertions([(1, 0), (0, 5), (7, 0)]))
    ref = CSRGraph.from_digraph(g)
    config = PPRConfig(backend=Backend.NUMPY, epsilon=1e-4, variant=variant)
    a = push_states(g, view, config)
    b = push_states(g, ref, config)
    assert np.array_equal(a.p, b.p)
    assert np.array_equal(a.r, b.r)


def test_overlay_view_pickles():
    g = small_graph()
    view = DeltaCSRGraph.wrap(CSRGraph.from_digraph(g))
    view = apply_and_advance(g, view, insertions([(3, 0)]))
    clone = pickle.loads(pickle.dumps(view))
    assert_csr_equal(clone.consolidate(), view.consolidate())
    frontier = np.arange(g.capacity, dtype=np.int64)
    s1, t1 = clone.gather_in_edges(frontier)
    s2, t2 = view.gather_in_edges(frontier)
    assert np.array_equal(s1, s2)
    assert np.array_equal(t1, t2)


def test_repr_mentions_overlay():
    g = small_graph()
    view = DeltaCSRGraph.wrap(CSRGraph.from_digraph(g))
    view = apply_and_advance(g, view, insertions([(3, 0)]))
    assert "overlay=1 rows" in repr(view)
