"""Unit tests for the delta-CSR snapshot overlay (:mod:`repro.graph.delta`)."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.config import Backend, PPRConfig, PushVariant
from repro.core.push_parallel import parallel_local_push
from repro.core.state import PPRState
from repro.errors import ConfigError, GraphError
from repro.graph.delta import _Overlay
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


def _advancing_lineage(steps: int, seed: int):
    """``(graph, views, built)``: a lineage over random valid batches where
    every view also has a sibling derived from the same predecessor, so
    the shared overlay buffer sees branches, growth and compactions;
    ``built[i]`` is ``views[i]`` consolidated right when it was made."""
    rng = np.random.default_rng(seed)
    graph = DynamicDiGraph(map(tuple, rmat_graph(64, 400, rng=seed).tolist()))
    view = DeltaCSRGraph.wrap(CSRGraph.from_digraph(graph))
    views, built = [view], [view.consolidate()]
    for _ in range(steps):
        live = graph.edge_array()
        drop = live[rng.choice(len(live), size=min(6, len(live)), replace=False)]
        batch = insertions(map(tuple, rng.integers(0, 70, size=(6, 2)).tolist()))
        batch += deletions(map(tuple, drop.tolist()))
        sibling_graph = graph.copy()
        extra = insertions([(int(rng.integers(0, 64)), int(rng.integers(0, 64)))])
        sibling_graph.apply_batch(batch + extra)
        views.append(view.apply_updates(sibling_graph, batch + extra))
        graph.apply_batch(batch)
        view = view.apply_updates(graph, batch)
        views.append(view)
        built += [views[-2].consolidate(), view.consolidate()]
    return graph, views, built


def test_pinned_views_survive_successors_branches_and_compaction():
    """Every view keeps resolving the rows it was built with while later
    views append to, grow and compact the overlay buffer they share."""
    graph, views, built = _advancing_lineage(40, seed=3)
    assert views[-1]._overlay is not views[1]._overlay  # it did compact
    for view, csr in zip(views, built):
        assert_csr_equal(view.consolidate(), csr)
    assert_csr_equal(views[-1].consolidate(), CSRGraph.from_digraph(graph))


def test_pinned_views_read_stably_while_the_lineage_advances():
    """Readers resolve pinned views (``gather_in_edges``, no lock) while the
    lineage keeps appending to the buffer those views live in."""
    import sys
    import threading

    graph, views, _ = _advancing_lineage(3, seed=9)
    pinned = views[-2:]
    frontier = np.arange(graph.capacity, dtype=np.int64)
    expected = [view.gather_in_edges(frontier)[1] for view in pinned]
    stop, mismatches = threading.Event(), []

    def read() -> None:
        while not stop.is_set():
            for view, targets in zip(pinned, expected):
                if not np.array_equal(view.gather_in_edges(frontier)[1], targets):
                    mismatches.append(view)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    readers = [threading.Thread(target=read) for _ in range(4)]
    try:
        for reader in readers:
            reader.start()
        view, rng = views[-1], np.random.default_rng(1)
        for _ in range(60):
            batch = insertions(map(tuple, rng.integers(0, 64, size=(8, 2)).tolist()))
            graph.apply_batch(batch)
            view = view.apply_updates(graph, batch)
    finally:
        stop.set()
        for reader in readers:
            reader.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not any(reader.is_alive() for reader in readers)
    assert mismatches == []


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
    short = {**csr.kernel_arrays(), "dout": np.zeros(1, dtype=np.int64)}
    with pytest.raises(GraphError):
        DeltaCSRGraph(csr, short, _Overlay(np.empty(0, dtype=np.int64)), 0, 0, 0)


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


def test_the_overlay_buffer_stays_bounded():
    """Every view is its kernel layout, derived from its predecessor's at
    apply time, and an overlay that never consolidates — one edge toggled
    forever — cannot grow its buffer: dead rows are compacted away."""
    g = small_graph()
    view = DeltaCSRGraph.wrap(CSRGraph.from_digraph(g))
    for step in range(40):
        batch = insertions([(2, 1)]) if step % 2 == 0 else deletions([(2, 1)])
        view = apply_and_advance(g, view, batch)
        arrays = view.kernel_arrays()
        start, count = arrays["row_start"][1], arrays["row_count"][1]
        assert arrays["row_overlay"][1] == 1
        assert arrays["overlay_indices"][start : start + count].tolist() == (
            g.in_row(1).tolist()
        )
        assert view.overlay_entries <= 4
        assert view._overlay.fill <= 2 * view.overlay_entries


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


def test_pickled_graphs_and_views_do_not_carry_kernel_addresses():
    """A copy pickled after compiled calls cached array addresses must not
    reuse them: they point into the original process's arrays."""
    import repro.kernels
    from repro.config import KernelConfig, KernelMode

    g = DynamicDiGraph(map(tuple, rmat_graph(200, 2000, rng=4).tolist()))
    view = DeltaCSRGraph.wrap(CSRGraph.from_digraph(g))
    view = apply_and_advance(g, view, insertions([(1, 2), (3, 4)]))
    mode = KernelMode.COMPILED if repro.kernels.load_library()[0] else KernelMode.NUMPY
    config = PPRConfig(backend=Backend.NUMPY, epsilon=1e-6, kernel=KernelConfig(mode=mode))
    state = PPRState.initial(0, g.capacity)
    parallel_local_push(state, None, config, csr=view)
    g.apply_batch(insertions([(5, 6)]), kernel=config.kernel)
    g2, view2 = pickle.loads(pickle.dumps((g, view)))
    assert g2._pointers is None and "pointers" not in view2.kernel_arrays()
    assert "pointers" not in view2.base.kernel_arrays()
    twin = PPRState.initial(0, g.capacity)
    parallel_local_push(twin, None, config, csr=view2)
    assert np.array_equal(twin.p, state.p) and np.array_equal(twin.r, state.r)
    g2.apply_batch(insertions([(6, 7)]), kernel=config.kernel)
    g.apply_batch(insertions([(6, 7)]), kernel=config.kernel)
    assert g2.to_arrays()["in_edges"].tobytes() == g.to_arrays()["in_edges"].tobytes()


def test_repr_mentions_overlay():
    g = small_graph()
    view = DeltaCSRGraph.wrap(CSRGraph.from_digraph(g))
    view = apply_and_advance(g, view, insertions([(3, 0)]))
    assert "overlay=1 rows" in repr(view)
