"""Serving-layer behaviour of delta snapshots and the hub tier.

The service-level contracts layered on :mod:`repro.graph.delta`:

* ingest advances the shared view incrementally (counted by the
  snapshot metrics) and serves answers bit-identical to a service
  handed a fresh ``CSRGraph.from_digraph`` view every batch;
* registering new vertices pads the overlay instead of invalidating it;
* the hub tier re-converges on the same ingest without perturbing any
  resident's answer.
"""

from __future__ import annotations

import numpy as np

from repro.config import Backend, PPRConfig, ServeConfig
from repro.graph import DeltaCSRGraph, DynamicDiGraph, SlidingWindow
from repro.graph.generators import erdos_renyi_graph, rmat_graph
from repro.graph.update import EdgeOp, EdgeUpdate
from repro.core.tracker import DynamicPPRTracker
from repro.serve import PPRService
from tests.conftest import ingest_from_rebuild, rebuilt_view_after

NUMPY_CONFIG = PPRConfig(epsilon=1e-5, backend=Backend.NUMPY, workers=4)


def _graph(seed: int = 3, n: int = 40, m: int = 220) -> DynamicDiGraph:
    rng = np.random.default_rng(seed)
    return DynamicDiGraph(map(tuple, erdos_renyi_graph(n, m, rng=rng).tolist()))


def _random_batches(rng, count: int, graph: DynamicDiGraph, size: int = 6):
    batches = []
    for _ in range(count):
        batch = []
        for _ in range(size):
            arr = graph.edge_array()
            if len(arr) and rng.random() < 0.35:
                u, v = arr[rng.integers(0, len(arr))]
                batch.append(EdgeUpdate(int(u), int(v), EdgeOp.DELETE))
                graph.remove_edge(int(u), int(v))
            else:
                u, v = rng.integers(0, 44, size=2)
                batch.append(EdgeUpdate(int(u), int(v), EdgeOp.INSERT))
                graph.add_edge(int(u), int(v))
        batches.append(batch)
    return batches


def _scripted_batches(seed: int = 7, count: int = 6):
    """A deterministic update script valid against ``_graph(seed=3)``."""
    shadow = _graph()
    return _random_batches(np.random.default_rng(seed), count, shadow)


# ---------------------------------------------------------------------- #
# delta snapshot lineage in the service
# ---------------------------------------------------------------------- #


class TestDeltaLineage:
    def test_ingest_advances_without_rebuilds(self):
        service = PPRService(_graph(), NUMPY_CONFIG)
        service.query(0)  # cold start builds the base (1 rebuild)
        for batch in _scripted_batches():
            service.ingest(batch)
            service.query(0)
        m = service.metrics()
        assert m.snapshot_rebuilds == 1
        assert m.snapshot_delta_applies + m.snapshot_consolidations == 6
        assert "delta snapshots" in m.describe()

    def test_overlay_consolidates_past_the_threshold(self):
        service = PPRService(_graph(), NUMPY_CONFIG)
        service.query(0)
        for batch in _scripted_batches():
            service.ingest(batch)
            view = service._csr
            assert isinstance(view, DeltaCSRGraph)
            assert not view.should_consolidate()  # never left over the bar
        m = service.metrics()
        # ~33 overlay entries per batch against a 220-edge base: every
        # second batch outgrows the 25 % threshold and folds into the base.
        assert m.snapshot_delta_applies == 3
        assert m.snapshot_consolidations == 3
        assert m.snapshot_rebuilds == 1

    def test_answers_bit_identical_to_rebuilt_views(self):
        def run(ingest):
            service = PPRService(_graph(), NUMPY_CONFIG)
            sources = [0, 5, 11]
            service.query_many(sources)
            out = []
            for batch in _scripted_batches():
                ingest(service, batch)
                for s in sources:
                    out.append(
                        [(e.vertex, e.estimate) for e in service.query(s).entries]
                    )
            return out, service.metrics()

        delta, delta_metrics = run(PPRService.ingest)
        rebuilt, rebuilt_metrics = run(ingest_from_rebuild)
        assert delta == rebuilt
        # The two arms really took different paths to the same bits.
        assert delta_metrics.snapshot_delta_applies > 0
        assert rebuilt_metrics.snapshot_delta_applies == 0
        assert rebuilt_metrics.snapshot_consolidations == 0

    def test_new_vertex_registration_pads_the_overlay(self):
        service = PPRService(_graph(), NUMPY_CONFIG)
        service.query(0)
        service.ingest(_scripted_batches(count=1)[0])
        rebuilds = service.metrics().snapshot_rebuilds
        service.query(90)  # unknown id: grows the graph's id space
        assert service.graph.has_vertex(90)
        assert service.metrics().snapshot_rebuilds == rebuilds  # padded, not rebuilt
        assert service.query(90).entries[0].vertex == 90

    def test_external_window_snapshot_feeds_the_delta_chain(self):
        edges = rmat_graph(64, 500, rng=5)
        window = SlidingWindow(edges, batch_size=6)
        graph = DynamicDiGraph(map(tuple, window.initial_edges.tolist()))
        service = PPRService(graph, NUMPY_CONFIG)
        source = int(window.initial_edges[0, 0])
        service.query(source)
        for _ in range(3):
            slide = window.slide()
            service.ingest(
                list(slide.updates),
                snapshot=window.delta_snapshot(service.graph.capacity),
            )
            assert service.snapshot_version == service.graph_version
            service.query(source)
        # The externally-maintained view spares the service every rebuild
        # after the cold start.
        assert service.metrics().snapshot_rebuilds == 1


# ---------------------------------------------------------------------- #
# the hub tier on the same ingest
# ---------------------------------------------------------------------- #


class TestHubTier:
    SERVE = ServeConfig(num_hubs=3)

    def test_ingest_reconverges_every_hub(self):
        service = PPRService(_graph(), NUMPY_CONFIG, self.SERVE)
        traces = service.ingest(_scripted_batches(count=1)[0])
        assert set(traces) == set(service.hubs)  # one push per hub vector
        for state in service.hub_index.states:
            assert state.residual_linf() <= NUMPY_CONFIG.epsilon

    def test_resident_answers_independent_of_the_hub_tier(self):
        """Hub vectors share the residents' invariant repair and snapshot;
        that must not move a single bit of a resident's answer."""

        def run(serve):
            service = PPRService(_graph(), NUMPY_CONFIG, serve)
            service.query_many([0, 5])
            out = []
            for batch in _scripted_batches():
                service.ingest(batch)
                for s in (0, 5):
                    out.append(
                        [(e.vertex, e.estimate) for e in service.query(s).entries]
                    )
            return out

        assert run(self.SERVE) == run(ServeConfig())


# ---------------------------------------------------------------------- #
# tracker delta lineage
# ---------------------------------------------------------------------- #


def test_tracker_delta_lineage_matches_rebuilt_views_bitwise():
    def run(rebuilt: bool):
        tracker = DynamicPPRTracker(_graph(), 0, NUMPY_CONFIG)
        for batch in _scripted_batches():
            snapshot = rebuilt_view_after(tracker.graph, batch) if rebuilt else None
            tracker.apply_batch(batch, snapshot=snapshot)
        return tracker.state

    a = run(rebuilt=True)
    b = run(rebuilt=False)
    assert np.array_equal(a.p, b.p)
    assert np.array_equal(a.r, b.r)


def test_tracker_keeps_overlay_view():
    tracker = DynamicPPRTracker(_graph(), 0, NUMPY_CONFIG)
    tracker.apply_batch(_scripted_batches(count=1)[0])
    assert isinstance(tracker._csr, DeltaCSRGraph)
    assert tracker._csr.overlay_rows > 0
