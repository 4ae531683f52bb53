"""Unit tests for the dynamic directed multigraph."""

from __future__ import annotations

import numpy as np
import pytest

from repro import DynamicDiGraph, EdgeError, EdgeOp, EdgeUpdate, VertexError
from repro.graph.update import deletions, insertions


class TestVertices:
    def test_add_vertex_idempotent(self):
        g = DynamicDiGraph()
        g.add_vertex(3)
        g.add_vertex(3)
        assert g.num_vertices == 1
        assert g.has_vertex(3)
        assert not g.has_vertex(2)

    def test_negative_vertex_rejected(self):
        g = DynamicDiGraph()
        with pytest.raises(VertexError):
            g.add_vertex(-1)

    def test_capacity_tracks_max_id(self):
        g = DynamicDiGraph()
        assert g.capacity == 0
        g.add_edge(2, 7)
        assert g.max_vertex_id == 7
        assert g.capacity == 8

    def test_vertices_survive_isolation(self):
        # The paper's model discards zero-degree vertices; we keep ids
        # stable for the state arrays (documented deviation).
        g = DynamicDiGraph([(0, 1)])
        g.remove_edge(0, 1)
        assert g.has_vertex(0) and g.has_vertex(1)
        assert g.out_degree(0) == 0


class TestEdges:
    def test_add_remove_roundtrip(self):
        g = DynamicDiGraph()
        g.add_edge(0, 1)
        assert g.has_edge(0, 1)
        assert g.num_edges == 1
        g.remove_edge(0, 1)
        assert not g.has_edge(0, 1)
        assert g.num_edges == 0

    def test_multiplicity(self):
        g = DynamicDiGraph()
        g.add_edge(0, 1)
        g.add_edge(0, 1)
        g.add_edge(0, 1, count=3)
        assert g.multiplicity(0, 1) == 5
        assert g.out_degree(0) == 5
        assert g.in_degree(1) == 5
        g.remove_edge(0, 1, count=4)
        assert g.multiplicity(0, 1) == 1

    def test_remove_more_than_exists_raises(self):
        g = DynamicDiGraph([(0, 1)])
        with pytest.raises(EdgeError):
            g.remove_edge(0, 1, count=2)
        with pytest.raises(EdgeError):
            g.remove_edge(1, 0)

    def test_edges_iteration_expands_multiplicity(self):
        g = DynamicDiGraph()
        g.add_edge(0, 1, count=2)
        g.add_edge(1, 2)
        assert sorted(g.edges()) == [(0, 1), (0, 1), (1, 2)]
        assert sorted(g.unique_edges()) == [(0, 1, 2), (1, 2, 1)]

    def test_self_loop_allowed(self):
        # Nothing in the scheme forbids self loops; dout counts them.
        g = DynamicDiGraph([(0, 0)])
        assert g.out_degree(0) == 1
        assert g.in_degree(0) == 1


class TestDegrees:
    def test_degree_arrays(self):
        g = DynamicDiGraph([(0, 2), (1, 2), (2, 0)])
        assert g.out_degree_array().tolist() == [1, 1, 1]
        assert g.in_degree_array().tolist() == [1, 0, 2]
        assert g.out_degree_array(capacity=5).tolist() == [1, 1, 1, 0, 0]

    def test_average_degree(self):
        g = DynamicDiGraph([(0, 1), (1, 2), (2, 0), (0, 2)])
        assert g.average_degree == pytest.approx(4 / 3)
        assert DynamicDiGraph().average_degree == 0.0

    def test_neighbor_iteration(self):
        g = DynamicDiGraph([(0, 1), (2, 1), (2, 1)])
        assert dict(g.in_neighbors(1)) == {0: 1, 2: 2}
        assert dict(g.out_neighbors(2)) == {1: 2}
        assert dict(g.in_neighbors(99)) == {}


class TestUpdates:
    def test_apply_insert_delete(self):
        g = DynamicDiGraph()
        g.apply(EdgeUpdate(0, 1, EdgeOp.INSERT))
        assert g.has_edge(0, 1)
        g.apply(EdgeUpdate(0, 1, EdgeOp.DELETE))
        assert not g.has_edge(0, 1)

    def test_apply_batch(self):
        g = DynamicDiGraph()
        dout_after = g.apply_batch(insertions([(0, 1), (1, 2)]) + deletions([(0, 1)]))
        assert dout_after.tolist() == [1, 1, 0]
        assert g.num_edges == 1

    def test_batch_respects_order(self):
        g = DynamicDiGraph()
        # Deleting before inserting must fail: order matters.
        with pytest.raises(EdgeError):
            g.apply_batch(deletions([(0, 1)]) + insertions([(0, 1)]))
        assert g.num_vertices == 0 and g.num_edges == 0


class TestConstructionAndCopy:
    def test_from_undirected(self):
        g = DynamicDiGraph.from_undirected_edges([(0, 1), (1, 2)])
        assert g.num_edges == 4
        assert g.has_edge(0, 1) and g.has_edge(1, 0)

    def test_copy_is_deep(self):
        g = DynamicDiGraph([(0, 1)])
        h = g.copy()
        h.add_edge(1, 2)
        assert not g.has_edge(1, 2)
        assert g != h
        assert g == DynamicDiGraph([(0, 1)])

    def test_edge_array_roundtrip(self):
        g = DynamicDiGraph([(0, 1), (0, 1), (2, 0)])
        arr = g.edge_array()
        assert arr.shape == (3, 2)
        h = DynamicDiGraph(map(tuple, arr.tolist()))
        assert g == h

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(DynamicDiGraph())

    def test_consistency_checker(self, rng):
        g = DynamicDiGraph()
        for _ in range(200):
            u, v = int(rng.integers(0, 12)), int(rng.integers(0, 12))
            if g.has_edge(u, v) and rng.random() < 0.4:
                g.remove_edge(u, v)
            else:
                g.add_edge(u, v)
        g.check_consistency()

    def test_repr(self):
        assert "n=2" in repr(DynamicDiGraph([(0, 1)]))
