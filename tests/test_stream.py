"""Tests for edge streams and the sliding-window model."""

from __future__ import annotations

import numpy as np
import pytest

from repro import DynamicDiGraph, EdgeStream, SlidingWindow, StreamError
from repro.graph.stream import random_permutation_stream
from repro.graph.update import EdgeOp


def stream_edges(m=100):
    return np.column_stack(
        [np.arange(m, dtype=np.int64), np.arange(m, dtype=np.int64) + 1]
    )


class TestEdgeStream:
    def test_take_and_peek(self):
        s = EdgeStream(stream_edges())
        assert len(s) == 100
        first = s.peek(3)
        assert s.position == 0
        taken = s.take(3)
        assert np.array_equal(first, taken)
        assert s.position == 3
        assert s.remaining == 97

    def test_exhaustion(self):
        s = EdgeStream(stream_edges(5))
        s.take(5)
        with pytest.raises(StreamError):
            s.take(1)
        s.reset()
        assert s.remaining == 5

    def test_bad_shape(self):
        with pytest.raises(StreamError):
            EdgeStream(np.zeros((3, 3), dtype=np.int64))


class TestRandomPermutation:
    def test_permutation_preserves_multiset(self, rng):
        edges = stream_edges(50)
        shuffled = random_permutation_stream(edges, rng)
        assert sorted(map(tuple, shuffled.tolist())) == sorted(
            map(tuple, edges.tolist())
        )

    def test_deterministic_with_seed(self):
        edges = stream_edges(50)
        a = random_permutation_stream(edges, 3)
        b = random_permutation_stream(edges, 3)
        assert np.array_equal(a, b)


class TestSlidingWindow:
    def test_initialization_takes_first_10_percent(self):
        w = SlidingWindow(stream_edges(100), batch_size=2)
        assert w.window_size == 10
        assert np.array_equal(w.initial_edges, stream_edges(100)[:10])

    def test_slide_semantics(self):
        edges = stream_edges(100)
        w = SlidingWindow(edges, batch_size=3)
        slide = w.slide()
        assert slide.step == 1
        assert np.array_equal(slide.insert_edges, edges[10:13])
        assert np.array_equal(slide.delete_edges, edges[0:3])
        # updates = insertions then deletions
        assert [u.op for u in slide.updates] == [EdgeOp.INSERT] * 3 + [EdgeOp.DELETE] * 3

    def test_window_contents_invariant(self):
        """After any number of slides, a graph replaying the updates equals
        the graph of the current window edge array."""
        edges = stream_edges(200)
        w = SlidingWindow(edges, batch_size=7)
        g = DynamicDiGraph(map(tuple, w.initial_edges.tolist()))
        for slide in w.slides(10):
            g.apply_batch(slide.updates)
            lo = slide.step * w.batch_size
            window = edges[lo : lo + w.window_size]
            expected = DynamicDiGraph(map(tuple, window.tolist()))
            # Vertex ids persist after isolation, so compare edge multisets.
            assert sorted(g.edges()) == sorted(expected.edges())

    def test_window_size_constant(self):
        w = SlidingWindow(stream_edges(200), batch_size=5)
        for slide in w.slides(5):
            assert len(slide.insert_edges) == len(slide.delete_edges) == 5

    def test_undirected_expansion(self):
        w = SlidingWindow(stream_edges(100), batch_size=2, undirected=True)
        slide = w.slide()
        assert slide.num_updates == 8  # (2 ins + 2 del) x 2 directions
        assert slide.num_stream_edges == 2
        us = slide.updates
        assert us[0].reversed() == us[1]

    def test_exhaustion(self):
        w = SlidingWindow(stream_edges(20), batch_size=2)  # window = 2
        assert w.num_slides_available == 9
        assert len(list(w.slides(100))) == 9
        with pytest.raises(StreamError):
            w.slide()

    def test_batch_for_fraction(self):
        assert SlidingWindow.batch_for_fraction(1000, 0.01) == 10
        assert SlidingWindow.batch_for_fraction(10, 0.0001) == 1
        with pytest.raises(StreamError):
            SlidingWindow.batch_for_fraction(100, 0.0)

    def test_validation(self):
        with pytest.raises(StreamError):
            SlidingWindow(stream_edges(100), batch_size=0)
        with pytest.raises(StreamError):
            SlidingWindow(stream_edges(100), batch_size=50)  # > window
        with pytest.raises(StreamError):
            SlidingWindow(stream_edges(100), batch_size=1, window_fraction=0.0)
