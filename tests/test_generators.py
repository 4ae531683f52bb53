"""Tests for the synthetic graph generators."""

from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import ConfigError
from repro.graph import generators
from repro.graph.datasets import DATASETS, dataset_edges, get_spec
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    path_graph,
    preferential_attachment_graph,
    rmat_graph,
    star_graph,
)

from tests.rmat_reference import reference_rmat_graph


class TestRmat:
    def test_shape_and_bounds(self, rng):
        edges = rmat_graph(100, 500, rng=rng)
        assert edges.shape == (500, 2)
        assert edges.min() >= 0 and edges.max() < 100

    def test_deterministic_with_seed(self):
        a = rmat_graph(64, 300, rng=7)
        b = rmat_graph(64, 300, rng=7)
        assert np.array_equal(a, b)

    def test_no_self_loops_or_duplicates(self, rng):
        edges = rmat_graph(64, 300, rng=rng)
        assert (edges[:, 0] != edges[:, 1]).all()
        assert len({tuple(e) for e in edges.tolist()}) == len(edges)

    def test_degree_skew(self, rng):
        # R-MAT with default parameters is strongly skewed: the max
        # out-degree should far exceed the average.
        edges = rmat_graph(1024, 8192, rng=rng)
        dout = np.bincount(edges[:, 0], minlength=1024)
        assert dout.max() >= 4 * dout.mean()

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            rmat_graph(1, 10)
        with pytest.raises(ConfigError):
            rmat_graph(10, 0)
        with pytest.raises(ConfigError):
            rmat_graph(10, 10, a=0.8, b=0.3, c=0.3)


#: sha256 of ``dataset_edges(name).tobytes()``, computed with the
#: row-wise generator (tests/rmat_reference.py) before the column-wise one
#: replaced it: the analogs every benchmark and served answer rest on.
ANALOG_SHA256 = {
    "pokec": "25e5c96a5f291ea0076d874a0d5b69268f4d45cc75bdda1609bd7ef34e1e60e0",
    "livejournal": "dd6cbe5b1cb3dc21a7191f8d13fe901de5c578f4c4c433326d35491e2be46215",
    "youtube": "196d5374fb5137f3f3857ab0ef8bfadf810643ae12fdc636cfd1c101ac60a9e4",
    "orkut": "6480929340089bc60c8e2edb1153809d9f9de732616fec48d7cc07cacd9ff95b",
    "twitter": "50781d3b677c868cc8d4524500a63f82687f71d4e7c0de6ac655264501cbaadc",
}


def _same_as_reference(n: int, m: int, a: float, b: float, c: float, seed: int) -> None:
    """The column-wise generator returns the oracle's bytes, or both refuse."""
    try:
        expected = reference_rmat_graph(n, m, a=a, b=b, c=c, rng=seed)
    except ConfigError:
        with pytest.raises(ConfigError):
            rmat_graph(n, m, a=a, b=b, c=c, rng=seed)
        return
    got = rmat_graph(n, m, a=a, b=b, c=c, rng=seed)
    assert got.dtype == np.int64 and got.flags.c_contiguous
    assert np.array_equal(got, expected)


class TestRmatOracle:
    """Bit-identity with the row-wise generator it replaced."""

    # 2 and 3 (one and two levels, folding), a non-power-of-two and a
    # power of two; edge counts up to past what the vertex count can hold.
    @pytest.mark.parametrize("n", [2, 3, 100, 256])
    @given(
        m=st.integers(1, 700),
        a=st.floats(0.05, 0.7),
        b=st.floats(0.1, 0.3),
        c=st.floats(0.1, 0.3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_reference(self, n, m, a, b, c, seed):
        _same_as_reference(n, min(m, 2 * n * n), a, b, c, seed)

    def test_dense_graph_tops_up_repeatedly(self, monkeypatch):
        rounds = []
        first_distinct = generators._first_distinct

        def counting(*args):
            rounds.append(1)
            return first_distinct(*args)

        monkeypatch.setattr(generators, "_first_distinct", counting)
        _same_as_reference(16, 230, 0.57, 0.19, 0.19, 11)  # 230 of 240 pairs
        assert len(rounds) > 2

    def test_too_dense_refused_alike(self):
        _same_as_reference(3, 7, 0.57, 0.19, 0.19, 1)  # 6 pairs exist

    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_analog_bytes_pinned(self, name):
        digest = hashlib.sha256(dataset_edges(name).tobytes()).hexdigest()
        assert digest == ANALOG_SHA256[name]

    def test_peak_memory_per_requested_edge(self):
        # A full-length (m, 2) int64 temporary per step, as the row-wise
        # generator kept, costs ~118 bytes per requested edge; the columns
        # stay near 40.
        spec = get_spec("pokec")
        tracemalloc.start()
        try:
            rmat_graph(spec.num_vertices, spec.num_edges, rng=spec.seed)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / spec.num_edges <= 64


class TestPreferentialAttachment:
    def test_fixed_out_degree(self, rng):
        edges = preferential_attachment_graph(200, 3, rng=rng)
        dout = np.bincount(edges[:, 0], minlength=200)
        assert (dout[3:] <= 3).all()
        assert dout[0] == 0  # the seed vertex has no out-edges

    def test_edges_point_backwards(self, rng):
        edges = preferential_attachment_graph(50, 2, rng=rng)
        assert (edges[:, 0] > edges[:, 1]).all()

    def test_in_degree_skew(self, rng):
        edges = preferential_attachment_graph(500, 3, rng=rng)
        din = np.bincount(edges[:, 1], minlength=500)
        assert din.max() >= 5 * din.mean()


class TestErdosRenyi:
    def test_exact_edge_count_distinct(self, rng):
        edges = erdos_renyi_graph(30, 200, rng=rng)
        assert edges.shape == (200, 2)
        assert len({tuple(e) for e in edges.tolist()}) == 200
        assert (edges[:, 0] != edges[:, 1]).all()

    def test_max_edges(self):
        edges = erdos_renyi_graph(5, 20, rng=1)
        assert len(edges) == 20
        with pytest.raises(ConfigError):
            erdos_renyi_graph(5, 21)


class TestUtilityGraphs:
    def test_star(self):
        inward = star_graph(3, inward=True)
        assert sorted(map(tuple, inward.tolist())) == [(1, 0), (2, 0), (3, 0)]
        outward = star_graph(3, inward=False)
        assert sorted(map(tuple, outward.tolist())) == [(0, 1), (0, 2), (0, 3)]

    def test_path(self):
        assert path_graph(3).tolist() == [[0, 1], [1, 2]]

    def test_cycle(self):
        assert cycle_graph(3).tolist() == [[0, 1], [1, 2], [2, 0]]

    def test_complete(self):
        edges = complete_graph(4)
        assert len(edges) == 12
        assert (edges[:, 0] != edges[:, 1]).all()

    def test_validation(self):
        for fn in (path_graph, cycle_graph, complete_graph):
            with pytest.raises(ConfigError):
                fn(1)
        with pytest.raises(ConfigError):
            star_graph(0)
