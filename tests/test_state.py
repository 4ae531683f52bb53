"""Unit tests for PPRState."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import ConfigError, PPRState


class TestConstruction:
    def test_initial_state(self):
        state = PPRState.initial(2, capacity=5)
        assert state.r.tolist() == [0, 0, 1, 0, 0]
        assert state.p.tolist() == [0, 0, 0, 0, 0]

    def test_capacity_covers_source(self):
        state = PPRState(7)
        assert state.capacity >= 8

    def test_negative_source_rejected(self):
        with pytest.raises(ConfigError):
            PPRState(-1)


class TestCapacityGrowth:
    def test_grow_preserves_values(self):
        state = PPRState.initial(0, 4)
        state.p[3] = 0.5
        state.ensure_capacity(100)
        assert state.capacity >= 100
        assert state.p[3] == 0.5
        assert state.r[0] == 1.0
        assert state.p[99] == 0.0

    def test_never_shrinks(self):
        state = PPRState.initial(0, 64)
        state.ensure_capacity(2)
        assert state.capacity == 64

    def test_amortized_doubling(self):
        state = PPRState.initial(0, 16)
        state.ensure_capacity(17)
        assert state.capacity >= 32


class TestQueries:
    def test_out_of_range_reads_are_zero(self):
        state = PPRState.initial(0, 4)
        assert state.estimate(100) == 0.0
        assert state.residual(-5) == 0.0

    def test_norms(self):
        state = PPRState.initial(0, 4)
        state.r[1] = -0.5
        assert state.residual_linf() == 1.0
        assert state.residual_l1() == 1.5

    def test_active_vertices(self):
        state = PPRState.initial(0, 4)
        state.r[2] = -0.2
        assert state.active_vertices(0.1).tolist() == [0, 2]
        assert state.active_vertices(1.5).tolist() == []

    def test_top_k(self):
        state = PPRState.initial(0, 5)
        state.p[:] = [0.1, 0.5, 0.2, 0.0, 0.4]
        assert state.top_k(2) == [(1, 0.5), (4, 0.4)]
        assert len(state.top_k(100)) == 5
        with pytest.raises(ConfigError):
            state.top_k(0)

    @staticmethod
    def brute_force(p, k):
        ranked = sorted(range(len(p)), key=lambda v: (-p[v], v))[:k]
        return [(v, float(p[v])) for v in ranked]

    def test_top_k_breaks_ties_by_vertex_id(self):
        state = PPRState.initial(0, 8)
        state.p[:] = [0.2, 0.5, 0.2, 0.0, 0.5, 0.2, 0.0, 0.1]
        assert state.top_k(4) == [(1, 0.5), (4, 0.5), (0, 0.2), (2, 0.2)]
        assert state.top_k(5)[-1] == (5, 0.2)

    def test_top_k_pads_with_the_lowest_zero_ids(self):
        state = PPRState.initial(0, 40_000)
        state.p[[31_000, 7, 900]] = [0.25, 0.5, 0.25]
        assert state.top_k(6) == [
            (7, 0.5), (900, 0.25), (31_000, 0.25), (0, 0.0), (1, 0.0), (2, 0.0)
        ]

    def test_top_k_ranks_negative_estimates_below_zeros(self):
        # Deletions can leave small negative estimates behind.
        state = PPRState.initial(0, 6)
        state.p[:] = [-0.01, 0.3, 0.0, -0.2, 0.0, -0.01]
        assert state.top_k(3) == [(1, 0.3), (2, 0.0), (4, 0.0)]
        assert state.top_k(6) == self.brute_force(state.p, 6)
        assert state.top_k(99) == self.brute_force(state.p, 6)  # k >= len(p)
        state.p[:] = -1.0
        assert state.top_k(2) == [(0, -1.0), (1, -1.0)]

    @given(
        values=st.lists(
            st.sampled_from([0.0, 0.0, 0.0, -0.0, 0.25, 0.5, -0.125, 1e-9])
            | st.floats(-1.0, 1.0),
            min_size=1,
            max_size=300,
        ),
        k=st.integers(1, 40),
    )
    def test_top_k_equals_the_sorted_definition(self, values, k):
        state = PPRState(0, len(values))
        state.p[:] = values
        assert state.top_k(k) == self.brute_force(state.p, k)

    def test_top_k_on_a_serving_sized_sparse_vector(self):
        # The strided-sample bound is exercised both ways: enough positive
        # values to clear it, and so few that its zero ties fill the answer.
        rng = np.random.default_rng(7)
        for positives in (0, 3, 11, 12, 500, 20_000):
            state = PPRState(0, 41_600)
            ids = rng.choice(41_600, positives, replace=False)
            state.p[ids] = rng.integers(1, 50, positives) / 64.0  # many ties
            for k in (1, 11, 64):
                assert state.top_k(k) == self.brute_force(state.p, k)

    def test_estimate_sum(self):
        state = PPRState.initial(0, 3)
        state.p[:] = [0.25, 0.25, 0.5]
        assert state.estimate_sum() == pytest.approx(1.0)


class TestCopyCompare:
    def test_copy_independent(self):
        a = PPRState.initial(0, 4)
        b = a.copy()
        b.p[1] = 9.0
        assert a.p[1] == 0.0
        assert not a.allclose(b)

    def test_allclose_pads_capacity(self):
        a = PPRState.initial(0, 4)
        b = PPRState.initial(0, 32)
        assert a.allclose(b)

    def test_allclose_different_source(self):
        assert not PPRState.initial(0, 4).allclose(PPRState.initial(1, 4))

    def test_repr(self):
        assert "source=0" in repr(PPRState.initial(0, 4))
