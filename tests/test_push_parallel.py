"""Unit tests for the parallel push engines (Algorithms 3-4, all variants)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    Backend,
    ConvergenceError,
    DynamicDiGraph,
    PPRConfig,
    PPRState,
    PushVariant,
    check_invariant,
    ground_truth_ppr,
    max_estimate_error,
    parallel_local_push,
)
from repro.config import Phase
from repro.graph.generators import erdos_renyi_graph, rmat_graph
from tests.conftest import all_variant_configs


def make_random(rng, n=30, m=140):
    edges = erdos_renyi_graph(n, m, rng=rng)
    return DynamicDiGraph(map(tuple, edges.tolist()))


class TestCorrectnessAllVariants:
    @pytest.mark.parametrize(
        "config", all_variant_configs(), ids=lambda c: f"{c.variant.value}-{c.backend.value}"
    )
    def test_epsilon_guarantee(self, config, rng):
        g = make_random(rng)
        state = PPRState.initial(0, g.capacity)
        parallel_local_push(state, g, config, seeds=[0])
        assert state.residual_linf() <= config.epsilon
        truth = ground_truth_ppr(g, 0, config.alpha)
        assert max_estimate_error(state.p, truth) <= config.epsilon

    @pytest.mark.parametrize(
        "config", all_variant_configs(), ids=lambda c: f"{c.variant.value}-{c.backend.value}"
    )
    def test_invariant_preserved(self, config, rng):
        g = make_random(rng)
        state = PPRState.initial(0, g.capacity)
        parallel_local_push(state, g, config, seeds=[0])
        assert check_invariant(state, g, config.alpha)

    @pytest.mark.parametrize("variant", list(PushVariant))
    def test_heavy_tailed_graph(self, variant, rng):
        edges = rmat_graph(64, 400, rng=rng)
        g = DynamicDiGraph(map(tuple, edges.tolist()))
        source = int(edges[0, 0])
        config = PPRConfig(
            alpha=0.15, epsilon=1e-4, variant=variant, backend=Backend.PURE, workers=8
        )
        state = PPRState.initial(source, g.capacity)
        parallel_local_push(state, g, config, seeds=[source])
        truth = ground_truth_ppr(g, source, 0.15)
        assert max_estimate_error(state.p, truth) <= 1e-4


class TestFrontierSemantics:
    def test_dupdetect_never_duplicates(self, rng, monkeypatch):
        # Instrument: frontiers must be duplicate-free in every iteration
        # — local duplicate detection's whole guarantee (Section 4.2).
        from repro.core import push_parallel

        seen_frontiers = []
        original = push_parallel._snapshot_iteration

        def spy(state, graph, phase, config, frontier, rec):
            seen_frontiers.append(list(frontier))
            return original(state, graph, phase, config, frontier, rec)

        monkeypatch.setattr(push_parallel, "_snapshot_iteration", spy)
        g = make_random(rng)
        config = PPRConfig(
            alpha=0.15, epsilon=1e-5, variant=PushVariant.DUPDETECT, backend=Backend.PURE
        )
        state = PPRState.initial(0, g.capacity)
        parallel_local_push(state, g, config, seeds=[0])
        assert seen_frontiers, "spy never called"
        for frontier in seen_frontiers:
            assert len(frontier) == len(set(frontier))

    def test_opt_never_duplicates(self, rng, monkeypatch):
        from repro.core import push_parallel

        seen_frontiers = []
        original = push_parallel._eager_iteration

        def spy(state, graph, phase, config, frontier, rec):
            seen_frontiers.append(list(frontier))
            return original(state, graph, phase, config, frontier, rec)

        monkeypatch.setattr(push_parallel, "_eager_iteration", spy)
        g = make_random(rng)
        config = PPRConfig(
            alpha=0.15, epsilon=1e-5, variant=PushVariant.OPT, backend=Backend.PURE, workers=3
        )
        state = PPRState.initial(0, g.capacity)
        parallel_local_push(state, g, config, seeds=[0])
        for frontier in seen_frontiers:
            assert len(frontier) == len(set(frontier))

    def test_frontiers_sorted(self, rng):
        g = make_random(rng)
        config = PPRConfig(alpha=0.15, epsilon=1e-4, variant=PushVariant.VANILLA)
        state = PPRState.initial(0, g.capacity)
        stats = parallel_local_push(state, g, config, seeds=[0])
        # The contract is asserted indirectly: deterministic reruns match.
        state2 = PPRState.initial(0, g.capacity)
        stats2 = parallel_local_push(state2, g, config, seeds=[0])
        assert state.allclose(state2)
        assert stats.pushes == stats2.pushes

    def test_seed_deduplication(self, paper_graph, paper_config):
        state = PPRState.initial(1, paper_graph.capacity)
        stats = parallel_local_push(
            state, paper_graph, paper_config, seeds=[1, 1, 1, 1]
        )
        assert stats.iterations[0].frontier_size == 1


class TestOperationAccounting:
    def test_dedup_checks_only_for_global_queue(self, rng):
        g = make_random(rng)
        results = {}
        for variant in PushVariant:
            config = PPRConfig(
                alpha=0.15, epsilon=1e-5, variant=variant, backend=Backend.PURE
            )
            state = PPRState.initial(0, g.capacity)
            results[variant] = parallel_local_push(state, g, config, seeds=[0])
        assert results[PushVariant.VANILLA].dedup_checks > 0
        assert results[PushVariant.EAGER].dedup_checks > 0
        assert results[PushVariant.DUPDETECT].dedup_checks == 0
        assert results[PushVariant.OPT].dedup_checks == 0

    def test_atomic_adds_equal_edge_traversals(self, rng):
        g = make_random(rng)
        config = PPRConfig(alpha=0.15, epsilon=1e-5)
        state = PPRState.initial(0, g.capacity)
        stats = parallel_local_push(state, g, config, seeds=[0])
        assert stats.atomic_adds == stats.edge_traversals

    def test_vanilla_and_dupdetect_do_identical_work(self, rng):
        # Local duplicate detection changes synchronization, not the
        # push schedule: identical iterations, pushes and final state.
        g = make_random(rng)
        outcomes = []
        for variant in (PushVariant.VANILLA, PushVariant.DUPDETECT):
            config = PPRConfig(alpha=0.15, epsilon=1e-5, variant=variant)
            state = PPRState.initial(0, g.capacity)
            stats = parallel_local_push(state, g, config, seeds=[0])
            outcomes.append((state, stats))
        (s1, st1), (s2, st2) = outcomes
        assert s1.allclose(s2)
        assert st1.pushes == st2.pushes
        assert st1.num_iterations == st2.num_iterations
        assert [r.frontier_size for r in st1.iterations] == [
            r.frontier_size for r in st2.iterations
        ]


class TestEagerPropagation:
    def test_more_workers_never_fewer_ops_on_average(self, rng):
        # Aggregate trend across graphs: eager with fewer workers
        # (fresher reads) performs at most as many pushes.
        totals = {1: 0, 1000: 0}
        for trial in range(10):
            g = make_random(np.random.default_rng(trial))
            for workers in totals:
                config = PPRConfig(
                    alpha=0.15,
                    epsilon=1e-4,
                    variant=PushVariant.OPT,
                    workers=workers,
                )
                state = PPRState.initial(0, g.capacity)
                stats = parallel_local_push(state, g, config, seeds=[0])
                totals[workers] += stats.pushes
        assert totals[1] <= totals[1000]

    def test_second_pass_enqueues_recorded(self, rng):
        g = make_random(rng, n=40, m=300)
        config = PPRConfig(
            alpha=0.15, epsilon=1e-6, variant=PushVariant.OPT, workers=4
        )
        state = PPRState.initial(0, g.capacity)
        stats = parallel_local_push(state, g, config, seeds=[0])
        assert sum(rec.second_pass_enqueued for rec in stats.iterations) > 0


class TestErrorPaths:
    def test_max_iterations_guard(self, paper_graph):
        config = PPRConfig(alpha=0.5, epsilon=1e-9, max_iterations=1)
        state = PPRState.initial(1, paper_graph.capacity)
        with pytest.raises(ConvergenceError):
            parallel_local_push(state, paper_graph, config, seeds=[1])


class TestPhaseHelpers:
    def test_phase_exceeds(self):
        assert Phase.POS.exceeds(0.2, 0.1)
        assert not Phase.POS.exceeds(-0.2, 0.1)
        assert Phase.NEG.exceeds(-0.2, 0.1)
        assert not Phase.NEG.exceeds(0.05, 0.1)
