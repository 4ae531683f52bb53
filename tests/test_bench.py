"""Tests for the benchmark harness (workloads, runners, figure drivers).

These use the smallest dataset analog (youtube) with one slide so the
whole file stays fast while still exercising every code path the real
benchmarks use.
"""

from __future__ import annotations

import pytest

from repro import ConfigError
from repro.bench.figures import (
    fig9_resources,
    fig10_scalability,
)
from repro.bench.harness import Approach, run_approach, speedup_table
from repro.graph.workloads import (
    WorkloadSpec,
    default_config,
    prepare_workload,
)
from repro.config import PushVariant


class TestWorkloadSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            WorkloadSpec(dataset="nope")
        with pytest.raises(ConfigError):
            WorkloadSpec(batch_fraction=0.0)
        with pytest.raises(ConfigError):
            WorkloadSpec(source_top_k=0)

    def test_preparation_cached_and_deterministic(self):
        a = prepare_workload(WorkloadSpec(dataset="youtube"))
        b = prepare_workload(WorkloadSpec(dataset="youtube"))
        assert a is b
        assert a.window_size > 0
        assert a.batch_size == max(1, round(a.window_size * 0.01))
        assert a.undirected  # youtube is undirected

    def test_source_is_high_degree(self):
        prepared = prepare_workload(WorkloadSpec(dataset="youtube", source_top_k=10))
        g = prepared.initial_graph()
        degrees = sorted(
            (g.out_degree(v) for v in g.vertices()), reverse=True
        )
        assert g.out_degree(prepared.source) >= degrees[9]

    def test_fresh_replays_identical(self):
        prepared = prepare_workload(WorkloadSpec(dataset="youtube"))
        w1, w2 = prepared.new_window(), prepared.new_window()
        s1, s2 = w1.slide(), w2.slide()
        assert s1.updates == s2.updates

    def test_updates_per_slide_counts_directions(self):
        prepared = prepare_workload(WorkloadSpec(dataset="youtube"))
        assert prepared.updates_per_slide == 4 * prepared.batch_size  # undirected


class TestRunApproach:
    @pytest.fixture(scope="class")
    def prepared(self):
        return prepare_workload(WorkloadSpec(dataset="youtube"))

    def test_all_approaches_run(self, prepared):
        config = default_config()
        results = {}
        for approach in Approach:
            res = run_approach(prepared, approach, config, num_slides=1)
            assert len(res.slide_latencies) == 1
            assert res.stream_edges_consumed == prepared.batch_size
            assert res.throughput > 0
            results[approach] = res
        # Figure 5's headline ordering at a glance.
        assert results[Approach.CPU_MT].throughput > results[Approach.CPU_SEQ].throughput
        assert results[Approach.CPU_SEQ].throughput >= results[Approach.CPU_BASE].throughput
        table = speedup_table(results, Approach.CPU_SEQ)
        assert table[Approach.CPU_SEQ] == pytest.approx(1.0)
        assert table[Approach.CPU_MT] > 1.0

    def test_variant_affects_trace(self, prepared):
        config = default_config()
        opt = run_approach(
            prepared, Approach.CPU_MT, config, num_slides=1, variant=PushVariant.OPT
        )
        vanilla = run_approach(
            prepared, Approach.CPU_MT, config, num_slides=1, variant=PushVariant.VANILLA
        )
        assert vanilla.push_stats.dedup_checks > 0
        assert opt.push_stats.dedup_checks == 0
        assert vanilla.mean_latency > opt.mean_latency

    def test_num_slides_validation(self, prepared):
        with pytest.raises(ConfigError):
            run_approach(prepared, Approach.CPU_SEQ, default_config(), num_slides=0)


class TestFigureDrivers:
    def test_fig9_trends(self):
        result = fig9_resources(fractions=(0.001, 0.01), num_slides=1)
        assert len(result.rows) == 2
        batches = result.column("batch")
        assert batches[0] < batches[1]  # sorted ascending
        wo = result.column("WO")
        l2 = result.column("L2DCM")
        stl = result.column("STL")
        assert wo[1] > wo[0]
        assert l2[1] > l2[0]
        assert stl[1] > stl[0]
        assert "Figure 9" in result.table()

    def test_fig10_scaling_monotone(self):
        result = fig10_scalability(core_counts=(1, 8, 40), num_slides=1)
        throughput = result.column("throughput")
        assert throughput[0] < throughput[1] < throughput[2]
        scaling = result.column("scaling")
        assert scaling[0] == pytest.approx(1.0)
        # Sub-linear at the top end (Amdahl, per the cost model).
        assert scaling[2] < 40.0
