"""Figure 7 — effect of the source vertex degree tier (top-10/1K/1M).

Regenerates the latency table per tier and benchmarks the push kernel for
the two extreme tiers.
"""

from __future__ import annotations

import pytest

from repro.bench.figures import fig7_source_degree
from repro.bench.harness import Approach, run_approach
from repro.graph.workloads import WorkloadSpec, default_config, prepare_workload

from .conftest import emit


@pytest.fixture(scope="module", autouse=True)
def figure_table():
    emit(
        fig7_source_degree(dataset="youtube", tiers=(10, 1_000, 1_000_000), num_slides=2),
        "fig7.txt",
    )


@pytest.mark.parametrize("top_k", [10, 1_000_000], ids=["top-10", "top-1M"])
def test_source_tier_slide(benchmark, top_k):
    prepared = prepare_workload(WorkloadSpec(dataset="youtube", source_top_k=top_k))

    def one_slide():
        return run_approach(prepared, Approach.CPU_MT, default_config(), num_slides=1)

    result = benchmark(one_slide)
    benchmark.extra_info["source"] = prepared.source
    benchmark.extra_info["simulated_latency"] = result.mean_latency
