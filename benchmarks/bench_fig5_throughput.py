"""Figure 5 — streaming throughput of every approach vs batch size.

Regenerates the throughput table (all six approaches) and benchmarks the
end-to-end slide processing of the parallel tracker (restore + snapshot +
push) — the real Python cost of consuming one batch.
"""

from __future__ import annotations

import pytest

from repro.bench.figures import fig5_throughput
from repro.bench.harness import Approach, run_approach
from repro.graph.workloads import WorkloadSpec, default_config, prepare_workload

from .conftest import emit


@pytest.fixture(scope="module", autouse=True)
def figure_table():
    emit(
        fig5_throughput(
            datasets=("youtube", "pokec"),
            num_slides=2,
            batch_fractions=(0.01, 0.001),
        ),
        "fig5.txt",
    )


@pytest.mark.parametrize(
    "approach", [Approach.CPU_SEQ, Approach.CPU_MT, Approach.GPU], ids=lambda a: a.value
)
def test_slide_processing(benchmark, approach):
    prepared = prepare_workload(WorkloadSpec(dataset="youtube"))

    def one_slide():
        return run_approach(prepared, approach, default_config(), num_slides=1)

    result = benchmark(one_slide)
    benchmark.extra_info["simulated_throughput"] = result.throughput
