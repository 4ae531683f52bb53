"""Figures 4-10 — the paper's evaluation, reduced.

``test_figure_table`` regenerates each figure's table from the one
registry (:data:`repro.bench.figures.FIGURES`, reduced arguments) and
writes it to ``benchmarks/results/figN.txt``; the remaining cases time,
with pytest-benchmark, the real Python work behind each figure's axis.

Run with ``PYTHONPATH=src python -m pytest --import-mode=importlib
benchmarks/bench_figures.py -q`` (``-k fig6`` for one table).
"""

from __future__ import annotations

import pytest

from repro.bench.figures import FIGURES, run_figure
from repro.bench.harness import Approach, run_approach
from repro.config import PushVariant
from repro.graph.workloads import WorkloadSpec, default_config, prepare_workload
from repro.parallel.cost_model import CPUCostModel, GPUCostModel
from repro.parallel.simulator import profile_cpu, profile_gpu

from .conftest import PushKernel, emit


@pytest.mark.parametrize("name", FIGURES)
def test_figure_table(name):
    result = run_figure(name)
    assert result.rows
    emit(result, f"{name}.txt")


@pytest.mark.parametrize("variant", list(PushVariant), ids=lambda v: v.value)
def test_push_variant_kernel(benchmark, variant):
    """Figure 4: the push kernel under Opt / Eager / DupDetect / Vanilla."""
    kernel = PushKernel("youtube", variant=variant)
    stats = benchmark(kernel.run)
    assert stats.pushes > 0
    benchmark.extra_info["pushes"] = stats.pushes
    benchmark.extra_info["iterations"] = stats.num_iterations
    benchmark.extra_info["dedup_checks"] = stats.dedup_checks


@pytest.mark.parametrize(
    "approach", [Approach.CPU_SEQ, Approach.CPU_MT, Approach.GPU], ids=lambda a: a.value
)
def test_slide_processing(benchmark, approach):
    """Figure 5: consuming one batch end to end (restore + snapshot + push)."""
    prepared = prepare_workload(WorkloadSpec(dataset="youtube"))

    def one_slide():
        return run_approach(prepared, approach, default_config(), num_slides=1)

    result = benchmark(one_slide)
    benchmark.extra_info["simulated_throughput"] = result.throughput


@pytest.mark.parametrize("epsilon", [1e-4, 1e-5, 1e-6], ids=lambda e: f"eps={e:g}")
def test_push_kernel_epsilon(benchmark, epsilon):
    """Figure 6: real push work scales with epsilon as the simulated latency does."""
    kernel = PushKernel("youtube", epsilon=epsilon)
    stats = benchmark(kernel.run)
    benchmark.extra_info["total_operations"] = stats.total_operations


@pytest.mark.parametrize("top_k", [10, 1_000_000], ids=["top-10", "top-1M"])
def test_source_tier_slide(benchmark, top_k):
    """Figure 7: one slide for the two extreme source-degree tiers."""
    prepared = prepare_workload(WorkloadSpec(dataset="youtube", source_top_k=top_k))

    def one_slide():
        return run_approach(prepared, Approach.CPU_MT, default_config(), num_slides=1)

    result = benchmark(one_slide)
    benchmark.extra_info["source"] = prepared.source
    benchmark.extra_info["simulated_latency"] = result.mean_latency


@pytest.mark.parametrize("fraction", [0.01, 0.001], ids=["1%", "0.1%"])
def test_push_kernel_batch(benchmark, fraction):
    """Figure 8: the push kernel at 1% and 0.1% batches."""
    kernel = PushKernel("youtube", batch_fraction=fraction)
    stats = benchmark(kernel.run)
    benchmark.extra_info["pushes"] = stats.pushes


def test_profiling_overhead(benchmark, youtube_kernel):
    """Figure 9: the profilers themselves must be cheap relative to a push."""
    stats = youtube_kernel.run()

    def profile():
        return profile_gpu(stats, GPUCostModel()), profile_cpu(stats, CPUCostModel())

    gpu_prof, cpu_prof = benchmark(profile)
    assert 0 <= gpu_prof.warp_occupancy <= 1
    assert 0 <= cpu_prof.stall_ratio <= 1


@pytest.mark.parametrize("workers", [1, 8, 40], ids=lambda w: f"{w}-cores")
def test_push_kernel_worker_chunking(benchmark, workers):
    """Figure 10: real kernel cost across scheduling widths (eager chunk width)."""
    kernel = PushKernel("youtube", workers=workers)
    stats = benchmark(kernel.run)
    benchmark.extra_info["pushes"] = stats.pushes
