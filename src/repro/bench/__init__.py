"""Benchmark harness: sliding-window workloads, approach runners, figures.

CLI entry points: ``python -m repro figure <fig4..fig10>`` regenerates one
evaluation figure, ``python -m repro ablation <name>`` runs one ablation,
and ``python -m repro serve-bench <dataset>`` runs the serving-layer
benchmark (:mod:`repro.bench.serving`); see :mod:`repro.cli` and
``docs/architecture.md`` for the figure-to-module mapping.
"""

from ..graph.workloads import PreparedWorkload, WorkloadSpec, prepare_workload
from .figures import (
    FigureResult,
    fig4_optimizations,
    fig5_throughput,
    fig6_epsilon,
    fig7_source_degree,
    fig8_batch_size,
    fig9_resources,
    fig10_scalability,
)
from .harness import Approach, ApproachResult, run_approach
from .load import LoadBenchResult, load_benchmark
from .serving import ServingBenchResult, serving_benchmark, topk_matches

__all__ = [
    "Approach",
    "ApproachResult",
    "FigureResult",
    "LoadBenchResult",
    "PreparedWorkload",
    "ServingBenchResult",
    "WorkloadSpec",
    "fig10_scalability",
    "fig4_optimizations",
    "fig5_throughput",
    "fig6_epsilon",
    "fig7_source_degree",
    "fig8_batch_size",
    "fig9_resources",
    "load_benchmark",
    "prepare_workload",
    "run_approach",
    "serving_benchmark",
    "topk_matches",
]
