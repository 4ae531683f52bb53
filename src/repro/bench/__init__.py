"""Paper reproduction: sliding-window workloads, approach runners, figures.

CLI entry points: ``python -m repro figure <fig4..fig10>`` regenerates one
evaluation figure and ``python -m repro ablation <name>`` runs one
ablation; see :mod:`repro.cli` and ``docs/architecture.md`` for the
figure-to-module mapping. :mod:`repro.bench.load` (``repro load-bench``)
is the one serving suite left here: the open-loop overload sweep no
``perf/`` workload drives yet (``docs/load.md``).
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

__all__ = [
    "Approach",
    "ApproachResult",
    "FigureResult",
    "LoadBenchResult",
    "PreparedWorkload",
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
]
