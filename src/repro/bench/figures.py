"""Per-figure experiment drivers (Figures 4-10 of the evaluation).

Every function regenerates one figure's data as a :class:`FigureResult`
(headers + rows, printable as an aligned table). Parameters default to a
fast configuration; ``scripts/run_experiments.py`` runs the full one. The
*shape* of each result — orderings, trends, approximate ratios — is what
reproduction means here: the paper's multicore CPU and GPU are replaced by
cost models (:mod:`repro.parallel.cost_model`) over measured operation
counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..config import PushVariant
from ..graph.workloads import PreparedWorkload, WorkloadSpec, default_config, prepare_workload
from ..parallel.cost_model import CPUCostModel, GPUCostModel
from ..parallel.simulator import profile_cpu, profile_gpu
from ..utils.tables import format_table
from .harness import Approach, ApproachResult, run_approach

#: Datasets in the paper's presentation order.
ALL_DATASETS = ("youtube", "pokec", "livejournal", "orkut", "twitter")

#: Fast defaults: the two ends of the size range.
FAST_DATASETS = ("youtube", "pokec")


@dataclass
class FigureResult:
    """Tabular data for one reproduced figure."""

    figure: str
    title: str
    headers: Sequence[str]
    rows: list[Sequence[object]]

    def table(self) -> str:
        return format_table(self.headers, self.rows, title=f"{self.figure}: {self.title}")

    def column(self, name: str) -> list[object]:
        idx = list(self.headers).index(name)
        return [row[idx] for row in self.rows]


def _variant_result(
    prepared: PreparedWorkload,
    variant: PushVariant,
    approach: Approach,
    *,
    epsilon: float,
    num_slides: int,
    workers: int = 40,
) -> ApproachResult:
    return run_approach(
        prepared,
        approach,
        default_config(epsilon=epsilon),
        num_slides=num_slides,
        variant=variant,
        workers=workers,
    )


def fig4_optimizations(
    datasets: Sequence[str] = FAST_DATASETS,
    *,
    epsilon: float = 1e-5,
    num_slides: int = 3,
) -> FigureResult:
    """Figure 4: latency of Opt / Eager / DupDetect / Vanilla per dataset."""
    rows: list[Sequence[object]] = []
    order = (PushVariant.OPT, PushVariant.EAGER, PushVariant.DUPDETECT, PushVariant.VANILLA)
    for name in datasets:
        prepared = prepare_workload(WorkloadSpec(dataset=name))
        for device in (Approach.CPU_MT, Approach.GPU):
            latencies = {}
            for variant in order:
                res = _variant_result(
                    prepared, variant, device, epsilon=epsilon, num_slides=num_slides
                )
                latencies[variant] = res.mean_latency
            speedup = latencies[PushVariant.VANILLA] / latencies[PushVariant.OPT]
            rows.append(
                [
                    name,
                    device.value,
                    latencies[PushVariant.OPT],
                    latencies[PushVariant.EAGER],
                    latencies[PushVariant.DUPDETECT],
                    latencies[PushVariant.VANILLA],
                    speedup,
                ]
            )
    return FigureResult(
        figure="Figure 4",
        title="Effect of optimizations (mean slide latency, simulated s)",
        headers=["dataset", "device", "opt", "eager", "dupdetect", "vanilla", "vanilla/opt"],
        rows=rows,
    )


def fig5_throughput(
    datasets: Sequence[str] = FAST_DATASETS,
    *,
    epsilon: float = 1e-5,
    num_slides: int = 2,
    batch_fractions: Sequence[float] = (0.01, 0.001),
    include_slow_baselines: bool = True,
) -> FigureResult:
    """Figure 5: streaming throughput (edges/s) of every approach."""
    rows: list[Sequence[object]] = []
    approaches = [Approach.CPU_SEQ, Approach.CPU_MT, Approach.GPU, Approach.LIGRA]
    if include_slow_baselines:
        approaches = [Approach.CPU_BASE, *approaches, Approach.MONTE_CARLO]
    for name in datasets:
        for fraction in batch_fractions:
            prepared = prepare_workload(WorkloadSpec(dataset=name, batch_fraction=fraction))
            for approach in approaches:
                res = run_approach(
                    prepared,
                    approach,
                    default_config(epsilon=epsilon),
                    num_slides=num_slides,
                )
                rows.append(
                    [
                        name,
                        prepared.batch_size,
                        approach.value,
                        res.throughput,
                        res.mean_latency,
                    ]
                )
    return FigureResult(
        figure="Figure 5",
        title="Streaming throughput (stream edges / simulated s)",
        headers=["dataset", "batch", "approach", "throughput", "mean_latency"],
        rows=rows,
    )


def fig6_epsilon(
    dataset: str = "youtube",
    *,
    epsilons: Sequence[float] = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7),
    num_slides: int = 2,
) -> FigureResult:
    """Figure 6: effect of the error threshold epsilon on slide latency."""
    prepared = prepare_workload(WorkloadSpec(dataset=dataset))
    rows: list[Sequence[object]] = []
    for epsilon in epsilons:
        seq = run_approach(
            prepared, Approach.CPU_SEQ, default_config(epsilon=epsilon), num_slides=num_slides
        )
        mt = run_approach(
            prepared, Approach.CPU_MT, default_config(epsilon=epsilon), num_slides=num_slides
        )
        gpu = run_approach(
            prepared, Approach.GPU, default_config(epsilon=epsilon), num_slides=num_slides
        )
        rows.append(
            [
                dataset,
                epsilon,
                seq.mean_latency,
                mt.mean_latency,
                gpu.mean_latency,
                seq.mean_latency / mt.mean_latency,
                seq.mean_latency / gpu.mean_latency,
            ]
        )
    return FigureResult(
        figure="Figure 6",
        title="Effect of epsilon (mean slide latency, simulated s)",
        headers=["dataset", "epsilon", "cpu-seq", "cpu-mt", "gpu", "mt-speedup", "gpu-speedup"],
        rows=rows,
    )


def fig7_source_degree(
    dataset: str = "youtube",
    *,
    epsilon: float = 1e-5,
    num_slides: int = 2,
    tiers: Sequence[int] = (10, 1_000, 1_000_000),
) -> FigureResult:
    """Figure 7: effect of the source vertex degree tier (top-K selection)."""
    rows: list[Sequence[object]] = []
    for top_k in tiers:
        prepared = prepare_workload(WorkloadSpec(dataset=dataset, source_top_k=top_k))
        seq = run_approach(
            prepared, Approach.CPU_SEQ, default_config(epsilon=epsilon), num_slides=num_slides
        )
        mt = run_approach(
            prepared, Approach.CPU_MT, default_config(epsilon=epsilon), num_slides=num_slides
        )
        gpu = run_approach(
            prepared, Approach.GPU, default_config(epsilon=epsilon), num_slides=num_slides
        )
        rows.append(
            [
                dataset,
                f"top-{top_k}",
                prepared.source,
                seq.mean_latency,
                mt.mean_latency,
                gpu.mean_latency,
                seq.mean_latency / mt.mean_latency,
            ]
        )
    return FigureResult(
        figure="Figure 7",
        title="Effect of source degree tier (mean slide latency, simulated s)",
        headers=["dataset", "tier", "source", "cpu-seq", "cpu-mt", "gpu", "mt-speedup"],
        rows=rows,
    )


def fig8_batch_size(
    dataset: str = "youtube",
    *,
    epsilon: float = 1e-5,
    num_slides: int = 2,
    fractions: Sequence[float] = (0.01, 0.001, 0.0001),
) -> FigureResult:
    """Figure 8: effect of batch size (1% / 0.1% / 0.01% of the window)."""
    rows: list[Sequence[object]] = []
    for fraction in fractions:
        prepared = prepare_workload(WorkloadSpec(dataset=dataset, batch_fraction=fraction))
        seq = run_approach(
            prepared, Approach.CPU_SEQ, default_config(epsilon=epsilon), num_slides=num_slides
        )
        mt = run_approach(
            prepared, Approach.CPU_MT, default_config(epsilon=epsilon), num_slides=num_slides
        )
        gpu = run_approach(
            prepared, Approach.GPU, default_config(epsilon=epsilon), num_slides=num_slides
        )
        rows.append(
            [
                dataset,
                f"{fraction:.2%}",
                prepared.batch_size,
                seq.mean_latency,
                mt.mean_latency,
                gpu.mean_latency,
                seq.mean_latency / mt.mean_latency,
            ]
        )
    return FigureResult(
        figure="Figure 8",
        title="Effect of batch size (mean slide latency, simulated s)",
        headers=["dataset", "fraction", "batch", "cpu-seq", "cpu-mt", "gpu", "mt-speedup"],
        rows=rows,
    )


def fig9_resources(
    dataset: str = "youtube",
    *,
    epsilon: float = 1e-5,
    num_slides: int = 2,
    fractions: Sequence[float] = (0.01, 0.001, 0.0001),
) -> FigureResult:
    """Figure 9: simulated resource-consumption profile vs batch size."""
    rows: list[Sequence[object]] = []
    for fraction in sorted(fractions):
        prepared = prepare_workload(WorkloadSpec(dataset=dataset, batch_fraction=fraction))
        mt = run_approach(
            prepared, Approach.CPU_MT, default_config(epsilon=epsilon), num_slides=num_slides
        )
        gpu = run_approach(
            prepared, Approach.GPU, default_config(epsilon=epsilon), num_slides=num_slides
        )
        gpu_prof = profile_gpu(gpu.push_stats, GPUCostModel())
        cpu_prof = profile_cpu(mt.push_stats, CPUCostModel())
        rows.append(
            [
                dataset,
                prepared.batch_size,
                gpu_prof.warp_occupancy,
                gpu_prof.global_load_efficiency,
                cpu_prof.l2_miss_rate,
                cpu_prof.l3_miss_rate,
                cpu_prof.stall_ratio,
            ]
        )
    return FigureResult(
        figure="Figure 9",
        title="Resource consumption vs batch size (simulated profile)",
        headers=["dataset", "batch", "WO", "GLD", "L2DCM", "L3CM", "STL"],
        rows=rows,
    )


def fig10_scalability(
    dataset: str = "youtube",
    *,
    epsilon: float = 1e-5,
    num_slides: int = 2,
    core_counts: Sequence[int] = (1, 2, 4, 8, 16, 32, 40),
) -> FigureResult:
    """Figure 10: CPU-MT throughput as the core count grows.

    The operation trace is re-collected per core count (the scheduling
    chunk width changes eager behaviour slightly) and priced with the
    matching cost model.
    """
    prepared = prepare_workload(WorkloadSpec(dataset=dataset))
    rows: list[Sequence[object]] = []
    base_throughput: float | None = None
    for cores in core_counts:
        res = run_approach(
            prepared,
            Approach.CPU_MT,
            default_config(epsilon=epsilon),
            num_slides=num_slides,
            workers=cores,
        )
        if base_throughput is None:
            base_throughput = res.throughput
        rows.append(
            [
                dataset,
                cores,
                res.throughput,
                res.mean_latency,
                res.throughput / base_throughput,
            ]
        )
    return FigureResult(
        figure="Figure 10",
        title="Scalability on multi-cores (CPU-MT throughput)",
        headers=["dataset", "cores", "throughput", "mean_latency", "scaling"],
        rows=rows,
    )


#: The one registry of Figures 4-10: ``name -> (driver, reduced, full)``.
#: ``reduced`` is what ``repro figure`` and ``benchmarks/bench_figures.py``
#: run; ``full`` is the all-dataset run of ``scripts/run_experiments.py``.
#: Each sweep (epsilons, tiers, fractions, core counts) is its driver's
#: default unless a full run widens it here.
FIGURES: dict[str, tuple[Callable[..., FigureResult], dict[str, Any], dict[str, Any]]] = {
    "fig4": (fig4_optimizations, {"datasets": FAST_DATASETS}, {"datasets": ALL_DATASETS}),
    "fig5": (fig5_throughput, {"datasets": FAST_DATASETS}, {"datasets": ALL_DATASETS}),
    "fig6": (fig6_epsilon, {"dataset": "youtube"}, {"dataset": "pokec"}),
    "fig7": (fig7_source_degree, {"dataset": "youtube"}, {"dataset": "pokec"}),
    "fig8": (fig8_batch_size, {"dataset": "youtube"}, {"dataset": "pokec"}),
    "fig9": (fig9_resources, {"dataset": "youtube"}, {"dataset": "pokec"}),
    "fig10": (
        fig10_scalability,
        {"dataset": "youtube"},
        {"dataset": "pokec", "core_counts": (1, 2, 4, 8, 16, 20, 32, 40)},
    ),
}


def run_figure(
    name: str, *, dataset: str | None = None, num_slides: int = 2
) -> FigureResult:
    """Regenerate one registered figure with its reduced arguments.

    ``dataset`` narrows the run to that one dataset analog, whichever of
    ``datasets=`` / ``dataset=`` the figure's driver takes.
    """
    driver, reduced, _full = FIGURES[name]
    kwargs = dict(reduced)
    if dataset is not None:
        if "datasets" in kwargs:
            kwargs["datasets"] = (dataset,)
        else:
            kwargs["dataset"] = dataset
    return driver(num_slides=num_slides, **kwargs)

