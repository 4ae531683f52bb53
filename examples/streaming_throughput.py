"""Streaming throughput on a paper-dataset analog (a miniature Figure 5).

Replays sliding-window slides of the Youtube analog through the
sequential baseline (CPU-Seq) and the parallel local update (CPU-MT and
GPU cost models), reporting simulated edges/second for each — the
experiment behind the paper's headline speedups.

Run:  python examples/streaming_throughput.py
"""

from __future__ import annotations

from repro.bench import Approach, WorkloadSpec, prepare_workload, run_approach
from repro.graph.workloads import default_config
from repro.utils.tables import format_table


def main() -> None:
    spec = WorkloadSpec(dataset="youtube", batch_fraction=0.01)
    prepared = prepare_workload(spec)
    print(f"workload: {prepared.describe()}\n")

    rows = []
    for approach in (Approach.CPU_BASE, Approach.CPU_SEQ, Approach.LIGRA,
                     Approach.CPU_MT, Approach.GPU):
        result = run_approach(prepared, approach, default_config(), num_slides=3)
        rows.append(
            [
                approach.value,
                f"{result.throughput:,.0f}",
                f"{result.mean_latency * 1e3:.3f}",
                f"{result.wall_time:.2f}",
            ]
        )
    print(
        format_table(
            ["approach", "throughput (edges/s, simulated)", "latency (ms/slide)", "python wall (s)"],
            rows,
            title="Streaming throughput, youtube analog",
        )
    )
    print(
        "\nThe parallel local update sustains an order of magnitude more"
        "\nstream edges per second than the sequential baseline — the"
        "\npaper's Figure 5 in miniature."
    )


if __name__ == "__main__":
    main()
