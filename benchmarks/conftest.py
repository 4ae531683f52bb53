"""Shared benchmark fixtures and helpers.

``bench_figures.py`` and ``bench_ablations.py`` each do two things:

1. regenerate every figure's / ablation's data table (printed to stdout and
   written to ``benchmarks/results/<name>.txt``) — the reproduction
   artifact, from the registries in :mod:`repro.bench.figures` and
   :mod:`repro.bench.ablations`;
2. time a representative Python kernel with pytest-benchmark so
   ``--benchmark-only`` also reports real wall-clock numbers.

``bench_load.py`` is the one serving suite here (open-loop overload, until
``perf/`` gains that workload); every other serving number comes from
``perf/run.py``.

The kernels are re-runnable: they copy a pre-restored state and run one
push to convergence per round.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench.figures import FigureResult
from repro.graph.workloads import WorkloadSpec, default_config, prepare_workload
from repro.config import Backend, PPRConfig, PushVariant
from repro.core.invariant import restore_invariant
from repro.core.tracker import DynamicPPRTracker
from repro.graph.csr import CSRGraph

RESULTS_DIR = Path(__file__).parent / "results"


def emit(result: FigureResult, filename: str) -> None:
    """Print a figure table and persist it under benchmarks/results/."""
    table = result.table()
    print("\n" + table + "\n")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / filename).write_text(table + "\n")


class PushKernel:
    """A re-runnable 'one slide' push workload for pytest-benchmark.

    Prepares a converged tracker state, applies one slide's restore-
    invariant, snapshots everything; ``run()`` then replays the push from
    a copy of that state. This isolates exactly the component the paper
    parallelizes.
    """

    def __init__(
        self,
        dataset: str = "youtube",
        *,
        variant: PushVariant = PushVariant.OPT,
        workers: int = 40,
        epsilon: float = 1e-5,
        batch_fraction: float = 0.01,
    ) -> None:
        prepared = prepare_workload(
            WorkloadSpec(dataset=dataset, batch_fraction=batch_fraction)
        )
        config = default_config(epsilon=epsilon).with_(
            backend=Backend.NUMPY, variant=variant, workers=workers
        )
        graph = prepared.initial_graph()
        tracker = DynamicPPRTracker(graph, prepared.source, config)
        window = prepared.new_window()
        slide = window.slide()
        touched = []
        for update in slide.updates:
            graph.apply(update)
            restore_invariant(tracker.state, graph, update, config.alpha)
            touched.append(update.u)
        self.config = config
        self.graph = graph
        self.csr = CSRGraph.from_digraph(graph)
        self.base_state = tracker.state
        self.seeds = touched

    def run(self):
        from repro.core.push_parallel import parallel_local_push

        state = self.base_state.copy()
        return parallel_local_push(
            state, self.graph, self.config, seeds=self.seeds, csr=self.csr
        )


@pytest.fixture(scope="session")
def youtube_kernel() -> PushKernel:
    return PushKernel("youtube")
