"""Ablation benchmarks: the design choices the paper motivates in prose.

Regenerates the three ablation tables (A1 parallel loss, A2 batching,
A3 frontier generation) plus the accuracy-vs-cost study, and times the
two pushes the parallel-loss comparison is built from.
"""

from __future__ import annotations

import pytest

from repro.bench.ablations import ABLATIONS
from repro.bench.accuracy import accuracy_study
from repro.config import PushVariant

from .conftest import PushKernel, emit


@pytest.fixture(scope="module", autouse=True)
def ablation_tables():
    for name, study in ABLATIONS.items():
        emit(study(dataset="youtube"), f"ablation_{name}.txt")
    emit(
        accuracy_study(dataset="youtube", epsilons=(1e-4, 1e-5), walk_budgets=(6, 24)),
        "ablation_accuracy.txt",
    )


@pytest.mark.parametrize(
    "variant,workers",
    [(PushVariant.OPT, 1), (PushVariant.OPT, 40), (PushVariant.VANILLA, 40)],
    ids=["opt-seq-like", "opt-40", "vanilla-40"],
)
def test_parallel_loss_kernels(benchmark, variant, workers):
    kernel = PushKernel("youtube", variant=variant, workers=workers)
    stats = benchmark(kernel.run)
    benchmark.extra_info["pushes"] = stats.pushes
