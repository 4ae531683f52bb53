"""Serving layer — query throughput from maintained state vs recompute.

Regenerates the serving-benchmark table (a 64-source heavy-tailed query
mix over a sliding update stream, served by :class:`repro.serve.PPRService`)
and benchmarks the warm query path with pytest-benchmark. Asserts the
acceptance bar of the serving layer: >= 5x the throughput of per-query
from-scratch vectorized push at matched ε, with served top-k rankings
matching fresh :func:`repro.core.certify.certified_top_k` computations.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_serving.py -q``.
"""

from __future__ import annotations

import pytest

from repro.bench.serving import serving_benchmark
from repro.graph.workloads import WorkloadSpec, default_config, prepare_workload
from repro.config import Backend, ServeConfig
from repro.serve import PPRService

from .conftest import RESULTS_DIR


@pytest.fixture(scope="module")
def serving_result():
    return serving_benchmark("youtube")


@pytest.fixture(scope="module", autouse=True)
def serving_table(serving_result):
    table = serving_result.table()
    print("\n" + table + "\n")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "serving.txt").write_text(table + "\n")


def test_serving_speedup_over_recompute(serving_result):
    """The acceptance bar: serving from maintained state wins >= 5x."""
    assert serving_result.speedup >= 5.0, (
        f"served {serving_result.serve_qps:,.0f} q/s vs baseline"
        f" {serving_result.baseline_qps:,.0f} q/s"
        f" — only {serving_result.speedup:.1f}x"
    )


def test_serving_topk_matches_fresh_recompute(serving_result):
    assert serving_result.topk_matched


def test_warm_query_path(benchmark):
    """Wall-clock of the warm (resident, fresh-version) query path."""
    prepared = prepare_workload(WorkloadSpec(dataset="youtube"))
    config = default_config().with_(backend=Backend.NUMPY)
    service = PPRService(
        prepared.initial_graph(), config, ServeConfig(cache_capacity=8)
    )
    service.query(prepared.source)  # admit once; every timed call is a hit

    benchmark(service.query, prepared.source)
    assert service.metrics().hit_rate > 0.99
