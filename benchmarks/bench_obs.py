"""Observability — sampled tracing must be nearly free.

Regenerates the tracing-overhead table (identical resident-read bursts
replayed with the tracer disabled vs enabled at 1% sampling, arms
interleaved round by round, best round per arm) and benchmarks the
traced request path with pytest-benchmark. Asserts the acceptance bar
of :mod:`repro.obs`: < 3% overhead at 1% sampling on the cheapest
requests the system serves.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_obs.py -q``.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.api.client import Client
from repro.bench.cluster import available_cores
from repro.serve import workload_service
from repro.bench.obs import obs_benchmark
from repro.config import ObsConfig

from .conftest import RESULTS_DIR

#: The acceptance bar: sampled tracing costs < 3% on the fast path.
OVERHEAD_BAR_PCT = 3.0


@pytest.fixture(scope="module")
def obs_result():
    return obs_benchmark("youtube")


@pytest.fixture(scope="module", autouse=True)
def obs_table(obs_result):
    table = obs_result.table()
    print("\n" + table + "\n")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "obs.txt").write_text(table + "\n")


def test_sampled_tracing_overhead_under_bar(obs_result):
    """The acceptance bar: < 3% overhead at 1% sampling.

    Waived on starved single-core runners, where round-to-round
    scheduling noise swamps the microsecond-scale effect under test.
    """
    if available_cores() <= 1:
        pytest.skip("1-core runner: overhead measurement too noisy")
    assert obs_result.overhead_pct < OVERHEAD_BAR_PCT, (
        f"sampled tracing costs {obs_result.overhead_pct:+.2f}%"
        f" (bar {OVERHEAD_BAR_PCT:.0f}%):"
        f" {obs_result.disabled_qps:,.0f} reads/s disabled vs"
        f" {obs_result.sampled_qps:,.0f} reads/s sampled"
    )


def test_overhead_rounds_are_comparable(obs_result):
    """Both arms replayed the same burst shape the same number of times."""
    assert obs_result.rounds >= 3
    assert obs_result.queries_per_round >= 128
    assert obs_result.disabled_seconds > 0
    assert obs_result.sampled_seconds > 0


def test_fully_traced_request_path(benchmark):
    """Wall-clock of one fully-sampled traced top-k (worst case: 100%)."""
    service, _ = workload_service("youtube", cache_capacity=16)
    client = Client(service)
    source = int(service.graph.out_degree_array().argmax())
    client.top_k(source, 10)  # admit (cold push, untimed)
    obs.configure(ObsConfig(enabled=True, sample_rate=1.0))
    try:
        benchmark(client.top_k, source, 10)
        assert obs.snapshot()["tracing"]["traces_started"] > 0
    finally:
        obs.reset()
