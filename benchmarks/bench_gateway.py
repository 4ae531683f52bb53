"""Gateway — read-coalescing scheduler vs per-request dispatch.

Regenerates the gateway-benchmark table (one mixed read/write request
trace replayed against two identical engines, one scheduled through
:meth:`repro.api.Gateway.submit_many`, one dispatched per request) and
benchmarks the coalesced burst path with pytest-benchmark. Asserts the
acceptance bar of the gateway scheduler: read-coalescing >= 2x over
per-request dispatch, with every response pair bit-identical.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_gateway.py -q``.
"""

from __future__ import annotations

import pytest

from repro.api.requests import BatchQuery, Consistency, TopKQuery
from repro.bench.gateway import gateway_benchmark
from repro.serve import workload_service

from .conftest import RESULTS_DIR


@pytest.fixture(scope="module")
def gateway_result():
    return gateway_benchmark("youtube")


@pytest.fixture(scope="module", autouse=True)
def gateway_table(gateway_result):
    table = gateway_result.table()
    print("\n" + table + "\n")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "gateway.txt").write_text(table + "\n")


def test_coalescing_speedup_over_dispatch(gateway_result):
    """The acceptance bar: the coalescing scheduler wins >= 2x."""
    assert gateway_result.speedup >= 2.0, (
        f"coalesced {gateway_result.coalesced_qps:,.0f} reads/s vs dispatch"
        f" {gateway_result.dispatch_qps:,.0f} reads/s"
        f" — only {gateway_result.speedup:.1f}x"
    )


def test_answers_bit_identical_across_arms(gateway_result):
    assert gateway_result.matched


def test_coalesced_burst_path(benchmark):
    """Wall-clock of one coalesced heavy-tailed read burst (warm engine)."""
    service, prepared = workload_service("youtube", cache_capacity=16)
    gateway = service.gateway
    neighbors = [v for v, _ in service.graph.out_neighbors(prepared.source)][:4]
    sources = [prepared.source] * 12 + neighbors
    gateway.submit(BatchQuery(sources=tuple(dict.fromkeys(sources)), k=10))
    burst = [
        TopKQuery(source=int(s), k=10, consistency=Consistency.bounded(4))
        for s in sources
    ]

    benchmark(gateway.submit_many, burst)
    assert gateway.counters["reads_coalesced"] > 0
