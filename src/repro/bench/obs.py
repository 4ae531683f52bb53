"""Tracing-overhead benchmark: is the observability layer cheap enough?

The experiment behind ``python -m repro obs-bench`` and
``benchmarks/bench_obs.py``: replay the *same* deterministic burst of
resident top-k reads through one warmed service twice per round — once
with tracing disabled, once with tracing enabled at a production-like
sample rate — and compare the best round of each arm. Resident reads
are the cheapest requests the system serves, so per-request tracing
cost is at its *largest* relative to useful work here; the acceptance
bar (< 3% at 1% sampling) is conservative by construction.

The arms are interleaved round by round (disabled, sampled, disabled,
sampled, ...) so CPU-frequency drift and cache warmth hit both equally,
and each arm's time is its best (minimum) round — the standard
noise-floor estimator for micro-scale comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..api.client import Client
from ..api.requests import Consistency
from ..config import ObsConfig
from ..obs import clock
from ..serve import workload_service
from ..utils.rng import ensure_rng
from ..utils.tables import format_table
from .serving import _query_mix


@dataclass
class ObsBenchResult:
    """Outcome of one disabled-vs-sampled tracing race."""

    dataset: str
    num_sources: int
    rounds: int
    queries_per_round: int
    sample_rate: float
    #: Best (minimum) round wall time per arm, seconds.
    disabled_seconds: float
    sampled_seconds: float

    @property
    def overhead_pct(self) -> float:
        """Relative cost of sampled tracing over the disabled arm, in %."""
        if self.disabled_seconds <= 0:
            return 0.0
        return (self.sampled_seconds / self.disabled_seconds - 1.0) * 100.0

    @property
    def disabled_qps(self) -> float:
        return self.queries_per_round / max(self.disabled_seconds, 1e-12)

    @property
    def sampled_qps(self) -> float:
        return self.queries_per_round / max(self.sampled_seconds, 1e-12)

    def table(self) -> str:
        rows = [
            ["query mix", f"{self.num_sources} resident sources,"
                          f" {self.queries_per_round} reads/round"],
            ["rounds (interleaved)", f"{self.rounds} per arm, best-of"],
            ["tracing disabled", f"{self.disabled_qps:,.0f} reads/s"],
            [f"sampled at {self.sample_rate:.0%}",
             f"{self.sampled_qps:,.0f} reads/s"],
            ["overhead", f"{self.overhead_pct:+.2f}%"],
        ]
        return format_table(
            ["metric", "value"],
            rows,
            title=f"Tracing overhead — {self.dataset}",
        )


def obs_benchmark(
    dataset: str = "youtube",
    *,
    num_sources: int = 32,
    queries_per_round: int = 512,
    rounds: int = 5,
    sample_rate: float = 0.01,
    k: int = 10,
    epsilon: float = 1e-5,
    workers: int = 40,
    seed: int = 23,
) -> ObsBenchResult:
    """Measure sampled-tracing overhead on the resident-read fast path.

    Builds one deterministic dataset-analog service, admits ``num_sources``
    sources (untimed), then races identical heavy-tailed read bursts with
    the global tracer disabled vs enabled at ``sample_rate``. The tracer
    is reset to its disabled default before returning.
    """
    service, _ = workload_service(
        dataset, epsilon=epsilon, workers=workers, top_k=k
    )
    client = Client(service)
    rng = ensure_rng(seed)
    mix = _query_mix(service.graph.out_degree_array(), num_sources, rng)
    weights = np.arange(1, num_sources + 1, dtype=np.float64) ** -1.5
    weights /= weights.sum()
    # One frozen query sequence per round, replayed identically by both
    # arms — the comparison is tracing cost, never workload variance.
    bursts = [
        [int(s) for s in rng.choice(mix, size=queries_per_round, p=weights)]
        for _ in range(rounds)
    ]
    # Reads stay on the resident fast path: a huge staleness bound means
    # no refresh pushes, so per-request work is minimal and the relative
    # tracing cost is maximal.
    lax = Consistency.bounded(1_000_000)

    # Warm: admit every source once (cold pushes are identical either way).
    client.top_k_many([int(s) for s in mix], k, consistency=lax)

    sampled_config = ObsConfig(enabled=True, sample_rate=sample_rate)
    disabled_best = float("inf")
    sampled_best = float("inf")
    try:
        for burst in bursts:
            obs.reset()  # disabled arm
            start = clock.now()
            for source in burst:
                client.top_k(source, k, consistency=lax)
            disabled_best = min(disabled_best, clock.now() - start)

            obs.configure(sampled_config)
            start = clock.now()
            for source in burst:
                client.top_k(source, k, consistency=lax)
            sampled_best = min(sampled_best, clock.now() - start)
    finally:
        obs.reset()
    return ObsBenchResult(
        dataset=dataset,
        num_sources=num_sources,
        rounds=rounds,
        queries_per_round=queries_per_round,
        sample_rate=sample_rate,
        disabled_seconds=disabled_best,
        sampled_seconds=sampled_best,
    )
