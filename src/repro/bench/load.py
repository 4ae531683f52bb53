"""Load benchmark: the goodput knee curve with and without admission control.

The experiment behind ``python -m repro load-bench`` and
``benchmarks/bench_load.py``: measure the gateway's closed-loop
saturation rate, then replay open-loop traffic
(:mod:`repro.load.workload` — Zipf tenants, mixed consistency, diurnal
modulation, a hot-key storm) at fractions of that rate from 0.25x up to
2x through two arms:

* **admission** — the bounded queue from :mod:`repro.api.admission`,
  shedding ANY-consistency reads first and expiring requests whose
  deadline passes while queued;
* **unprotected** — an unbounded queue with no deadlines, the default
  failure mode: every request is accepted, the backlog grows without
  bound past saturation, and completions arrive too late to count.

The acceptance bar is the *shape* past the knee: with admission control,
goodput under SLO must plateau (>= 70% of its peak retained at 2x
saturation) while the unprotected arm collapses; and the shedding must
be priority-ordered — ANY reads pay first, FRESH/write traffic last.

Every dispatched request really executes on the engine (the harness
measures service times and simulates only the queueing, see
:mod:`repro.load.harness`), so the knee reflects actual serving cost,
not a synthetic service-time model.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any

from ..api.gateway import Gateway
from ..api.requests import BatchQuery, Stats
from ..config import ApiConfig
from ..load import LoadReport, LoadSpec, PhaseSpec, knee_sweep, measure_saturation
from ..serve import workload_service
from ..utils.tables import format_table

#: Knee-curve sample points as fractions of measured saturation.
DEFAULT_FRACTIONS = (0.25, 0.5, 1.0, 1.5, 2.0)


def available_cores() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


@dataclass
class LoadBenchResult:
    """Outcome of one admission-vs-unprotected knee sweep."""

    dataset: str
    cores: int
    num_sources: int
    slo_ms: float
    queue_capacity: int
    duration_s: float
    saturation_rps: float
    #: One report per fraction, ascending rate — bounded-queue arm.
    admission: list[LoadReport] = field(default_factory=list)
    #: Same rates, unbounded queue, no deadlines — the collapse arm.
    unprotected: list[LoadReport] = field(default_factory=list)
    #: The live gateway's own admission counters after the sweep.
    gateway_admission: dict[str, Any] = field(default_factory=dict)

    @property
    def peak_goodput(self) -> float:
        """Best goodput-under-SLO the admission arm reaches at any rate."""
        return max((r.goodput_rps for r in self.admission), default=0.0)

    def _at_top_rate(self, reports: list[LoadReport]) -> LoadReport | None:
        return max(reports, key=lambda r: r.arrival_rate, default=None)

    @property
    def goodput_at_2x(self) -> float:
        report = self._at_top_rate(self.admission)
        return report.goodput_rps if report is not None else 0.0

    @property
    def unprotected_at_2x(self) -> float:
        report = self._at_top_rate(self.unprotected)
        return report.goodput_rps if report is not None else 0.0

    @property
    def plateau_ratio(self) -> float:
        """Goodput retained at the top rate relative to the peak.

        The graceful-degradation bar: >= 0.7 means overload costs at most
        30% of peak goodput instead of collapsing toward zero.
        """
        peak = self.peak_goodput
        return self.goodput_at_2x / peak if peak else 0.0

    @property
    def any_shed_first(self) -> bool:
        """Priority order holds at the top rate: ANY pays, FRESH is spared.

        Checked as shed *rates* (shed / offered per class) so the ordering
        is meaningful even though ANY is also the largest traffic share.
        """
        report = self._at_top_rate(self.admission)
        if report is None or report.shed_total == 0:
            return False
        any_rate = report.shed_rate("any")
        bounded_rate = report.shed_rate("bounded")
        critical_rate = report.shed_rate("critical")
        return any_rate > 0 and any_rate >= bounded_rate >= critical_rate

    def to_dict(self) -> dict[str, Any]:
        return {
            "dataset": self.dataset,
            "cores": self.cores,
            "num_sources": self.num_sources,
            "slo_ms": self.slo_ms,
            "queue_capacity": self.queue_capacity,
            "duration_s": self.duration_s,
            "saturation_rps": self.saturation_rps,
            "peak_goodput": self.peak_goodput,
            "goodput_at_2x": self.goodput_at_2x,
            "unprotected_at_2x": self.unprotected_at_2x,
            "plateau_ratio": self.plateau_ratio,
            "any_shed_first": self.any_shed_first,
            "admission": [r.to_dict() for r in self.admission],
            "unprotected": [r.to_dict() for r in self.unprotected],
            "gateway_admission": dict(self.gateway_admission),
        }

    def table(self) -> str:
        """The knee curve: one row per rate, both arms side by side."""
        rows = []
        for with_q, without_q in zip(self.admission, self.unprotected):
            fraction = (
                with_q.arrival_rate / self.saturation_rps
                if self.saturation_rps
                else 0.0
            )
            rows.append(
                [
                    f"{fraction:.2f}x",
                    f"{with_q.arrival_rate:,.0f}",
                    f"{with_q.goodput_rps:,.0f}",
                    f"{with_q.p99_ms:,.1f}",
                    f"{with_q.shed_rate('any'):.0%}/"
                    f"{with_q.shed_rate('bounded'):.0%}/"
                    f"{with_q.shed_rate('critical'):.0%}",
                    f"{without_q.goodput_rps:,.0f}",
                    f"{without_q.p99_ms:,.1f}",
                ]
            )
        return format_table(
            [
                "load",
                "offered/s",
                "goodput/s",
                "p99 ms",
                "shed any/bnd/crit",
                "goodput/s (no admission)",
                "p99 ms (no admission)",
            ],
            rows,
            title=(
                f"Open-loop goodput knee — {self.dataset},"
                f" saturation {self.saturation_rps:,.0f}/s,"
                f" SLO {self.slo_ms:,.0f} ms, queue {self.queue_capacity}"
            ),
        )


def load_benchmark(
    dataset: str = "youtube",
    *,
    num_sources: int = 48,
    duration_s: float = 4.0,
    slo_ms: float = 100.0,
    queue_capacity: int = 8,
    fractions: tuple[float, ...] = DEFAULT_FRACTIONS,
    k: int = 10,
    epsilon: float = 1e-5,
    workers: int = 40,
    seed: int = 17,
) -> LoadBenchResult:
    """Sweep the knee curve against a real warmed gateway.

    The gateway runs with its own ``admission_queue`` gate enabled so the
    live counters surface in the result, but in this single-threaded
    harness the in-flight depth never exceeds one — the queueing physics
    are simulated in virtual time by :func:`repro.load.run_open_loop`
    while every dispatched request executes for real.
    """
    service, _ = workload_service(
        dataset,
        epsilon=epsilon,
        workers=workers,
        cache_capacity=num_sources,
        top_k=k,
    )
    gateway = Gateway(service, ApiConfig(admission_queue=queue_capacity))
    # Warm the cache (untimed) so saturation reflects steady-state serving.
    gateway.submit(BatchQuery(sources=tuple(range(num_sources)), k=k))

    spec = LoadSpec(
        arrival_rate=100.0,  # placeholder; the sweep rescales per fraction
        duration_s=duration_s,
        num_sources=num_sources,
        read_fraction=0.95,
        consistency_mix=(0.2, 0.3, 0.5),
        diurnal_amplitude=0.25,
        phases=(
            # A hot-key storm over the middle fifth of the run.
            PhaseSpec(
                start_s=duration_s * 0.4,
                end_s=duration_s * 0.6,
                rate_multiplier=1.5,
                hot_keys=(0, 1, 2),
                hot_fraction=0.5,
            ),
        ),
        k=k,
        timeout_ms=slo_ms,
        seed=seed,
    )
    # A long probe matters: refresh cost grows with the deltas the trace's
    # writes accumulate, so a short probe overestimates capacity.
    saturation = measure_saturation(gateway.submit, spec, probes=512)
    admission = knee_sweep(
        gateway.submit,
        spec,
        slo_ms=slo_ms,
        queue_capacity=queue_capacity,
        fractions=fractions,
        saturation=saturation,
    )
    # Collapse arm: unbounded queue, no deadlines — nothing is ever
    # refused, so past saturation the backlog (and latency) only grows.
    unprotected = knee_sweep(
        gateway.submit,
        spec.with_(timeout_ms=None),
        slo_ms=slo_ms,
        queue_capacity=None,
        fractions=fractions,
        saturation=saturation,
    )
    stats = gateway.submit(Stats()).stats
    return LoadBenchResult(
        dataset=dataset,
        cores=available_cores(),
        num_sources=num_sources,
        slo_ms=slo_ms,
        queue_capacity=queue_capacity,
        duration_s=duration_s,
        saturation_rps=saturation,
        admission=admission,
        unprotected=unprotected,
        gateway_admission=stats.get("admission", {}),
    )
