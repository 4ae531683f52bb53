"""Profiling-metric dataclasses (the paper's Table 4 metrics).

Wall-time measurements feeding these reports must read :func:`now` —
re-exported from :mod:`repro.obs.clock`, the single monotonic source
shared by tracer spans and the latency histograms — so profiling
numbers are directly comparable to bench and serve timings.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs.clock import now

__all__ = ["CPUProfile", "GPUProfile", "ProfilingReport", "now"]


@dataclass(frozen=True)
class GPUProfile:
    """GPU metrics reported in Figure 9.

    Attributes
    ----------
    warp_occupancy:
        Achieved warp occupancy (WO): average active warps per cycle over
        the maximum, weighted by per-iteration work.
    global_load_efficiency:
        Requested / maximum global-memory load throughput (GLD); degrades
        as larger frontiers scatter accesses.
    """

    warp_occupancy: float
    global_load_efficiency: float


@dataclass(frozen=True)
class CPUProfile:
    """CPU metrics reported in Figure 9 (PAPI counters in the paper).

    Attributes
    ----------
    l2_miss_rate:
        L2 data-cache miss rate (L2DCM / accesses).
    l3_miss_rate:
        L3 cache miss rate (L3CM / accesses).
    stall_ratio:
        Fraction of cycles stalled on resources (STL).
    """

    l2_miss_rate: float
    l3_miss_rate: float
    stall_ratio: float


@dataclass(frozen=True)
class ProfilingReport:
    """Combined per-run profile (either side may be absent)."""

    gpu: GPUProfile | None = None
    cpu: CPUProfile | None = None
