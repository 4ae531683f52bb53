"""Simulated parallel hardware: cost models and profiling.

The paper runs on a 40-core Xeon (CilkPlus) and a GTX TITAN X (CUDA);
neither true shared-memory threading (GIL) nor a GPU is available to a
pure-Python reproduction. The push engines therefore emit exact operation
traces (:class:`repro.core.stats.PushStats`) and the cost models here map
those traces onto simulated hardware latency — preserving who-wins and the
trends, which are functions of the trace, not of the constants.
"""

from .cost_model import (
    CPUCostModel,
    GPUCostModel,
    LigraCostModel,
    MonteCarloCostModel,
)
from .metrics import ProfilingReport
from .simulator import profile_cpu, profile_gpu

__all__ = [
    "CPUCostModel",
    "GPUCostModel",
    "LigraCostModel",
    "MonteCarloCostModel",
    "ProfilingReport",
    "profile_cpu",
    "profile_gpu",
]
