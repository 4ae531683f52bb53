"""Runtime-selected push kernels: compiled C fast path, numpy oracle.

Every push engine that runs on CSR arrays (``Backend.NUMPY``) routes its
per-phase loop through :func:`kernel_phase`, and every batch
``RestoreInvariant`` (:func:`repro.core.invariant.restore_states`) asks
:func:`selected_library` for the same library; both pick between

* the **compiled** kernel — ``_push.c`` built on demand (:mod:`.build`)
  and driven through ctypes (:mod:`.compiled`); and
* the **numpy** kernel — :func:`repro.core.push_vectorized.vectorized_phase`,
  the always-available correctness oracle.

Selection comes from ``PPRConfig.kernel`` when set, else the
``REPRO_KERNEL`` environment variable (``compiled|numpy|auto``; default
``auto``). The two are bit-identical by contract — ``auto`` is safe to
leave on everywhere — and CI runs differential property tests
(``tests/test_kernel_properties.py``) to keep them that way.

Views the compiled kernel cannot address at all (e.g. the sharded tier's
distributed views, which fetch remote rows mid-push) fall back to numpy
per push even under ``REPRO_KERNEL=compiled``; *unavailability* of the
compiled kernel (no compiler, build failure) under ``compiled`` raises
:class:`~repro.errors.BackendError` instead.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable

from ..config import KernelConfig, KernelMode, Phase, PPRConfig
from ..core.push_vectorized import vectorized_phase
from ..core.state import PPRState
from ..core.stats import PushStats
from ..errors import BackendError
from ..graph.delta import CSRView
from .build import build_library
from .compiled import KernelLibrary, compiled_phase, compiled_restore

__all__ = [
    "compiled_restore",
    "counters",
    "describe",
    "kernel_phase",
    "load_library",
    "reset",
    "selected_backend",
    "selected_library",
]

#: (compiler, cache_dir) -> (KernelLibrary | None, reason). Process-wide:
#: the build is content-addressed, so one entry per toolchain is enough.
_LIBRARIES: dict[tuple[str | None, str | None], tuple[KernelLibrary | None, str]] = {}


_COUNTERS = {"kernel_calls": 0, "kernel_fallbacks": 0, "push_iterations": 0}
_COUNTERS_LOCK = threading.Lock()


def reset() -> None:
    """Forget cached load results (tests flip env vars between cases)."""
    _LIBRARIES.clear()


def load_library(
    kernel: KernelConfig | None = None,
) -> tuple[KernelLibrary | None, str]:
    """Build/load the compiled kernel once per process.

    Returns ``(library, reason)``; ``library`` is ``None`` when the host
    cannot provide one (the reason says why). Never raises.
    """
    kernel = kernel or KernelConfig()
    key = (kernel.compiler, kernel.cache_dir)
    cached = _LIBRARIES.get(key)
    if cached is not None:
        return cached
    path, reason = build_library(kernel.compiler, kernel.cache_dir)
    library: KernelLibrary | None = None
    if path is not None:
        try:
            library = KernelLibrary(path)
        except OSError as exc:
            library, reason = None, f"load failed: {exc}"
    _LIBRARIES[key] = (library, reason)
    return library, reason


def selected_library(
    kernel: KernelConfig | None = None,
) -> tuple[KernelLibrary | None, str]:
    """The library the selection allows: ``(library | None, reason)``.

    ``kernel`` is ``PPRConfig.kernel``; ``None`` defers to ``REPRO_KERNEL``.
    ``None`` for the library means "run the numpy oracle" — by
    configuration, or as the ``auto`` fallback. Raises
    :class:`BackendError` when the selection *forces* the compiled kernel
    and none is available.
    """
    kernel = kernel or KernelConfig.from_env()
    if kernel.mode is KernelMode.NUMPY:
        return None, "forced by configuration"
    library, reason = load_library(kernel)
    if library is not None:
        return library, reason
    if kernel.mode is KernelMode.COMPILED:
        raise BackendError(
            f"REPRO_KERNEL=compiled but the kernel is unavailable: {reason}"
        )
    return None, f"fallback: {reason}"


def selected_backend(config: PPRConfig | None = None) -> tuple[str, str]:
    """The kernel this process would run: ``("compiled"|"numpy", reason)``.

    Raises :class:`BackendError` when the selection *forces* the compiled
    kernel and none is available.
    """
    library, reason = selected_library(config.kernel if config else None)
    return ("compiled" if library is not None else "numpy"), reason


def describe(config: PPRConfig | None = None) -> dict[str, str]:
    """Selection summary for ``repro serve`` and the smoke scripts."""
    kernel = (config.kernel if config else None) or KernelConfig.from_env()
    try:
        backend, reason = selected_backend(config)
    except BackendError as exc:
        backend, reason = "unavailable", str(exc)
    return {"mode": kernel.mode.value, "backend": backend, "reason": reason}


def counters() -> dict[str, int]:
    """Process-wide dispatch totals, the kernel keys of ``/v1/stats``.

    ``kernel_calls`` counts C calls (one per non-empty compiled phase, so
    at most two per push), ``kernel_fallbacks`` phases numpy ran although
    a compiled kernel is selected (a seed id beyond the view's rows, a
    distributed view), ``push_iterations`` the iterations either kernel
    ran. Under ``REPRO_KERNEL=numpy`` the first two stay 0.
    """
    with _COUNTERS_LOCK:
        return dict(_COUNTERS)


def kernel_phase(
    state: PPRState,
    csr: CSRView,
    phase: Phase,
    config: PPRConfig,
    seeds: Iterable[int] | None,
    stats: PushStats,
) -> str:
    """Run one sign phase through the selected kernel; returns the one used."""
    library, _ = selected_library(config.kernel)
    ran = stats.num_iterations
    calls = None
    if library is not None and getattr(csr, "prefetch_rows", None) is None:
        arrays = getattr(csr, "kernel_arrays", None)
        if arrays is not None:
            calls = compiled_phase(
                library, state, arrays(), phase, config, seeds, stats
            )
    if calls is None:
        if library is not None:  # counted even when numpy then raises
            with _COUNTERS_LOCK:
                _COUNTERS["kernel_fallbacks"] += 1
        vectorized_phase(state, csr, phase, config, seeds, stats)
    with _COUNTERS_LOCK:
        _COUNTERS["kernel_calls"] += calls or 0
        _COUNTERS["push_iterations"] += stats.num_iterations - ran
    return "numpy" if calls is None else "compiled"
