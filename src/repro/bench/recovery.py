"""Recovery benchmark: checkpoint+WAL restart vs from-scratch rebuild.

The experiment behind ``benchmarks/bench_recovery.py`` and the CLI's
``store-*`` commands: run the Fig-5 sliding-window workload through a
persisted :class:`~repro.serve.PPRService` (warm source mix, checkpoints
every ``checkpoint_interval`` batches), then measure two ways of coming
back from a process death at the same graph version:

* **recover** — :func:`repro.store.recovery.recover`: newest checkpoint
  + WAL-tail replay;
* **rebuild** — what a store-less service must do: reconstruct the
  initial graph, re-admit every warm source with from-scratch pushes,
  and re-ingest the *entire* update stream.

Both paths end bit-for-bit at the same answers (asserted); the benchmark
reports how much faster the store path gets there.
"""

from __future__ import annotations

from ..graph.workloads import WorkloadSpec, default_config, prepare_workload
from ..obs import clock
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..config import Backend, ServeConfig, StoreConfig
from ..errors import ConfigError
from ..serve import PPRService
from ..store.recovery import RecoveryResult, recover
from ..store.store import StateStore
from ..utils.tables import format_table


def warm_mix(graph, num_sources: int) -> list[int]:
    """A deterministic warm source mix: the top out-degree vertices."""
    dout = graph.out_degree_array()
    active = np.flatnonzero(dout > 0)
    if len(active) < num_sources:
        raise ConfigError(
            f"graph has only {len(active)} active vertices for {num_sources} sources"
        )
    order = active[np.argsort(dout[active], kind="stable")[::-1]]
    return [int(s) for s in order[:num_sources]]


def persisted_workload_run(
    dataset: str,
    root: Path | str,
    *,
    num_slides: int = 12,
    num_sources: int = 32,
    checkpoint_interval: int = 10,
    epsilon: float = 1e-5,
    workers: int = 40,
) -> tuple[PPRService, list[int]]:
    """Stream a sliding-window workload through a persisted service.

    Builds the service on the dataset's initial window, warms
    ``num_sources`` top-degree sources, attaches a
    :class:`~repro.store.StateStore` at ``root`` (baseline checkpoint, so
    the warm states are durable), and ingests ``num_slides`` slides.
    Returns the live service and the warm mix.
    """
    prepared = prepare_workload(WorkloadSpec(dataset=dataset))
    config = default_config(epsilon=epsilon).with_(
        backend=Backend.NUMPY, workers=workers
    )
    service = PPRService(
        prepared.initial_graph(),
        config,
        ServeConfig(cache_capacity=num_sources),
    )
    mix = warm_mix(service.graph, num_sources)
    service.query_many(mix)
    store = StateStore(
        root, StoreConfig(root=str(root), checkpoint_interval=checkpoint_interval)
    )
    service.attach_store(store)
    window = prepared.new_window()
    for slide in window.slides(num_slides):
        service.ingest(slide)
    return service, mix


def _rebuild_from_scratch(
    dataset: str,
    *,
    num_slides: int,
    num_sources: int,
    epsilon: float,
    workers: int,
) -> tuple[PPRService, list[int]]:
    """The store-less comparator: redo everything from the raw stream."""
    prepared = prepare_workload(WorkloadSpec(dataset=dataset))
    config = default_config(epsilon=epsilon).with_(
        backend=Backend.NUMPY, workers=workers
    )
    service = PPRService(
        prepared.initial_graph(),
        config,
        ServeConfig(cache_capacity=num_sources),
    )
    mix = warm_mix(service.graph, num_sources)
    service.query_many(mix)
    window = prepared.new_window()
    for slide in window.slides(num_slides):
        service.ingest(slide)
    return service, mix


@dataclass
class RecoveryBenchResult:
    """Outcome of one recovery-vs-rebuild comparison."""

    dataset: str
    num_slides: int
    num_sources: int
    checkpoint_interval: int
    recover_seconds: float
    rebuild_seconds: float
    replayed_batches: int
    topk_matched: bool
    recovery: RecoveryResult

    @property
    def speedup(self) -> float:
        """Rebuild wall time over recovery wall time."""
        return (
            self.rebuild_seconds / self.recover_seconds
            if self.recover_seconds
            else float("inf")
        )

    def table(self) -> str:
        rows = [
            [
                "workload",
                f"{self.num_slides} slides, {self.num_sources} warm sources,"
                f" checkpoint every {self.checkpoint_interval}",
            ],
            ["recovery", f"{self.recover_seconds * 1e3:,.1f} ms"
             f" ({self.replayed_batches} batches replayed)"],
            ["from-scratch rebuild", f"{self.rebuild_seconds * 1e3:,.1f} ms"],
            ["speedup", f"{self.speedup:,.1f}x"],
            [
                "top-k recovered vs rebuilt",
                "bit-exact match" if self.topk_matched else "MISMATCH",
            ],
        ]
        return format_table(
            ["metric", "value"],
            rows,
            title=f"Crash recovery vs rebuild — {self.dataset}",
        )


def recovery_benchmark(
    dataset: str,
    root: Path | str,
    *,
    num_slides: int = 12,
    num_sources: int = 32,
    checkpoint_interval: int = 10,
    epsilon: float = 1e-5,
    workers: int = 40,
    verify_sources: int = 5,
    k: int = 10,
) -> RecoveryBenchResult:
    """Persist a workload run, kill it, and race recovery against rebuild."""
    service, mix = persisted_workload_run(
        dataset,
        root,
        num_slides=num_slides,
        num_sources=num_sources,
        checkpoint_interval=checkpoint_interval,
        epsilon=epsilon,
        workers=workers,
    )
    version = service.graph_version
    service.detach_store().close()
    del service  # the crash

    start = clock.now()
    result = recover(root, attach=False)
    recover_seconds = clock.now() - start
    recovered = result.service
    assert recovered.graph_version == version

    start = clock.now()
    rebuilt, _ = _rebuild_from_scratch(
        dataset,
        num_slides=num_slides,
        num_sources=num_sources,
        epsilon=epsilon,
        workers=workers,
    )
    rebuild_seconds = clock.now() - start

    matched = all(
        recovered.query(s, k).entries == rebuilt.query(s, k).entries
        for s in mix[:verify_sources]
    )
    return RecoveryBenchResult(
        dataset=dataset,
        num_slides=num_slides,
        num_sources=num_sources,
        checkpoint_interval=checkpoint_interval,
        recover_seconds=recover_seconds,
        rebuild_seconds=rebuild_seconds,
        replayed_batches=result.replayed_batches,
        topk_matched=matched,
        recovery=result,
    )
