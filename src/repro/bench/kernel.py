"""Kernel benchmark: compiled push vs numpy oracle, shm bootstrap scaling.

The experiment behind ``python -m repro kernel-bench`` and
``benchmarks/bench_kernel.py``. Three claims, one per table section:

1. **push speedup** — the compiled forward-push kernel
   (:mod:`repro.kernels`) beats the vectorized numpy engine by >= 5x on
   a *single-threaded* one-slide push over the twitter analog. Single
   thread isolates the per-edge loop the C kernel replaces; the parallel
   tier multiplies whatever this bar measures.
2. **bootstrap flatness** — attaching a replica to a published
   shared-memory snapshot (:mod:`repro.graph.shm` +
   ``PPRService.from_shared_snapshot``) costs ~the same as the graph
   grows 4x in edges. Attach maps named segments and defers dict
   materialization; nothing it does on the bootstrap path is O(m).
3. **certified equivalence** — certified top-k answers are bit-identical
   between the compiled and numpy kernels at every consistency level
   (FRESH / BOUNDED / ANY), before and after ingest. This is the
   differential-oracle contract CI enforces; here it runs on the real
   serving stack rather than synthetic states.

When the host has no C compiler the speedup section reports the fallback
reason and the bar is waived — the equivalence and bootstrap sections
still run (numpy vs numpy equivalence is trivially true, but the
*machinery* — selection, fallback, shm attach — is still exercised).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..api.requests import ANY, FRESH, Consistency, IngestBatch, TopKQuery
from ..config import (
    Backend,
    KernelConfig,
    KernelMode,
    PPRConfig,
    ServeConfig,
)
from ..core.invariant import restore_invariant
from ..core.push_parallel import parallel_local_push
from ..core.tracker import DynamicPPRTracker
from ..graph import DynamicDiGraph, SharedArrayBundle, rmat_graph
from ..graph.csr import CSRGraph
from ..graph.workloads import WorkloadSpec, default_config, prepare_workload
from ..kernels import describe, load_library
from ..serve.service import PPRService
from ..utils.tables import format_table

#: The acceptance bar for the compiled kernel (single-thread, twitter).
SPEEDUP_BAR = 5.0

#: Edge-count multipliers for the bootstrap-scaling section.
GROWTH = (1, 2, 4)


@dataclass
class KernelBenchResult:
    """Outcome of one kernel-vs-oracle run."""

    dataset: str
    mode: str
    backend: str
    reason: str
    numpy_seconds: float
    compiled_seconds: float | None
    push_matched: bool
    #: One row per scale: (multiplier, num_edges, attach_s).
    bootstrap_rows: list[tuple[int, int, float]] = field(default_factory=list)
    certified_matched: bool = True
    certified_answers: int = 0

    @property
    def compiled_available(self) -> bool:
        return self.compiled_seconds is not None

    @property
    def speedup(self) -> float | None:
        if self.compiled_seconds is None or self.compiled_seconds == 0:
            return None
        return self.numpy_seconds / self.compiled_seconds

    @property
    def bootstrap_ratio(self) -> float:
        """attach(largest) / attach(smallest) — ~1.0 means flat."""
        if len(self.bootstrap_rows) < 2:
            return 1.0
        first, last = self.bootstrap_rows[0][2], self.bootstrap_rows[-1][2]
        return last / first if first else float("inf")

    def table(self) -> str:
        speed = f"{self.speedup:.1f}x" if self.speedup else "n/a"
        compiled = (
            f"{self.compiled_seconds * 1e3:.1f} ms"
            if self.compiled_seconds is not None
            else f"unavailable ({self.reason})"
        )
        rows: list[tuple[object, ...]] = [
            ("backend", f"{self.backend} (mode={self.mode})"),
            ("push numpy", f"{self.numpy_seconds * 1e3:.1f} ms"),
            ("push compiled", compiled),
            ("push speedup", speed),
            ("push bit-identical", str(self.push_matched)),
            (
                "certified top-k identical",
                f"{self.certified_matched} ({self.certified_answers} answers)",
            ),
        ]
        for mult, m, attach_s in self.bootstrap_rows:
            rows.append(
                (
                    f"bootstrap {mult}x ({m:,} edges)",
                    f"attach {attach_s * 1e3:.2f} ms",
                )
            )
        rows.append(("bootstrap growth (attach)", f"{self.bootstrap_ratio:.2f}x"))
        return format_table(
            ("metric", "value"),
            rows,
            title=f"kernel: compiled push + shm bootstrap ({self.dataset})",
        )


def _push_workload(
    dataset: str, *, epsilon: float, batch_fraction: float
) -> tuple[PPRConfig, CSRGraph, "np.ndarray", list[int], object]:
    """One converged slide's push inputs (graph, state, seeds), workers=1."""
    prepared = prepare_workload(
        WorkloadSpec(dataset=dataset, batch_fraction=batch_fraction)
    )
    config = default_config(epsilon=epsilon).with_(
        backend=Backend.NUMPY, workers=1
    )
    graph = prepared.initial_graph()
    tracker = DynamicPPRTracker(graph, prepared.source, config)
    window = prepared.new_window()
    slide = window.slide()
    touched = []
    for update in slide.updates:
        graph.apply(update)
        restore_invariant(tracker.state, graph, update, config.alpha)
        touched.append(update.u)
    return config, CSRGraph.from_digraph(graph), graph, touched, tracker.state


def _timed_push(config, csr, graph, seeds, base_state, *, rounds: int):
    best = float("inf")
    final = None
    for _ in range(rounds):
        state = base_state.copy()
        start = time.perf_counter()
        parallel_local_push(state, graph, config, seeds=seeds, csr=csr)
        best = min(best, time.perf_counter() - start)
        final = state
    return best, final


def push_benchmark(
    dataset: str = "twitter",
    *,
    epsilon: float = 1e-5,
    batch_fraction: float = 0.01,
    rounds: int = 3,
) -> tuple[float, float | None, bool]:
    """Single-thread one-slide push: (numpy_s, compiled_s | None, matched)."""
    config, csr, graph, seeds, base_state = _push_workload(
        dataset, epsilon=epsilon, batch_fraction=batch_fraction
    )
    numpy_cfg = config.with_(kernel=KernelConfig(mode=KernelMode.NUMPY))
    numpy_s, numpy_state = _timed_push(
        numpy_cfg, csr, graph, seeds, base_state, rounds=rounds
    )
    library, _ = load_library()
    if library is None:
        return numpy_s, None, True
    compiled_cfg = config.with_(kernel=KernelConfig(mode=KernelMode.COMPILED))
    compiled_s, compiled_state = _timed_push(
        compiled_cfg, csr, graph, seeds, base_state, rounds=rounds
    )
    matched = np.array_equal(numpy_state.p, compiled_state.p) and np.array_equal(
        numpy_state.r, compiled_state.r
    )
    return numpy_s, compiled_s, matched


def bootstrap_benchmark(
    *,
    base_edges: int = 60_000,
    growth: tuple[int, ...] = GROWTH,
    seed: int = 7,
    rounds: int = 5,
) -> list[tuple[int, int, float]]:
    """Replica bootstrap cost as the snapshot grows.

    For each multiplier, publishes one shared-memory snapshot of an RMAT
    graph with ``mult * base_edges`` edges and times (best of ``rounds``)
    ``PPRService.from_shared_snapshot`` — the zero-copy attach path.
    """
    out: list[tuple[int, int, float]] = []
    for mult in growth:
        edges = rmat_graph(4_000 * mult, base_edges * mult, rng=seed)
        primary = PPRService(DynamicDiGraph.from_edge_array(edges))
        arrays = dict(primary.graph.to_arrays())
        arrays.update(primary.shared_snapshot_arrays())
        bundle = SharedArrayBundle.create(
            arrays,
            tag="bench",
            meta={
                "num_edges": primary.graph.num_edges,
                "max_vertex": primary.graph.max_vertex_id,
            },
        )
        try:
            descriptor = bundle.descriptor
            attach_s = float("inf")
            for _ in range(rounds):
                start = time.perf_counter()
                PPRService.from_shared_snapshot(descriptor)
                attach_s = min(attach_s, time.perf_counter() - start)
            out.append((mult, primary.graph.num_edges, attach_s))
        finally:
            bundle.unlink()
            bundle.close()
    return out


def certified_benchmark(
    dataset: str = "youtube", *, num_sources: int = 8, k: int = 10
) -> tuple[bool, int]:
    """Certified top-k equivalence compiled-vs-numpy across consistency.

    Replays the same FRESH / BOUNDED / ANY + ingest trace against two
    services whose only difference is the kernel mode and compares every
    response field-by-field. Returns (all matched, answers compared).
    """
    prepared = prepare_workload(WorkloadSpec(dataset=dataset))
    base = default_config(epsilon=1e-5).with_(backend=Backend.NUMPY, workers=4)
    modes = (KernelMode.NUMPY, KernelMode.AUTO)
    services = [
        PPRService(
            prepared.initial_graph(),
            base.with_(kernel=KernelConfig(mode=mode)),
            ServeConfig(cache_capacity=32, top_k=k),
        )
        for mode in modes
    ]
    window = prepared.new_window()
    slide = window.slide()
    updates = tuple(slide.updates)
    graph = prepared.initial_graph()
    by_degree = sorted(
        graph.vertices(), key=lambda u: (-graph.out_degree(u), u)
    )
    sources = [prepared.source] + [
        u for u in by_degree if u != prepared.source
    ][: num_sources - 1]
    trace: list[object] = []
    for consistency in (FRESH, Consistency.bounded(1), ANY):
        trace.extend(
            TopKQuery(source=s, k=k, consistency=consistency) for s in sources
        )
    trace.append(IngestBatch(updates=updates))
    trace.extend(TopKQuery(source=s, k=k, consistency=FRESH) for s in sources)

    answers = 0
    matched = True
    left, right = (svc.gateway.submit_many(trace) for svc in services)
    for a, b in zip(left, right):
        if not hasattr(a, "entries"):
            matched &= a.ok == b.ok
            continue
        answers += 1
        matched &= (
            a.ok == b.ok
            and a.cold == b.cold
            and a.snapshot_version == b.snapshot_version
            and a.staleness == b.staleness
            and [(e.vertex, e.estimate) for e in a.entries]
            == [(e.vertex, e.estimate) for e in b.entries]
        )
    return matched, answers


def kernel_benchmark(
    dataset: str = "twitter", *, tiny: bool = False
) -> KernelBenchResult:
    """The full three-section run (``--tiny`` shrinks every input for CI)."""
    info = describe()
    if tiny:
        push_dataset, batch_fraction, rounds = "youtube", 0.01, 2
        base_edges, growth = 8_000, (1, 4)
        num_sources = 4
    else:
        push_dataset, batch_fraction, rounds = dataset, 0.01, 3
        base_edges, growth = 60_000, GROWTH
        num_sources = 8
    numpy_s, compiled_s, push_matched = push_benchmark(
        push_dataset, batch_fraction=batch_fraction, rounds=rounds
    )
    bootstrap_rows = bootstrap_benchmark(base_edges=base_edges, growth=growth)
    certified_matched, answers = certified_benchmark(
        "youtube", num_sources=num_sources
    )
    return KernelBenchResult(
        dataset=push_dataset,
        mode=info["mode"],
        backend=info["backend"],
        reason=info["reason"],
        numpy_seconds=numpy_s,
        compiled_seconds=compiled_s,
        push_matched=push_matched,
        bootstrap_rows=bootstrap_rows,
        certified_matched=certified_matched,
        certified_answers=answers,
    )
