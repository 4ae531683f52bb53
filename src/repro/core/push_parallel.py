"""Parallel local push — Algorithms 3 and 4, all four Table-3 variants.

This module is the *reference engine*: it executes the parallel algorithms
under an explicit deterministic schedule so that tests can reason about
exact outcomes. The semantics of "parallel" are:

* one *iteration* pushes every frontier vertex "at once" (the paper's
  ``ParallelPush`` / ``OptParallelPush``);
* atomic residual additions become plain additions — they commute, so any
  interleaving yields the same sums;
* **eager propagation** is the one schedule-*dependent* behaviour (a
  frontier vertex reads its residual "up to date", possibly including
  same-iteration propagation). We model hardware with ``config.workers``
  concurrent threads: the frontier is processed in chunks of that width;
  all reads within a chunk happen before the chunk propagates, and later
  chunks observe earlier chunks' additions. ``workers=1`` degenerates to
  the (most eager) sequential-like schedule, ``workers >= |frontier|`` to
  fully-stale snapshot reads.

Frontier ordering contract: each iteration's frontier is sorted by vertex
id. This pins the chunk composition, making the pure and numpy backends
bit-compatible up to float summation order.

Variant semantics (Table 3):

* ``VANILLA`` — Algorithm 3: self-update first (zeroing residuals), then
  neighbor propagation with globally-synchronized ``UniqueEnqueue``.
* ``DUPDETECT`` — Algorithm 3 session order, but frontier generation uses
  the atomicAdd before/after values (local duplicate detection): no
  synchronized membership checks.
* ``EAGER`` — Algorithm 4 session order (propagate first with up-to-date
  reads, self-update subtracts the consistent value) but frontier
  generation still uses the synchronized ``UniqueEnqueue``; current-
  frontier vertices are excluded during propagation and re-checked after
  self-update.
* ``OPT`` — Algorithm 4 exactly: eager propagation + local duplicate
  detection + the second frontier-generation pass (lines 22-23).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from .. import obs
from ..config import Backend, Phase, PPRConfig
from ..errors import ConvergenceError
from ..graph.csr import CSRGraph
from ..graph.delta import CSRView
from ..graph.digraph import DynamicDiGraph
from .state import PPRState
from .stats import IterationRecord, PushStats


def _prepare_seeds(
    state: PPRState,
    phase: Phase,
    epsilon: float,
    seeds: Iterable[int] | None,
) -> list[int]:
    """Sorted, unique seed vertices currently exceeding the threshold."""
    if seeds is None:
        candidates = [int(v) for v in state.active_vertices(epsilon)]
    else:
        candidates = sorted(set(int(v) for v in seeds))
    return [v for v in candidates if phase.exceeds(state.r[v], epsilon)]


def _chunks(frontier: Sequence[int], width: int) -> Iterable[Sequence[int]]:
    for start in range(0, len(frontier), width):
        yield frontier[start : start + width]


def _snapshot_iteration(
    state: PPRState,
    graph: DynamicDiGraph,
    phase: Phase,
    config: PPRConfig,
    frontier: Sequence[int],
    rec: IterationRecord,
) -> list[int]:
    """One ``ParallelPush`` iteration (Algorithm 3 session order)."""
    alpha = config.alpha
    epsilon = config.epsilon
    local_detect = config.variant.local_duplicate_detection
    r = state.r
    p = state.p

    # Session 1 — self-update: snapshot residuals, zero them (lines 13-16).
    weights = [float(r[u]) for u in frontier]
    for u, w in zip(frontier, weights):
        p[u] += alpha * w
        r[u] = 0.0
        rec.residual_pushed += abs(w)

    # Session 2 — neighbor propagation (lines 19-23).
    next_list: list[int] = []
    enqueued: set[int] = set()
    for u, w in zip(frontier, weights):
        factor = (1.0 - alpha) * w
        for v, mult in graph.in_neighbors(u):
            before = r[v]
            after = before + factor * mult / graph.out_degree(v)
            r[v] = after
            rec.edge_traversals += mult
            rec.atomic_adds += mult
            passes = phase.exceeds(after, epsilon)
            if local_detect:
                if passes:
                    rec.enqueue_attempts += 1
                    if not phase.exceeds(before, epsilon):
                        next_list.append(v)
            elif passes:
                rec.enqueue_attempts += 1
                rec.dedup_checks += 1
                if v not in enqueued:
                    enqueued.add(v)
                    next_list.append(v)
    rec.enqueued = len(next_list)
    return next_list


def _eager_iteration(
    state: PPRState,
    graph: DynamicDiGraph,
    phase: Phase,
    config: PPRConfig,
    frontier: Sequence[int],
    rec: IterationRecord,
) -> list[int]:
    """One ``OptParallelPush`` iteration (Algorithm 4 session order)."""
    alpha = config.alpha
    epsilon = config.epsilon
    local_detect = config.variant.local_duplicate_detection
    r = state.r
    p = state.p

    current = set(frontier)
    consistent: list[float] = []  # the per-vertex ``ru`` recorded in E
    next_list: list[int] = []
    enqueued: set[int] = set()

    # Session 1 — neighbor propagation with eager (up-to-date) reads.
    for chunk in _chunks(frontier, config.workers):
        chunk_reads = [float(r[u]) for u in chunk]  # simultaneous reads
        consistent.extend(chunk_reads)
        for u, ru in zip(chunk, chunk_reads):
            factor = (1.0 - alpha) * ru
            for v, mult in graph.in_neighbors(u):
                before = r[v]
                after = before + factor * mult / graph.out_degree(v)
                r[v] = after
                rec.edge_traversals += mult
                rec.atomic_adds += mult
                passes = phase.exceeds(after, epsilon)
                if local_detect:
                    if passes:
                        rec.enqueue_attempts += 1
                        if not phase.exceeds(before, epsilon):
                            next_list.append(v)
                elif passes:
                    rec.enqueue_attempts += 1
                    rec.dedup_checks += 1
                    # UniqueEnqueue must also skip current-frontier vertices:
                    # their residual is not yet consumed (subtracted below).
                    if v not in current and v not in enqueued:
                        enqueued.add(v)
                        next_list.append(v)

    # Session 2 — self-update with the consistent ``ru`` (lines 19-23).
    for u, ru in zip(frontier, consistent):
        p[u] += alpha * ru
        r[u] -= ru
        rec.residual_pushed += abs(ru)
        if phase.exceeds(r[u], epsilon):
            rec.second_pass_enqueued += 1
            next_list.append(u)
    rec.enqueued = len(next_list)
    return next_list


def _pure_phase(
    state: PPRState,
    graph: DynamicDiGraph,
    phase: Phase,
    config: PPRConfig,
    seeds: Iterable[int] | None,
    stats: PushStats,
) -> None:
    frontier = _prepare_seeds(state, phase, config.epsilon, seeds)
    iteration = _eager_iteration if config.variant.eager else _snapshot_iteration
    rounds = 0
    while frontier:
        rec = IterationRecord(phase=phase, frontier_size=len(frontier))
        next_frontier = iteration(state, graph, phase, config, frontier, rec)
        stats.record(rec)
        frontier = sorted(next_frontier)
        rounds += 1
        if rounds > config.max_iterations:
            raise ConvergenceError(rounds, state.residual_linf())


def parallel_local_push(
    state: PPRState,
    graph: DynamicDiGraph | None,
    config: PPRConfig,
    *,
    seeds: Iterable[int] | None = None,
    csr: CSRView | None = None,
) -> PushStats:
    """Run the parallel local push to convergence (``max |r| <= epsilon``).

    Dispatches on ``config.backend``: the pure reference engine works
    directly on the dynamic graph; the numpy engine requires (or
    builds) a snapshot of the *current* graph — either a
    frozen :class:`CSRGraph` or a delta overlay view
    (:class:`~repro.graph.delta.DeltaCSRGraph`); both satisfy the narrow
    degree/neighbors-array interface the engine consumes. Seeds restrict
    the initial frontier scan — pass the vertices touched by
    restore-invariant. ``graph`` may be ``None`` when ``csr`` is given:
    the push then reads the snapshot alone, never a graph a writer can
    mutate under it (a cold read pushing with the gateway lock released).
    """
    if graph is not None:
        state.ensure_capacity(graph.capacity)
    stats = PushStats()
    with obs.span(
        "push.run",
        backend=config.backend.value,
        variant=config.variant.value,
        source=state.source,
    ) as span:
        if config.backend is Backend.PURE:
            _pure_phase(state, graph, Phase.POS, config, seeds, stats)
            _pure_phase(state, graph, Phase.NEG, config, seeds, stats)
            span.set(iterations=stats.num_iterations)
            return stats
        # kernel_phase picks the compiled C kernel or the vectorized
        # numpy oracle per REPRO_KERNEL / config.kernel (bit-identical
        # either way; see repro.kernels).
        from ..kernels import kernel_phase

        if seeds is not None:  # once for both phases
            seeds = np.fromiter(seeds, dtype=np.int64)
        snapshot = csr
        if snapshot is None:
            # The snapshot must cover the source id even when the source
            # is an isolated vertex the graph has not seen yet.
            min_capacity = max(graph.capacity, state.source + 1)
            snapshot = CSRGraph.from_digraph(graph, min_capacity)
        state.ensure_capacity(snapshot.num_vertices)
        used = kernel_phase(state, snapshot, Phase.POS, config, seeds, stats)
        kernel_phase(state, snapshot, Phase.NEG, config, seeds, stats)
        span.set(iterations=stats.num_iterations, kernel=used)
        return stats
