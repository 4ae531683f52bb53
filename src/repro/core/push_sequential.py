"""Sequential local push (Algorithm 2) and the CPU-Base / CPU-Seq drivers.

``SeqPush(u)`` moves ``alpha`` of ``u``'s residual into its estimate and
spreads the remaining ``1 - alpha`` over ``u``'s *in*-neighbors ``v``
scaled by ``1/dout(v)``. The positive phase drains residuals above
``epsilon``; the negative phase drains those below ``-epsilon``.

The push order is FIFO over activation events — this matches the paper's
Figure 3 walk-through (``v1, v2, v3, v4``) and is the natural work-list
implementation; any order yields a valid converged state.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence

from ..config import Phase, PPRConfig
from ..errors import ConvergenceError
from ..graph.digraph import DynamicDiGraph
from ..graph.update import EdgeUpdate
from .invariant import restore_batch
from .state import PPRState
from .stats import BatchStats, RestoreStats, SequentialPushStats


def _candidate_seeds(
    state: PPRState,
    graph: DynamicDiGraph,
    seeds: Iterable[int] | None,
) -> list[int]:
    """Vertices that may be active: explicit seeds or a topology scan."""
    if seeds is None:
        return [int(v) for v in state.active_vertices(0.0) if graph.has_vertex(int(v))]
    unique: list[int] = []
    seen: set[int] = set()
    for v in seeds:
        if v not in seen:
            seen.add(v)
            unique.append(v)
    return unique


def _run_phase(
    state: PPRState,
    graph: DynamicDiGraph,
    phase: Phase,
    config: PPRConfig,
    seeds: Sequence[int],
    stats: SequentialPushStats,
) -> None:
    alpha = config.alpha
    epsilon = config.epsilon
    r = state.r
    p = state.p
    queue: deque[int] = deque(v for v in seeds if phase.exceeds(r[v], epsilon))
    queued = {v for v in queue}
    operations_budget = config.max_iterations
    while queue:
        u = queue.popleft()
        queued.discard(u)
        residual = r[u]
        if not phase.exceeds(residual, epsilon):
            continue  # drained below threshold since it was enqueued
        # SeqPush(u): lines 6-10 of Algorithm 2.
        p[u] += alpha * residual
        r[u] = 0.0
        stats.pushes += 1
        if stats.push_order is not None:
            stats.push_order.append(u)
        for v, mult in graph.in_neighbors(u):
            r[v] += (1.0 - alpha) * residual * mult / graph.out_degree(v)
            stats.edge_traversals += mult
            if phase.exceeds(r[v], epsilon) and v not in queued:
                queued.add(v)
                queue.append(v)
        if stats.pushes > operations_budget:
            raise ConvergenceError(stats.pushes, state.residual_linf())


def sequential_local_push(
    state: PPRState,
    graph: DynamicDiGraph,
    config: PPRConfig,
    *,
    seeds: Iterable[int] | None = None,
    record_order: bool = False,
) -> SequentialPushStats:
    """Run Algorithm 2 to convergence (``max |r| <= epsilon``).

    ``seeds`` narrows the initial active scan to vertices whose residual
    may exceed the threshold (e.g. those touched by restore-invariant);
    ``None`` scans every vertex. When ``record_order`` is set the stats
    carry the exact sequence of pushed vertices (used by the paper-example
    tests).
    """
    stats = SequentialPushStats(push_order=[] if record_order else None)
    state.ensure_capacity(graph.capacity)
    candidates = _candidate_seeds(state, graph, seeds)
    _run_phase(state, graph, Phase.POS, config, candidates, stats)
    _run_phase(state, graph, Phase.NEG, config, candidates, stats)
    return stats


def cpu_base_update(
    state: PPRState,
    graph: DynamicDiGraph,
    updates: Sequence[EdgeUpdate],
    config: PPRConfig,
) -> BatchStats:
    """CPU-Base (Section 5.1): synchronize on every single update.

    For each update: apply it, restore the invariant, then run the
    sequential push to full convergence before the next update — the
    state-of-the-art sequential baseline [49] the paper measures against.
    """
    batch = BatchStats(sequential_push=SequentialPushStats())
    for update in updates:
        touched, change = restore_batch(
            graph, state, [update], config.alpha, kernel=config.kernel
        )
        batch.restore.merge(RestoreStats(1, change))
        batch.sequential_push.merge(
            sequential_local_push(state, graph, config, seeds=touched)
        )
    return batch


def cpu_seq_update(
    state: PPRState,
    graph: DynamicDiGraph,
    updates: Sequence[EdgeUpdate],
    config: PPRConfig,
) -> BatchStats:
    """CPU-Seq (Section 5.1): batch restore, then one sequential push."""
    batch = BatchStats(sequential_push=SequentialPushStats())
    touched, change = restore_batch(
        graph, state, updates, config.alpha, kernel=config.kernel
    )
    batch.restore.merge(RestoreStats(len(updates), change))
    batch.sequential_push.merge(
        sequential_local_push(state, graph, config, seeds=touched)
    )
    return batch
