"""Invariant restoration (Algorithm 1) and the exact invariant checker.

The local update scheme keeps invariant Eq. 2 for every vertex ``v``::

    P_s(v) + alpha * R_s(v)
        = sum_{x in Nout(v)} (1 - alpha) * P_s(x) / dout(v) + alpha * 1{v = s}

An edge update ``(u, v, op)`` only changes the right-hand side at ``u``
(its out-neighborhood/out-degree changed), so restoring the invariant
adjusts ``R_s(u)`` alone:

    delta = op * [(1-a) P(v) - P(u) - a R(u) + a 1{u=s}] / (a * dout_after(u))

where ``dout_after`` is the out-degree *after* the update is applied (this
matches the recurrence delta_j = d_{j-1}/d_j in the paper's Lemma 3).
Deleting ``u``'s last out-edge is the one case the formula cannot express
(``dout_after = 0``); Eq. 2 then directly pins ``R_s(u)``.

:func:`restore_invariant` is the single-update oracle. Every maintained
consumer (service residents, hub vectors, trackers) repairs whole batches
through :func:`restore_states`: the graph applies the batch atomically and
records each update's ``dout_after``, then every state is repaired from
that record — under the compiled kernel mode with one call into
``_push.c``, bit-identical to looping the oracle.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from ..config import KernelConfig
from ..graph.digraph import DynamicDiGraph
from ..graph.update import EdgeOp, EdgeUpdate, as_batch
from .state import PPRState


def restore_invariant(
    state: PPRState,
    graph: DynamicDiGraph,
    update: EdgeUpdate,
    alpha: float,
    dout_after: int | None = None,
    cover: int | None = None,
) -> float:
    """Repair Eq. 2 for one update; ``graph`` must already reflect it.

    Returns the signed residual change applied to ``R_s(u)`` (the theory's
    ``Delta_s(u)`` contribution, tracked by Lemma 3). A batch repair whose
    graph has moved past ``update`` passes what the graph looked like right
    after it: ``u``'s out-degree and the id space it needed.
    """
    u, v, op = update.u, update.v, update.op
    if cover is None:
        cover = max(graph.capacity, u + 1, v + 1)
    state.ensure_capacity(cover)
    indicator = alpha if u == state.source else 0.0
    dout = graph.out_degree(u) if dout_after is None else dout_after

    if dout == 0:
        # op must be DELETE (an insertion leaves dout >= 1). Eq. 2 for a
        # dangling vertex reads P(u) + a R(u) = a 1{u=s}.
        new_r = (indicator - state.p[u]) / alpha
        delta = float(new_r - state.r[u])
        state.r[u] = new_r
        return delta

    numerator = (
        (1.0 - alpha) * state.p[v] - state.p[u] - alpha * state.r[u] + indicator
    )
    delta = float(op) * numerator / (alpha * dout)
    state.r[u] += delta
    return delta


def restore_states(
    graph: DynamicDiGraph,
    states: Sequence[PPRState],
    updates: Iterable[EdgeUpdate] | np.ndarray,
    alpha: float,
    *,
    kernel: KernelConfig | None = None,
) -> np.ndarray:
    """Apply a batch to ``graph`` and restore Eq. 2 on every state.

    The one batch ``RestoreInvariant`` entry point (Section 3.1: Algorithm
    1, k times). ``updates`` are update objects or the ``(k, 3)`` array of
    :func:`~repro.graph.update.as_batch`. The graph applies the whole batch
    in one call (:meth:`~repro.graph.digraph.DynamicDiGraph.apply_batch`),
    recording each update's ``dout_after``; the states are then repaired
    from that record. Returns the per-update signed residual changes as a
    ``(len(states), k)`` array; row ``i`` is what looping
    :func:`restore_invariant` over ``states[i]`` would have returned.

    ``kernel`` (``PPRConfig.kernel``; ``None`` defers to ``REPRO_KERNEL``)
    selects how the batch is applied and repaired. Compiled: one call
    into ``_push.c`` applies it, one more repairs every state. Otherwise
    the oracle runs per update per state. The two agree bit for bit —
    values, array lengths, and Δ.

    A batch the graph rejects (a delete of an absent edge) raises before
    anything — graph or state — has changed.
    """
    from ..kernels import compiled_restore, selected_library

    library, _ = selected_library(kernel)
    batch = as_batch(updates)
    # The id space each update needed: ensure_capacity doubles, so one
    # jump to the final requirement is not the oracle's growth sequence.
    # Valid deletes name registered ids, so the running max over every
    # update's endpoints is the oracle's max(capacity, u + 1, v + 1).
    need = np.maximum.accumulate(
        np.maximum(batch[:, :2].max(axis=1, initial=-1) + 1, graph.capacity)
    )
    dout_after = graph.apply_batch(batch, kernel=kernel)
    deltas = np.empty((len(states), len(batch)), dtype=np.float64)
    if library is None:
        for j, (u, v, op) in enumerate(batch.tolist()):
            update = EdgeUpdate(u, v, EdgeOp(op))
            args = (update, alpha, int(dout_after[j]), int(need[j]))
            for i, state in enumerate(states):
                deltas[i, j] = restore_invariant(state, graph, *args)
        return deltas
    if len(batch) and states:
        required = int(need[-1])
        for state in states:
            if required > len(state.p):
                for cover in np.unique(need).tolist():
                    state.ensure_capacity(cover)
        compiled_restore(library, states, alpha, batch, dout_after, required, deltas)
    return deltas


def apply_and_restore(
    graph: DynamicDiGraph,
    states: Sequence[PPRState],
    update: EdgeUpdate,
    alpha: float,
) -> list[float]:
    """Apply ``update`` to ``graph`` then restore every state's invariant.

    The graph is mutated exactly once even when many personalization
    sources share it (the theory checks in :mod:`repro.core.analysis`
    rely on this).
    """
    return restore_states(graph, states, [update], alpha)[:, 0].tolist()


def restore_batch(
    graph: DynamicDiGraph,
    state: PPRState,
    updates: Iterable[EdgeUpdate],
    alpha: float,
    *,
    kernel: KernelConfig | None = None,
) -> tuple[list[int], float]:
    """Apply a whole batch for one state (:func:`restore_states` on one).

    Returns ``(touched_vertices, total_absolute_residual_change)``. The
    touched list seeds the push frontier: after a converged previous step
    only vertices whose residual was modified can exceed ``epsilon``.
    """
    batch = as_batch(updates)
    deltas = restore_states(graph, [state], batch, alpha, kernel=kernel)[0]
    total_change = 0.0
    for delta in deltas.tolist():  # sequential, like the per-update loop
        total_change += abs(delta)
    return batch[:, 0].tolist(), total_change


def invariant_violation(
    state: PPRState,
    graph: DynamicDiGraph,
    alpha: float,
) -> float:
    """Max absolute violation of Eq. 2 over all vertices (O(n + m)).

    Exact (up to float rounding); meant for tests and debugging, not hot
    paths.
    """
    worst = 0.0
    for v in graph.vertices():
        lhs = state.estimate(v) + alpha * state.residual(v)
        dout = graph.out_degree(v)
        rhs = alpha if v == state.source else 0.0
        if dout > 0:
            acc = 0.0
            for x, mult in graph.out_neighbors(v):
                acc += mult * state.estimate(x)
            rhs += (1.0 - alpha) * acc / dout
        worst = max(worst, abs(lhs - rhs))
    return worst


def check_invariant(
    state: PPRState,
    graph: DynamicDiGraph,
    alpha: float,
    *,
    tol: float = 1e-9,
) -> bool:
    """True when Eq. 2 holds everywhere within ``tol``."""
    return invariant_violation(state, graph, alpha) <= tol
