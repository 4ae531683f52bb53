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
through :func:`restore_states`, which under the compiled kernel mode
applies the graph mutations in one pass and then repairs every state with
one call into ``_push.c`` — bit-identical to looping the oracle.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from ..config import KernelConfig
from ..graph.digraph import DynamicDiGraph
from ..graph.update import EdgeUpdate
from .state import PPRState


def restore_invariant(
    state: PPRState,
    graph: DynamicDiGraph,
    update: EdgeUpdate,
    alpha: float,
) -> float:
    """Repair Eq. 2 for one update; ``graph`` must already reflect it.

    Returns the signed residual change applied to ``R_s(u)`` (the theory's
    ``Delta_s(u)`` contribution, tracked by Lemma 3).
    """
    u, v, op = update.u, update.v, update.op
    state.ensure_capacity(max(graph.capacity, u + 1, v + 1))
    indicator = alpha if u == state.source else 0.0
    dout = graph.out_degree(u)

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
    updates: Iterable[EdgeUpdate],
    alpha: float,
    *,
    kernel: KernelConfig | None = None,
) -> np.ndarray:
    """Apply a batch to ``graph`` and restore Eq. 2 on every state.

    The one batch ``RestoreInvariant`` entry point (Section 3.1: Algorithm
    1, k times). The graph is mutated exactly once per update however many
    states share it. Returns the per-update signed residual changes as a
    ``(len(states), k)`` array; row ``i`` is what looping
    :func:`restore_invariant` over ``states[i]`` would have returned.

    ``kernel`` (``PPRConfig.kernel``; ``None`` defers to ``REPRO_KERNEL``)
    selects how states are repaired. Compiled: one pass applies the
    mutations and records ``u, v, op, dout_after`` plus the running
    capacity requirement, then one call into ``_push.c`` repairs every
    state. Otherwise the oracle runs per update per state. The two
    agree bit for bit — values, array lengths, and Δ.

    If the graph rejects an update mid-batch, the states are repaired for
    the prefix that did apply before the error propagates, so Eq. 2 keeps
    holding against the partially-updated graph.
    """
    from ..kernels import compiled_restore, selected_library

    library, _ = selected_library(kernel)
    if library is None:
        columns = []
        for update in updates:
            graph.apply(update)
            columns.append(
                [restore_invariant(state, graph, update, alpha) for state in states]
            )
        return np.array(columns, dtype=np.float64).reshape(len(columns), len(states)).T

    rows: list[tuple[int, int, int, int]] = []  # (u, v, op, dout_after)
    # ensure_capacity doubles, so one jump to the final requirement is not
    # the oracle's growth sequence: replay every requirement that exceeds
    # the ones before it (the rest are no-ops in the oracle too).
    growth: list[int] = []
    required = 0
    try:
        for update in updates:
            graph.apply(update)
            u, v, op = update
            rows.append((u, v, op, graph.out_degree(u)))
            need = max(graph.capacity, u + 1, v + 1)
            if need > required:
                required = need
                growth.append(need)
    finally:
        deltas = np.empty((len(states), len(rows)), dtype=np.float64)
        if rows and states:
            batch = np.ascontiguousarray(np.array(rows, dtype=np.int64).T)
            for state in states:
                if required > len(state.p):
                    for need in growth:
                        state.ensure_capacity(need)
            compiled_restore(library, states, alpha, batch, required, deltas)
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
    updates = list(updates)
    deltas = restore_states(graph, [state], updates, alpha, kernel=kernel)[0]
    total_change = 0.0
    for delta in deltas.tolist():  # sequential, like the per-update loop
        total_change += abs(delta)
    return [update.u for update in updates], total_change


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
