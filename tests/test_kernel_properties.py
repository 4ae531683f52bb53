"""Differential oracle: compiled kernel vs numpy, property-based.

The compiled C kernel (:mod:`repro.kernels`) claims **bit identity** with
the vectorized numpy engine — not approximate agreement, the same
doubles. Hypothesis drives random dynamic graphs through both and
compares raw arrays after every stage:

1. from-scratch convergence on a random graph, every push variant;
2. dynamic-update sequences: apply updates, repair the invariant, push
   with the touched-vertex seeds — estimates *and* residuals must match
   bitwise at every batch boundary;
3. frontier order-insensitivity: a permuted seed set must not change the
   compiled kernel's result (the frontier is sorted/deduplicated before
   the per-edge loop, so iteration order is canonical);
4. batch ``RestoreInvariant``: ``restore_states`` under the compiled
   kernel against the per-update ``restore_invariant`` oracle on random
   batches — duplicate ``u``, ``u == source``, deleting a vertex's last
   out-edge, ids past the arrays' capacity, undirected (reversed) pairs,
   hub vectors — ``p``, ``r``, array *lengths* and the returned Δ.

These run in CI's differential-oracle job with the extension built; on a
host with no C compiler the whole module skips (there is nothing to
compare — the fallback *is* the oracle).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import (
    Backend,
    DynamicDiGraph,
    EdgeOp,
    EdgeUpdate,
    PPRConfig,
    PPRState,
    PushVariant,
    parallel_local_push,
)
from repro import kernels
from repro.config import KernelConfig, KernelMode
from repro.core.hub_index import DynamicHubIndex
from repro.core.invariant import restore_invariant, restore_states

pytestmark = pytest.mark.skipif(
    kernels.load_library()[0] is None,
    reason="differential oracle needs the compiled kernel",
)

N_VERTICES = 12

COMPILED = KernelConfig(mode=KernelMode.COMPILED)
NUMPY = KernelConfig(mode=KernelMode.NUMPY)


def config_for(variant: PushVariant, kernel: KernelConfig) -> PPRConfig:
    return PPRConfig(
        alpha=0.2,
        epsilon=1e-4,
        variant=variant,
        backend=Backend.NUMPY,
        workers=1,
        kernel=kernel,
    )


@st.composite
def graph_edges(draw, max_edges=30):
    pairs = st.tuples(
        st.integers(0, N_VERTICES - 1), st.integers(0, N_VERTICES - 1)
    ).filter(lambda p: p[0] != p[1])
    return draw(st.lists(pairs, min_size=1, max_size=max_edges, unique=True))


@st.composite
def dynamic_case(draw, max_updates=12):
    """(initial edges, update sequence) with deletes only of present edges."""
    edges = draw(graph_edges())
    present = set(edges)
    updates = []
    for _ in range(draw(st.integers(1, max_updates))):
        delete = bool(present) and draw(st.booleans())
        if delete:
            u, v = draw(st.sampled_from(sorted(present)))
            updates.append(EdgeUpdate(u, v, EdgeOp.DELETE))
            present.discard((u, v))
        else:
            pair = draw(
                st.tuples(
                    st.integers(0, N_VERTICES - 1),
                    st.integers(0, N_VERTICES - 1),
                ).filter(lambda p: p[0] != p[1] and p not in present)
            )
            updates.append(EdgeUpdate(pair[0], pair[1], EdgeOp.INSERT))
            present.add(pair)
    return edges, updates


def assert_bit_identical(left: PPRState, right: PPRState) -> None:
    # array_equal, not allclose: the contract is the same doubles,
    # including signed zeros agreeing after the dense-accumulator path.
    np.testing.assert_array_equal(left.p, right.p)
    np.testing.assert_array_equal(left.r, right.r)


@pytest.mark.parametrize("variant", list(PushVariant))
@given(edges=graph_edges(), source=st.integers(0, N_VERTICES - 1))
def test_from_scratch_push_is_bit_identical(variant, edges, source):
    states = []
    for kernel in (COMPILED, NUMPY):
        graph = DynamicDiGraph(edges)
        state = PPRState.initial(source, max(graph.capacity, source + 1))
        parallel_local_push(state, graph, config_for(variant, kernel))
        states.append(state)
    assert_bit_identical(*states)


@pytest.mark.parametrize(
    "variant", [PushVariant.VANILLA, PushVariant.OPT]
)
@given(case=dynamic_case(), source=st.integers(0, N_VERTICES - 1))
def test_dynamic_updates_stay_bit_identical(variant, case, source):
    edges, updates = case
    finals = []
    for kernel in (COMPILED, NUMPY):
        config = config_for(variant, kernel)
        graph = DynamicDiGraph(edges)
        state = PPRState.initial(source, max(graph.capacity, source + 1))
        parallel_local_push(state, graph, config)
        snapshots = [(state.p.copy(), state.r.copy())]
        for update in updates:
            graph.apply(update)
            state.ensure_capacity(graph.capacity)
            restore_invariant(state, graph, update, config.alpha)
            parallel_local_push(
                state, graph, config, seeds=[update.u, state.source]
            )
            snapshots.append((state.p.copy(), state.r.copy()))
        finals.append(snapshots)
    for (p_a, r_a), (p_b, r_b) in zip(*finals):
        np.testing.assert_array_equal(p_a, p_b)
        np.testing.assert_array_equal(r_a, r_b)


@given(
    case=dynamic_case(),
    source=st.integers(0, N_VERTICES - 1),
    seed_order=st.randoms(use_true_random=False),
)
def test_seed_order_cannot_change_the_answer(case, source, seed_order):
    """A permuted (even duplicated) seed set is the same frontier."""
    edges, updates = case
    config = config_for(PushVariant.OPT, COMPILED)
    results = []
    for permute in (False, True):
        graph = DynamicDiGraph(edges)
        state = PPRState.initial(source, max(graph.capacity, source + 1))
        parallel_local_push(state, graph, config)
        for update in updates:
            graph.apply(update)
        state.ensure_capacity(graph.capacity)
        for update in updates:
            restore_invariant(state, graph, update, config.alpha)
        seeds = [u.u for u in updates] + [source]
        if permute:
            seed_order.shuffle(seeds)
            seeds = seeds + seeds[:2]  # duplicates must be harmless too
        parallel_local_push(state, graph, config, seeds=seeds)
        results.append(state)
    assert_bit_identical(*results)


# ---------------------------------------------------------------------- #
# 4: batch RestoreInvariant, compiled vs the per-update oracle
# ---------------------------------------------------------------------- #

#: Ids a batch may introduce: far enough past N_VERTICES that one batch
#: can outgrow a state's arrays more than once (doubling: 12 -> 24 -> 48).
MAX_NEW_ID = 60


@st.composite
def restore_case(draw, max_updates=24):
    """(initial edges, batch) over a multigraph, deletes only of live copies.

    Biased toward the cases the C loop must get right: an update may reuse
    the previous ``u`` (sequential dependence through ``r[u]``), delete
    the edge just inserted (often ``u``'s last out-edge), name a brand-new
    id, or be followed by its reverse (an undirected update).
    """
    edges = draw(graph_edges())
    live: dict[tuple[int, int], int] = {}
    for edge in edges:
        live[edge] = live.get(edge, 0) + 1
    updates: list[EdgeUpdate] = []
    for _ in range(draw(st.integers(1, max_updates))):
        present = sorted(e for e, c in live.items() if c > 0)
        if present and draw(st.booleans()):
            u, v = draw(st.sampled_from(present))
            step = EdgeUpdate(u, v, EdgeOp.DELETE)
        else:
            u = (
                updates[-1].u
                if updates and draw(st.booleans())
                else draw(st.integers(0, MAX_NEW_ID))
            )
            v = draw(st.integers(0, MAX_NEW_ID).filter(lambda x: x != u))
            step = EdgeUpdate(u, v, EdgeOp.INSERT)
        pair = [step]
        reverse = step.reversed()
        if step.is_insert or live.get((reverse.u, reverse.v), 0) > 0:
            if draw(st.booleans()):
                pair.append(reverse)
        for update in pair:
            key = (update.u, update.v)
            live[key] = live.get(key, 0) + int(update.op)
            updates.append(update)
    return edges, updates


def converged_states(graph, sources, config):
    """One pushed state per source, at *different* array lengths."""
    states = []
    for extra, source in enumerate(sources):
        state = PPRState.initial(source, max(graph.capacity, source + 1) + 5 * extra)
        parallel_local_push(state, graph, config)
        states.append(state)
    return states


def assert_same_bits(left: np.ndarray, right: np.ndarray) -> None:
    # Lengths and bit patterns: array_equal alone treats -0.0 == 0.0.
    assert left.shape == right.shape
    np.testing.assert_array_equal(left.view(np.int64), right.view(np.int64))


@given(
    case=restore_case(),
    sources=st.lists(
        st.integers(0, N_VERTICES - 1), min_size=1, max_size=3, unique=True
    ),
)
def test_batch_restore_matches_the_per_update_oracle(case, sources):
    edges, updates = case
    config = config_for(PushVariant.OPT, NUMPY)

    oracle_graph = DynamicDiGraph(edges)
    oracle_states = converged_states(oracle_graph, sources, config)
    oracle_deltas = np.empty((len(sources), len(updates)))
    for j, update in enumerate(updates):
        oracle_graph.apply(update)
        for i, state in enumerate(oracle_states):
            oracle_deltas[i, j] = restore_invariant(
                state, oracle_graph, update, config.alpha
            )

    for kernel in (COMPILED, NUMPY):
        graph = DynamicDiGraph(edges)
        states = converged_states(graph, sources, config)
        deltas = restore_states(graph, states, updates, config.alpha, kernel=kernel)
        assert graph == oracle_graph
        assert_same_bits(deltas, oracle_deltas)
        for state, expected in zip(states, oracle_states):
            assert_same_bits(state.p, expected.p)
            assert_same_bits(state.r, expected.r)


@given(case=restore_case(max_updates=12))
def test_hub_vectors_restore_bit_identically(case):
    edges, updates = case
    indexes = []
    for kernel in (COMPILED, NUMPY):
        graph = DynamicDiGraph(edges)
        index = DynamicHubIndex(
            graph, num_hubs=2, config=config_for(PushVariant.OPT, kernel)
        )
        index.apply_batch(updates)
        indexes.append(index)
    compiled, oracle = indexes
    assert compiled.hubs == oracle.hubs
    for left, right in zip(compiled.states, oracle.states):
        assert_same_bits(left.p, right.p)
        assert_same_bits(left.r, right.r)
