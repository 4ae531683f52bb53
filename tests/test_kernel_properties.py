"""Differential oracle: compiled kernel vs numpy, property-based.

The compiled C kernel (:mod:`repro.kernels`) claims **bit identity** with
the vectorized numpy engine — not approximate agreement, the same
doubles. Hypothesis drives random dynamic graphs through both and
compares raw arrays after every stage:

1. from-scratch convergence on a random graph, every push variant and
   chunk width — states bitwise, every integer ``IterationRecord`` field
   per iteration, at most one C call per phase;
2. dynamic-update sequences: apply updates, repair the invariant, push
   with the touched-vertex seeds — estimates *and* residuals must match
   bitwise at every batch boundary;
2b. the corners of the phase-level kernel: the dense accumulator's
   ``-0.0`` normalisation, seeds past the view's rows (declined, counted,
   left to numpy), ``ConvergenceError`` with state and trace exactly as
   the oracle leaves them;
3. frontier order-insensitivity: a permuted seed set must not change the
   compiled kernel's result (the frontier is sorted/deduplicated before
   the per-edge loop, so iteration order is canonical);
4. batch ``RestoreInvariant``: ``restore_states`` under the compiled
   kernel — one C call for 64+ states of different lengths — against the
   per-update ``restore_invariant`` oracle on random batches — duplicate
   ``u``, ``u == source``, deleting a vertex's last out-edge, ids past the
   arrays' capacity, undirected (reversed) pairs, hub vectors — ``p``,
   ``r``, array *lengths* and the returned Δ.

These run in CI's differential-oracle job with the extension built; on a
host with no C compiler the whole module skips (there is nothing to
compare — the fallback *is* the oracle).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace

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
from repro import CSRGraph, ConvergenceError, PushStats, kernels
from repro.config import KernelConfig, KernelMode, Phase
from repro.core.hub_index import DynamicHubIndex
from repro.core.invariant import restore_invariant, restore_states

pytestmark = pytest.mark.skipif(
    kernels.load_library()[0] is None,
    reason="differential oracle needs the compiled kernel",
)

N_VERTICES = 12

COMPILED = KernelConfig(mode=KernelMode.COMPILED)
NUMPY = KernelConfig(mode=KernelMode.NUMPY)


def config_for(
    variant: PushVariant, kernel: KernelConfig, workers: int = 1, **kwargs
) -> PPRConfig:
    return PPRConfig(
        alpha=0.2,
        epsilon=1e-4,
        variant=variant,
        backend=Backend.NUMPY,
        workers=workers,
        kernel=kernel,
        **kwargs,
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


def assert_same_trace(compiled, oracle) -> None:
    """Per iteration: every integer field equal; the drained mass, which
    the kernel sums in frontier order and numpy pairwise, to rounding."""
    assert len(compiled.iterations) == len(oracle.iterations)
    for ours, theirs in zip(compiled.iterations, oracle.iterations):
        assert ours.residual_pushed == pytest.approx(
            theirs.residual_pushed, rel=1e-12
        )
        assert replace(ours, residual_pushed=0.0) == replace(
            theirs, residual_pushed=0.0
        )


@contextmanager
def counted_phase_calls():
    """The C calls ``repro_push_phase`` receives inside the block, as a list."""
    library = kernels.load_library()[0]
    real, calls = library._phase, []

    def counting(*args):
        calls.append(args)
        return real(*args)

    library._phase = counting
    try:
        yield calls
    finally:
        library._phase = real


@pytest.mark.parametrize("variant", list(PushVariant))
@given(
    edges=graph_edges(),
    source=st.integers(0, N_VERTICES - 1),
    workers=st.sampled_from([1, 3, 64]),
)
def test_from_scratch_push_is_bit_identical(variant, edges, source, workers):
    states, traces = [], []
    for kernel in (COMPILED, NUMPY):
        graph = DynamicDiGraph(edges)
        state = PPRState.initial(source, max(graph.capacity, source + 1))
        with counted_phase_calls() as calls:
            traces.append(
                parallel_local_push(
                    state, graph, config_for(variant, kernel, workers)
                )
            )
        states.append(state)
        # One call for the POS phase; the NEG phase of a from-scratch push
        # is empty and must not reach C at all. The oracle run makes none.
        assert len(calls) == (1 if kernel is COMPILED else 0)
    assert_bit_identical(*states)
    assert_same_trace(*traces)


@pytest.mark.parametrize("variant", list(PushVariant))
@given(
    case=dynamic_case(),
    source=st.integers(0, N_VERTICES - 1),
    workers=st.sampled_from([1, 3, 64]),
)
def test_dynamic_updates_stay_bit_identical(variant, case, source, workers):
    edges, updates = case
    finals = []
    for kernel in (COMPILED, NUMPY):
        config = config_for(variant, kernel, workers)
        graph = DynamicDiGraph(edges)
        state = PPRState.initial(source, max(graph.capacity, source + 1))
        stats = parallel_local_push(state, graph, config)
        snapshots = [(state.p.copy(), state.r.copy(), stats)]
        for update in updates:
            graph.apply(update)
            state.ensure_capacity(graph.capacity)
            restore_invariant(state, graph, update, config.alpha)
            with counted_phase_calls() as calls:
                stats = parallel_local_push(
                    state, graph, config, seeds=[update.u, state.source]
                )
            assert len(calls) <= 2  # deletions give the NEG phase work
            snapshots.append((state.p.copy(), state.r.copy(), stats))
        finals.append(snapshots)
    for (p_a, r_a, stats_a), (p_b, r_b, stats_b) in zip(*finals):
        assert_same_bits(p_a, p_b)
        assert_same_bits(r_a, r_b)
        assert_same_trace(stats_a, stats_b)


@pytest.mark.parametrize("variant", list(PushVariant))
def test_dense_accumulator_normalises_negative_zero(variant):
    """A chunk with more traversals than max(2048, capacity) takes the
    ``np.bincount`` branch, whose whole-vector add turns every untouched
    ``-0.0`` residual into ``+0.0``; sparser chunks leave them alone."""
    n = 40
    edges = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges += [(u, v) for u, v in edges if (u + v) % 3]  # multigraph: 2 600 edges
    results = []
    for kernel in (COMPILED, NUMPY):
        state = PPRState.initial(0, n + 8)
        state.r[1 : n + 8] = -0.0
        stats = parallel_local_push(
            state, DynamicDiGraph(edges), config_for(variant, kernel, workers=64)
        )
        results.append((state, stats))
    (compiled, trace), (oracle, oracle_trace) = results
    assert max(rec.edge_traversals for rec in trace.iterations) > 2048
    assert not np.signbit(compiled.r[n:]).any()  # normalised, never touched
    assert_same_bits(compiled.p, oracle.p)
    assert_same_bits(compiled.r, oracle.r)
    assert_same_trace(trace, oracle_trace)


def test_seeds_past_the_view_are_declined_and_counted():
    """A residual on an id the snapshot has no row for: the compiled kernel
    must not touch the state; numpy runs (and fails) exactly as it does
    when selected outright, and ``kernel_fallbacks`` says so."""
    edges = [(0, 1), (1, 2), (2, 0)]
    outcomes = []
    for kernel in (COMPILED, NUMPY):
        graph = DynamicDiGraph(edges)
        state = PPRState.initial(0, 16)
        state.r[9] = 0.5
        before = kernels.counters()
        with counted_phase_calls() as calls, pytest.raises(IndexError) as caught:
            parallel_local_push(
                state, graph, config_for(PushVariant.OPT, kernel), seeds=[0, 9]
            )
        after = kernels.counters()
        outcomes.append((str(caught.value), state))
        assert calls == []
        assert after["kernel_fallbacks"] - before["kernel_fallbacks"] == (
            1 if kernel is COMPILED else 0
        )
    assert outcomes[0][0] == outcomes[1][0]
    assert_bit_identical(outcomes[0][1], outcomes[1][1])


@pytest.mark.parametrize("variant", list(PushVariant))
@pytest.mark.parametrize("max_iterations", [1, 2])
def test_convergence_error_leaves_the_oracle_state(variant, max_iterations):
    rng = np.random.default_rng(5)
    edges = sorted({(int(u), int(v)) for u, v in rng.integers(0, 30, (200, 2)) if u != v})
    outcomes = []
    for kernel in (COMPILED, NUMPY):
        config = config_for(
            variant, kernel, workers=3, max_iterations=max_iterations
        )
        graph = DynamicDiGraph(edges)
        state = PPRState.initial(0, graph.capacity)
        stats = PushStats()
        with pytest.raises(ConvergenceError) as caught:
            kernels.kernel_phase(
                state, CSRGraph.from_digraph(graph), Phase.POS, config, [0], stats
            )
        assert caught.value.iterations == max_iterations + 1
        outcomes.append((state, stats, caught.value.residual))
    (compiled, trace, residual), (oracle, oracle_trace, oracle_residual) = outcomes
    assert residual == oracle_residual
    assert_same_bits(compiled.p, oracle.p)
    assert_same_bits(compiled.r, oracle.r)
    assert_same_trace(trace, oracle_trace)


def test_a_long_phase_resumes_where_the_rows_ran_out(monkeypatch):
    """More iterations than one call's row table holds: the driver calls
    again from the frontier the kernel left, and nothing else changes."""
    from repro.kernels import compiled as driver

    rng = np.random.default_rng(11)
    edges = sorted({(int(u), int(v)) for u, v in rng.integers(0, 30, (200, 2)) if u != v})
    results = []
    for kernel, max_rows in ((COMPILED, 2), (COMPILED, driver._MAX_ROWS), (NUMPY, 2)):
        monkeypatch.setattr(driver, "_MAX_ROWS", max_rows)
        state = PPRState.initial(0, 30)
        with counted_phase_calls() as calls:
            stats = parallel_local_push(
                state, DynamicDiGraph(edges), config_for(PushVariant.OPT, kernel, 3)
            )
        results.append((state, stats, len(calls)))
    (resumed, trace, calls), (single, _, one), (oracle, oracle_trace, _) = results
    assert one == 1 and calls == -(-trace.num_iterations // 2) > 1
    assert_bit_identical(resumed, single)
    assert_bit_identical(resumed, oracle)
    assert_same_trace(trace, oracle_trace)


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
    """One pushed state per source, at *different* (increasing) array lengths."""
    states = []
    length = 0
    for source in sources:
        length = max(length + 1, graph.capacity, source + 1)
        state = PPRState.initial(source, length)
        parallel_local_push(state, graph, config)
        states.append(state)
    return states


def assert_same_bits(left: np.ndarray, right: np.ndarray) -> None:
    # Lengths and bit patterns: array_equal alone treats -0.0 == 0.0.
    assert left.shape == right.shape
    np.testing.assert_array_equal(left.view(np.int64), right.view(np.int64))


@given(
    case=restore_case(),
    sources=st.lists(st.integers(0, N_VERTICES - 1), min_size=62, max_size=70),
)
def test_batch_restore_matches_the_per_update_oracle(case, sources):
    """One C call repairs >= 64 states of different lengths at once."""
    edges, updates = case
    # A vertex no edge names gains and loses one out-edge: the delete runs
    # with dout_after == 0. It and the batch's first u are sources too.
    dangling = MAX_NEW_ID + 1
    updates = updates + [
        EdgeUpdate(dangling, 0, EdgeOp.INSERT),
        EdgeUpdate(dangling, 0, EdgeOp.DELETE),
    ]
    sources = [*sources, updates[0].u, dangling]
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
        assert len({len(state.p) for state in states}) == len(states) >= 64
        deltas = restore_states(graph, states, updates, config.alpha, kernel=kernel)
        assert graph == oracle_graph
        assert graph.out_degree(dangling) == 0
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
