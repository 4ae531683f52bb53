"""Kernel selection, fallback, and dispatch (:mod:`repro.kernels`).

The runtime-selection contracts:

1. ``REPRO_KERNEL`` / ``PPRConfig.kernel`` pick the backend — ``numpy``
   forces the oracle, ``compiled`` *requires* the C kernel (typed
   :class:`~repro.errors.BackendError` when the host cannot build one),
   ``auto`` prefers compiled and falls back silently;
2. a host without a usable compiler degrades gracefully — pushes still
   run, answers still bit-identical to the oracle (they *are* the
   oracle), and ``describe()`` says why;
3. both kernels produce bit-identical states on the same inputs (the
   exhaustive random-graph version lives in
   ``tests/test_kernel_properties.py``; here one deterministic case
   guards the plumbing, and one trace through two gateways guards the
   certified answers the serving stack builds from those states);
4. the batch ``RestoreInvariant`` entry point obeys the same selection:
   the forced-``numpy`` and no-compiler paths loop the Python oracle, a
   forced ``compiled`` without a compiler raises.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    Backend,
    DynamicDiGraph,
    EdgeOp,
    EdgeUpdate,
    PPRConfig,
    PPRState,
    PushVariant,
)
from repro import PPRService, insertions, kernels
from repro.api.requests import ANY, FRESH, Consistency, IngestBatch, TopKQuery
from repro.api.responses import TopKResult
from repro.config import KernelConfig, KernelMode
from repro.core import invariant
from repro.core.invariant import restore_batch, restore_invariant, restore_states
from repro.core.push_parallel import parallel_local_push
from repro.errors import BackendError, ConfigError, EdgeError
from tests.conftest import random_graph

#: A compiler flag both load paths agree is unusable.
BOGUS_CC = "definitely-not-a-compiler-xyzzy"

HAVE_COMPILED = kernels.load_library()[0] is not None

needs_compiled = pytest.mark.skipif(
    not HAVE_COMPILED, reason="no C compiler on this host"
)


@pytest.fixture(autouse=True)
def _fresh_selection(monkeypatch):
    """Each case picks its own env; no cached load may leak across."""
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    yield
    kernels.reset()


def push_config(**kwargs) -> PPRConfig:
    return PPRConfig(
        alpha=0.2,
        epsilon=1e-4,
        variant=PushVariant.OPT,
        backend=Backend.NUMPY,
        workers=1,
        **kwargs,
    )


class TestConfigSurface:
    def test_from_env_parses_all_modes(self, monkeypatch):
        for raw, mode in (
            ("compiled", KernelMode.COMPILED),
            ("numpy", KernelMode.NUMPY),
            ("auto", KernelMode.AUTO),
            (" AUTO ", KernelMode.AUTO),
        ):
            monkeypatch.setenv("REPRO_KERNEL", raw)
            assert KernelConfig.from_env().mode is mode

    def test_from_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "fortran")
        with pytest.raises(ConfigError):
            KernelConfig.from_env()

    def test_unset_env_means_auto(self):
        assert KernelConfig.from_env().mode is KernelMode.AUTO

    def test_mode_must_be_a_kernel_mode(self):
        with pytest.raises(ConfigError):
            KernelConfig(mode="compiled")

    def test_ppr_config_rejects_non_kernel_config(self):
        with pytest.raises(ConfigError):
            PPRConfig(kernel="compiled")

    def test_explicit_config_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "compiled")
        config = push_config(kernel=KernelConfig(mode=KernelMode.NUMPY))
        backend, reason = kernels.selected_backend(config)
        assert backend == "numpy" and reason == "forced by configuration"


class TestSelection:
    def test_numpy_mode_never_builds(self):
        config = push_config(kernel=KernelConfig(mode=KernelMode.NUMPY))
        assert kernels.selected_backend(config)[0] == "numpy"

    @needs_compiled
    def test_auto_prefers_compiled(self):
        backend, _ = kernels.selected_backend(push_config())
        assert backend == "compiled"

    def test_auto_falls_back_without_a_compiler(self):
        config = push_config(
            kernel=KernelConfig(mode=KernelMode.AUTO, compiler=BOGUS_CC)
        )
        backend, reason = kernels.selected_backend(config)
        assert backend == "numpy"
        assert "fallback" in reason

    def test_forced_compiled_without_a_compiler_raises(self):
        config = push_config(
            kernel=KernelConfig(mode=KernelMode.COMPILED, compiler=BOGUS_CC)
        )
        with pytest.raises(BackendError):
            kernels.selected_backend(config)

    def test_describe_reports_unavailable_instead_of_raising(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "compiled")
        monkeypatch.setenv("REPRO_KERNEL_CC", BOGUS_CC)
        kernels.reset()
        info = kernels.describe()
        assert info["mode"] == "compiled"
        assert info["backend"] == "unavailable"

    def test_load_library_failure_is_cached_not_retried(self):
        kernel = KernelConfig(compiler=BOGUS_CC)
        library, reason = kernels.load_library(kernel)
        assert library is None
        # The failure is memoized per (compiler, cache_dir): the second
        # call returns the cached entry without probing the host again.
        assert (kernel.compiler, kernel.cache_dir) in kernels._LIBRARIES
        assert kernels.load_library(kernel) == (library, reason)


class TestDispatch:
    def _converged_states(self, config_a, config_b):
        rng = np.random.default_rng(20170901)
        graph = random_graph(rng, n=40, m=260)
        states = []
        for config in (config_a, config_b):
            state = PPRState.initial(0, graph.capacity)
            parallel_local_push(state, graph, config)
            states.append(state)
        return states

    @needs_compiled
    def test_compiled_matches_numpy_bitwise(self):
        compiled, numpy_oracle = self._converged_states(
            push_config(kernel=KernelConfig(mode=KernelMode.COMPILED)),
            push_config(kernel=KernelConfig(mode=KernelMode.NUMPY)),
        )
        assert np.array_equal(compiled.p, numpy_oracle.p)
        assert np.array_equal(compiled.r, numpy_oracle.r)

    def test_push_still_runs_when_fallback_engages(self):
        broken, oracle = self._converged_states(
            push_config(
                kernel=KernelConfig(mode=KernelMode.AUTO, compiler=BOGUS_CC)
            ),
            push_config(kernel=KernelConfig(mode=KernelMode.NUMPY)),
        )
        assert np.array_equal(broken.p, oracle.p)
        assert np.array_equal(broken.r, oracle.r)

    def test_forced_compiled_push_raises_when_unavailable(self):
        rng = np.random.default_rng(7)
        graph = random_graph(rng)
        state = PPRState.initial(0, graph.capacity)
        config = push_config(
            kernel=KernelConfig(mode=KernelMode.COMPILED, compiler=BOGUS_CC)
        )
        with pytest.raises(BackendError):
            parallel_local_push(state, graph, config)

    @needs_compiled
    def test_env_selection_reaches_the_push(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "compiled")
        kernels.reset()
        compiled, oracle = self._converged_states(
            push_config(), push_config(kernel=KernelConfig(mode=KernelMode.NUMPY))
        )
        assert np.array_equal(compiled.p, oracle.p)
        assert np.array_equal(compiled.r, oracle.r)


class TestServingStack:
    @needs_compiled
    def test_certified_topk_bit_identical_across_kernels(self):
        """The serving stack must not see which kernel ran: one trace of
        FRESH / BOUNDED / ANY reads, an ingest, and FRESH re-reads through
        two gateways that differ in kernel mode only."""
        rng = np.random.default_rng(20170901)
        graph = random_graph(rng, n=60, m=420)
        edges = [(u, v) for u in graph.vertices() for v, _ in graph.out_neighbors(u)]
        sources = list(range(6))
        trace: list[object] = [
            TopKQuery(source=s, k=5, consistency=consistency)
            for consistency in (FRESH, Consistency.bounded(1), ANY)
            for s in sources
        ]
        trace.append(
            IngestBatch(updates=tuple(insertions([(s, 59 - s) for s in sources])))
        )
        trace += [TopKQuery(source=s, k=5, consistency=FRESH) for s in sources]
        compiled, oracle = (
            PPRService(
                DynamicDiGraph(edges),
                push_config(kernel=KernelConfig(mode=mode)),
            ).gateway.submit_many(trace)
            for mode in (KernelMode.COMPILED, KernelMode.NUMPY)
        )
        for ours, theirs in zip(compiled, oracle):
            assert ours.ok and theirs.ok
            assert ours.snapshot_version == theirs.snapshot_version
            if isinstance(ours, TopKResult):
                assert (ours.cold, ours.staleness) == (theirs.cold, theirs.staleness)
                assert [(e.vertex, e.estimate) for e in ours.entries] == [
                    (e.vertex, e.estimate) for e in theirs.entries
                ]


class TestBatchRestoreSelection:
    """``restore_states`` picks its repair loop by the kernel mode."""

    EDGES = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0)]
    #: Duplicate u, u == source, 3's last out-edge deleted, a new id (9).
    BATCH = [
        EdgeUpdate(0, 2, EdgeOp.INSERT),
        EdgeUpdate(0, 3, EdgeOp.INSERT),
        EdgeUpdate(3, 0, EdgeOp.DELETE),
        EdgeUpdate(9, 1, EdgeOp.INSERT),
        EdgeUpdate(0, 2, EdgeOp.DELETE),
    ]

    def _converged(self):
        graph = DynamicDiGraph(self.EDGES)
        states = [PPRState.initial(s, graph.capacity) for s in (0, 3)]
        for state in states:
            parallel_local_push(state, graph, push_config())
        return graph, states

    def _run(self, kernel):
        graph, states = self._converged()
        deltas = restore_states(graph, states, self.BATCH, 0.2, kernel=kernel)
        return graph, states, deltas

    def _oracle(self):
        graph, states = self._converged()
        deltas = []
        for update in self.BATCH:
            graph.apply(update)
            deltas.append([restore_invariant(s, graph, update, 0.2) for s in states])
        return graph, states, np.array(deltas).T

    def _assert_matches_oracle(self, result):
        graph, states, deltas = result
        oracle_graph, oracle_states, oracle_deltas = self._oracle()
        assert graph == oracle_graph
        assert np.array_equal(deltas, oracle_deltas)
        for state, expected in zip(states, oracle_states):
            assert len(state.p) == len(expected.p)
            assert np.array_equal(state.p, expected.p)
            assert np.array_equal(state.r, expected.r)

    def _count_oracle_calls(self, monkeypatch):
        calls = []
        real = invariant.restore_invariant

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(invariant, "restore_invariant", counting)
        return calls

    def test_numpy_mode_loops_the_python_oracle(self, monkeypatch):
        calls = self._count_oracle_calls(monkeypatch)
        result = self._run(KernelConfig(mode=KernelMode.NUMPY))
        assert len(calls) == 2 * len(self.BATCH)
        monkeypatch.undo()
        self._assert_matches_oracle(result)

    def test_auto_without_a_compiler_falls_back_to_the_oracle(self, monkeypatch):
        calls = self._count_oracle_calls(monkeypatch)
        result = self._run(KernelConfig(mode=KernelMode.AUTO, compiler=BOGUS_CC))
        assert len(calls) == 2 * len(self.BATCH)
        monkeypatch.undo()
        self._assert_matches_oracle(result)

    def test_forced_compiled_without_a_compiler_raises(self):
        with pytest.raises(BackendError):
            self._run(KernelConfig(mode=KernelMode.COMPILED, compiler=BOGUS_CC))

    @needs_compiled
    def test_compiled_mode_never_calls_the_python_oracle(self, monkeypatch):
        calls = self._count_oracle_calls(monkeypatch)
        result = self._run(KernelConfig(mode=KernelMode.COMPILED))
        assert calls == []
        monkeypatch.undo()
        self._assert_matches_oracle(result)

    def test_env_selection_reaches_the_restore(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "numpy")
        calls = self._count_oracle_calls(monkeypatch)
        self._run(None)
        assert len(calls) == 2 * len(self.BATCH)

    @pytest.mark.parametrize(
        "kernel",
        [
            KernelConfig(mode=KernelMode.NUMPY),
            pytest.param(KernelConfig(mode=KernelMode.COMPILED), marks=needs_compiled),
        ],
    )
    def test_rejected_update_leaves_the_applied_prefix_repaired(self, kernel):
        graph = DynamicDiGraph(self.EDGES)
        state = PPRState.initial(0, graph.capacity)
        parallel_local_push(state, graph, push_config())
        bad = self.BATCH[:2] + [EdgeUpdate(1, 3, EdgeOp.DELETE)] + self.BATCH[2:]
        with pytest.raises(EdgeError):
            restore_batch(graph, state, bad, 0.2, kernel=kernel)
        assert graph.has_edge(0, 3) and graph.has_edge(3, 0)  # prefix only
        assert invariant.check_invariant(state, graph, 0.2)
