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


class TestBuildOverrides:
    """Compiler / cache-dir overrides travel as arguments: two services
    with different ``KernelConfig``s may load concurrently, and handler
    threads or forked workers never see a half-rewritten environment."""

    def test_concurrent_loads_keep_their_own_overrides(self, monkeypatch, tmp_path):
        import os
        import threading

        from repro.kernels import build

        for name in ("REPRO_KERNEL_CC", "REPRO_KERNEL_CACHE"):
            monkeypatch.delenv(name, raising=False)
        environ_before = dict(os.environ)
        barrier = threading.Barrier(2)
        seen: dict[str, tuple] = {}

        def recording(compiler=None, cache_dir=None):
            barrier.wait(timeout=10)  # both loads are inside the build at once
            seen[compiler] = (
                build.find_compiler(compiler),
                build.resolve_cache_dir(cache_dir),
                os.environ.get("REPRO_KERNEL_CC"),
                os.environ.get("REPRO_KERNEL_CACHE"),
            )
            barrier.wait(timeout=10)
            return None, f"recorded {compiler}"

        monkeypatch.setattr(kernels, "build_library", recording)
        configs = [
            KernelConfig(compiler=BOGUS_CC, cache_dir=str(tmp_path / "a")),
            KernelConfig(compiler="/bin/false", cache_dir=str(tmp_path / "b")),
        ]
        results: dict[str, tuple] = {}
        threads = [
            threading.Thread(
                target=lambda c=c: results.__setitem__(
                    c.compiler, kernels.load_library(c)
                )
            )
            for c in configs
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20)
            assert not thread.is_alive()
        assert seen[BOGUS_CC] == (None, tmp_path / "a", None, None)
        assert seen["/bin/false"] == ("/bin/false", tmp_path / "b", None, None)
        assert results[BOGUS_CC] == (None, f"recorded {BOGUS_CC}")
        assert results["/bin/false"] == (None, "recorded /bin/false")
        assert dict(os.environ) == environ_before

    def test_arguments_beat_the_environment(self, monkeypatch, tmp_path):
        from repro.kernels import build

        monkeypatch.setenv("REPRO_KERNEL_CC", BOGUS_CC)
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "env"))
        assert build.find_compiler() is None
        assert build.find_compiler("/bin/false") == "/bin/false"
        assert build.resolve_cache_dir() == tmp_path / "env"
        assert build.resolve_cache_dir(str(tmp_path / "arg")) == tmp_path / "arg"
        path, reason = build.build_library("/bin/false", str(tmp_path / "arg"))
        assert path is None and "compile failed" in reason


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


class TestCounters:
    """``kernels.counters()`` and its mirror on the stats surface."""

    def _deltas(self, config, pushes=3):
        rng = np.random.default_rng(20170901)
        graph = random_graph(rng, n=40, m=260)
        before = kernels.counters()
        iterations = 0
        for source in range(pushes):
            state = PPRState.initial(source, graph.capacity)
            iterations += parallel_local_push(state, graph, config).num_iterations
        after = kernels.counters()
        return {name: after[name] - before[name] for name in after}, iterations

    @needs_compiled
    def test_one_call_per_nonempty_phase(self):
        deltas, iterations = self._deltas(
            push_config(kernel=KernelConfig(mode=KernelMode.COMPILED))
        )
        # From scratch only the POS phase has a frontier: one call a push.
        assert deltas == {
            "kernel_calls": 3,
            "kernel_fallbacks": 0,
            "push_iterations": iterations,
        }

    def test_numpy_mode_makes_no_calls_and_no_fallbacks(self):
        deltas, iterations = self._deltas(
            push_config(kernel=KernelConfig(mode=KernelMode.NUMPY))
        )
        assert deltas == {
            "kernel_calls": 0,
            "kernel_fallbacks": 0,
            "push_iterations": iterations,
        }

    def test_stats_and_metrics_surfaces_carry_the_counters(self):
        from repro.api.metrics import render_prometheus
        from repro.api.requests import Stats

        rng = np.random.default_rng(3)
        service = PPRService(random_graph(rng, n=40, m=260), push_config())
        service.gateway.submit(TopKQuery(source=1, k=3, consistency=FRESH))
        stats = service.gateway.submit(Stats()).stats
        totals = kernels.counters()
        for name in ("kernel_calls", "kernel_fallbacks", "push_iterations"):
            assert stats[name] == totals[name]
            assert f"repro_{name}_total {totals[name]}" in render_prometheus(stats)
        assert stats["push_iterations"] > 0


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
    def test_a_rejected_batch_changes_nothing(self, kernel):
        graph = DynamicDiGraph(self.EDGES)
        state = PPRState.initial(0, graph.capacity)
        parallel_local_push(state, graph, push_config())
        arrays = graph.to_arrays()
        p, r = state.p.tobytes(), state.r.tobytes()
        bad = self.BATCH[:2] + [EdgeUpdate(1, 3, EdgeOp.DELETE)] + self.BATCH[2:]
        with pytest.raises(EdgeError, match="cannot delete 1 copies of 1->3"):
            restore_batch(graph, state, bad, 0.2, kernel=kernel)
        assert not graph.has_edge(0, 3)  # the valid prefix did not apply
        for key, value in graph.to_arrays().items():
            assert value.tobytes() == arrays[key].tobytes()
        assert (state.p.tobytes(), state.r.tobytes()) == (p, r)
        assert invariant.check_invariant(state, graph, 0.2)
