"""A lazy refresh's scan frontier equals the touched-vertex log it replaces.

``PPRService._refresh`` pushes with ``seeds=None``: the first frontier of
each sign phase is a scan of ``r`` for vertices passing ``pushCond``. A
converged push leaves ``|r| <= eps`` everywhere and RestoreInvariant
writes ``r[u]`` only for an update's ``u``, so the scan finds exactly the
passing vertices among those touched since the resident last converged.

This module keeps that log itself — per resident, the ``u`` of every
update ingested since its last convergence, carried across a checkpoint,
a crash and the recovery's WAL-tail replay — and checks, at every refresh
of random interleavings of ingests, refreshes, checkpoints and
crash + recovery, under both kernels:

* the scanned and the log-seeded first frontiers are the same array;
* a state pushed from the same ``p``/``r`` with the logged seeds ends with
  the same ``p``/``r`` bits and the same :class:`PushStats` as the scan;
* the service's own refresh leaves those bits, and ``max |r| <= eps``.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Backend,
    DynamicDiGraph,
    PPRConfig,
    PPRService,
    ServeConfig,
    StateStore,
    StoreConfig,
    kernels,
    parallel_local_push,
)
from repro.config import KernelConfig, KernelMode, Phase
from repro.core.push_vectorized import _prepare_seeds
from repro.core.state import PPRState
from repro.graph.update import EdgeOp, EdgeUpdate
from repro.store.recovery import recover

N_VERTICES = 10

KERNELS = [pytest.param(KernelMode.NUMPY, id="numpy")] + (
    [pytest.param(KernelMode.COMPILED, id="compiled")]
    if kernels.load_library()[0] is not None
    else []
)

operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("ingest"),
            st.lists(
                st.tuples(
                    st.integers(0, N_VERTICES + 2),
                    st.integers(0, N_VERTICES + 2),
                    st.booleans(),
                ),
                max_size=6,
            ),
        ),
        st.tuples(st.just("refresh"), st.integers(0, N_VERTICES - 1)),
        st.tuples(st.just("checkpoint"), st.none()),
        st.tuples(st.just("crash"), st.none()),
    ),
    max_size=30,
)


class Harness:
    """One persisted service plus the test's own touched-vertex logs."""

    def __init__(self, root: Path, mode: KernelMode) -> None:
        self.root = root
        self.config = PPRConfig(
            epsilon=1e-4,
            backend=Backend.NUMPY,
            workers=4,
            kernel=KernelConfig(mode=mode),
        )
        base = [(u, (u + 1) % N_VERTICES) for u in range(N_VERTICES)]
        self.service = PPRService(
            DynamicDiGraph(base + [(0, 5), (5, 0)]),
            self.config,
            ServeConfig(cache_capacity=3),
        )
        self.service.query_many([0, 3])
        #: Per resident: every ``u`` ingested since it last converged.
        self.logs: dict[int, set[int]] = {0: set(), 3: set()}
        self.store_config = StoreConfig(
            root=str(root), checkpoint_interval=10**6, retain_checkpoints=2
        )
        self.service.attach_store(StateStore(root, self.store_config))
        self._checkpointed()

    def _checkpointed(self) -> None:
        self.at_checkpoint = {s: set(log) for s, log in self.logs.items()}
        self.since_checkpoint: set[int] = set()

    def ingest(self, triples) -> None:
        live = {(u, v): c for u, v, c in self.service.graph.unique_edges()}
        batch = []
        for u, v, delete in triples:
            if u == v:
                continue
            if delete and live.get((u, v), 0) > 0:
                live[(u, v)] -= 1
                batch.append(EdgeUpdate(u, v, EdgeOp.DELETE))
            else:
                live[(u, v)] = live.get((u, v), 0) + 1
                batch.append(EdgeUpdate(u, v, EdgeOp.INSERT))
        self.service.ingest(batch)
        touched = {update.u for update in batch}
        for log in self.logs.values():
            log |= touched
        self.since_checkpoint |= touched

    def refresh(self, source: int) -> None:
        service = self.service
        entry = service.cache.peek(source)
        if entry is None:  # cold: admitted converged (may evict the LRU one)
            service.query(source, 5)
            self.logs = {
                s: self.logs.get(s, set()) for s in service.resident_sources()
            }
            return
        if entry.version == service.graph_version:
            assert not self.logs[source]  # nothing since it converged
            return
        epsilon = self.config.epsilon
        entry.state.ensure_capacity(service.graph.capacity)
        logged = np.fromiter(self.logs[source], dtype=np.int64)
        for phase in (Phase.POS, Phase.NEG):
            scanned = _prepare_seeds(entry.state, phase, epsilon, None)
            seeded = _prepare_seeds(entry.state, phase, epsilon, logged)
            assert scanned.dtype == seeded.dtype
            assert np.array_equal(scanned, seeded)
        snapshot = service._snapshot()
        twins = []
        for seeds in (None, sorted(self.logs[source])):
            twin = entry.state.copy()
            stats = parallel_local_push(
                twin, service.graph, self.config, seeds=seeds, csr=snapshot
            )
            twins.append((twin, stats))
        (scan, scan_stats), (seeded_twin, seeded_stats) = twins
        assert scan_stats == seeded_stats
        assert_same_bits(scan, seeded_twin)

        service.query(source, 5)  # the FRESH read refreshes it
        assert entry.version == service.graph_version
        assert_same_bits(entry.state, scan)
        assert entry.state.residual_linf() <= epsilon
        self.logs[source] = set()

    def checkpoint(self) -> None:
        self.service.store.checkpoint(self.service)
        self.service.store.wait()
        self._checkpointed()

    def crash(self) -> None:
        self.service.store.close()
        self.service = recover(
            self.root, config=self.config, store_config=self.store_config
        ).service
        # The checkpoint's residents, each behind by the replayed tail.
        self.logs = {
            s: self.at_checkpoint[s] | self.since_checkpoint
            for s in self.service.resident_sources()
        }


def assert_same_bits(left: PPRState, right: PPRState) -> None:
    for a, b in ((left.p, right.p), (left.r, right.r)):
        assert a.shape == b.shape
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("mode", KERNELS)
@given(ops=operations)
@settings(max_examples=25, deadline=None)
def test_scan_frontier_equals_the_touched_log_at_every_refresh(mode, ops):
    root = Path(tempfile.mkdtemp(prefix="repro-frontier-"))
    harness = Harness(root, mode)
    try:
        for name, arg in ops:
            if arg is None:
                getattr(harness, name)()
            else:
                getattr(harness, name)(arg)
        for source in list(harness.logs):
            harness.refresh(source)
    finally:
        harness.service.store.close()
        shutil.rmtree(root, ignore_errors=True)
