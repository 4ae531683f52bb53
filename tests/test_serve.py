"""Serving-layer tests: LRU cache, admission pool, PPRService semantics.

Covers the acceptance points of the serving layer: cache eviction order,
snapshot-version consistency under interleaved ingests and queries, and
equivalence of served top-k answers with fresh ``certified_top_k``
computations on the same graph.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    Backend,
    ConfigError,
    DynamicDiGraph,
    EdgeOp,
    EdgeUpdate,
    PPRConfig,
    PPRService,
    ServeConfig,
    insertions,
    parallel_local_push,
)
from repro.api.requests import BatchQuery, Stats, TopKQuery
from repro.core.certify import certified_top_k, topk_matches
from repro.core.hub_index import DynamicHubIndex
from repro.core.invariant import check_invariant
from repro.core.state import PPRState
from repro.core.tracker import DynamicPPRTracker
from repro.graph.csr import CSRGraph
from repro.graph.stream import SlidingWindow
from repro.kernels import counters as kernel_counters
from repro.serve import AdmissionPool, ResidentSource, SourceCache

from tests.conftest import random_graph


def _entry(source: int, capacity: int = 8) -> ResidentSource:
    return ResidentSource(PPRState.initial(source, capacity), version=0, updates_reflected=0)


NUMPY_CONFIG = PPRConfig(epsilon=1e-6, backend=Backend.NUMPY, workers=4)


# ---------------------------------------------------------------------- #
# SourceCache
# ---------------------------------------------------------------------- #


class TestSourceCache:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ConfigError):
            SourceCache(0)

    def test_evicts_least_recently_used_first(self):
        cache = SourceCache(capacity=3)
        for s in (1, 2, 3):
            assert cache.put(_entry(s)) == []
        assert cache.get(1).source == 1  # 1 becomes MRU; 2 is now LRU
        evicted = cache.put(_entry(4))
        assert [e.source for e in evicted] == [2]
        assert cache.sources() == [3, 1, 4]  # LRU -> MRU

    def test_eviction_order_follows_query_sequence(self):
        cache = SourceCache(capacity=2)
        cache.put(_entry(10))
        cache.put(_entry(20))
        cache.get(10)
        cache.get(20)
        cache.get(10)  # order now: 20 (LRU), 10 (MRU)
        assert [e.source for e in cache.put(_entry(30))] == [20]
        assert [e.source for e in cache.put(_entry(40))] == [10]
        assert cache.evictions == 2

    def test_readmission_replaces_in_place(self):
        cache = SourceCache(capacity=2)
        cache.put(_entry(1))
        cache.put(_entry(2))
        fresh = _entry(1)
        assert cache.put(fresh) == []
        assert cache.peek(1) is fresh
        assert len(cache) == 2

    def test_hit_miss_counters_and_peek_neutrality(self):
        cache = SourceCache(capacity=2)
        cache.put(_entry(1))
        assert cache.get(1) is not None
        assert cache.get(9) is None
        cache.peek(1)  # must not count
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5

    def test_explicit_evict(self):
        cache = SourceCache(capacity=2)
        cache.put(_entry(1))
        assert cache.evict(1).source == 1
        assert cache.evict(1) is None
        assert cache.evictions == 1


# ---------------------------------------------------------------------- #
# AdmissionPool
# ---------------------------------------------------------------------- #


class TestAdmissionPool:
    def test_admitted_state_matches_tracker(self, rng):
        graph = random_graph(rng)
        pool = AdmissionPool(NUMPY_CONFIG)
        state = pool.admit(CSRGraph.from_digraph(graph), 5, graph.capacity)
        tracker = DynamicPPRTracker(graph.copy(), 5, NUMPY_CONFIG)
        assert state.allclose(tracker.state, atol=1e-9)


# ---------------------------------------------------------------------- #
# PPRService
# ---------------------------------------------------------------------- #


def _service(graph, **serve_kwargs) -> PPRService:
    return PPRService(graph, NUMPY_CONFIG, ServeConfig(**serve_kwargs))


class TestPPRService:
    def test_cold_then_warm_query(self, rng):
        service = _service(random_graph(rng), cache_capacity=4)
        first = service.query(0, k=3)
        second = service.query(0, k=3)
        assert first.cold and not second.cold
        assert first.vertices == second.vertices
        assert service.is_resident(0)

    def test_lru_eviction_through_query_path(self, rng):
        service = _service(random_graph(rng), cache_capacity=2)
        for s in (0, 1, 2):
            service.query(s)
        assert not service.is_resident(0)
        assert service.resident_sources() == [1, 2]
        assert service.query(0).cold  # readmitted from scratch

    def test_snapshot_version_advances_and_answers_track_it(self, rng):
        graph = random_graph(rng)
        service = _service(graph.copy(), cache_capacity=4)
        assert service.query(0).snapshot_version == 0
        service.ingest(insertions([(0, 5), (5, 9)]))
        service.ingest(insertions([(9, 0)]))
        answer = service.query(0)
        assert service.graph_version == 2
        assert answer.snapshot_version == 2
        assert answer.staleness_updates == 3

    def test_interleaved_updates_and_queries_stay_consistent(self, rng):
        graph = random_graph(rng)
        service = _service(graph, cache_capacity=4)
        sources = [0, 1, 2]
        for step, s in enumerate(sources):
            service.query(s)
            service.ingest(insertions([(s, 10 + step), (10 + step, s)]))
        for s in sources:
            answer = service.query(s)
            assert answer.snapshot_version == service.graph_version
            entry = service.cache.peek(s)
            assert entry.version == service.graph_version
            assert entry.state.residual_linf() <= NUMPY_CONFIG.epsilon
            assert check_invariant(entry.state, graph, NUMPY_CONFIG.alpha, tol=1e-8)

    def test_served_topk_matches_fresh_certified_top_k(self, rng):
        graph = random_graph(rng)
        service = _service(graph.copy(), cache_capacity=4)
        reference_graph = graph.copy()
        service.query(3)
        updates = insertions([(3, 7), (7, 11), (11, 3), (5, 3)])
        service.ingest(updates)
        served = service.query(3, k=5)

        tracker = DynamicPPRTracker(reference_graph, 3, NUMPY_CONFIG)
        tracker.apply_batch(updates)
        fresh = certified_top_k(tracker.state, 5)
        assert topk_matches(served.entries, fresh, NUMPY_CONFIG.epsilon)
        served_est = {e.vertex: e.estimate for e in served.entries}
        for entry in fresh:
            if entry.vertex in served_est:
                assert served_est[entry.vertex] == pytest.approx(
                    entry.estimate, abs=2 * NUMPY_CONFIG.epsilon
                )

    def test_query_many_admits_cold_sources_in_shared_batches(self, rng):
        graph = random_graph(rng)
        service = _service(graph, cache_capacity=8)
        answers = service.query_many([0, 1, 2, 3, 4, 0], k=3)
        assert [a.cold for a in answers] == [True] * 5 + [False]
        metrics = service.metrics()
        assert metrics.cold_admissions == 5
        assert metrics.snapshot_rebuilds == 1  # one shared snapshot overall

    def test_query_for_unknown_vertex_admits_a_new_user(self, rng):
        """A query for an id beyond the graph's capacity must not crash.

        Regression: admission used the cached capacity-sized snapshot,
        so a brand-new user's id indexed out of bounds.
        """
        graph = random_graph(rng)
        service = _service(graph, cache_capacity=4)
        service.query(0)  # populate the snapshot cache at the old capacity
        new_user = graph.capacity + 50
        answer = service.query(new_user)
        assert answer.cold
        assert answer.vertices[0] == new_user  # isolated: only self mass
        # v1 follows the new user: v1 now contributes to (discovers) them.
        service.ingest(insertions([(1, new_user)]))
        followers = service.query(new_user, k=3)
        assert 1 in followers.vertices

    def test_query_many_with_unknown_vertices(self, rng):
        service = _service(random_graph(rng), cache_capacity=8)
        new_users = [200, 201]
        answers = service.query_many(new_users + [0], k=2)
        assert all(a.cold for a in answers)
        assert answers[0].vertices[0] == 200

    def test_pool_rejects_stale_snapshot(self, rng):
        graph = random_graph(rng)
        stale = CSRGraph.from_digraph(graph)
        pool = AdmissionPool(NUMPY_CONFIG)
        graph.add_vertex(graph.capacity + 10)  # grows the graph past the snapshot
        with pytest.raises(ConfigError):
            pool.admit(stale, graph.capacity - 1, graph.capacity)

    def test_prefetched_unknown_vertex_survives_query_many_drain(self, rng):
        """Regression: a prefetched new-user id is registered and admitted."""
        service = _service(random_graph(rng), cache_capacity=8)
        service.prefetch(500)  # id beyond the graph's capacity
        answers = service.query_many([0], k=2)
        assert answers[0].cold
        assert service.is_resident(500)

    def test_admission_batch_wider_than_cache_still_answers(self, rng):
        """Regression: the queried source must not be LRU-evicted by the
        admissions around it when more sources are admitted than fit."""
        service = _service(random_graph(rng), cache_capacity=2)
        for s in (3, 4, 5, 6, 7, 8):
            service.prefetch(s)
        answer = service.query(0)
        assert answer.cold
        assert service.is_resident(0)

    def test_query_many_counts_cold_sources_as_misses(self, rng):
        service = _service(random_graph(rng), cache_capacity=8)
        service.query_many([0, 1, 2], k=2)
        metrics = service.metrics()
        assert metrics.cache_misses == 3
        assert metrics.cache_hits == 0

    def test_edge_toggles_grow_no_resident_state_and_refresh_like_a_seeded_twin(
        self, rng
    ):
        """Toggling one edge over and over leaves the resident's bookkeeping
        the size it was, and its next refresh is the push a twin of its
        state runs seeded with the one vertex the toggles touched."""
        service = _service(random_graph(rng), cache_capacity=4)
        service.query(0)
        entry = service.cache.peek(0)

        def footprint() -> dict:
            sizes = {
                name: len(value) if hasattr(value, "__len__") else None
                for name, value in vars(entry).items()
            }
            return sizes | {"p": len(entry.state.p), "r": len(entry.state.r)}

        def toggle(rounds: int) -> None:
            for _ in range(rounds):
                service.ingest(insertions([(1, 2)]))
                service.ingest([EdgeUpdate(1, 2, EdgeOp.DELETE)])
                service.ingest([])  # empty batches must not grow anything either

        toggle(5)
        few = footprint()
        toggle(50)
        service.ingest(insertions([(1, 2)]))
        assert footprint() == few
        twin = entry.state.copy()
        expected = parallel_local_push(
            twin, service.graph, NUMPY_CONFIG, seeds=[1], csr=service._snapshot()
        )
        assert expected.num_iterations > 0
        assert service._refresh(entry) == expected
        for ours, theirs in ((entry.state.p, twin.p), (entry.state.r, twin.r)):
            assert np.array_equal(ours.view(np.int64), theirs.view(np.int64))

    def test_prefetch_rides_next_admission_batch(self, rng):
        service = _service(random_graph(rng), cache_capacity=4)
        service.prefetch(7)
        assert service.is_resident(7)  # pushed when it was asked for
        assert service.metrics().cold_admissions == 1
        service.query(1)
        assert service.is_resident(7)
        assert not service.query(7).cold

    def test_ingest_accepts_window_slide_and_external_snapshot(self, rng):
        edges = rng.integers(0, 30, size=(400, 2))
        edges = edges[edges[:, 0] != edges[:, 1]]
        window = SlidingWindow(edges, batch_size=10)
        graph = DynamicDiGraph(map(tuple, window.initial_edges.tolist()))
        service = _service(graph, cache_capacity=4)
        service.query(int(edges[0, 0]))
        slide = window.slide()
        service.ingest(slide)
        service.set_snapshot(window.snapshot(capacity=service.graph.capacity))
        rebuilds_before = service.metrics().snapshot_rebuilds
        answer = service.query(int(edges[0, 0]))
        assert answer.snapshot_version == 1
        # the installed snapshot was used; no extra rebuild happened
        assert service.metrics().snapshot_rebuilds == rebuilds_before

    def test_hub_tier_matches_standalone_hub_index(self, rng):
        graph = random_graph(rng)
        reference_graph = graph.copy()
        service = PPRService(
            graph, NUMPY_CONFIG, ServeConfig(cache_capacity=4, num_hubs=3)
        )
        updates = insertions([(0, 9), (9, 4), (4, 0)])
        service.ingest(updates)

        standalone = DynamicHubIndex(
            reference_graph, hubs=service.hubs, config=NUMPY_CONFIG
        )
        standalone.apply_batch(updates)
        for hub in service.hubs:
            for v in range(10):
                assert service.hub_index.contribution(v, hub) == pytest.approx(
                    standalone.contribution(v, hub), abs=2 * NUMPY_CONFIG.epsilon
                )
        assert service.rank_for_hub(service.hubs[0], 3)
        assert service.hub_scores(0)

    def test_hub_accessors_raise_without_hub_tier(self, rng):
        service = _service(random_graph(rng))
        with pytest.raises(ConfigError):
            service.hub_scores(0)
        with pytest.raises(ConfigError):
            service.rank_for_hub(0, 3)

    def test_metrics_sample_buffers_are_bounded(self, rng):
        service = _service(random_graph(rng), cache_capacity=4)
        metrics = service.metrics()
        metrics.MAX_SAMPLES = 10  # shadow the class attribute for the test
        service.query(0)
        for _ in range(30):
            service.query(0)
        assert len(metrics.staleness_samples) <= 10
        assert len(metrics.query_seconds) <= 10
        assert metrics.queries == 31  # lifetime counter is untrimmed

    def test_metrics_staleness_percentiles(self, rng):
        service = _service(random_graph(rng), cache_capacity=4)
        service.query(0)
        service.ingest(insertions([(0, 3)]))
        service.query(0)
        metrics = service.metrics()
        assert metrics.queries == 2
        assert metrics.staleness_percentile(100) >= 1
        assert "staleness" in metrics.describe()


    def test_refuses_the_pure_backend(self, rng):
        with pytest.raises(ConfigError, match="Backend.NUMPY"):
            PPRService(random_graph(rng), PPRConfig())


# ---------------------------------------------------------------------- #
# BatchQuery: the reads one by one
# ---------------------------------------------------------------------- #

#: Process-wide counters (compared as deltas) and wall-clock figures.
UNCOMPARED_STATS = {
    "queries_per_second",
    "latency_p50_s",
    "latency_p99_s",
    "latency_p999_s",
    "kernel_calls",
    "kernel_fallbacks",
    "push_iterations",
    "gateway",
    "obs",
}


def _served(sources, capacity, *, batched):
    """Answers, ``/v1/stats`` counters and kernel work of one read sequence.

    Sources 0 and 5 are made resident first and an ingest then leaves
    them one version behind, so a FRESH read of either is a hit that
    refreshes.
    """
    service = _service(
        random_graph(np.random.default_rng(5)), cache_capacity=capacity
    )
    for s in (0, 5):
        service.gateway.submit(TopKQuery(source=s, k=4))
    service.ingest(insertions([(0, 5), (5, 9), (9, 0)]))
    before = kernel_counters()
    if batched:
        batch = service.gateway.submit(BatchQuery(sources=tuple(sources), k=4))
        assert batch.ok
        results = batch.results
    else:
        results = [service.gateway.submit(TopKQuery(source=s, k=4)) for s in sources]
    work = {
        key: value - before[key] for key, value in kernel_counters().items()
    }
    stats = service.gateway.submit(Stats()).stats
    answers = [
        (r.source, r.entries, r.cold, r.snapshot_version, r.staleness)
        for r in results
    ]
    counted = {k: v for k, v in stats.items() if k not in UNCOMPARED_STATS}
    return answers, counted, work, service.resident_sources()


class TestBatchQueryIsReadsInOrder:
    def test_cold_sources_wider_than_the_cache_are_each_pushed_once(self, rng):
        service = _service(random_graph(rng), cache_capacity=2)
        batch = service.gateway.submit(BatchQuery(sources=(0, 1, 2, 3), k=3))
        assert batch.ok and [r.cold for r in batch.results] == [True] * 4
        metrics = service.metrics()
        assert (metrics.cold_admissions, metrics.evictions) == (4, 2)
        assert service.resident_sources() == [2, 3]

    @pytest.mark.parametrize("capacity", range(1, 7))
    @pytest.mark.parametrize(
        "sources",
        [
            (1, 2, 3, 4),
            (1, 2, 1, 3, 2, 1),
            (0, 1, 5, 0, 2, 5),
            (4, 4, 0, 4, 0),
            (6, 7, 8, 9, 10, 11, 12, 6),
        ],
        ids=["distinct", "repeats", "residents", "resident-repeats", "wide"],
    )
    def test_batch_answers_what_the_reads_one_by_one_answer(self, capacity, sources):
        batched = _served(sources, capacity, batched=True)
        one_by_one = _served(sources, capacity, batched=False)
        assert batched[0] == one_by_one[0]  # entries bit for bit, cold flags
        assert batched[1] == one_by_one[1]  # every /v1/stats counter
        assert batched[2] == one_by_one[2]  # the same kernel work
        assert batched[3] == one_by_one[3]  # the same residents, in LRU order
        assert batched[1]["admission_races"] == 0


# ---------------------------------------------------------------------- #
# ServeConfig validation
# ---------------------------------------------------------------------- #


class TestAnswerMemo:
    """A resident keeps the answers certified from its current state: a hit
    returns what ``certified_top_k`` would, and nothing that rewrites the
    state leaves one behind. (`tests/test_store_properties.py` runs the
    same contract under a hypothesis interleaving.)"""

    @pytest.fixture
    def counted(self, rng, monkeypatch):
        """(service, calls): ``calls`` grows by one per certify run."""
        import repro.serve.service as engine

        calls = []

        def counting(state, k):
            calls.append(k)
            return certified_top_k(state, k)

        monkeypatch.setattr(engine, "certified_top_k", counting)
        return _service(random_graph(rng), cache_capacity=4), calls

    @staticmethod
    def recomputed(service, source, k):
        return certified_top_k(service.cache.peek(source).state, k)

    def test_certify_runs_once_per_state_and_k(self, counted):
        from repro.api.metrics import render_prometheus

        service, calls = counted
        first = service.query(0, k=5)
        assert service.query(0, k=5).entries == first.entries
        assert calls == [5]
        assert service.query(0, k=3).entries == first.entries[:3]  # not k=5's
        assert service.query(0, k=3).entries == self.recomputed(service, 0, 3)
        assert calls == [5, 3]

        # RestoreInvariant moves r — the certified bounds — of a resident
        # that nobody refreshes: the memo goes with the graph version.
        service.ingest(insertions([(0, 5), (5, 9)]))
        stale = service.query(0, k=5, max_staleness=None)
        assert stale.snapshot_version == 0 and stale.entries != first.entries
        assert stale.entries == self.recomputed(service, 0, 5)
        assert service.query(0, k=5, max_staleness=None).entries == stale.entries
        assert calls == [5, 3, 5]

        # ... and with the entry's own version on a refresh.
        fresh = service.query(0, k=5)
        assert fresh.snapshot_version == 1
        assert fresh.entries == self.recomputed(service, 0, 5)
        assert calls == [5, 3, 5, 5]

        # Eviction drops the entry, memo and all.
        service.cache.evict(0)
        assert service.query(0, k=5).cold
        assert calls == [5, 3, 5, 5, 5]

        stats = service.metrics().to_dict()
        assert stats["answer_memo_hits"] == 3
        assert stats["queries"] - stats["answer_memo_hits"] == len(calls)
        assert "repro_answer_memo_hits_total 3" in render_prometheus(stats)

    def test_a_hit_is_a_fresh_list(self, counted):
        service, calls = counted
        first = service.query(0, k=5)
        kept = list(first.entries)
        first.entries.clear()
        again = service.query(0, k=5)
        assert again.entries == kept and again.entries is not first.entries
        assert calls == [5]

    def test_query_many_shares_the_memo(self, counted):
        service, calls = counted
        answers = service.query_many([0, 1, 0, 1, 0], k=4)
        assert calls == [4, 4]
        for answer in answers:
            assert answer.entries == self.recomputed(service, answer.source, 4)

    def test_a_push_that_raises_leaves_no_memo_behind(self, counted, monkeypatch):
        """The versions move only when a refresh returns; by then a failed
        one has rewritten ``p`` and ``r`` under the memo's key."""
        import repro.serve.service as engine
        from repro.errors import ConvergenceError

        service, _ = counted
        service.query(0, k=5)
        service.ingest(insertions([(0, 5), (5, 9)]))
        before = service.query(0, k=5, max_staleness=None).entries
        push = engine.parallel_local_push

        def push_then_fail(*args, **kwargs):
            push(*args, **kwargs)
            raise ConvergenceError(1, 0.0)

        monkeypatch.setattr(engine, "parallel_local_push", push_then_fail)
        with pytest.raises(ConvergenceError):
            service.query(0, k=5)
        after = service.query(0, k=5, max_staleness=None).entries
        assert after != before
        assert after == self.recomputed(service, 0, 5)

    def test_a_rejected_batch_keeps_the_state_and_its_memo(self, counted):
        """A batch the graph rejects changes nothing: no version, no ``p``
        or ``r`` bit, and the memo still answers — with what a fresh
        certify of the untouched state returns."""
        from repro import EdgeError, deletions

        service, calls = counted
        before = service.query(0, k=5).entries
        state = service.cache.peek(0).state
        p, r = state.p.tobytes(), state.r.tobytes()
        top = before[0].vertex
        with pytest.raises(EdgeError):
            service.ingest(insertions([(top, 29)]) + deletions([(28, 28)]))
        assert service.graph_version == 0
        assert (state.p.tobytes(), state.r.tobytes()) == (p, r)
        after = service.query(0, k=5, max_staleness=None).entries
        assert after == before
        assert calls == [5]  # served from the memo
        assert after == self.recomputed(service, 0, 5)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"cache_capacity": 0},
        {"store": "ppr-store"},
        {"num_hubs": -1},
        {"top_k": 0},
    ],
)
def test_serve_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        ServeConfig(**kwargs)


def test_serve_config_with_replaces_fields():
    cfg = ServeConfig().with_(cache_capacity=128, top_k=5)
    assert cfg.cache_capacity == 128
    assert cfg.top_k == 5


# ---------------------------------------------------------------------- #
# shared-snapshot hooks grown for the serving layer
# ---------------------------------------------------------------------- #


def test_sliding_window_snapshot_matches_digraph_rebuild(rng):
    edges = rng.integers(0, 25, size=(300, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    window = SlidingWindow(edges, batch_size=8)
    graph = DynamicDiGraph(map(tuple, window.initial_edges.tolist()))
    for _ in range(3):
        for update in window.slide().updates:
            graph.apply(update)
    hook = window.snapshot(capacity=graph.capacity)
    rebuilt = CSRGraph.from_digraph(graph)
    assert hook.num_edges == rebuilt.num_edges
    np.testing.assert_array_equal(hook.dout, rebuilt.dout)
    for v in range(graph.capacity):
        assert sorted(hook.in_neighbors(v)) == sorted(rebuilt.in_neighbors(v))


def test_tracker_apply_batch_accepts_external_snapshot(rng):
    graph = random_graph(rng)
    with_hook = DynamicPPRTracker(graph.copy(), 0, NUMPY_CONFIG)
    without = DynamicPPRTracker(graph.copy(), 0, NUMPY_CONFIG)
    updates = insertions([(0, 6), (6, 12)])
    plain = without.apply_batch(updates)
    snapshot_graph = graph.copy()
    snapshot_graph.apply_batch(updates)
    hooked = with_hook.apply_batch(
        updates, snapshot=CSRGraph.from_digraph(snapshot_graph)
    )
    assert with_hook.state.allclose(without.state, atol=1e-12)
    assert hooked.push.pushes == plain.push.pushes


def test_multi_source_tracker_top_k_and_snapshot(rng):
    graph = random_graph(rng)
    index = DynamicHubIndex(graph, hubs=[0, 1], config=NUMPY_CONFIG)
    updates = insertions([(1, 8), (8, 0)])
    snapshot_graph = graph.copy()
    snapshot_graph.apply_batch(updates)
    index.apply_batch(updates, snapshot=CSRGraph.from_digraph(snapshot_graph))
    top = index.rank_for_hub(0, 3)
    assert len(top) == 3
    assert top[0].vertex == 0  # the source dominates its own PPR vector
