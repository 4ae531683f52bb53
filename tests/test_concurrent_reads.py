"""Cold reads off the gateway lock.

A single top-k read that misses the cache pushes and certifies with the
gateway lock released, against the view it pinned under the lock
(``PPRService._admit``). The contracts:

1. every thread pushes with its own kernel scratch: 2 and 4 threads
   pushing distinct sources against one view produce ``p``, ``r``, array
   lengths and integer iteration counters bit-identical to sequential
   pushes, under both kernels;
2. whatever runs while a cold read is parked inside its released push —
   an ingest, a second cold read of the same source, an eviction, a
   request with an expired deadline — the answers, the cache and the
   counters are those of a serialized twin service fed the same
   sequence; a racer that lost is discarded and counted in
   ``admission_races``;
3. a cache hit and a read nested in ``submit_many`` never release;
4. the lock accounting: ``queue.wait`` gets one observation per request.

The property-based version (a parked read inside the durable service
machine) is ``TestParkedColdRead`` in ``tests/test_store_properties.py``.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro import (
    Backend,
    DynamicDiGraph,
    PPRConfig,
    PPRService,
    PPRState,
    ServeConfig,
    insertions,
    kernels,
    obs,
)
from repro.api.requests import Deadline, IngestBatch, Prefetch, TopKQuery
from repro.config import KernelConfig, KernelMode
from repro.core.push_parallel import parallel_local_push
from repro.graph.csr import CSRGraph
from repro.graph.delta import DeltaCSRGraph
from repro.graph.generators import erdos_renyi_graph
from tests.conftest import WAIT_S, Parked, lock_held

HAVE_COMPILED = kernels.load_library()[0] is not None

KERNELS = [
    pytest.param(
        KernelMode.COMPILED,
        marks=pytest.mark.skipif(not HAVE_COMPILED, reason="no C compiler"),
        id="compiled",
    ),
    pytest.param(KernelMode.NUMPY, id="numpy"),
]

def _config(mode: KernelMode, epsilon: float = 1e-4) -> PPRConfig:
    return PPRConfig(
        epsilon=epsilon,
        backend=Backend.NUMPY,
        workers=4,
        kernel=KernelConfig(mode=mode),
    )


def _bits(vector: np.ndarray) -> bytes:
    return vector.tobytes()


def _answer_bits(entries) -> list:
    return [
        (e.vertex, e.estimate.hex(), e.lower.hex(), e.upper.hex(), e.position_certified)
        for e in entries
    ]


# ---------------------------------------------------------------------- #
# 1: per-thread kernel scratch
# ---------------------------------------------------------------------- #

#: Integer IterationRecord fields (``residual_pushed`` is the float one).
INT_FIELDS = (
    "frontier_size",
    "edge_traversals",
    "atomic_adds",
    "enqueue_attempts",
    "dedup_checks",
    "enqueued",
    "second_pass_enqueued",
)


def _push(view, config, source):
    state = PPRState.initial(source, view.num_vertices)
    stats = parallel_local_push(state, None, config, seeds=[source], csr=view)
    counters = [
        (rec.phase, *(getattr(rec, name) for name in INT_FIELDS))
        for rec in stats.iterations
    ]
    return len(state.p), len(state.r), _bits(state.p), _bits(state.r), counters


@pytest.fixture
def fast_switching():
    """Hand the GIL over every 10 microseconds, so Python-level sections of
    concurrent pushes interleave as finely as the interpreter allows."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(interval)


@pytest.mark.parametrize("mode", KERNELS)
@pytest.mark.parametrize("threads", [2, 4])
def test_concurrent_pushes_equal_sequential_bit_for_bit(mode, threads, fast_switching):
    rng = np.random.default_rng(7)
    graph = DynamicDiGraph(map(tuple, erdos_renyi_graph(400, 4000, rng=rng).tolist()))
    view = DeltaCSRGraph.wrap(CSRGraph.from_digraph(graph))
    view.kernel_arrays()
    config = _config(mode, epsilon=1e-6)
    sources = [3 * i + 1 for i in range(2 * threads)]
    expected = {s: _push(view, config, s) for s in sources}

    got: dict[int, tuple] = {}
    errors: list[BaseException] = []
    barrier = threading.Barrier(threads)

    def worker(mine):
        try:
            barrier.wait()
            for source in mine:
                got[source] = _push(view, config, source)
        except BaseException as exc:  # surfaced below, not lost in the thread
            errors.append(exc)

    pool = [
        threading.Thread(target=worker, args=(sources[i::threads],))
        for i in range(threads)
    ]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join(WAIT_S)
    assert not errors, errors
    assert got == expected


# ---------------------------------------------------------------------- #
# 2: deterministic interleavings
# ---------------------------------------------------------------------- #


def _graph() -> DynamicDiGraph:
    rng = np.random.default_rng(11)
    return DynamicDiGraph(map(tuple, erdos_renyi_graph(60, 400, rng=rng).tolist()))


def _service(mode: KernelMode, capacity: int = 4) -> PPRService:
    return PPRService(_graph(), _config(mode), ServeConfig(cache_capacity=capacity))


def _in_thread(fn, *args):
    """Run ``fn`` on another thread; fail (not hang) if it blocks."""
    out: list = []
    thread = threading.Thread(target=lambda: out.append(fn(*args)))
    thread.start()
    thread.join(WAIT_S)
    assert not thread.is_alive(), f"{fn} blocked behind the parked read"
    return out[0]


def _counts(service: PPRService) -> dict:
    metrics = service.metrics()
    return {
        "hits": metrics.cache_hits,
        "misses": metrics.cache_misses,
        "evictions": metrics.evictions,
        "admissions": metrics.cold_admissions,
        "memo_hits": metrics.answer_memo_hits,
        "queries": metrics.queries,
    }


def _kernel_calls() -> int:
    return kernels.counters()["kernel_calls"]


def _same_cache(service: PPRService, twin: PPRService) -> None:
    assert service.resident_sources() == twin.resident_sources()
    for entry in service.cache.entries():
        other = twin.cache.peek(entry.source)
        assert _bits(entry.state.p) == _bits(other.state.p)
        assert _bits(entry.state.r) == _bits(other.state.r)
        assert entry.version == other.version
        assert entry.updates_reflected == other.updates_reflected


def _topk(service: PPRService, source: int, k: int = 5):
    return service.gateway.submit(TopKQuery(source=source, k=k))


@pytest.mark.parametrize("mode", KERNELS)
def test_an_ingest_completes_while_a_cold_read_is_parked(mode):
    service, twin = _service(mode), _service(mode)
    for s in (0, 1):
        _topk(service, s), _topk(twin, s)
    batch = insertions([(7, 2), (2, 7), (9, 7)])

    calls = _kernel_calls()
    parked = Parked(service)
    parked.read(7)
    ingested = _in_thread(
        service.gateway.submit, IngestBatch(updates=tuple(batch))
    )
    assert ingested.ok and ingested.snapshot_version == 1
    answer = parked.go()
    racing_calls = _kernel_calls() - calls

    calls = _kernel_calls()
    twin.ingest(batch)
    want = _topk(twin, 7)
    twin_calls = _kernel_calls() - calls

    assert answer.ok and answer.cold
    assert answer.snapshot_version == want.snapshot_version == 1
    assert _answer_bits(answer.entries) == _answer_bits(want.entries)
    assert service.metrics().admission_races == 1
    assert twin.metrics().admission_races == 0
    assert _counts(service) == _counts(twin)
    # The discarded racer's push is the only extra kernel work.
    assert racing_calls >= twin_calls
    if mode is KernelMode.NUMPY:
        assert racing_calls == twin_calls == 0
    _same_cache(service, twin)


@pytest.mark.parametrize("mode", KERNELS)
def test_a_second_cold_read_of_the_parked_source_leaves_one_resident(mode):
    service, twin = _service(mode), _service(mode)
    parked = Parked(service)
    parked.read(5)
    second = _in_thread(_topk, service, 5)  # pushes, installs, answers
    first = parked.go()  # lost: 5 is resident now, answered as a hit

    want_second, want_first = _topk(twin, 5), _topk(twin, 5)
    assert second.cold and not first.cold
    assert not want_first.cold
    assert _answer_bits(first.entries) == _answer_bits(want_first.entries)
    assert _answer_bits(second.entries) == _answer_bits(want_second.entries)
    assert service.resident_sources() == [5]
    assert service.metrics().admission_races == 1
    assert _counts(service) == _counts(twin)
    _same_cache(service, twin)


@pytest.mark.parametrize("mode", KERNELS)
def test_an_eviction_during_the_park_leaves_the_cache_consistent(mode):
    service, twin = _service(mode, capacity=2), _service(mode, capacity=2)
    for s in (0, 1):
        _topk(service, s), _topk(twin, s)

    calls = _kernel_calls()
    parked = Parked(service)
    parked.read(8)
    other = _in_thread(_topk, service, 9)  # cold too: evicts 0
    service.cache.evict(1)  # and an explicit eviction
    answer = parked.go()  # installs into the freed slot
    racing_calls = _kernel_calls() - calls

    calls = _kernel_calls()
    want_other = _topk(twin, 9)
    twin.cache.evict(1)
    want = _topk(twin, 8)
    twin_calls = _kernel_calls() - calls

    assert _answer_bits(other.entries) == _answer_bits(want_other.entries)
    assert _answer_bits(answer.entries) == _answer_bits(want.entries)
    assert service.resident_sources() == [9, 8]
    assert service.metrics().admission_races == 0
    assert _counts(service) == _counts(twin)
    assert racing_calls == twin_calls
    _same_cache(service, twin)


@pytest.mark.parametrize("mode", KERNELS)
def test_an_expired_deadline_still_fails_while_a_read_is_parked(mode):
    service = _service(mode)
    parked = Parked(service)
    parked.read(4)
    expired = Deadline.after_ms(1, now=time.monotonic() - 1)
    late = _in_thread(
        service.gateway.submit, TopKQuery(source=0, k=5, deadline=expired)
    )
    assert late.error is not None and late.error.code == "DEADLINE"
    answer = parked.go()
    assert answer.ok and answer.cold
    assert service.gateway.counters["deadline_exceeded"] == 1
    assert service.resident_sources() == [4]  # the failed read admitted nothing


@pytest.mark.parametrize("mode", KERNELS)
def test_counters_of_an_uncontended_run_equal_the_serialized_path(mode):
    """One thread, no races: the released path is the locked path's twin."""
    service = _service(mode, capacity=3)
    twin = _service(mode, capacity=3)
    trace = [0, 1, 2, 0, 3, 4, 1, 4, 4]
    calls = _kernel_calls()
    for s in trace:
        _topk(service, s)
    released_calls = _kernel_calls() - calls
    calls = _kernel_calls()
    # Holding the gateway lock keeps every nested read on the locked path.
    with twin.gateway._lock:
        for s in trace:
            twin.gateway.submit(TopKQuery(source=s, k=5))
    assert _kernel_calls() - calls == released_calls
    assert _counts(service) == _counts(twin)
    assert service.metrics().admission_races == 0
    _same_cache(service, twin)


# ---------------------------------------------------------------------- #
# 3, 4: what never releases, and the lock accounting
# ---------------------------------------------------------------------- #


def _released(service: PPRService) -> list:
    seen = []
    real = service.pool.admit

    def admit(view, source, capacity):
        seen.append(not lock_held(service))
        return real(view, source, capacity)

    service.pool.admit = admit
    return seen


def test_hits_and_scheduled_reads_never_release():
    service = _service(KernelMode.NUMPY)
    seen = _released(service)
    _topk(service, 0)
    assert seen == [True]
    _topk(service, 0)  # a hit: no admission at all
    service.gateway.submit_many([TopKQuery(source=s, k=5) for s in (1, 2)])
    service.query_many([3])
    assert seen == [True, False, False, False]  # one push per cold source


def test_a_cold_read_after_a_prefetch_pushes_only_its_own_source():
    """A prefetch pushes its sources when it is asked to, so the next cold
    read still gives the lock up, and pushes nobody's source but its own."""
    service = _service(KernelMode.NUMPY, capacity=32)
    prefetched = tuple(range(20))
    response = service.gateway.submit(Prefetch(sources=prefetched))
    assert response.ok and response.admitted == 20
    assert set(service.resident_sources()) == set(prefetched)
    seen = _released(service)
    parked = Parked(service)
    parked.read(40)  # parks: the push runs with the lock released
    answer = parked.go()
    assert answer.ok and answer.cold
    assert seen == [True]
    assert service.metrics().cold_admissions == 21


def test_queue_wait_is_observed_once_per_request():
    obs.reset()
    service = _service(KernelMode.NUMPY)

    def waits():
        histogram = obs.TRACER.histograms.get("queue.wait")
        return 0 if histogram is None else histogram.count

    _topk(service, 0)  # released: two acquisitions, one observation
    _topk(service, 0)
    service.ingest(insertions([(0, 1)]))
    assert waits() == 3
