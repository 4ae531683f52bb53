"""The generators: deterministic, and never asking the server to fail."""

import itertools
import json
from collections import Counter

import pytest

from perf import workloads as wl


def head(plan, n=200):
    """Warm-up, probes and the first ``n`` ops of every client, as bytes."""
    ops = list(plan.warmup) + list(plan.probes)
    for stream in plan.streams:
        ops += list(itertools.islice(stream, n))
    return [(op.path, op.body) for op in ops]


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_same_seed_same_request_bytes(name):
    assert head(wl.WORKLOADS[name](7)) == head(wl.WORKLOADS[name](7))


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_different_seed_different_requests(name):
    assert head(wl.WORKLOADS[name](7)) != head(wl.WORKLOADS[name](8))


def test_bodies_are_wire_format():
    for name, build in wl.WORKLOADS.items():
        for path, body in head(build(3), 50):
            payload = json.loads(body)
            if path == wl.INGEST:
                assert all(
                    len(u) == 3 and u[2] in ("insert", "delete") and u[0] != u[1]
                    for u in payload["updates"]
                ), name
            else:
                assert path == wl.QUERY and payload["op"] == "top_k"
                assert 0 <= payload["source"] < wl.SOURCE_SPACE
                assert payload["k"] == wl.K


def test_deletes_only_name_live_edges_of_this_run():
    import random

    live = Counter()
    sizes = []
    for op in itertools.islice(wl.sliding_window(random.Random(5)), 40):
        updates = json.loads(op.body)["updates"]
        sizes.append(len(updates))
        for u, v, kind in updates:
            assert 0 <= u < wl.ENDPOINT_SPACE and 0 <= v < wl.ENDPOINT_SPACE
            if kind == "insert":
                live[u, v] += 1
            else:
                assert live[u, v] > 0, "delete of an edge this run does not hold"
                live[u, v] -= 1
    assert sizes[: wl.WINDOW_LAG] == [wl.WINDOW_INSERTS] * wl.WINDOW_LAG
    assert set(sizes[wl.WINDOW_LAG :]) == {2 * wl.WINDOW_INSERTS}
    assert sum(live.values()) == wl.WINDOW_LAG * wl.WINDOW_INSERTS


def test_write_stream_primes_the_window_and_stops_on_the_wal_tail():
    plan = wl.write_stream(1)
    per_slide = 1 + wl.READS_PER_SLIDE
    primed = plan.warmup[wl.CACHE :]
    assert [op.kind for op in primed] == ["write", "read", "read", "read"] * wl.WINDOW_LAG
    first_timed = next(plan.streams[0])
    assert first_timed.kind == "write" and first_timed.updates == 2 * wl.WINDOW_INSERTS
    stops = [done for done in range(per_slide * 25) if plan.may_stop(done)]
    # 4 primed batches: the 1st, 11th, 21st timed batch make 5, 15, 25.
    assert stops == [per_slide * 1, per_slide * 11, per_slide * 21]
    residents = {op.source for op in plan.warmup[: wl.CACHE]}
    assert {op.source for op in plan.probes} <= residents
    reads = [op for op in itertools.islice(plan.streams[0], 400) if op.kind == "read"]
    assert {op.source for op in reads} <= residents


def test_hot_reads_stay_inside_the_resident_set():
    plan = wl.hot_reads(4)
    resident = {op.source for op in plan.warmup}
    assert len(resident) == wl.HOT_SOURCES <= wl.CACHE
    for stream in plan.streams:
        assert {op.source for op in itertools.islice(stream, 500)} <= resident


def test_cold_reads_never_repeat_within_the_cache_horizon():
    plan = wl.cold_reads(4)
    prefill = {op.source for op in plan.warmup}
    assert len(prefill) == wl.CACHE
    a = [op.source for op in itertools.islice(plan.streams[0], 1000)]
    b = [op.source for op in itertools.islice(plan.streams[1], 1000)]
    assert len(set(a + b)) == 2000 and not prefill & set(a + b)


def test_mixed_has_every_consistency_level_and_writes():
    ops = list(itertools.islice(wl.mixed_shards2(2).streams[0], 1000))
    lags = Counter(op.max_lag for op in ops if op.kind == "read")
    assert set(lags) == {0, wl.BOUNDED_LAG, None}
    writes = [op for op in ops if op.kind == "write"]
    assert 120 < len(writes) < 280 and {op.updates for op in writes} == {wl.MIXED_INSERTS}
