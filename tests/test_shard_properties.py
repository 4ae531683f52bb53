"""Property-based tests (hypothesis) for the shard partitioner.

The laws :class:`~repro.shard.partitioner.HashPartitioner` must honor
for the sharded tier to be correct (see the module docstring there):

1. **total and deterministic** — any vertex id maps to exactly one
   shard in ``[0, num_shards)``, the same one on every call, and the
   vectorized ``owners`` agrees bit-for-bit with the scalar ``owner``;
2. **manifest round-trip** — a partitioner rebuilt from its recovery
   manifest routes identically (a cold-started gateway must route like
   the one that wrote the checkpoints), and a manifest of any other
   placement kind is refused rather than routed by hash;
3. **balanced under skew** — the stateless hash splits even Zipf-drawn
   (heavy-tailed, duplicate-free) id sets to within a loose bound of
   even, so no shard silently inherits most of the graph;
4. **repartition-free** — ownership of an id never changes as the
   vertex universe grows (new ids appearing, capacity rising); a moved
   vertex would invalidate every shard's WAL history.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.shard.partitioner import HashPartitioner, partitioner_from_manifest

shard_counts = st.integers(1, 9)
vertex_ids = st.integers(0, 2**48 - 1)


# ---------------------------------------------------------------------- #
# 1. total, deterministic, scalar == vectorized
# ---------------------------------------------------------------------- #


@given(shards=shard_counts, ids=st.lists(vertex_ids, min_size=1, max_size=64))
def test_hash_routing_total_deterministic_and_vectorized(shards, ids):
    partitioner = HashPartitioner(shards)
    scalar = [partitioner.owner(v) for v in ids]
    assert all(0 <= owner < shards for owner in scalar)
    # Deterministic: a second pass and a fresh instance agree.
    assert scalar == [partitioner.owner(v) for v in ids]
    assert scalar == [HashPartitioner(shards).owner(v) for v in ids]
    vectorized = partitioner.owners(np.asarray(ids, dtype=np.int64))
    assert vectorized.tolist() == scalar


# ---------------------------------------------------------------------- #
# 2. manifest round-trip
# ---------------------------------------------------------------------- #


@given(shards=shard_counts, ids=st.lists(vertex_ids, min_size=1, max_size=64))
def test_manifest_round_trip_routes_identically(shards, ids):
    partitioner = HashPartitioner(shards)
    rebuilt = partitioner_from_manifest(partitioner.to_manifest())
    assert type(rebuilt) is HashPartitioner
    assert [rebuilt.owner(v) for v in ids] == [partitioner.owner(v) for v in ids]


#: Owners of vertices 0..15 as stores already on disk were placed.
STORED_OWNERS = {
    2: [1, 1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 0, 1],
    3: [1, 2, 1, 0, 1, 2, 2, 0, 1, 1, 1, 0, 0, 1, 2, 2],
    4: [3, 1, 2, 1, 2, 2, 0, 3, 2, 0, 2, 1, 3, 3, 2, 1],
}


@pytest.mark.parametrize("shards", sorted(STORED_OWNERS))
def test_stored_hash_manifest_rebuilds_the_same_routing(shards):
    """The manifest bytes and the placement they name never change, so a
    shard store written by an earlier build recovers with its routing."""
    stored = f'{{"kind": "hash", "shards": {shards}}}'
    assert json.dumps(HashPartitioner(shards).to_manifest(), sort_keys=True) == stored
    rebuilt = partitioner_from_manifest(json.loads(stored))
    assert rebuilt.owners(np.arange(16)).tolist() == STORED_OWNERS[shards]
    assert [rebuilt.owner(v) for v in range(16)] == STORED_OWNERS[shards]


@pytest.mark.parametrize(
    "payload",
    [
        {"kind": "degree", "shards": 2, "table_keys": [0, 1], "table_values": [1, 0]},
        {"kind": "range", "shards": 2},
    ],
    ids=["degree", "range"],
)
def test_other_manifest_kinds_are_refused_by_name(payload):
    """A table-placed store must never be routed by hash."""
    with pytest.raises(ConfigError, match=repr(payload["kind"])):
        partitioner_from_manifest(payload)


# ---------------------------------------------------------------------- #
# 3. hash balance under Zipf-like skew
# ---------------------------------------------------------------------- #


@given(
    shards=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    population=st.integers(2_000, 50_000),
)
@settings(max_examples=25, deadline=None)
def test_hash_balance_on_zipf_ids(shards, seed, population):
    """Distinct ids drawn Zipf-style still spread within 25% of even.

    The draw is heavy-tailed over a large id space (the adversarial
    shape real vertex ids take), deduplicated because placement is a
    function of the id set, not of draw frequency.
    """
    rng = np.random.default_rng(seed)
    drawn = rng.zipf(1.3, size=population)
    ids = np.unique(drawn[drawn < 2**48].astype(np.int64))
    assert len(ids) >= 100  # the bound below is meaningless on tiny sets
    owners = HashPartitioner(shards).owners(ids)
    counts = np.bincount(owners, minlength=shards)
    even = len(ids) / shards
    assert counts.max() <= even * 1.25, (
        f"worst shard holds {counts.max()} of {len(ids)} ids"
        f" ({counts.max() / even:.2f}x even split)"
    )


# ---------------------------------------------------------------------- #
# 4. repartition-free growth
# ---------------------------------------------------------------------- #


@given(
    shards=shard_counts,
    ids=st.lists(vertex_ids, min_size=1, max_size=48),
    growth=st.lists(vertex_ids, min_size=1, max_size=48),
)
def test_ownership_stable_under_vertex_growth(shards, ids, growth):
    """New vertices appearing never move existing ones.

    Placement is a pure function of the id — there is no dependence on
    the current vertex count, capacity, or insertion order — so the
    owners recorded before growth match the owners after.
    """
    partitioner = HashPartitioner(shards)
    before = {v: partitioner.owner(v) for v in ids}
    for v in growth:  # "grow" the universe: route brand-new ids
        assert 0 <= partitioner.owner(v) < shards
    assert {v: partitioner.owner(v) for v in ids} == before
