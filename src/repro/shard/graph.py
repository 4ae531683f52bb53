"""The partitioned dynamic graph one shard process holds.

A :class:`ShardGraph` is one shard's slice of the logical
:class:`~repro.graph.digraph.DynamicDiGraph`: it stores the **complete
in-adjacency row** of every vertex the partitioner assigns to this
shard, and only *dense degree/presence arrays* — 17 bytes per vertex —
for everything else. The expensive structure (nested adjacency dicts,
~100+ bytes per edge) is partitioned; the cheap per-vertex summaries are
replicated, because the push engines need every target's out-degree
(``(1 - alpha) * w / dout[target]``) and the restore-invariant needs
``out_degree(u)`` for arbitrary ``u``. Every shard applies **every**
write batch (updating its replicated arrays and whichever owned rows the
batch touches), so graph versions, capacities, and degree arrays stay in
lock-step across the fleet without any cross-shard coordination beyond
the batch itself.

Owned rows follow the oracle's dict discipline *exactly* — same
insertion order, same multiplicity arithmetic, same
:class:`~repro.errors.EdgeError` text — because the frontier-exchange
protocol promises that a row fetched from its owner is bit-identical to
the row a single-process :class:`CSRGraph` snapshot would have stored
(``docs/sharding.md``).

:class:`ShardCSRView` adapts a live :class:`ShardGraph` to the ``CSRView``
protocol the vectorized push engine consumes (``num_vertices``, ``dout``,
``gather_in_edges``), resolving non-owned rows through a pluggable
``fetch`` callable and exposing the ``prefetch_rows`` hook
(:func:`repro.core.push_vectorized.vectorized_phase`) so each push
iteration fetches all its remote rows in one batched round per owner.
The view is *live* — always at the graph's current version — which is
sound because the coordinator serializes pushes against mutation.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Callable, Iterator, Sequence
from itertools import chain
from typing import Any

import numpy as np

from ..errors import ClusterError, ConfigError, EdgeError, VertexError
from ..graph.update import EdgeOp, EdgeUpdate, as_batch
from .partitioner import HashPartitioner, partitioner_from_manifest

#: ``fetch(owner, ids, weights) -> {id: in_row}`` — resolve remote rows.
FetchFn = Callable[[int, np.ndarray, np.ndarray], dict[int, np.ndarray]]


def adjacency_triples(adjacency: dict[int, dict[int, int]]) -> np.ndarray:
    """``(row, neighbor, multiplicity)`` int64 triples in nested dict order.

    The order-exact dump of one adjacency direction, built by
    ``np.fromiter`` over chained dict views instead of one Python tuple
    per distinct edge (a checkpoint pays this on the ingest ack path).
    """
    rows = adjacency.values()
    lens = np.fromiter(map(len, rows), dtype=np.int64, count=len(adjacency))
    total = int(lens.sum())
    triples = np.empty((total, 3), dtype=np.int64)
    triples[:, 0] = np.repeat(
        np.fromiter(adjacency, dtype=np.int64, count=len(adjacency)), lens
    )
    triples[:, 1] = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=total)
    triples[:, 2] = np.fromiter(
        chain.from_iterable(map(dict.values, rows)), dtype=np.int64, count=total
    )
    return triples


class ShardGraph:
    """One shard's partition of the logical dynamic multigraph.

    Parameters
    ----------
    partitioner:
        The fleet-wide vertex placement function; ``owner(v)`` decides
        which in-rows this instance stores.
    shard_id:
        This shard's index in ``[0, partitioner.num_shards)``.
    """

    __slots__ = (
        "partitioner",
        "shard_id",
        "_in",
        "_dout",
        "_din",
        "_present",
        "_rows",
        "_num_vertices",
        "_num_edges",
        "_owned_edges",
        "_max_vertex",
    )

    def __init__(self, partitioner: HashPartitioner, shard_id: int) -> None:
        if not 0 <= shard_id < partitioner.num_shards:
            raise ConfigError(
                f"shard_id must be in [0, {partitioner.num_shards}), got {shard_id}"
            )
        self.partitioner = partitioner
        self.shard_id = shard_id
        # Owned in-adjacency rows, oracle dict discipline: v -> {u: count}.
        self._in: dict[int, dict[int, int]] = {}
        # Replicated dense per-vertex summaries (backing arrays grow
        # geometrically; the logical prefix is [:capacity]).
        self._dout = np.zeros(0, dtype=np.int64)
        self._din = np.zeros(0, dtype=np.int64)
        self._present = np.zeros(0, dtype=bool)
        # Expanded-row cache (np.repeat output), invalidated per mutated row.
        self._rows: dict[int, np.ndarray] = {}
        self._num_vertices = 0
        self._num_edges = 0
        self._owned_edges = 0
        self._max_vertex = -1

    # ------------------------------------------------------------------ #
    # vertices
    # ------------------------------------------------------------------ #

    def _grow(self, capacity: int) -> None:
        if capacity <= len(self._present):
            return
        size = max(capacity, 2 * len(self._present), 16)
        for name in ("_dout", "_din"):
            old = getattr(self, name)
            new = np.zeros(size, dtype=np.int64)
            new[: len(old)] = old
            setattr(self, name, new)
        present = np.zeros(size, dtype=bool)
        present[: len(self._present)] = self._present
        self._present = present

    def add_vertex(self, u: int) -> None:
        """Register ``u`` (no-op when already present)."""
        if u < 0:
            raise VertexError(u, f"vertex ids must be >= 0, got {u}")
        self._grow(u + 1)
        if not self._present[u]:
            self._present[u] = True
            self._num_vertices += 1
            if u > self._max_vertex:
                self._max_vertex = u

    def has_vertex(self, u: int) -> bool:
        return 0 <= u < len(self._present) and bool(self._present[u])

    def vertices(self) -> Iterator[int]:
        """All vertex ids ever seen, in ascending id order.

        Unlike the oracle this is *not* insertion order — the shard keeps
        no per-vertex dict to remember it. Nothing numeric consumes this
        order (the sharded tier never builds a CSR from it); it exists
        for stats and debugging.
        """
        return iter(np.flatnonzero(self._present).tolist())

    def owns(self, v: int) -> bool:
        """Whether this shard stores ``v``'s in-adjacency row."""
        return self.partitioner.owner(v) == self.shard_id

    def owned_vertices(self) -> np.ndarray:
        """Present vertex ids this shard owns (ascending)."""
        ids = np.flatnonzero(self._present).astype(np.int64)
        if not ids.size:
            return ids
        return ids[self.partitioner.owners(ids) == self.shard_id]

    @property
    def num_vertices(self) -> int:
        return self._num_vertices

    @property
    def max_vertex_id(self) -> int:
        return self._max_vertex

    @property
    def capacity(self) -> int:
        """Array length needed to index every vertex (``max_vertex_id + 1``)."""
        return self._max_vertex + 1

    # ------------------------------------------------------------------ #
    # edges
    # ------------------------------------------------------------------ #

    def add_edge(self, u: int, v: int, count: int = 1) -> None:
        """Insert ``count`` parallel copies of edge ``u -> v``."""
        if count < 1:
            raise EdgeError(u, v, f"count must be >= 1, got {count}")
        self.add_vertex(u)
        self.add_vertex(v)
        self._dout[u] += count
        self._din[v] += count
        self._num_edges += count
        if self.owns(v):
            row = self._in.get(v)
            if row is None:
                row = self._in[v] = {}
            row[u] = row.get(u, 0) + count
            self._owned_edges += count
            self._rows.pop(v, None)

    def remove_edge(self, u: int, v: int, count: int = 1) -> None:
        """Delete ``count`` copies of edge ``u -> v``.

        Only ``v``'s owner holds the multiplicity and can actually
        validate the delete (raising the oracle's exact
        :class:`~repro.errors.EdgeError`); a non-owning shard *trusts*
        that the coordinator ran its cross-shard ``VALIDATE`` round first
        and merely adjusts its replicated degree arrays. Feeding a
        non-owning shard an unvalidated delete is a protocol violation,
        caught here only when the endpoints were never registered.
        """
        if count < 1:
            raise EdgeError(u, v, f"count must be >= 1, got {count}")
        if self.owns(v):
            existing = self._in.get(v, {}).get(u, 0)
            if existing < count:
                raise EdgeError(
                    u, v,
                    f"cannot delete {count} copies of {u}->{v}:"
                    f" multiplicity is {existing}",
                )
            if existing == count:
                del self._in[v][u]
            else:
                self._in[v][u] = existing - count
            self._owned_edges -= count
            self._rows.pop(v, None)
        elif not (self.has_vertex(u) and self.has_vertex(v)):
            raise EdgeError(
                u, v,
                f"cannot delete unvalidated edge {u}->{v} on shard"
                f" {self.shard_id} (owner is {self.partitioner.owner(v)})",
            )
        self._dout[u] -= count
        self._din[v] -= count
        self._num_edges -= count

    @property
    def num_edges(self) -> int:
        """Total edge count of the *logical* graph, with multiplicities."""
        return self._num_edges

    @property
    def owned_edges(self) -> int:
        """Edges whose in-row lives on this shard, with multiplicities."""
        return self._owned_edges

    # ------------------------------------------------------------------ #
    # degrees / rows
    # ------------------------------------------------------------------ #

    def out_degree(self, u: int) -> int:
        """Out-degree with multiplicity; 0 for unknown vertices."""
        if 0 <= u < len(self._dout):
            return int(self._dout[u])
        return 0

    def in_degree(self, u: int) -> int:
        """In-degree with multiplicity; 0 for unknown vertices."""
        if 0 <= u < len(self._din):
            return int(self._din[u])
        return 0

    @property
    def dout(self) -> np.ndarray:
        """Dense out-degree array over ``[0, capacity)`` (a live view)."""
        return self._dout[: self.capacity]

    @property
    def din(self) -> np.ndarray:
        """Dense in-degree array over ``[0, capacity)`` (a live view)."""
        return self._din[: self.capacity]

    def in_row(self, v: int) -> np.ndarray:
        """Dense in-adjacency row of owned vertex ``v``, order-exact.

        Bit-identical to :meth:`DynamicDiGraph.in_row
        <repro.graph.digraph.DynamicDiGraph.in_row>` on the oracle:
        neighbors in row-dict insertion order, parallel copies
        contiguous. Cached per row; mutation invalidates the cache.
        """
        row = self._rows.get(v)
        if row is not None:
            return row
        nbrs = self._in.get(v)
        if not nbrs:
            row = np.empty(0, dtype=np.int64)
        else:
            ids = np.fromiter(nbrs.keys(), dtype=np.int64, count=len(nbrs))
            counts = np.fromiter(nbrs.values(), dtype=np.int64, count=len(nbrs))
            row = np.repeat(ids, counts)
        self._rows[v] = row
        return row

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #

    def apply(self, update: EdgeUpdate) -> None:
        """Apply one edge update."""
        if update.op is EdgeOp.INSERT:
            self.add_edge(update.u, update.v)
        else:
            self.remove_edge(update.u, update.v)

    def apply_batch(self, updates: np.ndarray, *, kernel=None) -> np.ndarray:
        """Apply a ``(k, 3)`` batch in order; return each update's
        ``dout_after`` (the record batch ``RestoreInvariant`` repairs from).

        Not atomic on its own: the coordinator validates every batch
        across the fleet first (:meth:`validate_batch`). ``kernel`` is
        accepted for :meth:`DynamicDiGraph.apply_batch
        <repro.graph.digraph.DynamicDiGraph.apply_batch>` parity.
        """
        dout_after = np.empty(len(updates), dtype=np.int64)
        for j, (u, v, op) in enumerate(as_batch(updates).tolist()):
            self.apply(EdgeUpdate(u, v, EdgeOp(op)))
            dout_after[j] = self.out_degree(u)
        return dout_after

    def validate_batch(
        self, updates: Sequence[EdgeUpdate]
    ) -> tuple[int, EdgeError] | None:
        """Simulate a batch against this shard's owned rows, no mutation.

        Returns ``(index, error)`` for the first update this shard's
        owned multiplicities reject when the batch is applied in order
        (the error carries the oracle's exact message for that position),
        or ``None`` when every owned delete is covered. The coordinator
        takes the minimum index across shards, so an invalid batch is
        rejected *atomically* — no shard has mutated anything — where the
        single-process oracle would have stopped mid-batch.
        """
        delta: dict[tuple[int, int], int] = {}
        for index, update in enumerate(updates):
            if not self.owns(update.v):
                continue
            key = (update.u, update.v)
            if update.op is EdgeOp.INSERT:
                delta[key] = delta.get(key, 0) + 1
                continue
            existing = self._in.get(update.v, {}).get(update.u, 0) + delta.get(key, 0)
            if existing < 1:
                return index, EdgeError(
                    update.u, update.v,
                    f"cannot delete 1 copies of {update.u}->{update.v}:"
                    f" multiplicity is {existing}",
                )
            delta[key] = delta.get(key, 0) - 1
        return None

    # ------------------------------------------------------------------ #
    # construction / serialization
    # ------------------------------------------------------------------ #

    @classmethod
    def from_full_arrays(
        cls,
        arrays: dict[str, np.ndarray],
        partitioner: HashPartitioner,
        shard_id: int,
    ) -> "ShardGraph":
        """Carve this shard's slice out of a full-graph ``to_arrays()`` dump.

        The oracle's ``in_edges`` triples arrive in nested dict order;
        filtering them to owned rows preserves that relative order, so
        the rebuilt ``_in`` dicts iterate exactly as they would had this
        shard applied the whole history incrementally.
        """
        g = cls(partitioner, shard_id)
        vertices = np.asarray(arrays["vertices"], dtype=np.int64)
        if vertices.size:
            g._grow(int(vertices.max()) + 1)
            for u in vertices.tolist():
                g.add_vertex(u)
        out_edges = np.asarray(arrays["out_edges"], dtype=np.int64).reshape(-1, 3)
        in_edges = np.asarray(arrays["in_edges"], dtype=np.int64).reshape(-1, 3)
        if len(out_edges):
            np.add.at(g._dout, out_edges[:, 0], out_edges[:, 2])
        if len(in_edges):
            np.add.at(g._din, in_edges[:, 0], in_edges[:, 2])
        g._num_edges = int(out_edges[:, 2].sum()) if len(out_edges) else 0
        if len(in_edges):
            owned = partitioner.owners(in_edges[:, 0]) == shard_id
            for v, u, count in in_edges[owned].tolist():
                row = g._in.get(v)
                if row is None:
                    row = g._in[v] = {}
                row[u] = count
                g._owned_edges += count
        return g

    def to_arrays(self) -> dict[str, Any]:
        """Serialize this shard's slice order-exactly to plain arrays.

        The owned-row triples record dict iteration order the same way
        the oracle's codec does, so a checkpoint/restore cycle leaves
        ``in_row`` output bit-identical. ``meta`` embeds the partitioner
        manifest, making the payload self-describing for recovery.
        """
        capacity = self.capacity
        meta = {
            "shard": self.shard_id,
            "shards": self.partitioner.num_shards,
            "partitioner": self.partitioner.to_manifest(),
            "max_vertex": self._max_vertex,
            "num_vertices": self._num_vertices,
            "num_edges": self._num_edges,
            "owned_edges": self._owned_edges,
        }
        return {
            "meta": np.asarray(json.dumps(meta)),
            "present": self._present[:capacity].copy(),
            "dout": self._dout[:capacity].copy(),
            "din": self._din[:capacity].copy(),
            "in_edges": adjacency_triples(self._in),
        }

    @classmethod
    def from_arrays(
        cls, arrays: dict[str, Any], partitioner: HashPartitioner | None = None
    ) -> "ShardGraph":
        """Rebuild a shard slice serialized by :meth:`to_arrays`."""
        meta = json.loads(str(np.asarray(arrays["meta"])))
        if partitioner is None:
            partitioner = partitioner_from_manifest(meta["partitioner"])
        if partitioner.num_shards != int(meta["shards"]):
            raise ConfigError(
                f"checkpoint written for {meta['shards']} shards,"
                f" partitioner has {partitioner.num_shards}"
            )
        g = cls(partitioner, int(meta["shard"]))
        present = np.asarray(arrays["present"], dtype=bool)
        g._grow(len(present))
        g._present[: len(present)] = present
        g._dout[: len(present)] = np.asarray(arrays["dout"], dtype=np.int64)
        g._din[: len(present)] = np.asarray(arrays["din"], dtype=np.int64)
        g._max_vertex = int(meta["max_vertex"])
        g._num_vertices = int(meta["num_vertices"])
        g._num_edges = int(meta["num_edges"])
        g._owned_edges = int(meta["owned_edges"])
        for v, u, count in np.asarray(
            arrays["in_edges"], dtype=np.int64
        ).reshape(-1, 3).tolist():
            row = g._in.get(v)
            if row is None:
                row = g._in[v] = {}
            row[u] = count
        return g

    # ------------------------------------------------------------------ #
    # accounting / debugging
    # ------------------------------------------------------------------ #

    def memory_bytes(self) -> int:
        """Resident bytes of this shard's graph structures.

        Dense arrays by ``nbytes`` (backing length — what is actually
        resident), dict structure by ``sys.getsizeof`` of each table
        (``tests/test_shard.py::TestPerShardMemory`` applies the same
        accounting to the whole graph as one slice).
        """
        total = self._dout.nbytes + self._din.nbytes + self._present.nbytes
        total += sys.getsizeof(self._in)
        for nbrs in self._in.values():
            total += sys.getsizeof(nbrs)
        total += sys.getsizeof(self._rows)
        for row in self._rows.values():
            total += row.nbytes
        return total

    def check_consistency(self) -> None:
        """Validate internal invariants (used by tests; O(n + rows))."""
        assert self._num_vertices == int(self._present.sum()), "presence count"
        owned_total = 0
        for v, nbrs in self._in.items():
            assert self.owns(v), f"non-owned row {v} stored on shard {self.shard_id}"
            row_sum = sum(nbrs.values())
            owned_total += row_sum
            assert row_sum == self.in_degree(v), f"din mismatch at {v}"
        assert owned_total == self._owned_edges, "owned edge count"
        cap = self.capacity
        assert int(self._dout[:cap].sum()) == self._num_edges, "dout mass"
        assert int(self._din[:cap].sum()) == self._num_edges, "din mass"

    def __repr__(self) -> str:
        return (
            f"ShardGraph(shard={self.shard_id}/{self.partitioner.num_shards},"
            f" n={self.num_vertices}, m={self.num_edges},"
            f" owned_edges={self._owned_edges})"
        )


class ShardCSRView:
    """Live ``CSRView`` adapter over one :class:`ShardGraph`.

    Quacks like the frozen :class:`~repro.graph.csr.CSRGraph` where the
    vectorized push engine is concerned — ``num_vertices``, ``dout``,
    ``gather_in_edges`` — but reads the live shard graph, so it is
    always at the current version and never rebuilt. Rows this shard
    does not own resolve through ``fetch`` (one batched round per owner
    per push iteration, via the engine's ``prefetch_rows`` hook); the
    fetched rows are cached until :meth:`clear_remote`, which the
    sharded service calls before every applied batch.
    """

    __slots__ = ("graph", "_fetch", "_remote")

    def __init__(self, graph: ShardGraph, fetch: FetchFn | None = None) -> None:
        self.graph = graph
        self._fetch = fetch
        self._remote: dict[int, np.ndarray] = {}

    def bind_fetch(self, fetch: FetchFn | None) -> None:
        """Install the remote-row resolver (the worker's exchange channel)."""
        self._fetch = fetch

    # -- CSRView protocol ------------------------------------------------ #

    @property
    def num_vertices(self) -> int:
        return self.graph.capacity

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    @property
    def dout(self) -> np.ndarray:
        return self.graph.dout

    def ensure_covers(self, capacity: int) -> None:
        if self.num_vertices < capacity:
            raise ConfigError(
                f"snapshot covers {self.num_vertices} ids,"
                f" graph needs {capacity}"
            )

    def gather_in_edges(self, frontier: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """In-edges of ``frontier``, order-exact with the oracle's CSR.

        Rows concatenate in frontier order, each row in its owner's
        insertion order — exactly the sequence
        :meth:`CSRGraph.gather_in_edges
        <repro.graph.csr.CSRGraph.gather_in_edges>` produces, so the
        float summation order inside the push (and hence the certified
        top-k) is bit-identical to the single-process engine.
        """
        rows = [self._row(int(v)) for v in np.asarray(frontier, dtype=np.int64)]
        counts = np.fromiter((len(r) for r in rows), dtype=np.int64, count=len(rows))
        total = int(counts.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        sources = np.repeat(np.arange(len(rows), dtype=np.int64), counts)
        return sources, np.concatenate(rows)

    # -- distributed resolution ------------------------------------------ #

    def prefetch_rows(self, frontier: np.ndarray, weights: np.ndarray) -> None:
        """Fetch every remote row of ``frontier`` in one round per owner.

        Invoked by :func:`repro.core.push_vectorized.vectorized_phase` at
        the top of each push iteration. ``weights`` is the residual mass
        the iteration is about to push from each frontier vertex; it
        rides the frontier frame for observability.
        """
        graph = self.graph
        frontier = np.asarray(frontier, dtype=np.int64)
        owners = graph.partitioner.owners(frontier)
        remote = owners != graph.shard_id
        if not remote.any():
            return
        ids = frontier[remote]
        need = np.fromiter(
            (v not in self._remote for v in ids.tolist()),
            dtype=bool,
            count=len(ids),
        )
        if not need.any():
            return
        ids = ids[need]
        masses = np.asarray(weights, dtype=np.float64)[remote][need]
        id_owners = owners[remote][need]
        for owner in np.unique(id_owners).tolist():
            mask = id_owners == owner
            self._absorb(int(owner), ids[mask], masses[mask])

    def _absorb(self, owner: int, ids: np.ndarray, masses: np.ndarray) -> None:
        rows = self._require_fetch()(owner, ids, masses)
        self._remote.update(rows)
        missing = [int(v) for v in ids.tolist() if v not in self._remote]
        if missing:
            raise ClusterError(
                f"shard {owner} answered a frontier fetch without rows"
                f" for {missing[:5]}"
            )

    def _row(self, v: int) -> np.ndarray:
        graph = self.graph
        if graph.owns(v):
            return graph.in_row(v)
        row = self._remote.get(v)
        if row is None:
            # Fallback for callers outside the push loop (no prefetch).
            self._absorb(
                graph.partitioner.owner(v),
                np.array([v], dtype=np.int64),
                np.zeros(1, dtype=np.float64),
            )
            row = self._remote[v]
        return row

    def _require_fetch(self) -> FetchFn:
        if self._fetch is None:
            raise ClusterError(
                f"shard {self.graph.shard_id} needs a remote in-row but has"
                " no exchange channel (ShardCSRView.bind_fetch not called)"
            )
        return self._fetch

    def clear_remote(self) -> None:
        """Drop cached remote rows (stale once any batch applies)."""
        self._remote.clear()

    @property
    def remote_rows(self) -> int:
        """Currently-cached remote row count (stats surface)."""
        return len(self._remote)

    def memory_bytes(self) -> int:
        total = sys.getsizeof(self._remote)
        for row in self._remote.values():
            total += row.nbytes
        return total

    def __repr__(self) -> str:
        return (
            f"ShardCSRView(shard={self.graph.shard_id},"
            f" n={self.num_vertices}, remote_rows={len(self._remote)})"
        )
