"""Incremental delta-CSR snapshots: per-batch overlays over a frozen base.

:class:`~repro.graph.csr.CSRGraph` snapshots are immutable, so prior to
this module every consumer that needed a fresh view after an update batch
paid a full O(n + m) rebuild — on the serving layer's ingest hot path
that rebuild, not the push itself, dominated steady-state throughput at
the paper's small batch sizes. Dynamic-graph systems (LLAMA's delta
snapshots, GraphOne's hybrid store) solve this with a compact read-
optimized base plus a small mutable overlay that is periodically
consolidated; :class:`DeltaCSRGraph` is that discipline for our in-CSR.

Representation
--------------
* ``base`` — an immutable :class:`CSRGraph` (the last consolidation);
* ``_rows`` — replacement in-adjacency rows for exactly the vertices
  whose in-neighborhood changed since ``base`` (a few per batch);
* ``_patched`` — a dense boolean mask over vertex ids marking which rows
  are overridden (vectorized membership tests on the hot path);
* ``dout`` — the *current* dense out-degree array, maintained
  incrementally per batch.

Every read — :meth:`gather_in_edges`, :meth:`in_neighbors`,
:meth:`in_degrees` — resolves patched vertices against the overlay and
everything else against the base, so a view after ``b`` batches costs
O(sum of touched-vertex degrees) to build instead of O(m), while reads
stay within a small constant of the frozen CSR.

Order exactness
---------------
The overlay is built two ways, each *bit-compatible* with the full
rebuild it replaces:

* :meth:`apply_updates` re-materializes the rows of batch-touched
  vertices from the live :class:`~repro.graph.digraph.DynamicDiGraph`
  (:meth:`~repro.graph.digraph.DynamicDiGraph.in_row`), which reproduces
  the adjacency-dict iteration order
  :meth:`CSRGraph.from_digraph <repro.graph.csr.CSRGraph.from_digraph>`
  would store. Merged neighbor iteration therefore feeds the vectorized
  push the *same float summation order* as a rebuilt snapshot, and
  :meth:`consolidate` produces arrays equal to ``from_digraph`` —
  checkpointed rebuilds stay bit-identical (``docs/performance.md``).
* :meth:`apply_edge_delta` maintains sliding-window order (rows are
  window-edge subsequences): a slide appends the inserted sources and
  drops the deleted (oldest) ones, which are always a row prefix. This
  is the :meth:`repro.graph.stream.SlidingWindow.delta_snapshot` mode,
  bit-compatible with ``CSRGraph.from_edge_array`` over the window.

Once the overlay footprint exceeds ``threshold * m`` the view is
consolidated into a fresh frozen base (amortized O(m) numpy merge, no
Python per-edge loop), bounding both read overhead and memory.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..errors import ConfigError, GraphError
from .csr import CSRGraph
from .digraph import DynamicDiGraph
from .update import EdgeUpdate

#: Default consolidation trigger: consolidate once the overlay holds more
#: than this fraction of the base's edges (see ``docs/performance.md``).
DEFAULT_OVERLAY_THRESHOLD = 0.25

_EMPTY_ROW = np.empty(0, dtype=np.int64)


def interleave_undirected(edges: np.ndarray) -> np.ndarray:
    """Each edge followed immediately by its reverse (undirected model).

    The one definition of the undirected expansion order shared by
    :meth:`repro.graph.stream.SlidingWindow.snapshot` and
    :meth:`DeltaCSRGraph.apply_edge_delta` — it is load-bearing for their
    bit-exactness contract: per-edge interleaving keeps every window row
    a stream-ordered subsequence, so slides stay suffix appends and
    prefix drops.
    """
    both = np.empty((2 * len(edges), 2), dtype=np.int64)
    both[0::2] = edges
    both[1::2] = edges[:, ::-1]
    return both


def _flat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``[starts[i], starts[i]+counts[i])`` ranges, loop-free."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    return np.arange(total, dtype=np.int64) - offsets + np.repeat(starts, counts)


class DeltaCSRGraph:
    """A CSR-compatible snapshot view: frozen base + per-batch row overlay.

    Implements the narrow snapshot interface the push engines consume
    (``dout``, ``num_vertices``, ``num_edges``, :meth:`gather_in_edges`,
    :meth:`in_neighbors`, :meth:`in_degree`, :meth:`in_degrees`,
    :meth:`ensure_covers`), so it can stand in for a
    :class:`~repro.graph.csr.CSRGraph` everywhere a snapshot is shared —
    the vectorized push, the Ligra baseline, admission pools and hub
    re-convergence.

    Views are persistent (apply methods return a *new* view sharing the
    base and row arrays), so an in-flight consumer of the previous
    version is never mutated under its feet.
    """

    __slots__ = (
        "base",
        "dout",
        "_rows",
        "_patched",
        "num_vertices",
        "num_edges",
        "_entries",
        "_kernel",
    )

    def __init__(
        self,
        base: CSRGraph,
        dout: np.ndarray,
        rows: dict[int, np.ndarray],
        patched: np.ndarray,
        num_edges: int,
        overlay_entries: int,
    ) -> None:
        if len(dout) < base.num_vertices:
            raise GraphError(
                f"dout covers {len(dout)} ids, base needs {base.num_vertices}"
            )
        self.base = base
        self.dout = dout
        self._rows = rows
        self._patched = patched
        self.num_vertices = len(dout)
        self.num_edges = num_edges
        self._entries = overlay_entries  # sum of len(row) over rows, carried
        self._kernel: dict | None = None

    @classmethod
    def wrap(cls, base: CSRGraph) -> "DeltaCSRGraph":
        """An empty overlay over ``base`` (reads delegate entirely to it)."""
        return cls(
            base,
            base.dout,
            {},
            np.zeros(base.num_vertices, dtype=bool),
            base.num_edges,
            0,
        )

    # ------------------------------------------------------------------ #
    # overlay construction
    # ------------------------------------------------------------------ #

    def with_capacity(self, capacity: int) -> "DeltaCSRGraph":
        """A view whose dense arrays span ``capacity`` vertex ids.

        Registering a vertex grows the graph's id space without touching
        any adjacency; this pads the overlay instead of forcing the full
        rebuild the frozen CSR would need.
        """
        if capacity <= self.num_vertices:
            return self
        dout = np.zeros(capacity, dtype=np.int64)
        dout[: self.num_vertices] = self.dout
        patched = np.zeros(capacity, dtype=bool)
        patched[: self.num_vertices] = self._patched
        return DeltaCSRGraph(
            self.base, dout, dict(self._rows), patched, self.num_edges, self._entries
        )

    def apply_updates(
        self, graph: DynamicDiGraph, updates: Sequence[EdgeUpdate]
    ) -> "DeltaCSRGraph":
        """The view after one ingested batch (graph-backed, order-exact).

        ``graph`` must *already reflect* ``updates`` — the serving layer
        mutates the shared graph once per update and then derives the new
        snapshot. Cost is O(batch + sum of touched in-degrees + n_copy)
        where the copies are flat memcpys, never a per-edge Python loop
        over the whole graph.
        """
        cap = max(graph.capacity, self.num_vertices)
        dout = np.zeros(cap, dtype=np.int64)
        dout[: self.num_vertices] = self.dout
        patched = np.zeros(cap, dtype=bool)
        patched[: self.num_vertices] = self._patched
        if updates:
            ins = np.fromiter(
                (u.u for u in updates if u.is_insert), dtype=np.int64
            )
            dels = np.fromiter(
                (u.u for u in updates if u.is_delete), dtype=np.int64
            )
            if ins.size:
                dout += np.bincount(ins, minlength=cap)
            if dels.size:
                dout -= np.bincount(dels, minlength=cap)
        rows = dict(self._rows)
        entries = self._entries
        touched = list({u.v for u in updates})
        for v in touched:
            replaced = len(rows.get(v, _EMPTY_ROW))
            rows[v] = graph.in_row(v)
            entries += len(rows[v]) - replaced
            patched[v] = True
        view = DeltaCSRGraph(self.base, dout, rows, patched, graph.num_edges, entries)
        if self._kernel is not None:
            view._kernel = self._advance_kernel(view, touched)
        return view

    def _advance_kernel(self, view: "DeltaCSRGraph", touched: list[int]) -> dict | None:
        """``view``'s kernel arrays derived from this predecessor's.

        The first compiled read after every batch used to rebuild the
        layout from scratch — linear in the overlay's rows, which only
        grow until consolidation. Deriving it costs three flat table
        copies plus this batch's rows appended to the overlay buffer;
        the rows they replace stay behind as dead space. Returns ``None``
        (rebuild lazily, compactly) once dead space outweighs live rows,
        so an overlay that never consolidates cannot grow the buffer
        without bound.
        """
        ka = self._kernel
        n = view.num_vertices
        rows = [view._rows[v] for v in touched]
        lens = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        buffer = ka["overlay_indices"]
        if len(buffer) + int(lens.sum()) > 2 * view.overlay_entries:
            return None
        tables = {}
        for name in ("row_start", "row_count", "row_overlay"):
            table = np.zeros(n, dtype=ka[name].dtype)
            table[: len(ka[name])] = ka[name]
            tables[name] = table
        ids = np.array(touched, dtype=np.int64)
        tables["row_start"][ids] = len(buffer) + np.cumsum(lens) - lens
        tables["row_count"][ids] = lens
        tables["row_overlay"][ids] = 1
        return {
            "num_rows": int(n),
            **tables,
            "base_indices": ka["base_indices"],
            "overlay_indices": np.concatenate([buffer, *rows]),
            "overlay_live": view.overlay_entries,
            "dout": np.ascontiguousarray(view.dout),
        }

    def apply_edge_delta(
        self,
        insert_edges: np.ndarray,
        delete_edges: np.ndarray,
        *,
        capacity: int | None = None,
        undirected: bool = False,
    ) -> "DeltaCSRGraph":
        """The view after one window slide (edge-array-backed).

        Maintains :meth:`CSRGraph.from_edge_array` window order without a
        backing graph: inserted edges append their source to the target's
        row; deleted edges are the *oldest* window edges, so their
        contributions are a prefix of each touched row and are dropped
        from the front. ``undirected`` expands every edge into both
        directions, interleaved per edge — matching
        :meth:`repro.graph.stream.SlidingWindow.snapshot`.
        """
        insert_edges = np.asarray(insert_edges, dtype=np.int64).reshape(-1, 2)
        delete_edges = np.asarray(delete_edges, dtype=np.int64).reshape(-1, 2)
        high = self.num_vertices
        if insert_edges.size:
            high = max(high, int(insert_edges.max()) + 1)
        if capacity is not None:
            if capacity < high:
                raise GraphError(
                    f"capacity {capacity} is smaller than the id space {high}"
                )
            high = capacity
        view = self.with_capacity(high)

        inserts = (
            interleave_undirected(insert_edges)
            if undirected and insert_edges.size
            else insert_edges
        )
        deletes = (
            interleave_undirected(delete_edges)
            if undirected and delete_edges.size
            else delete_edges
        )

        if deletes.size and int(deletes.max()) >= high:
            raise GraphError(
                f"delete edges reference id {int(deletes.max())}"
                f" outside the view's id space {high}"
            )
        dout = view.dout.copy()
        if inserts.size:
            dout += np.bincount(inserts[:, 0], minlength=high)
        if deletes.size:
            dout -= np.bincount(deletes[:, 0], minlength=high)

        rows = dict(view._rows)
        entries = view._entries
        patched = view._patched.copy()
        drop: dict[int, int] = {}
        for v in deletes[:, 1].tolist():
            drop[v] = drop.get(v, 0) + 1
        append: dict[int, list[int]] = {}
        for u, v in inserts.tolist():
            append.setdefault(v, []).append(u)
        for v in drop.keys() | append.keys():
            row = rows[v] if patched[v] else view._base_row(v)
            entries -= len(rows.get(v, _EMPTY_ROW))
            k = drop.get(v, 0)
            if k:
                if k > len(row):
                    raise GraphError(
                        f"cannot drop {k} oldest in-edges of {v}: row has {len(row)}"
                    )
                row = row[k:]
            extra = append.get(v)
            if extra:
                row = np.concatenate([row, np.asarray(extra, dtype=np.int64)])
            rows[v] = row
            entries += len(row)
            patched[v] = True
        num_edges = self.num_edges + len(inserts) - len(deletes)
        return DeltaCSRGraph(view.base, dout, rows, patched, num_edges, entries)

    # ------------------------------------------------------------------ #
    # reads (the narrow snapshot interface)
    # ------------------------------------------------------------------ #

    def _base_row(self, u: int) -> np.ndarray:
        if u >= self.base.num_vertices:
            return _EMPTY_ROW
        return self.base.in_neighbors(u)

    def in_neighbors(self, u: int) -> np.ndarray:
        """In-neighbor ids of ``u`` (multiplicities expanded)."""
        if self._patched[u]:
            return self._rows[u]
        return self._base_row(u)

    def in_degree(self, u: int) -> int:
        if self._patched[u]:
            return len(self._rows[u])
        if u >= self.base.num_vertices:
            return 0
        return self.base.in_degree(u)

    def in_degrees(self, ids: np.ndarray) -> np.ndarray:
        """In-degrees of ``ids`` (overlay-aware, vectorized)."""
        counts = np.zeros(len(ids), dtype=np.int64)
        in_base = ids < self.base.num_vertices
        fb = ids[in_base]
        counts[in_base] = self.base.indptr[fb + 1] - self.base.indptr[fb]
        for i in np.flatnonzero(self._patched[ids]).tolist():
            counts[i] = len(self._rows[int(ids[i])])
        return counts

    def gather_in_edges(self, frontier: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """All in-edges of ``frontier`` vertices as flat arrays.

        Same contract (and, for graph-backed overlays, the same edge
        order) as :meth:`CSRGraph.gather_in_edges`: unpatched rows are
        gathered from the base in one vectorized copy; patched rows —
        a handful per batch — are spliced in at their frontier position.
        """
        if not self._rows and self.num_vertices == self.base.num_vertices:
            return self.base.gather_in_edges(frontier)
        patched = self._patched[frontier]
        counts = self.in_degrees(frontier)
        total = int(counts.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        dst = np.cumsum(counts) - counts
        targets = np.empty(total, dtype=np.int64)
        plain = ~patched & (frontier < self.base.num_vertices)
        if plain.any():
            cnts = counts[plain]
            flat_src = _flat_ranges(self.base.indptr[frontier[plain]], cnts)
            flat_dst = _flat_ranges(dst[plain], cnts)
            targets[flat_dst] = self.base.indices[flat_src]
        for i in np.flatnonzero(patched).tolist():
            row = self._rows[int(frontier[i])]
            targets[dst[i] : dst[i] + len(row)] = row
        sources = np.repeat(np.arange(len(frontier), dtype=np.int64), counts)
        return sources, targets

    def ensure_covers(self, capacity: int) -> None:
        """Reject this view as a snapshot of a graph needing ``capacity`` ids."""
        if self.num_vertices < capacity:
            raise ConfigError(
                f"snapshot covers {self.num_vertices} ids,"
                f" graph needs {capacity}"
            )

    # ------------------------------------------------------------------ #
    # consolidation policy
    # ------------------------------------------------------------------ #

    @property
    def overlay_entries(self) -> int:
        """Adjacency entries held by the overlay (patched row lengths), O(1)."""
        return self._entries

    @property
    def overlay_rows(self) -> int:
        """Number of vertices whose row the overlay overrides."""
        return len(self._rows)

    @property
    def overlay_fraction(self) -> float:
        """Overlay footprint relative to the base edge count."""
        return self.overlay_entries / max(self.base.num_edges, 1)

    def should_consolidate(
        self, threshold: float = DEFAULT_OVERLAY_THRESHOLD
    ) -> bool:
        """Whether the overlay outgrew ``threshold`` (see module docs)."""
        if threshold <= 0.0:
            raise ConfigError(f"threshold must be > 0, got {threshold}")
        return self.overlay_fraction > threshold

    def consolidate(self) -> CSRGraph:
        """Merge overlay and base into a fresh frozen :class:`CSRGraph`.

        Pure-numpy O(n + m) merge (flat copies, no per-edge Python loop).
        *Order-exact*: for graph-backed overlays the result equals
        ``CSRGraph.from_digraph`` of the current graph bit-for-bit, so a
        consolidation never perturbs float summation order relative to a
        full rebuild — checkpointed/recovered runs stay bit-identical.
        """
        cap = self.num_vertices
        base = self.base
        din = np.zeros(cap, dtype=np.int64)
        base_counts = np.diff(base.indptr)
        din[: base.num_vertices] = base_counts
        patched_ids = np.flatnonzero(self._patched)
        for v in patched_ids.tolist():
            din[v] = len(self._rows[v])
        indptr = np.zeros(cap + 1, dtype=np.int64)
        np.cumsum(din, out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        plain = ~self._patched[: base.num_vertices]
        plain_ids = np.flatnonzero(plain)
        if plain_ids.size:
            cnts = base_counts[plain_ids]
            flat_src = _flat_ranges(base.indptr[plain_ids], cnts)
            flat_dst = _flat_ranges(indptr[plain_ids], cnts)
            indices[flat_dst] = base.indices[flat_src]
        if patched_ids.size:
            rows = [self._rows[v] for v in patched_ids.tolist()]
            flat_dst = _flat_ranges(indptr[patched_ids], din[patched_ids])
            indices[flat_dst] = np.concatenate(rows)
        return CSRGraph(indptr, indices, self.dout.copy())

    def consolidated(self) -> "DeltaCSRGraph":
        """A fresh empty overlay over :meth:`consolidate`'s result."""
        return DeltaCSRGraph.wrap(self.consolidate())

    def kernel_arrays(self) -> dict:
        """The flat-row layout consumed by the compiled push kernel.

        Patched rows are packed into one ``overlay_indices`` buffer and
        flagged in ``row_overlay``; everything else addresses the frozen
        base in place. Per-row resolution in the kernel then reads the
        exact same edge sequence :meth:`gather_in_edges` splices together,
        keeping float summation order — and therefore every bit of the
        result — identical. Cached: views are persistent, never mutated.
        Built here from scratch only for a view whose predecessor had no
        arrays to derive them from (:meth:`_advance_kernel`).
        """
        ka = self._kernel
        if ka is None:
            base = self.base
            n = self.num_vertices
            bn = base.num_vertices
            row_start = np.zeros(n, dtype=np.int64)
            row_count = np.zeros(n, dtype=np.int64)
            row_overlay = np.zeros(n, dtype=np.uint8)
            row_start[:bn] = base.indptr[:-1]
            row_count[:bn] = np.diff(base.indptr)
            patched_ids = np.flatnonzero(self._patched)
            if patched_ids.size:
                rows = [self._rows[int(v)] for v in patched_ids.tolist()]
                lens = np.fromiter(
                    (len(row) for row in rows), dtype=np.int64, count=len(rows)
                )
                starts = np.zeros(len(rows), dtype=np.int64)
                np.cumsum(lens[:-1], out=starts[1:])
                overlay_indices = (
                    np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
                )
                row_start[patched_ids] = starts
                row_count[patched_ids] = lens
                row_overlay[patched_ids] = 1
            else:
                overlay_indices = np.empty(0, dtype=np.int64)
            ka = {
                "num_rows": int(n),
                "row_start": row_start,
                "row_count": row_count,
                "row_overlay": row_overlay,
                "base_indices": np.ascontiguousarray(base.indices),
                "overlay_indices": np.ascontiguousarray(overlay_indices),
                #: Buffer entries live rows address; :meth:`_advance_kernel`
                #: appends past them and leaves replaced rows behind.
                "overlay_live": len(overlay_indices),
                "dout": np.ascontiguousarray(self.dout),
            }
            self._kernel = ka
        return ka

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def memory_bytes(self) -> int:
        """Approximate resident bytes (base + overlay arrays)."""
        overlay = sum(row.nbytes for row in self._rows.values())
        return (
            self.base.memory_bytes()
            + self.dout.nbytes
            + self._patched.nbytes
            + overlay
        )

    def __repr__(self) -> str:
        return (
            f"DeltaCSRGraph(n={self.num_vertices}, m={self.num_edges},"
            f" overlay={self.overlay_rows} rows/"
            f"{self.overlay_entries} entries,"
            f" base_m={self.base.num_edges})"
        )


#: The narrow snapshot interface every push engine consumes: ``dout``,
#: ``num_vertices``/``num_edges``, ``gather_in_edges``, ``in_neighbors``,
#: ``in_degree(s)`` and ``ensure_covers``. Either the frozen CSR or a
#: delta overlay view satisfies it.
CSRView = CSRGraph | DeltaCSRGraph


def advance_view(
    view: CSRView, graph: DynamicDiGraph, updates: Sequence[EdgeUpdate]
) -> tuple[DeltaCSRGraph, bool]:
    """The snapshot lineage step: ``view`` moved past one applied batch.

    ``view`` must cover ``graph`` as it was *before* ``updates`` (which
    the graph already reflects). The batch is layered as a row overlay
    and, once the overlay outgrows :data:`DEFAULT_OVERLAY_THRESHOLD`,
    consolidated into a fresh frozen base. Returns the new view and
    whether it was consolidated. Every maintained snapshot — the serving
    layer's and the tracker's — advances through here.
    """
    if not isinstance(view, DeltaCSRGraph):
        view = DeltaCSRGraph.wrap(view)
    view = view.apply_updates(graph, updates)
    if view.should_consolidate():
        return view.consolidated(), True
    return view, False
