"""Incremental delta-CSR snapshots: per-batch overlays over a frozen base.

:class:`~repro.graph.csr.CSRGraph` snapshots are immutable; rebuilding one
per batch costs O(n + m). Dynamic-graph systems (LLAMA's delta snapshots,
GraphOne's hybrid store) keep a compact read-optimized base plus a small
overlay that is periodically consolidated; :class:`DeltaCSRGraph` is that
discipline for our in-CSR.

Representation
--------------
A view *is* the flat-row layout the compiled push kernel reads
(:meth:`DeltaCSRGraph.kernel_arrays`): per vertex id ``row_start``,
``row_count`` and a ``row_overlay`` flag addressing the row either in the
frozen ``base``'s indices or in an overlay buffer, plus the *current*
``dout``. The buffer is append-only and shared along a lineage: a
successor writes its replacement rows past every row an older view
addresses, so a view never changes under a consumer that pinned it, and
a batch costs O(touched rows) plus three O(n) table copies — no per-row
Python objects. Replaced rows stay behind as dead space until it
outweighs the live rows; the buffer is then rebuilt compactly.

Every read — :meth:`gather_in_edges`, :meth:`in_neighbors`,
:meth:`in_degrees` — resolves rows through those tables, vectorized.

Order exactness
---------------
The overlay is built two ways, each *bit-compatible* with the full
rebuild it replaces:

* :meth:`apply_updates` re-materializes the rows of batch-touched
  vertices from the live :class:`~repro.graph.digraph.DynamicDiGraph`
  (:meth:`~repro.graph.digraph.DynamicDiGraph.in_rows`), which reproduces
  the graph's dict order
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
from .digraph import DynamicDiGraph, flat_ranges, interleave_undirected
from .update import EdgeUpdate, as_batch

#: Default consolidation trigger: consolidate once the overlay holds more
#: than this fraction of the base's edges (see ``docs/performance.md``).
DEFAULT_OVERLAY_THRESHOLD = 0.25

_EMPTY_ROW = np.empty(0, dtype=np.int64)


class _Overlay:
    """The append-only row buffer a lineage of views shares.

    Rows are written past ``fill`` and never moved or overwritten, so
    every view — two successors of one view included — keeps reading
    exactly the rows it was built with.
    """

    __slots__ = ("array", "fill")

    def __init__(self, array: np.ndarray) -> None:
        self.array, self.fill = array, len(array)

    def append(self, flat: np.ndarray) -> int:
        """Write ``flat`` past the fill (growing by doubling); its offset."""
        end = self.fill + len(flat)
        if end > len(self.array):
            grown = np.empty(max(end, 2 * len(self.array)), dtype=np.int64)
            grown[: self.fill] = self.array[: self.fill]
            self.array = grown
        self.array[self.fill : end] = flat
        start, self.fill = self.fill, end
        return start


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
    base and the overlay buffer), so an in-flight consumer of the
    previous version is never mutated under its feet.
    """

    __slots__ = ("base", "dout", "num_vertices", "num_edges", "_ka", "_overlay",
                 "_entries", "_rows")

    def __init__(
        self, base: CSRGraph, ka: dict, overlay: _Overlay, num_edges: int,
        entries: int, rows: int,
    ) -> None:
        if len(ka["dout"]) < base.num_vertices:
            raise GraphError(
                f"dout covers {len(ka['dout'])} ids, base needs {base.num_vertices}"
            )
        self.base, self.dout, self._ka, self._overlay = base, ka["dout"], ka, overlay
        self.num_vertices = len(self.dout)
        self.num_edges = num_edges
        self._entries, self._rows = entries, rows  # overlay entries and rows

    @classmethod
    def wrap(cls, base: CSRGraph) -> "DeltaCSRGraph":
        """An empty overlay over ``base`` (reads delegate entirely to it)."""
        return cls(base, base.kernel_arrays(), _Overlay(_EMPTY_ROW), base.num_edges, 0, 0)

    # ------------------------------------------------------------------ #
    # overlay construction
    # ------------------------------------------------------------------ #

    def _successor(
        self, ids: np.ndarray, lengths: np.ndarray, flat: np.ndarray,
        dout: np.ndarray, num_edges: int,
    ) -> "DeltaCSRGraph":
        """This view with the rows of ``ids`` replaced (``lengths`` each,
        concatenated in ``flat``) and the id space ``len(dout)``."""
        ka, n = self._ka, len(dout)
        tables = {}
        for name in ("row_start", "row_count", "row_overlay"):
            tables[name] = np.zeros(n, dtype=ka[name].dtype)
            tables[name][: len(ka[name])] = ka[name]
        start, count, overlay = tables["row_start"], tables["row_count"], tables["row_overlay"]
        was = overlay[ids].astype(bool)
        entries = self._entries + len(flat) - int(count[ids][was].sum())
        rows = self._rows + len(ids) - int(was.sum())
        buffer = self._overlay
        overlay[ids] = 0
        if buffer.fill + len(flat) > 2 * entries:  # dead space outweighs live
            keep = np.flatnonzero(overlay)
            live = ka["overlay_indices"][flat_ranges(start[keep], count[keep])]
            start[keep] = np.cumsum(count[keep]) - count[keep]
            buffer = _Overlay(np.concatenate([live, flat]))
            offset = len(live)
        else:
            offset = buffer.append(flat)
        start[ids] = offset + np.cumsum(lengths) - lengths
        count[ids], overlay[ids] = lengths, 1
        ka = {"num_rows": n, **tables, "base_indices": ka["base_indices"],
              "overlay_indices": buffer.array, "dout": dout}
        return DeltaCSRGraph(self.base, ka, buffer, num_edges, entries, rows)

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
        return self._successor(_EMPTY_ROW, _EMPTY_ROW, _EMPTY_ROW, dout, self.num_edges)

    def apply_updates(
        self, graph: DynamicDiGraph, updates: np.ndarray | Sequence[EdgeUpdate]
    ) -> "DeltaCSRGraph":
        """The view after one ingested batch (graph-backed, order-exact).

        ``graph`` must *already reflect* ``updates`` (a ``(k, 3)`` batch
        array or update objects). ``dout`` is copied from the graph and the
        touched rows come from one
        :meth:`~repro.graph.digraph.DynamicDiGraph.in_rows` call: O(batch
        + sum of touched in-degrees) plus flat memcpys of O(n).
        """
        touched = np.unique(as_batch(updates)[:, 1])
        lengths, flat = graph.in_rows(touched)
        dout = graph.out_degree_array(max(graph.capacity, self.num_vertices))
        return self._successor(touched, lengths, flat, dout, graph.num_edges)

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

        drop: dict[int, int] = {}
        for v in deletes[:, 1].tolist():
            drop[v] = drop.get(v, 0) + 1
        append: dict[int, list[int]] = {}
        for u, v in inserts.tolist():
            append.setdefault(v, []).append(u)
        ids = sorted(drop.keys() | append.keys())
        rows = []
        for v in ids:
            row, k = view.in_neighbors(v), drop.get(v, 0)
            if k > len(row):
                raise GraphError(
                    f"cannot drop {k} oldest in-edges of {v}: row has {len(row)}"
                )
            rows.append(np.concatenate([row[k:], np.asarray(append.get(v, ()), dtype=np.int64)]))
        lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        flat = np.concatenate(rows) if rows else _EMPTY_ROW
        num_edges = self.num_edges + len(inserts) - len(deletes)
        return view._successor(np.array(ids, dtype=np.int64), lengths, flat, dout, num_edges)

    # ------------------------------------------------------------------ #
    # reads (the narrow snapshot interface)
    # ------------------------------------------------------------------ #

    def in_neighbors(self, u: int) -> np.ndarray:
        """In-neighbor ids of ``u`` (multiplicities expanded)."""
        ka = self._ka
        source = ka["overlay_indices" if ka["row_overlay"][u] else "base_indices"]
        start = ka["row_start"].item(u)
        return source[start : start + ka["row_count"].item(u)]

    def in_degree(self, u: int) -> int:
        return self._ka["row_count"].item(u)

    def in_degrees(self, ids: np.ndarray) -> np.ndarray:
        """In-degrees of ``ids`` (overlay-aware, vectorized)."""
        return self._ka["row_count"][ids]

    def gather_in_edges(self, frontier: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """All in-edges of ``frontier`` vertices as flat arrays.

        Same contract (and, for graph-backed overlays, the same edge
        order) as :meth:`CSRGraph.gather_in_edges`: base rows and overlay
        rows are each gathered in one vectorized copy into their frontier
        positions.
        """
        if not self._rows and self.num_vertices == self.base.num_vertices:
            return self.base.gather_in_edges(frontier)
        ka = self._ka
        counts = ka["row_count"][frontier]
        dst = np.cumsum(counts) - counts
        targets = np.empty(int(counts.sum()), dtype=np.int64)
        over = ka["row_overlay"][frontier].astype(bool)
        for rows, source in ((~over, "base_indices"), (over, "overlay_indices")):
            if rows.any():
                cnts, starts = counts[rows], ka["row_start"][frontier[rows]]
                targets[flat_ranges(dst[rows], cnts)] = ka[source][flat_ranges(starts, cnts)]
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
        return self._rows

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

        Every row gathered in id order — the splice :meth:`gather_in_edges`
        serves a push with, flat copies and no per-edge Python. *Order-exact*: for graph-backed overlays the result equals
        ``CSRGraph.from_digraph`` of the current graph bit-for-bit, so a
        consolidation never perturbs float summation order relative to a
        full rebuild — checkpointed/recovered runs stay bit-identical.
        """
        ids = np.arange(self.num_vertices, dtype=np.int64)
        indptr = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(self.in_degrees(ids), out=indptr[1:])
        return CSRGraph(indptr, self.gather_in_edges(ids)[1], self.dout.copy())

    def consolidated(self) -> "DeltaCSRGraph":
        """A fresh empty overlay over :meth:`consolidate`'s result."""
        return DeltaCSRGraph.wrap(self.consolidate())

    def kernel_arrays(self) -> dict:
        """The flat-row layout consumed by the compiled push kernel — the
        view's own tables. Per-row resolution in the kernel reads the exact
        edge sequence :meth:`gather_in_edges` splices together, keeping
        float summation order, and therefore every bit of the result,
        identical."""
        return self._ka

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def memory_bytes(self) -> int:
        """Approximate resident bytes (base + overlay arrays)."""
        tables = sum(self._ka[name].nbytes for name in ("row_start", "row_count", "row_overlay"))
        return self.base.memory_bytes() + self.dout.nbytes + tables + 8 * self._entries

    def __getstate__(self) -> dict:
        """The view's arrays, without the addresses the compiled kernel
        cached in its layout (:func:`repro.kernels.compiled._view_pointers`)."""
        state = {name: getattr(self, name) for name in self.__slots__}
        state["_ka"] = {key: value for key, value in self._ka.items() if key != "pointers"}
        return state

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)

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
    view: CSRView, graph: DynamicDiGraph, updates: np.ndarray | Sequence[EdgeUpdate]
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
