"""Graph streams and the sliding-window workload model (Section 5.1).

The paper's experimental setup:

* edges receive random timestamps (random edge-arrival permutation);
* the first 10% of the stream initializes the window;
* each *slide* of batch size ``k`` inserts the next ``k`` edges and deletes
  the oldest ``k`` edges of the window.

:class:`SlidingWindow` reproduces this exactly and yields
:class:`WindowSlide` batches of :class:`EdgeUpdate`. For undirected
datasets every stream edge expands into the two directed updates the
theory's undirected model requires.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ..errors import StreamError
from ..utils.rng import RngLike, ensure_rng
from .update import EdgeOp, EdgeUpdate


def random_permutation_stream(edges: np.ndarray, rng: RngLike = None) -> np.ndarray:
    """Assign random timestamps: a random permutation of the edge rows."""
    edges = np.asarray(edges, dtype=np.int64)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise StreamError(f"edges must have shape (m, 2), got {edges.shape}")
    gen = ensure_rng(rng)
    return edges[gen.permutation(len(edges))]


class EdgeStream:
    """A finite, timestamp-ordered sequence of edges with a read cursor."""

    def __init__(self, edges: np.ndarray) -> None:
        edges = np.asarray(edges, dtype=np.int64)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise StreamError(f"edges must have shape (m, 2), got {edges.shape}")
        self._edges = edges
        self._cursor = 0

    def __len__(self) -> int:
        return len(self._edges)

    @property
    def position(self) -> int:
        return self._cursor

    @property
    def remaining(self) -> int:
        return len(self._edges) - self._cursor

    def take(self, k: int) -> np.ndarray:
        """Consume and return the next ``k`` edges."""
        if k < 0:
            raise StreamError(f"k must be >= 0, got {k}")
        if k > self.remaining:
            raise StreamError(f"stream exhausted: asked for {k}, only {self.remaining} left")
        chunk = self._edges[self._cursor : self._cursor + k]
        self._cursor += k
        return chunk

    def peek(self, k: int) -> np.ndarray:
        """Return the next ``k`` edges without consuming them."""
        if k < 0 or k > self.remaining:
            raise StreamError(f"cannot peek {k} edges ({self.remaining} remaining)")
        return self._edges[self._cursor : self._cursor + k]

    def reset(self) -> None:
        self._cursor = 0


@dataclass(frozen=True)
class WindowSlide:
    """One slide of the window: ``updates`` = insertions then deletions."""

    step: int
    insert_edges: np.ndarray
    delete_edges: np.ndarray
    updates: tuple[EdgeUpdate, ...]

    @property
    def num_updates(self) -> int:
        return len(self.updates)

    @property
    def num_stream_edges(self) -> int:
        """Stream edges consumed by this slide (what throughput counts)."""
        return len(self.insert_edges)


class SlidingWindow:
    """The paper's sliding-window evaluation workload.

    Parameters
    ----------
    edges:
        Timestamp-ordered stream (use :func:`random_permutation_stream`).
    window_fraction:
        Fraction of the stream forming the initial window (paper: 0.10).
    batch_size:
        Edges inserted (and deleted) per slide. The paper expresses this
        as a fraction of the window; use :meth:`batch_for_fraction`.
    undirected:
        When true each stream edge yields two directed updates.
    """

    def __init__(
        self,
        edges: np.ndarray,
        *,
        window_fraction: float = 0.10,
        batch_size: int,
        undirected: bool = False,
    ) -> None:
        if not 0.0 < window_fraction < 1.0:
            raise StreamError(f"window_fraction must be in (0,1), got {window_fraction}")
        if batch_size < 1:
            raise StreamError(f"batch_size must be >= 1, got {batch_size}")
        self._stream = EdgeStream(edges)
        self.window_size = int(len(self._stream) * window_fraction)
        if self.window_size < 1:
            raise StreamError("stream too short for the requested window fraction")
        if batch_size > self.window_size:
            raise StreamError(
                f"batch_size {batch_size} exceeds window size {self.window_size}"
            )
        self.batch_size = batch_size
        self.undirected = undirected
        self._initial = self._stream.take(self.window_size)
        self._delete_cursor = 0  # index into the stream of the oldest window edge
        self._all_edges = edges
        self._step = 0
        # Incremental snapshot state (see delta_snapshot): the maintained
        # view plus the [delete_cursor, position) stream range it covers.
        self._delta: "DeltaCSRGraph | None" = None
        self._delta_range = (0, 0)

    @staticmethod
    def batch_for_fraction(window_size: int, fraction: float) -> int:
        """Paper batch sizes: 1% / 0.1% / 0.01% of the window (>= 1)."""
        if not 0.0 < fraction <= 1.0:
            raise StreamError(f"fraction must be in (0,1], got {fraction}")
        return max(1, int(round(window_size * fraction)))

    @property
    def initial_edges(self) -> np.ndarray:
        """The window contents before any slide (first 10% of the stream)."""
        return self._initial

    def initial_updates(self) -> list[EdgeUpdate]:
        """The initial window as insertion updates (with undirected expansion)."""
        return self._expand(self._initial, EdgeOp.INSERT)

    @property
    def num_slides_available(self) -> int:
        return self._stream.remaining // self.batch_size

    def _expand(self, edges: np.ndarray, op: EdgeOp) -> list[EdgeUpdate]:
        updates: list[EdgeUpdate] = []
        for u, v in edges.tolist():
            updates.append(EdgeUpdate(int(u), int(v), op))
            if self.undirected:
                updates.append(EdgeUpdate(int(v), int(u), op))
        return updates

    def slide(self) -> WindowSlide:
        """Advance the window by one batch."""
        if self._stream.remaining < self.batch_size:
            raise StreamError("stream exhausted: no full batch remains")
        inserts = self._stream.take(self.batch_size)
        deletes = self._all_edges[self._delete_cursor : self._delete_cursor + self.batch_size]
        self._delete_cursor += self.batch_size
        self._step += 1
        updates = tuple(
            self._expand(inserts, EdgeOp.INSERT) + self._expand(deletes, EdgeOp.DELETE)
        )
        return WindowSlide(
            step=self._step,
            insert_edges=inserts,
            delete_edges=deletes,
            updates=updates,
        )

    def slides(self, count: int) -> Iterator[WindowSlide]:
        """Yield up to ``count`` slides (fewer if the stream runs dry)."""
        for _ in range(count):
            if self._stream.remaining < self.batch_size:
                return
            yield self.slide()

    def window_edge_array(self) -> np.ndarray:
        """Current window contents as an edge array (for CSR snapshots)."""
        return self._all_edges[self._delete_cursor : self._stream.position]

    def snapshot(self, capacity: int | None = None) -> "CSRGraph":
        """A CSR snapshot of the current window, built in pure numpy.

        The shared-snapshot hook of the serving layer
        (:class:`repro.serve.PPRService`) and the benchmark harness: one
        snapshot per slide serves every resident source, instead of each
        consumer walking the dict graph independently. Undirected streams
        expand each window edge into both directions *interleaved per
        edge*, matching :meth:`initial_updates` / :meth:`slide` semantics
        — and making every slide a row-suffix append / row-prefix drop,
        which is what lets :meth:`delta_snapshot` maintain the same view
        incrementally, bit-for-bit.
        """
        from .csr import CSRGraph  # local import: csr has no stream dependency
        from .digraph import interleave_undirected

        edges = self.window_edge_array()
        if self.undirected and len(edges):
            edges = interleave_undirected(edges)
        return CSRGraph.from_edge_array(edges, capacity=capacity)

    def delta_snapshot(
        self,
        capacity: int | None = None,
        *,
        overlay_threshold: float | None = None,
    ) -> "DeltaCSRGraph":
        """The current window as an incrementally-maintained delta view.

        First call builds a full :meth:`snapshot` base; every later call
        layers only the stream edges that entered/left the window since —
        O(batch) per slide instead of O(window) — and consolidates into a
        fresh base once the overlay exceeds ``overlay_threshold``
        (default :data:`repro.graph.delta.DEFAULT_OVERLAY_THRESHOLD`).
        The view is bit-identical to :meth:`snapshot` at every step:
        window rows are stream-ordered, a slide only appends inserted
        sources and drops the (oldest) deleted prefix.
        """
        from .delta import DEFAULT_OVERLAY_THRESHOLD, DeltaCSRGraph

        if overlay_threshold is None:
            overlay_threshold = DEFAULT_OVERLAY_THRESHOLD
        lo, hi = self._delete_cursor, self._stream.position
        d0, p0 = self._delta_range
        if self._delta is not None and (d0, p0) == (lo, hi):
            if capacity is not None and capacity > self._delta.num_vertices:
                self._delta = self._delta.with_capacity(capacity)
            return self._delta
        # Incremental continuation needs the covered range [d0, p0) to be
        # a *superset-compatible prefix* of the current window [lo, hi):
        # it must not have moved backwards (reset()), and the delete
        # cursor must not have passed the covered position — if the
        # window slid more than a full window-length since the last call,
        # the view would be asked to drop edges it never held. Any broken
        # chain falls back to one full rebuild.
        broken = d0 > lo or p0 > hi or lo > p0
        if self._delta is None or broken:
            self._delta = DeltaCSRGraph.wrap(self.snapshot(capacity))
        else:
            view = self._delta.apply_edge_delta(
                self._all_edges[p0:hi],
                self._all_edges[d0:lo],
                undirected=self.undirected,
            )
            if view.should_consolidate(overlay_threshold):
                view = view.consolidated()
            self._delta = view
        if capacity is not None and capacity > self._delta.num_vertices:
            self._delta = self._delta.with_capacity(capacity)
        self._delta_range = (lo, hi)
        return self._delta

    def __repr__(self) -> str:
        return (
            f"SlidingWindow(window={self.window_size}, batch={self.batch_size},"
            f" step={self._step}, undirected={self.undirected})"
        )
