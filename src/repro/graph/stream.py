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

    def __repr__(self) -> str:
        return (
            f"SlidingWindow(window={self.window_size}, batch={self.batch_size},"
            f" step={self._step}, undirected={self.undirected})"
        )
