"""Immutable CSR snapshots of a dynamic graph.

The vectorized push backend (and the Ligra baseline) operate on frozen
compressed-sparse-row adjacency. The tracker rebuilds a snapshot after each
restore-invariant batch; at the batch sizes of the paper's workloads the
rebuild is a small fraction of a slide and keeps the hot loops in numpy.

The snapshot stores the *in*-adjacency (``in_neighbors(u)`` for every
``u``), because the local push propagates residual from a frontier vertex
to its in-neighbors, plus the dense out-degree array used as the push
denominator.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, GraphError
from .digraph import DynamicDiGraph


class CSRGraph:
    """Frozen CSR view of the in-adjacency of a :class:`DynamicDiGraph`.

    Attributes
    ----------
    indptr:
        ``int64`` array of length ``capacity + 1``; in-neighbors of ``u``
        are ``indices[indptr[u]:indptr[u+1]]`` (multiplicities expanded).
    indices:
        ``int64`` array of in-neighbor vertex ids.
    dout:
        dense ``int64`` out-degree array indexed by vertex id.
    """

    __slots__ = ("indptr", "indices", "dout", "num_vertices", "num_edges", "_kernel")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, dout: np.ndarray) -> None:
        if indptr.ndim != 1 or indices.ndim != 1 or dout.ndim != 1:
            raise GraphError("CSR arrays must be one-dimensional")
        if len(indptr) != len(dout) + 1:
            raise GraphError(
                f"indptr length {len(indptr)} must equal len(dout)+1 = {len(dout) + 1}"
            )
        if int(indptr[-1]) != len(indices):
            raise GraphError("indptr[-1] must equal len(indices)")
        self.indptr = indptr
        self.indices = indices
        self.dout = dout
        self.num_vertices = len(dout)
        self.num_edges = len(indices)
        self._kernel: dict | None = None

    @classmethod
    def from_digraph(cls, graph: DynamicDiGraph, capacity: int | None = None) -> "CSRGraph":
        """Snapshot ``graph``'s in-adjacency (O(n + m))."""
        cap = graph.capacity if capacity is None else capacity
        if cap < graph.capacity:
            raise GraphError(
                f"capacity {cap} is smaller than the graph's id space {graph.capacity}"
            )
        indptr = np.zeros(cap + 1, dtype=np.int64)
        din, indices = graph.in_rows(np.arange(cap, dtype=np.int64))
        np.cumsum(din, out=indptr[1:])
        return cls(indptr, indices, graph.out_degree_array(cap))

    @classmethod
    def from_edge_array(cls, edges: np.ndarray, capacity: int | None = None) -> "CSRGraph":
        """Build a snapshot from an ``(m, 2)`` edge array in pure numpy.

        Much faster than :meth:`from_digraph` for large graphs; the
        sliding-window workloads keep the current window as an edge array
        precisely so snapshots stay O(m log m) in vectorized code.
        """
        edges = np.asarray(edges, dtype=np.int64)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise GraphError(f"edges must have shape (m, 2), got {edges.shape}")
        if edges.size and int(edges.min()) < 0:
            raise GraphError("vertex ids must be >= 0")
        cap = int(edges.max()) + 1 if edges.size else 0
        if capacity is not None:
            if capacity < cap:
                raise GraphError(
                    f"capacity {capacity} is smaller than the edge id space {cap}"
                )
            cap = capacity
        sources = edges[:, 0]
        targets = edges[:, 1]
        dout = np.bincount(sources, minlength=cap).astype(np.int64)
        din = np.bincount(targets, minlength=cap).astype(np.int64)
        indptr = np.zeros(cap + 1, dtype=np.int64)
        np.cumsum(din, out=indptr[1:])
        order = np.argsort(targets, kind="stable")
        return cls(indptr, sources[order].astype(np.int64), dout)

    def in_neighbors(self, u: int) -> np.ndarray:
        """In-neighbor ids of ``u`` (multiplicities expanded)."""
        return self.indices[self.indptr[u] : self.indptr[u + 1]]

    def in_degree(self, u: int) -> int:
        return int(self.indptr[u + 1] - self.indptr[u])

    def in_degrees(self, ids: np.ndarray) -> np.ndarray:
        """In-degrees of ``ids`` as an array (vectorized :meth:`in_degree`).

        Part of the narrow snapshot interface (together with ``dout``,
        :meth:`gather_in_edges`, :meth:`in_neighbors` and
        :meth:`ensure_covers`) that the push engines and the Ligra
        baseline consume — implemented by both this frozen CSR and the
        delta overlay view (:class:`repro.graph.delta.DeltaCSRGraph`).
        """
        return self.indptr[ids + 1] - self.indptr[ids]

    def gather_in_edges(self, frontier: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """All in-edges of ``frontier`` vertices as flat arrays.

        Returns ``(sources, targets)`` where ``targets[i]`` is the
        in-neighbor receiving propagation and ``sources[i]`` is the index
        *into frontier* of the vertex pushing it. Vectorized equivalent of
        the paper's nested ``parallel for`` at Algorithm 3, lines 19-20.
        """
        starts = self.indptr[frontier]
        ends = self.indptr[frontier + 1]
        counts = ends - starts
        total = int(counts.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        # Build [starts[0]..ends[0]) ++ [starts[1]..ends[1]) ... without a loop:
        offsets = np.repeat(np.cumsum(counts) - counts, counts)
        flat = np.arange(total, dtype=np.int64) - offsets + np.repeat(starts, counts)
        sources = np.repeat(np.arange(len(frontier), dtype=np.int64), counts)
        return sources, self.indices[flat]

    def ensure_covers(self, capacity: int) -> None:
        """Reject this snapshot as a view of a graph needing ``capacity`` ids.

        The shared guard of every consumer that installs externally-built
        snapshots (trackers, the serving layer, the admission pool): the
        snapshot's dense arrays are indexed by vertex id, so it must span
        at least the graph's id space.
        """
        if self.num_vertices < capacity:
            raise ConfigError(
                f"snapshot covers {self.num_vertices} ids,"
                f" graph needs {capacity}"
            )

    def kernel_arrays(self) -> dict:
        """The flat-row layout consumed by the compiled push kernel.

        ``row_start``/``row_count`` address each vertex's in-row inside
        ``base_indices`` (a frozen CSR has no overlay rows, so
        ``row_overlay`` is all zeros and ``overlay_indices`` empty). Built
        once per snapshot and cached — the snapshot is immutable.
        """
        ka = self._kernel
        if ka is None:
            n = self.num_vertices
            ka = {
                "num_rows": int(n),
                "row_start": np.ascontiguousarray(self.indptr[:-1]),
                "row_count": np.diff(self.indptr),
                "row_overlay": np.zeros(n, dtype=np.uint8),
                "base_indices": np.ascontiguousarray(self.indices),
                "overlay_indices": np.empty(0, dtype=np.int64),
                "dout": np.ascontiguousarray(self.dout),
            }
            self._kernel = ka
        return ka

    def memory_bytes(self) -> int:
        """Approximate resident bytes of the snapshot arrays."""
        return self.indptr.nbytes + self.indices.nbytes + self.dout.nbytes

    def __getstate__(self) -> dict:
        """The arrays; the kernel layout (and the addresses the compiled
        kernel cached in it) is rebuilt where the copy is used."""
        return {name: getattr(self, name) for name in self.__slots__ if name != "_kernel"}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._kernel = None

    def __repr__(self) -> str:
        return f"CSRGraph(n={self.num_vertices}, m={self.num_edges})"
