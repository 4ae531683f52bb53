"""The dict-of-dicts dynamic multigraph: the oracle of the columnar one.

:class:`repro.graph.digraph.DynamicDiGraph` stores its adjacency in flat
arrays; this is the adjacency-dict implementation it replaced, kept as
the reference its differential tests (``tests/test_digraph_properties.py``)
compare against — every order it defines (registration order, each row's
insertion order with drop-on-zero and re-append) is the contract the
arrays reproduce. Its original design goals:

* O(1) amortized edge insertion/deletion with *both* adjacency directions
  maintained (the local push walks in-neighbors, restore-invariant needs
  out-degrees);
* parallel (duplicate) edges kept with multiplicities — a stream may carry
  the same edge twice, and the paper's theory counts ``dout`` with
  multiplicity;
* stable integer vertex ids: once a vertex has been seen it keeps its id
  even if its degree drops to zero (the estimate/residual state arrays are
  indexed by these ids).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import chain

import numpy as np

from repro.errors import EdgeError, VertexError
from repro.graph.update import EdgeOp, EdgeUpdate


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


def adjacency_from_arrays(
    arrays: dict[str, np.ndarray],
) -> tuple[dict[int, dict[int, int]], dict[int, dict[int, int]], dict, dict]:
    """``(_out, _in, _dout, _din)`` of a :meth:`DictDiGraph.to_arrays`
    dump, every dict in the dump's exact iteration order.

    The triples are walked column-wise: ``tolist`` on the 2-D array would
    build one Python list per distinct edge first, which was most of what
    loading a checkpointed graph cost.
    """
    ids = arrays["vertices"].tolist()
    out: dict[int, dict[int, int]] = {u: {} for u in ids}
    inn: dict[int, dict[int, int]] = {u: {} for u in ids}
    dout, din = dict.fromkeys(ids, 0), dict.fromkeys(ids, 0)
    for adjacency, degree, key in ((out, dout, "out_edges"), (inn, din, "in_edges")):
        rows, nbrs, counts = np.asarray(arrays[key]).reshape(-1, 3).T.tolist()
        for row, nbr, count in zip(rows, nbrs, counts):
            adjacency[row][nbr] = count
            degree[row] += count
    return out, inn, dout, din


class DictDiGraph:
    """A directed multigraph supporting incremental edge updates.

    Examples
    --------
    >>> g = DictDiGraph()
    >>> g.add_edge(0, 1)
    >>> g.add_edge(0, 1)   # parallel edge: multiplicity 2
    >>> g.out_degree(0)
    2
    >>> g.remove_edge(0, 1)
    >>> g.out_degree(0)
    1
    """

    __slots__ = ("_out", "_in", "_dout", "_din", "_num_edges", "_max_vertex")

    def __init__(self, edges: Iterable[tuple[int, int]] | None = None) -> None:
        # adjacency with multiplicities: u -> {v: count}
        self._out: dict[int, dict[int, int]] = {}
        self._in: dict[int, dict[int, int]] = {}
        self._dout: dict[int, int] = {}
        self._din: dict[int, int] = {}
        self._num_edges = 0
        self._max_vertex = -1
        if edges is not None:
            for u, v in edges:
                self.add_edge(u, v)

    # ------------------------------------------------------------------ #
    # vertices
    # ------------------------------------------------------------------ #

    def add_vertex(self, u: int) -> None:
        """Register ``u`` (no-op when already present)."""
        if u < 0:
            raise VertexError(u, f"vertex ids must be >= 0, got {u}")
        if u not in self._out:
            self._out[u] = {}
            self._in[u] = {}
            self._dout[u] = 0
            self._din[u] = 0
            if u > self._max_vertex:
                self._max_vertex = u

    def has_vertex(self, u: int) -> bool:
        return u in self._out

    def vertices(self) -> Iterator[int]:
        """All vertex ids ever seen (including currently-isolated ones)."""
        return iter(self._out)

    @property
    def num_vertices(self) -> int:
        return len(self._out)

    @property
    def max_vertex_id(self) -> int:
        """Largest vertex id seen so far, ``-1`` for an empty graph."""
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
        out_u = self._out[u]
        out_u[v] = out_u.get(v, 0) + count
        in_v = self._in[v]
        in_v[u] = in_v.get(u, 0) + count
        self._dout[u] += count
        self._din[v] += count
        self._num_edges += count

    def remove_edge(self, u: int, v: int, count: int = 1) -> None:
        """Delete ``count`` copies of edge ``u -> v``.

        Raises :class:`EdgeError` when fewer than ``count`` copies exist.
        """
        if count < 1:
            raise EdgeError(u, v, f"count must be >= 1, got {count}")
        existing = self._out.get(u, {}).get(v, 0)
        if existing < count:
            raise EdgeError(
                u, v, f"cannot delete {count} copies of {u}->{v}: multiplicity is {existing}"
            )
        if existing == count:
            del self._out[u][v]
            del self._in[v][u]
        else:
            self._out[u][v] = existing - count
            self._in[v][u] = existing - count
        self._dout[u] -= count
        self._din[v] -= count
        self._num_edges -= count

    def has_edge(self, u: int, v: int) -> bool:
        return self._out.get(u, {}).get(v, 0) > 0

    def multiplicity(self, u: int, v: int) -> int:
        """Number of parallel copies of ``u -> v`` (0 when absent)."""
        return self._out.get(u, {}).get(v, 0)

    @property
    def num_edges(self) -> int:
        """Total edge count including multiplicities."""
        return self._num_edges

    @property
    def average_degree(self) -> float:
        """Average out-degree ``m / n`` (the theory's ``d``)."""
        if not self._out:
            return 0.0
        return self._num_edges / len(self._out)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over edges, repeating parallel edges per multiplicity."""
        for u, nbrs in self._out.items():
            for v, count in nbrs.items():
                for _ in range(count):
                    yield (u, v)

    def unique_edges(self) -> Iterator[tuple[int, int, int]]:
        """Iterate ``(u, v, multiplicity)`` triples."""
        for u, nbrs in self._out.items():
            for v, count in nbrs.items():
                yield (u, v, count)

    # ------------------------------------------------------------------ #
    # degrees / neighborhoods
    # ------------------------------------------------------------------ #

    def out_degree(self, u: int) -> int:
        """Out-degree with multiplicity; 0 for unknown vertices."""
        return self._dout.get(u, 0)

    def in_degree(self, u: int) -> int:
        """In-degree with multiplicity; 0 for unknown vertices."""
        return self._din.get(u, 0)

    def out_neighbors(self, u: int) -> Iterator[tuple[int, int]]:
        """Iterate ``(v, multiplicity)`` for edges ``u -> v``."""
        return iter(self._out.get(u, {}).items())

    def in_neighbors(self, u: int) -> Iterator[tuple[int, int]]:
        """Iterate ``(v, multiplicity)`` for edges ``v -> u``.

        This is the neighborhood the local push traverses: pushing ``u``
        propagates residual to every ``v`` with an edge ``v -> u``.
        """
        return iter(self._in.get(u, {}).items())

    def in_row(self, u: int) -> np.ndarray:
        """Dense in-adjacency row of ``u``, multiplicities expanded.

        *Order-exact* with :meth:`CSRGraph.from_digraph
        <repro.graph.csr.CSRGraph.from_digraph>`: neighbors appear in the
        ``_in[u]`` dict iteration order with each neighbor's parallel
        copies contiguous — the exact sequence a full CSR rebuild would
        store for ``u``. This is what lets the delta overlay
        (:class:`repro.graph.delta.DeltaCSRGraph`) patch single rows and
        still stay bit-compatible with a rebuilt snapshot.
        """
        nbrs = self._in.get(u)
        if not nbrs:
            return np.empty(0, dtype=np.int64)
        ids = np.fromiter(nbrs.keys(), dtype=np.int64, count=len(nbrs))
        if self._din[u] == len(nbrs):  # no parallel copies to expand
            return ids
        counts = np.fromiter(nbrs.values(), dtype=np.int64, count=len(nbrs))
        return np.repeat(ids, counts)

    def out_degree_array(self, capacity: int | None = None) -> np.ndarray:
        """Dense ``int64`` array of out-degrees indexed by vertex id."""
        cap = self.capacity if capacity is None else capacity
        arr = np.zeros(cap, dtype=np.int64)
        for u, d in self._dout.items():
            if u < cap:
                arr[u] = d
        return arr

    def in_degree_array(self, capacity: int | None = None) -> np.ndarray:
        """Dense ``int64`` array of in-degrees indexed by vertex id."""
        cap = self.capacity if capacity is None else capacity
        arr = np.zeros(cap, dtype=np.int64)
        for u, d in self._din.items():
            if u < cap:
                arr[u] = d
        return arr

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #

    def apply(self, update: EdgeUpdate) -> None:
        """Apply one edge update."""
        if update.op is EdgeOp.INSERT:
            self.add_edge(update.u, update.v)
        else:
            self.remove_edge(update.u, update.v)

    def apply_batch(self, updates: Iterable[EdgeUpdate]) -> int:
        """Apply a batch of updates in order; return the number applied."""
        n = 0
        for upd in updates:
            self.apply(upd)
            n += 1
        return n

    # ------------------------------------------------------------------ #
    # construction / conversion
    # ------------------------------------------------------------------ #

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]]) -> "DictDiGraph":
        return cls(edges)

    @classmethod
    def from_edge_array(cls, edges: np.ndarray) -> "DictDiGraph":
        """Build a graph from an ``(m, 2)`` integer edge array.

        Parallel edges collapse to multiplicities *before* insertion
        (one ``np.unique`` over the rows), so construction loops over
        distinct edges only — much faster than per-row ``add_edge`` for
        multigraph-heavy arrays, and without round-tripping the array
        through Python lists. Vertex ids follow the sorted unique-edge
        order, not the row order; use :meth:`from_edges` when insertion
        order must mirror the input sequence.
        """
        edges = np.asarray(edges, dtype=np.int64)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise EdgeError(None, None, f"edges must have shape (m, 2), got {edges.shape}")
        g = cls()
        if not len(edges):
            return g
        unique, counts = np.unique(edges, axis=0, return_counts=True)
        for (u, v), count in zip(unique.tolist(), counts.tolist()):
            g.add_edge(u, v, count)
        return g

    @classmethod
    def from_undirected_edges(cls, edges: Iterable[tuple[int, int]]) -> "DictDiGraph":
        """Build a graph with both directions for each input pair."""
        g = cls()
        for u, v in edges:
            g.add_edge(u, v)
            g.add_edge(v, u)
        return g

    def copy(self) -> "DictDiGraph":
        g = DictDiGraph()
        g._out = {u: dict(nbrs) for u, nbrs in self._out.items()}
        g._in = {u: dict(nbrs) for u, nbrs in self._in.items()}
        g._dout = dict(self._dout)
        g._din = dict(self._din)
        g._num_edges = self._num_edges
        g._max_vertex = self._max_vertex
        return g

    def edge_array(self) -> np.ndarray:
        """``(m, 2)`` int64 array of edges with multiplicities expanded."""
        arr = np.empty((self._num_edges, 2), dtype=np.int64)
        i = 0
        for u, v in self.edges():
            arr[i, 0] = u
            arr[i, 1] = v
            i += 1
        return arr

    def to_arrays(self) -> dict[str, np.ndarray]:
        """Serialize the graph structure *order-exactly* to plain arrays.

        Beyond the edge multiset, the arrays record the iteration order of
        every adjacency dict (``vertices`` in ``_out`` key order, the edge
        triples in nested dict order). :meth:`from_arrays` rebuilds a graph
        whose dict iteration matches bit-for-bit — which makes CSR
        snapshots (and therefore float summation order inside the
        vectorized push) identical across a save/load cycle. The durable
        checkpoint format (:mod:`repro.store`) depends on this.
        """
        return {
            "vertices": np.fromiter(self._out, dtype=np.int64, count=len(self._out)),
            "out_edges": adjacency_triples(self._out),
            "in_edges": adjacency_triples(self._in),
        }

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "DictDiGraph":
        """Rebuild a graph serialized by :meth:`to_arrays` (order-exact)."""
        g = cls()
        g._out, g._in, g._dout, g._din = adjacency_from_arrays(arrays)
        g._num_edges = sum(g._dout.values())
        g._max_vertex = max(g._out, default=-1)
        return g

    def to_networkx(self):  # pragma: no cover - thin convenience wrapper
        """Convert to a ``networkx.MultiDiGraph`` (requires networkx)."""
        import networkx as nx

        g = nx.MultiDiGraph()
        g.add_nodes_from(self.vertices())
        g.add_edges_from(self.edges())
        return g

    # ------------------------------------------------------------------ #
    # dunder / debugging
    # ------------------------------------------------------------------ #

    def __contains__(self, u: object) -> bool:
        return u in self._out

    def __len__(self) -> int:
        return len(self._out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DictDiGraph):
            return NotImplemented
        return self._out == other._out

    def __hash__(self) -> int:  # mutable container
        raise TypeError("DictDiGraph is unhashable (mutable)")

    def __repr__(self) -> str:
        return (
            f"DictDiGraph(n={self.num_vertices}, m={self.num_edges},"
            f" max_id={self._max_vertex})"
        )

    def check_consistency(self) -> None:
        """Validate internal invariants (used by tests; O(n + m))."""
        total = 0
        for u, nbrs in self._out.items():
            dsum = sum(nbrs.values())
            assert dsum == self._dout[u], f"dout mismatch at {u}"
            total += dsum
            for v, c in nbrs.items():
                assert self._in[v].get(u) == c, f"in/out mismatch on {u}->{v}"
        assert total == self._num_edges, "edge count mismatch"
        for v, nbrs in self._in.items():
            assert sum(nbrs.values()) == self._din[v], f"din mismatch at {v}"
