"""Dynamic directed multigraph, stored as flat arrays.

The mutable substrate under every algorithm in this library: both
adjacency directions (the local push walks in-neighbors, restore-invariant
needs out-degrees), parallel edges as multiplicities (the theory counts
``dout`` with them), stable vertex ids (a vertex keeps its id at degree 0;
state arrays are indexed by it), and a batch validated, applied and
recorded in one call — atomically: a batch with an invalid delete raises
and changes nothing.

Storage: per vertex id ``dout``, ``din`` and a registration flag, plus the
registration order; per direction a row table ``(start, length, slot)``
over two int64 slabs, neighbour and multiplicity. A row keeps *dict
order* — insertion order, a neighbour dropped when its multiplicity
reaches 0 and re-appended when it comes back — which is what
:meth:`~DynamicDiGraph.to_arrays` dumps and
:meth:`~DynamicDiGraph.in_row` expands, and what checkpoints and CSR
snapshots rely on for bit-identical float summation. A row that outgrows
its slot moves to the end of its slab; a slab compacts once its dead space
exceeds its live entries. The batch apply is ``repro_graph_apply``
(``_push.c``) under the compiled kernel and the same slab operations in
Python under ``REPRO_KERNEL=numpy``; both leave identical arrays.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from ..errors import EdgeError, VertexError
from .update import EdgeUpdate, as_batch

_OUT, _IN = 0, 1
#: ``_meta`` slots, shared with ``repro_graph_apply``: registered vertices,
#: max id, edges, then per direction the used slab length and live entries.
_N, _MAX, _EDGES, _TOP, _LIVE = 0, 1, 2, (3, 4), (5, 6)


def flat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``[starts[i], starts[i]+counts[i])`` ranges, loop-free."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    return np.arange(total, dtype=np.int64) - offsets + np.repeat(starts, counts)


def interleave_undirected(edges: np.ndarray) -> np.ndarray:
    """Each edge followed immediately by its reverse (undirected model).

    The one definition of the undirected expansion order, shared by
    :meth:`DynamicDiGraph.from_undirected_edges`,
    :meth:`repro.graph.stream.SlidingWindow.snapshot` and
    :meth:`repro.graph.delta.DeltaCSRGraph.apply_edge_delta` — load-bearing
    for their bit-exactness: per-edge interleaving keeps every window row a
    stream-ordered subsequence, so slides stay suffix appends and prefix
    drops.
    """
    both = np.empty((2 * len(edges), 2), dtype=np.int64)
    both[0::2] = edges
    both[1::2] = edges[:, ::-1]
    return both


def _grown(array: np.ndarray, length: int) -> np.ndarray:
    out = np.zeros((length,) + array.shape[1:], dtype=array.dtype)
    out[: len(array)] = array
    return out


def _pairs(edges: Iterable[tuple[int, int]] | np.ndarray) -> np.ndarray:
    edges = edges if isinstance(edges, np.ndarray) else list(edges)
    return np.asarray(edges, dtype=np.int64).reshape(-1, 2)


def _library(kernel=None):
    """The compiled kernel library the selection allows, or ``None``."""
    from ..kernels import selected_library

    return selected_library(kernel)[0]


class DynamicDiGraph:
    """A directed multigraph supporting incremental edge updates.

    Examples
    --------
    >>> g = DynamicDiGraph()
    >>> g.add_edge(0, 1)
    >>> g.add_edge(0, 1)   # parallel edge: multiplicity 2
    >>> g.out_degree(0)
    2
    >>> g.remove_edge(0, 1)
    >>> g.out_degree(0)
    1
    """

    __slots__ = ("_meta", "_dout", "_din", "_registered", "_order", "_table",
                 "_nbr", "_mult", "_pointers")

    def __init__(self, edges: Iterable[tuple[int, int]] | None = None) -> None:
        self._meta = np.array([0, -1, 0, 0, 0, 0, 0], dtype=np.int64)
        self._dout, self._din, self._order = (np.zeros(0, dtype=np.int64) for _ in range(3))
        self._registered = np.zeros(0, dtype=np.uint8)
        self._table = [np.zeros((0, 3), dtype=np.int64) for _ in (_OUT, _IN)]
        self._nbr = [np.zeros(0, dtype=np.int64) for _ in (_OUT, _IN)]
        self._mult = [np.zeros(0, dtype=np.int64) for _ in (_OUT, _IN)]
        self._pointers: tuple | None = None
        if edges is not None:
            self._build(_pairs(edges), None)

    def _reserve(self, ids: int = 0, order: int = 0, slab: tuple = (0, 0)) -> None:
        """Grow (doubling) the per-id arrays to ``ids`` entries, the order
        to ``order`` and slab ``slab[0]`` to ``slab[1]``."""
        if ids > len(self._dout):
            ids = max(ids, 2 * len(self._dout))
            for name in ("_dout", "_din", "_registered"):
                setattr(self, name, _grown(getattr(self, name), ids))
            self._table = [_grown(table, ids) for table in self._table]
            self._pointers = None
        if order > len(self._order):
            self._order = _grown(self._order, max(order, 2 * len(self._order)))
            self._pointers = None
        d, need = slab
        if need > len(self._nbr[d]):
            need = max(need, 2 * len(self._nbr[d]))
            self._nbr[d], self._mult[d] = _grown(self._nbr[d], need), _grown(self._mult[d], need)
            self._pointers = None

    def _slab_pointers(self) -> tuple:
        """What ``repro_graph_apply`` takes after ``begin``, up to its
        outputs; resolved once per reallocation, not per call."""
        if self._pointers is None:
            pointers = [self._meta.ctypes.data, len(self._dout)]
            pointers += [a.ctypes.data for a in (self._dout, self._din, self._registered, self._order)]
            for d in (_OUT, _IN):
                pointers += [self._table[d].ctypes.data, self._nbr[d].ctypes.data,
                             self._mult[d].ctypes.data, len(self._nbr[d])]
            self._pointers = tuple(pointers)
        return self._pointers

    def _adopt(self, order: np.ndarray, out_rows: tuple, in_rows: tuple) -> None:
        """Install ``order`` and each direction's ``(row, nbr, mult)``
        columns (rows listed in dict order) into this empty graph."""
        cap = int(order.max()) + 1 if len(order) else 0
        self._reserve(ids=cap, order=len(order))
        self._order[: len(order)] = order
        self._registered[order] = 1
        for d, (row, nbr, mult) in enumerate((out_rows, in_rows)):
            perm = np.argsort(row, kind="stable")
            lens = np.bincount(row, minlength=cap)
            self._table[d][:cap] = np.column_stack([np.cumsum(lens) - lens, lens, lens])
            self._nbr[d], self._mult[d] = nbr[perm], mult[perm]
            self._meta[_TOP[d]] = self._meta[_LIVE[d]] = len(perm)
            degree = self._dout if d == _OUT else self._din
            degree[:cap] = np.bincount(row, weights=mult, minlength=cap)
        self._meta[[_N, _MAX, _EDGES]] = len(order), cap - 1, out_rows[2].sum()
        self._pointers = None

    def _build(self, edges: np.ndarray, counts: np.ndarray | None) -> None:
        """Install what ``add_edge(u, v, count)`` over ``edges`` in row
        order builds: vertices in first-appearance order, each row's
        neighbours in the order their first edge arrived."""
        if not len(edges):
            return
        if edges.min() < 0:
            bad = int(edges.ravel()[np.argmax(edges.ravel() < 0)])
            raise VertexError(bad, f"vertex ids must be >= 0, got {bad}")
        ids, first = np.unique(edges.ravel(), return_index=True)
        span = int(ids[-1]) + 1
        keys, first_edge, inverse = np.unique(
            edges[:, 0] * span + edges[:, 1], return_index=True, return_inverse=True
        )
        mult = np.bincount(inverse.ravel(), weights=counts, minlength=len(keys))
        arrival = np.argsort(first_edge, kind="stable")
        keys, mult = keys[arrival], mult[arrival].astype(np.int64)
        u, v = keys // span, keys % span
        self._adopt(ids[np.argsort(first, kind="stable")], (u, v, mult), (v, u, mult))

    # ------------------------------------------------------------------ #
    # vertices
    # ------------------------------------------------------------------ #

    def add_vertex(self, u: int) -> None:
        """Register ``u`` (no-op when already present)."""
        if u < 0:
            raise VertexError(u, f"vertex ids must be >= 0, got {u}")
        if not self.has_vertex(u):
            self._reserve(ids=u + 1, order=self.num_vertices + 1)
            self._register(u)

    def _register(self, u: int) -> None:
        if not self._registered[u]:
            meta = self._meta
            self._registered[u] = 1
            self._order[meta[_N]] = u
            meta[_N] += 1
            meta[_MAX] = max(meta[_MAX], u)

    def has_vertex(self, u: int) -> bool:
        return 0 <= u < len(self._registered) and bool(self._registered[u])

    def vertices(self) -> Iterator[int]:
        """All vertex ids ever seen (including currently-isolated ones)."""
        return iter(self._order[: self._meta[_N]].tolist())

    @property
    def num_vertices(self) -> int:
        return int(self._meta[_N])

    @property
    def max_vertex_id(self) -> int:
        """Largest vertex id seen so far, ``-1`` for an empty graph."""
        return int(self._meta[_MAX])

    @property
    def capacity(self) -> int:
        """Array length needed to index every vertex (``max_vertex_id + 1``)."""
        return int(self._meta[_MAX]) + 1

    # ------------------------------------------------------------------ #
    # edges
    # ------------------------------------------------------------------ #

    def add_edge(self, u: int, v: int, count: int = 1) -> None:
        """Insert ``count`` parallel copies of edge ``u -> v``."""
        if count < 1:
            raise EdgeError(u, v, f"count must be >= 1, got {count}")
        for _ in range(count):
            self.apply((u, v, 1))

    def remove_edge(self, u: int, v: int, count: int = 1) -> None:
        """Delete ``count`` copies of edge ``u -> v``.

        Raises :class:`EdgeError` when fewer than ``count`` copies exist.
        """
        if count < 1:
            raise EdgeError(u, v, f"count must be >= 1, got {count}")
        existing = self.multiplicity(u, v)
        if existing < count:
            raise EdgeError(
                u, v, f"cannot delete {count} copies of {u}->{v}: multiplicity is {existing}"
            )
        for _ in range(count):
            self.apply((u, v, -1))

    def _find(self, d: int, row: int, x: int) -> int:
        """Slab index of ``x`` in ``row`` of direction ``d``, ``-1`` if absent."""
        try:
            index = self._row(d, row)[0].tolist().index(x)
        except ValueError:
            return -1
        return self._table[d].item(row, 0) + index

    def has_edge(self, u: int, v: int) -> bool:
        return self._find(_OUT, u, v) >= 0

    def multiplicity(self, u: int, v: int) -> int:
        """Number of parallel copies of ``u -> v`` (0 when absent)."""
        pos = self._find(_OUT, u, v)
        return self._mult[_OUT].item(pos) if pos >= 0 else 0

    @property
    def num_edges(self) -> int:
        """Total edge count including multiplicities."""
        return int(self._meta[_EDGES])

    @property
    def average_degree(self) -> float:
        """Average out-degree ``m / n`` (the theory's ``d``)."""
        return self.num_edges / self.num_vertices if self.num_vertices else 0.0

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over edges, repeating parallel edges per multiplicity."""
        return map(tuple, self.edge_array().tolist())

    def unique_edges(self) -> Iterator[tuple[int, int, int]]:
        """Iterate ``(u, v, multiplicity)`` triples."""
        return map(tuple, self._triples(_OUT).tolist())

    # ------------------------------------------------------------------ #
    # degrees / neighborhoods
    # ------------------------------------------------------------------ #

    def out_degree(self, u: int) -> int:
        """Out-degree with multiplicity; 0 for unknown vertices."""
        return self._dout.item(u) if 0 <= u < len(self._dout) else 0

    def in_degree(self, u: int) -> int:
        """In-degree with multiplicity; 0 for unknown vertices."""
        return self._din.item(u) if 0 <= u < len(self._din) else 0

    def _row(self, d: int, u: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of ``u``'s neighbours and multiplicities in direction ``d``."""
        table = self._table[d]
        start, length = (table.item(u, 0), table.item(u, 1)) if 0 <= u < len(table) else (0, 0)
        return self._nbr[d][start : start + length], self._mult[d][start : start + length]

    def out_neighbors(self, u: int) -> Iterator[tuple[int, int]]:
        """Iterate ``(v, multiplicity)`` for edges ``u -> v``."""
        nbrs, mults = self._row(_OUT, u)
        return zip(nbrs.tolist(), mults.tolist())

    def in_neighbors(self, u: int) -> Iterator[tuple[int, int]]:
        """Iterate ``(v, multiplicity)`` for edges ``v -> u``.

        This is the neighborhood the local push traverses: pushing ``u``
        propagates residual to every ``v`` with an edge ``v -> u``.
        """
        nbrs, mults = self._row(_IN, u)
        return zip(nbrs.tolist(), mults.tolist())

    def in_row(self, u: int) -> np.ndarray:
        """Dense in-adjacency row of ``u``, multiplicities expanded: dict
        order, parallel copies contiguous — the sequence a full CSR rebuild
        stores for ``u``, so the delta overlay
        (:class:`repro.graph.delta.DeltaCSRGraph`) can patch single rows."""
        return np.repeat(*self._row(_IN, u))

    def in_rows(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`in_row` of every id in ``ids``, in one call: each row's
        length and the rows concatenated (unknown ids: empty rows)."""
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        known = (ids >= 0) & (ids < len(self._din))
        lengths = np.zeros(len(ids), dtype=np.int64)
        lengths[known] = self._din[ids[known]]
        library = _library()
        if library is None:
            table = self._table[_IN][ids[known]]
            slots = flat_ranges(table[:, 0], table[:, 1])
            return lengths, np.repeat(self._nbr[_IN][slots], self._mult[_IN][slots])
        from ..kernels.compiled import compiled_in_rows

        flat = np.empty(int(lengths.sum()), dtype=np.int64)
        compiled_in_rows(library, self._slab_pointers(), ids, flat)
        return lengths, flat

    def out_degree_array(self, capacity: int | None = None) -> np.ndarray:
        """Dense ``int64`` array of out-degrees indexed by vertex id."""
        return self._degree_array(self._dout, capacity)

    def in_degree_array(self, capacity: int | None = None) -> np.ndarray:
        """Dense ``int64`` array of in-degrees indexed by vertex id."""
        return self._degree_array(self._din, capacity)

    def _degree_array(self, degree: np.ndarray, capacity: int | None) -> np.ndarray:
        arr = np.zeros(self.capacity if capacity is None else capacity, dtype=np.int64)
        covered = min(len(arr), len(degree))
        arr[:covered] = degree[:covered]
        return arr

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #

    def apply(self, update: EdgeUpdate) -> None:
        """Apply one edge update (``(u, v, op)``) with the Python slab
        operations — the arrays any kernel's batch apply leaves."""
        u, v, op = update
        if op == 1 and min(u, v) < 0:
            raise self._rejection(u, v, -1)
        if op == 1:
            self._reserve(max(u, v) + 1, self.num_vertices + 2)
        elif self._find(_OUT, u, v) < 0:
            raise self._rejection(u, v, 0)
        self._step(u, v, op)
        self._compact_sparse()

    def apply_batch(
        self, updates: np.ndarray | Iterable[EdgeUpdate], *, kernel=None
    ) -> np.ndarray:
        """Apply a ``(k, 3)`` ``(u, v, op)`` batch (or update objects) in
        order, atomically; ``dout_after[j]`` is ``u_j``'s out-degree right
        after update ``j``, the input of batch ``RestoreInvariant``.

        Every delete is checked against the multiplicity at its position
        *before* anything mutates: the first invalid update raises its own
        error (:class:`EdgeError`; :class:`VertexError` for a negative id)
        and the graph is left as it was. ``kernel`` (``PPRConfig.kernel``;
        ``None``: ``REPRO_KERNEL``) picks the compiled or the Python apply.
        """
        batch = as_batch(updates)
        ops = batch[:, 2]
        bad = np.flatnonzero((ops != 1) & (ops != -1))
        if bad.size:
            u, v, op = batch[bad[0]].tolist()
            raise EdgeError(u, v, f"edge op must be +1 or -1, got {op}")
        inserts = batch[ops == 1, :2]
        if len(inserts):
            self._reserve(int(inserts.max()) + 1, self.num_vertices + 2 * len(inserts))
        dout_after = np.empty(len(batch), dtype=np.int64)
        library = _library(kernel)
        if library is None:
            self._validate(batch)
            for j, (u, v, op) in enumerate(batch.tolist()):
                dout_after[j] = self._step(u, v, op)
        else:
            from ..kernels.compiled import compiled_graph_apply

            status = np.zeros(2, dtype=np.int64)
            done = 0
            while done < len(batch):
                done = compiled_graph_apply(
                    library, self._slab_pointers(), batch, done, dout_after, status
                )
                if done < 0:
                    u, v, _ = batch[status[0]].tolist()
                    raise self._rejection(u, v, int(status[1]))
                if done < len(batch):  # slab status[0] needs status[1] entries
                    self._reserve(slab=tuple(status.tolist()))
        self._compact_sparse()
        return dout_after

    @staticmethod
    def _rejection(u: int, v: int, existing: int) -> Exception:
        """The error of update ``(u, v)`` (``existing < 0``: a negative id)."""
        if existing < 0:
            bad = u if u < 0 else v
            return VertexError(bad, f"vertex ids must be >= 0, got {bad}")
        return EdgeError(
            u, v, f"cannot delete 1 copies of {u}->{v}: multiplicity is {existing}"
        )

    def _validate(self, batch: np.ndarray) -> None:
        """Raise the error the batch applied in order would hit first."""
        running: dict[tuple[int, int], int] = {}
        for index, (u, v, op) in enumerate(batch.tolist()):
            if op == 1 and min(u, v) < 0:
                raise self._rejection(u, v, -1)
            have = running.get((u, v))
            have = self.multiplicity(u, v) if have is None else have
            if op == -1 and have < 1:
                raise self._rejection(u, v, have)
            running[(u, v)] = have + op

    def _step(self, u: int, v: int, op: int) -> int:
        """``repro_graph_apply``'s slab operations for one valid update;
        returns ``u``'s out-degree after it."""
        if op == 1:
            self._register(u)
            self._register(v)
        pos = self._find(_OUT, u, v)
        if pos < 0:
            self._append(_OUT, u, v)
            self._append(_IN, v, u)
        else:
            back = self._find(_IN, v, u)
            if op == -1 and self._mult[_OUT][pos] == 1:
                self._remove(_OUT, u, pos)
                self._remove(_IN, v, back)
            else:
                self._mult[_OUT][pos] += op
                self._mult[_IN][back] += op
        self._din[v] += op
        self._meta[_EDGES] += op
        self._dout[u] += op
        return self._dout.item(u)

    def _compact_sparse(self) -> None:
        for d in (_OUT, _IN):
            if self._meta[_TOP[d]] > 2 * self._meta[_LIVE[d]]:
                self._compact(d)

    def _append(self, d: int, row: int, x: int) -> None:
        """Append ``x`` (multiplicity 1) to ``row``; a full row first moves
        to the end of the slab with room for ``2 * length + 1`` entries."""
        table, meta = self._table[d], self._meta
        start, length, slot = table[row].tolist()
        if length == slot:
            top, slot = int(meta[_TOP[d]]), 2 * length + 1
            self._reserve(slab=(d, top + slot))
            for slab in (self._nbr[d], self._mult[d]):
                slab[top : top + length] = slab[start : start + length]
            start = top
            table[row, [0, 2]] = top, slot
            meta[_TOP[d]] = top + slot
        self._nbr[d][start + length], self._mult[d][start + length] = x, 1
        table[row, 1] = length + 1
        meta[_LIVE[d]] += 1

    def _remove(self, d: int, row: int, pos: int) -> None:
        """Drop slab entry ``pos`` from ``row``, keeping the rest in order."""
        start, length, _ = self._table[d][row].tolist()
        for slab in (self._nbr[d], self._mult[d]):
            slab[pos : start + length - 1] = slab[pos + 1 : start + length].copy()
        self._table[d][row, 1] = length - 1
        self._meta[_LIVE[d]] -= 1

    def _compact(self, d: int) -> None:
        """Lay direction ``d``'s rows out back to back, in registration order."""
        order, table = self._order[: self._meta[_N]], self._table[d]
        lens = table[order, 1]
        slots = flat_ranges(table[order, 0], lens)
        self._nbr[d], self._mult[d] = self._nbr[d][slots], self._mult[d][slots]
        table[order, 0], table[order, 2] = np.cumsum(lens) - lens, lens
        self._meta[_TOP[d]] = len(slots)
        self._pointers = None

    # ------------------------------------------------------------------ #
    # construction / conversion
    # ------------------------------------------------------------------ #

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]]) -> "DynamicDiGraph":
        """What ``add_edge`` over ``edges`` in order builds, vectorized."""
        return cls(edges)

    @classmethod
    def from_edge_array(cls, edges: np.ndarray) -> "DynamicDiGraph":
        """What inserting the distinct rows of an ``(m, 2)`` edge array in
        sorted order, with their multiplicities, builds: vertex order follows
        the sorted unique edges, not the rows (:meth:`from_edges` keeps it)."""
        edges = np.asarray(edges, dtype=np.int64)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise EdgeError(None, None, f"edges must have shape (m, 2), got {edges.shape}")
        g = cls()
        if len(edges) and edges.min() >= 0:  # np.unique(axis=0)'s rows, via keys
            span = int(edges.max()) + 1
            keys, counts = np.unique(edges[:, 0] * span + edges[:, 1], return_counts=True)
            g._build(np.column_stack([keys // span, keys % span]), counts)
        elif len(edges):
            g._build(edges, None)  # raises the negative id's VertexError
        return g

    @classmethod
    def from_undirected_edges(cls, edges: Iterable[tuple[int, int]]) -> "DynamicDiGraph":
        """Build a graph with both directions for each input pair."""
        return cls(interleave_undirected(_pairs(edges)))

    def copy(self) -> "DynamicDiGraph":
        g = DynamicDiGraph()
        for name in ("_meta", "_dout", "_din", "_registered", "_order"):
            setattr(g, name, getattr(self, name).copy())
        for name in ("_table", "_nbr", "_mult"):
            setattr(g, name, [array.copy() for array in getattr(self, name)])
        return g

    def edge_array(self) -> np.ndarray:
        """``(m, 2)`` int64 array of edges with multiplicities expanded."""
        triples = self._triples(_OUT)
        return np.repeat(triples[:, :2], triples[:, 2], axis=0)

    def _triples(self, d: int) -> np.ndarray:
        """Direction ``d``'s ``(row, neighbor, multiplicity)`` triples, rows
        in registration order, each in dict order."""
        order, table = self._order[: self._meta[_N]], self._table[d]
        rows, slots = np.repeat(order, table[order, 1]), flat_ranges(*table[order, :2].T)
        return np.column_stack([rows, self._nbr[d][slots], self._mult[d][slots]])

    def to_arrays(self) -> dict[str, np.ndarray]:
        """Serialize the graph *order-exactly*: the registration order
        (``vertices``) and each direction's triples, row by row in dict
        order. :meth:`from_arrays` rebuilds the same orders, so CSR
        snapshots — and float summation order in the push — survive a
        save/load cycle; :mod:`repro.store` checkpoints depend on this."""
        return {
            "vertices": self._order[: self._meta[_N]].copy(),
            "out_edges": self._triples(_OUT),
            "in_edges": self._triples(_IN),
        }

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "DynamicDiGraph":
        """Rebuild a graph serialized by :meth:`to_arrays` (order-exact) with
        a few numpy passes and no per-edge Python — what a replica attaching
        a shared-memory dump and a recovery loading a graph base pay."""
        g = cls()
        out, inn = (np.asarray(arrays[key], np.int64).reshape(-1, 3).T
                    for key in ("out_edges", "in_edges"))
        g._adopt(np.asarray(arrays["vertices"], dtype=np.int64), out, inn)
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
        return isinstance(u, (int, np.integer)) and self.has_vertex(int(u))

    def __len__(self) -> int:
        return self.num_vertices

    def _canonical(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted vertices and ``(u, v)``-sorted out triples (orders dropped)."""
        triples = self._triples(_OUT)
        return np.sort(self._order[: self._meta[_N]]), triples[np.lexsort(triples.T[1::-1])]

    def __eq__(self, other: object) -> bool:
        """Same vertices and the same edge multiset (orders ignored)."""
        if not isinstance(other, DynamicDiGraph):
            return NotImplemented
        return all(map(np.array_equal, self._canonical(), other._canonical()))

    def __getstate__(self) -> dict:
        """The arrays, without the addresses this process cached for them."""
        return {name: getattr(self, name) for name in self.__slots__ if name != "_pointers"}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._pointers = None

    def __hash__(self) -> int:  # mutable container
        raise TypeError("DynamicDiGraph is unhashable (mutable)")

    def __repr__(self) -> str:
        return f"DynamicDiGraph(n={len(self)}, m={self.num_edges}, max_id={self.max_vertex_id})"

    def check_consistency(self) -> None:
        """Validate internal invariants (used by tests; O(n + m))."""
        vertices, forward = self._canonical()
        assert np.array_equal(vertices, np.flatnonzero(self._registered)), "registry"
        assert self.max_vertex_id == (int(vertices[-1]) if len(vertices) else -1)
        for d, degree in ((_OUT, self._dout), (_IN, self._din)):
            triples, table = self._triples(d), self._table[d][vertices]
            assert (triples[:, 2] > 0).all(), "zero multiplicity"
            sums = np.bincount(triples[:, 0], weights=triples[:, 2], minlength=len(degree))
            assert np.array_equal(sums, degree), "degree mismatch"
            assert int(table[:, 1].sum()) == self._meta[_LIVE[d]], "live count"
            assert (table[:, 1] <= table[:, 2]).all(), "row overflows its slot"
            assert (table[:, 0] + table[:, 2] <= self._meta[_TOP[d]]).all(), "slab"
        backward = self._triples(_IN)[:, [1, 0, 2]]
        assert np.array_equal(forward, backward[np.lexsort(backward.T[1::-1])]), "in/out"
        assert not (np.diff(forward[:, :2], axis=0) == 0).all(axis=1).any(), "repeat"
        assert int(forward[:, 2].sum()) == self.num_edges, "edge count mismatch"
