"""Differential oracle: the columnar graph against the dict-of-dicts one.

:class:`repro.graph.digraph.DynamicDiGraph` keeps its adjacency in flat
arrays and applies a batch in one call — ``repro_graph_apply`` under the
compiled kernel, the same slab operations in Python under numpy. Its
contract is the dict-of-dicts graph it replaced
(:class:`tests.dict_digraph.DictDiGraph`) applied one update at a time,
plus atomicity. Hypothesis histories over a small id space mix inserts,
parallel copies and deletes of live edges, drop-to-zero followed by
re-insert, ``add_vertex`` calls and invalid deletes (and the odd negative
id); after every step, under both kernels:

* ``to_arrays`` bytes, every ``in_row`` (and one ``in_rows`` call),
  ``dout``, ``din`` and the ``dout_after`` record equal the oracle's;
* a rejected batch raises the oracle's error — same type, message and
  index — and applies nothing;
* ``from_arrays`` of the oracle's dump rebuilds it, and the builders
  (``from_edges``, ``from_undirected_edges``, ``from_edge_array``) agree
  with the oracle's constructions.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import DynamicDiGraph, EdgeOp, EdgeUpdate, kernels
from repro.errors import EdgeError, GraphError
from tests.dict_digraph import DictDiGraph

IDS = 6
ids = st.integers(0, IDS - 1)

KERNELS = [
    "numpy",
    pytest.param(
        "compiled",
        marks=pytest.mark.skipif(
            kernels.load_library()[0] is None, reason="needs the compiled kernel"
        ),
    ),
]


@contextmanager
def kernel(mode: str):
    with mock.patch.dict(os.environ, {"REPRO_KERNEL": mode}):
        yield


@st.composite
def histories(draw):
    """Steps ``("vertex", id)`` or ``("batch", [(u, v, op), ...])``.

    Batches are drawn against the multiplicities the history has reached
    (a rejected batch commits nothing), so most are valid and exercise
    parallel copies, emptied rows and re-appended neighbours; an
    ``invalid`` move deletes an edge that may not be there.
    """
    live: dict[tuple[int, int], int] = {}
    steps = []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.integers(0, 4)) == 0:
            steps.append(("vertex", draw(st.integers(0, 2 * IDS))))
            continue
        pending, batch, valid = dict(live), [], True
        for _ in range(draw(st.integers(0, 12))):
            edges = sorted(e for e, c in pending.items() if c)
            move = draw(
                st.sampled_from(["insert", "parallel", "delete", "drop", "invalid"])
            )
            if move == "invalid":
                if draw(st.integers(0, 9)) == 0:
                    batch.append((-1, draw(ids), 1))  # a negative id
                    valid = False
                    continue
                edge = (draw(ids), draw(ids))
                valid = valid and pending.get(edge, 0) > 0
                pending[edge] = pending.get(edge, 0) - 1
                batch.append((*edge, -1))
            elif move == "insert" or not edges:
                edge = (draw(ids), draw(ids))
                pending[edge] = pending.get(edge, 0) + 1
                batch.append((*edge, 1))
            elif move == "parallel":
                edge = draw(st.sampled_from(edges))
                pending[edge] += 1
                batch.append((*edge, 1))
            elif move == "delete":
                edge = draw(st.sampled_from(edges))
                pending[edge] -= 1
                batch.append((*edge, -1))
            else:  # drop to zero, then re-insert: the neighbour re-appends
                edge = draw(st.sampled_from(edges))
                batch += [(*edge, -1)] * pending[edge] + [(*edge, 1)]
                pending[edge] = 1
        if valid:
            live = pending
        steps.append(("batch", batch))
    return steps


def assert_same(graph: DynamicDiGraph, oracle: DictDiGraph) -> None:
    graph.check_consistency()
    ours, theirs = graph.to_arrays(), oracle.to_arrays()
    assert ours.keys() == theirs.keys()
    for key, expected in theirs.items():
        assert ours[key].dtype == expected.dtype
        assert ours[key].shape == expected.shape
        assert ours[key].tobytes() == expected.tobytes()
    probe = np.arange(-1, oracle.capacity + 2, dtype=np.int64)
    rows = [oracle.in_row(v) for v in probe.tolist()]
    for v, row in zip(probe.tolist(), rows):
        assert graph.in_row(v).tobytes() == row.tobytes()
    lengths, flat = graph.in_rows(probe)
    assert lengths.tolist() == [len(row) for row in rows]
    assert flat.tobytes() == np.concatenate(rows).astype(np.int64).tobytes()
    span = oracle.capacity + 2
    assert np.array_equal(graph.out_degree_array(span), oracle.out_degree_array(span))
    assert np.array_equal(graph.in_degree_array(span), oracle.in_degree_array(span))
    assert (graph.num_edges, graph.capacity) == (oracle.num_edges, oracle.capacity)
    assert list(graph.vertices()) == list(oracle.vertices())
    assert graph == DynamicDiGraph.from_arrays(theirs)


def oracle_outcome(oracle: DictDiGraph, updates: list[EdgeUpdate]):
    """``(dout_after, index, error)`` of applying ``updates`` one by one to
    a copy of ``oracle`` (``error`` is ``None`` when all apply)."""
    trial, dout_after = oracle.copy(), []
    for index, update in enumerate(updates):
        try:
            trial.apply(update)
        except GraphError as exc:
            return dout_after, index, exc
        dout_after.append(trial.out_degree(update.u))
    return dout_after, len(updates), None


@pytest.mark.parametrize("mode", KERNELS)
@given(history=histories())
def test_columnar_graph_matches_the_dict_oracle(mode, history):
    with kernel(mode):
        graph, oracle = DynamicDiGraph(), DictDiGraph()
        for kind, step in history:
            if kind == "vertex":
                graph.add_vertex(step)
                oracle.add_vertex(step)
                assert_same(graph, oracle)
                continue
            updates = [EdgeUpdate(u, v, EdgeOp(op)) for u, v, op in step]
            dout_after, index, error = oracle_outcome(oracle, updates)
            if error is None:
                assert graph.apply_batch(updates).tolist() == dout_after
                oracle.apply_batch(updates)
                assert_same(graph, oracle)
                continue
            before = graph.copy()
            with pytest.raises(type(error)) as caught:
                graph.apply_batch(updates)
            assert str(caught.value) == str(error)
            if isinstance(error, EdgeError):
                assert (caught.value.u, caught.value.v) == (error.u, error.v)
            assert_same(graph, oracle)  # nothing applied
            # The index: the prefix before it applies, one more raises.
            before.apply_batch(updates[:index])
            with pytest.raises(type(error)):
                before.copy().apply_batch(updates[index : index + 1])


@given(history=histories())
def test_both_kernels_leave_identical_slabs(history):
    """The Python apply is ``repro_graph_apply`` step for step: the same
    relocations, growth and compactions, so the same arrays."""
    if kernels.load_library()[0] is None:
        pytest.skip("needs the compiled kernel")
    graphs = []
    for mode in ("numpy", "compiled"):
        with kernel(mode):
            graph = DynamicDiGraph()
            for kind, step in history:
                if kind == "vertex":
                    graph.add_vertex(step)
                    continue
                try:
                    graph.apply_batch([EdgeUpdate(u, v, EdgeOp(op)) for u, v, op in step])
                except GraphError:
                    pass
            graphs.append(graph)
    ours, theirs = graphs
    for name in ("_meta", "_dout", "_din", "_registered", "_order"):
        assert np.array_equal(getattr(ours, name), getattr(theirs, name)), name
    for name in ("_table", "_nbr", "_mult"):
        for a, b in zip(getattr(ours, name), getattr(theirs, name)):
            assert np.array_equal(a, b), name


@pytest.mark.parametrize("mode", KERNELS)
@given(edges=st.lists(st.tuples(ids, ids), max_size=40))
def test_builders_agree_with_the_oracle(mode, edges):
    array = np.array(edges, dtype=np.int64).reshape(-1, 2)
    with kernel(mode):
        assert_same(DynamicDiGraph.from_edges(edges), DictDiGraph.from_edges(edges))
        assert_same(DynamicDiGraph(array), DictDiGraph(edges))
        assert_same(
            DynamicDiGraph.from_undirected_edges(edges),
            DictDiGraph.from_undirected_edges(edges),
        )
        assert_same(
            DynamicDiGraph.from_edge_array(array), DictDiGraph.from_edge_array(array)
        )
