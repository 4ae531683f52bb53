"""Edge updates — the unit of the dynamic graph model (Section 2.2).

A stream is an unbounded sequence of batches ``delta_E_t``; each element is
``(u, v, op)`` meaning the directed edge ``u -> v`` is inserted or deleted
at time step ``t``.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain
from typing import NamedTuple

import numpy as np


class EdgeOp(enum.IntEnum):
    """Update type; values match the theory's ``op`` in {+1, -1} (Lemma 3)."""

    INSERT = 1
    DELETE = -1

    @property
    def symbol(self) -> str:
        return "+" if self is EdgeOp.INSERT else "-"


class EdgeUpdate(NamedTuple):
    """A single directed-edge update ``(u, v, op)``."""

    u: int
    v: int
    op: EdgeOp = EdgeOp.INSERT

    @property
    def is_insert(self) -> bool:
        return self.op is EdgeOp.INSERT

    @property
    def is_delete(self) -> bool:
        return self.op is EdgeOp.DELETE

    def reversed(self) -> "EdgeUpdate":
        """The same operation applied to the reverse edge ``v -> u``.

        Undirected graphs are modeled as two directed edges; applying an
        undirected update means applying the update and its reverse.
        """
        return EdgeUpdate(self.v, self.u, self.op)

    def inverse(self) -> "EdgeUpdate":
        """The update that undoes this one (insert <-> delete)."""
        other = EdgeOp.DELETE if self.op is EdgeOp.INSERT else EdgeOp.INSERT
        return EdgeUpdate(self.u, self.v, other)

    def __str__(self) -> str:
        return f"{self.op.symbol}({self.u}->{self.v})"


def insertions(edges: Iterable[tuple[int, int]]) -> list[EdgeUpdate]:
    """Wrap ``(u, v)`` pairs as insertion updates."""
    return [EdgeUpdate(u, v, EdgeOp.INSERT) for u, v in edges]


def deletions(edges: Iterable[tuple[int, int]]) -> list[EdgeUpdate]:
    """Wrap ``(u, v)`` pairs as deletion updates."""
    return [EdgeUpdate(u, v, EdgeOp.DELETE) for u, v in edges]


def undirected(updates: Iterable[EdgeUpdate]) -> Iterator[EdgeUpdate]:
    """Expand each update into itself plus its reverse (undirected model).

    The theory (Theorem 3) counts an undirected update as two directed
    updates; this helper performs exactly that expansion.
    """
    for upd in updates:
        yield upd
        yield upd.reversed()


def count_ops(updates: Sequence[EdgeUpdate]) -> tuple[int, int]:
    """Return ``(n_insertions, n_deletions)`` in ``updates``."""
    ins = sum(1 for u in updates if u.is_insert)
    return ins, len(updates) - ins


def as_batch(updates: Iterable[EdgeUpdate] | np.ndarray) -> np.ndarray:
    """A batch as one C-contiguous ``(k, 3)`` int64 array of ``(u, v, op)`` rows.

    The form every batch consumer takes — the graph's apply, the
    invariant repair, the overlay and the WAL frame (whose payload is
    these rows' little-endian bytes). An array passes through uncopied.
    """
    if isinstance(updates, np.ndarray):
        return np.ascontiguousarray(updates, dtype=np.int64).reshape(-1, 3)
    updates = updates if isinstance(updates, Sequence) else list(updates)
    flat = np.fromiter(chain.from_iterable(updates), dtype=np.int64, count=3 * len(updates))
    return flat.reshape(-1, 3)
