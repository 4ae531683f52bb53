"""ctypes bindings and the drivers for the compiled push/restore backend.

:func:`compiled_phase` is :func:`repro.core.push_vectorized.vectorized_phase`
as **one C call per phase**: ``repro_push_phase`` (``_push.c``) runs every
iteration of a sign phase — chunked eager reads, neighbor propagation, the
frontier self-updates, the second-pass reactivation, the ascending frontier
sort — and leaves one counter row (plus the drained mass) per iteration in
caller-owned buffers. Python prepares the seed frontier before the call and
builds the oracle's :class:`IterationRecord` list after it. A call returns
early only when its row table fills or the ``max_iterations`` budget is
spent; the driver resumes or raises. ``p``/``r`` and every integer counter
are bit-identical to the oracle; see the header comment of ``_push.c`` for
the full contract (and for ``residual_pushed``, the one field that is not).

:func:`compiled_restore` is the batch ``RestoreInvariant`` twin of
:func:`repro.core.invariant.restore_invariant`: one call repairs every state
for a whole applied batch (see :func:`repro.core.invariant.restore_states`).
:func:`compiled_graph_apply` and :func:`compiled_in_rows` run the graph of
record's batch apply and row expansion
(:class:`repro.graph.digraph.DynamicDiGraph`).
"""

from __future__ import annotations

import ctypes
import threading
from collections.abc import Iterable, Sequence
from pathlib import Path

import numpy as np

from ..config import Phase, PPRConfig
from ..core.push_vectorized import _BINCOUNT_THRESHOLD, _prepare_seeds
from ..core.state import PPRState
from ..core.stats import IterationRecord, PushStats
from ..errors import ConvergenceError, GraphError
from .build import ABI_VERSION

_I64 = ctypes.c_int64
_F64 = ctypes.c_double
_PTR = ctypes.c_void_p

#: repro_push_phase's exact parameter list; keep in lockstep with _push.c.
_ARGTYPES = [
    _PTR,  # p
    _PTR,  # r
    _I64,  # rcap
    _PTR,  # row_start
    _PTR,  # row_count
    _PTR,  # row_overlay
    _PTR,  # base_indices
    _PTR,  # overlay_indices
    _PTR,  # dout
    _F64,  # alpha
    _F64,  # one_minus_alpha
    _F64,  # epsilon
    _F64,  # sign
    _I64,  # eager
    _I64,  # local_detect
    _I64,  # workers
    _I64,  # bincount_threshold
    _I64,  # budget
    _I64,  # max_rows
    _PTR,  # frontier
    _PTR,  # next
    _PTR,  # touch_count
    _PTR,  # dense_acc
    _PTR,  # enqueued_mask
    _PTR,  # current_mask
    _PTR,  # touched_buf
    _PTR,  # weight
    _PTR,  # rows
    _PTR,  # pushed
    _PTR,  # frontier_len_io
]

#: Per-iteration rows one call can return (a cold push runs ~8 iterations);
#: a longer phase resumes with a second call.
_MAX_ROWS = 64
#: Counters per row, in IterationRecord field order after ``phase``.
_ROW_WIDTH = 7

#: repro_restore_states's exact parameter list; keep in lockstep with _push.c.
_RESTORE_ARGTYPES = [
    _PTR,  # p, one pointer per state
    _PTR,  # r, one pointer per state
    _PTR,  # source, one per state
    _I64,  # n_states
    _F64,  # alpha
    _PTR,  # batch, (count, 3): u, v, op
    _PTR,  # dout_after
    _I64,  # count
    _PTR,  # delta_out, (n_states, count)
]

#: repro_graph_apply's exact parameter list; keep in lockstep with _push.c
#: (everything after ``begin`` is ``DynamicDiGraph._slab_pointers()`` plus
#: the two output buffers).
_GRAPH_APPLY_ARGTYPES = [
    _PTR,  # batch, (count, 3)
    _I64,  # count
    _I64,  # begin
    _PTR,  # meta
    _I64,  # id_cap
    _PTR,  # dout
    _PTR,  # din
    _PTR,  # registered
    _PTR,  # order
    *[_PTR, _PTR, _PTR, _I64] * 2,  # table, nbr, mult, slab length; out, in
    _PTR,  # dout_after
    _PTR,  # status
]

#: repro_graph_in_rows's exact parameter list; keep in lockstep with _push.c.
_IN_ROWS_ARGTYPES = [_PTR, _I64, _I64, _PTR, _PTR, _PTR, _PTR, _I64]


class KernelLibrary:
    """One loaded ``_push`` shared library."""

    def __init__(self, path: Path) -> None:
        self.path = path
        cdll = ctypes.CDLL(str(path))
        cdll.repro_kernel_abi.restype = _I64
        cdll.repro_kernel_abi.argtypes = []
        self.abi = abi = int(cdll.repro_kernel_abi())
        if abi != ABI_VERSION:
            raise OSError(
                f"kernel ABI mismatch: library {path} is v{abi},"
                f" expected v{ABI_VERSION}"
            )
        cdll.repro_push_phase.restype = _I64
        cdll.repro_push_phase.argtypes = _ARGTYPES
        self._phase = cdll.repro_push_phase
        cdll.repro_restore_states.restype = None
        cdll.repro_restore_states.argtypes = _RESTORE_ARGTYPES
        self._restore = cdll.repro_restore_states
        cdll.repro_graph_apply.restype = _I64
        cdll.repro_graph_apply.argtypes = _GRAPH_APPLY_ARGTYPES
        self._graph_apply = cdll.repro_graph_apply
        cdll.repro_graph_in_rows.restype = _I64
        cdll.repro_graph_in_rows.argtypes = _IN_ROWS_ARGTYPES
        self._graph_in_rows = cdll.repro_graph_in_rows


class _Scratch(threading.local):
    """Per-thread reusable kernel buffers, grown monotonically.

    The count/mask/accumulator buffers are maintained all-zero by the
    kernel itself (it re-clears exactly the entries it set, O(touched)).
    ``frontier`` carries the frontier in and out (with ``frontier_len``),
    ``rows``/``pushed`` the per-iteration output. ``pointers`` is the
    kernel's trailing argument run, resolved once per growth and not per
    call. Every thread gets its own buffers (``threading.local`` runs
    ``__init__`` once per thread), so pushes on two threads — a cold read
    the gateway runs with its lock released, beside a locked request —
    never share scratch while ctypes has the GIL released.
    """

    def __init__(self) -> None:
        self.cap = 0
        self.frontier_len = np.zeros(1, dtype=np.int64)
        self.rows = np.zeros((_MAX_ROWS, _ROW_WIDTH), dtype=np.int64)
        self.pushed = np.zeros(_MAX_ROWS, dtype=np.float64)

    def ensure(self, rcap: int) -> None:
        if rcap <= self.cap:
            return
        cap = max(rcap, 2 * self.cap)
        self.frontier = np.empty(cap + 1, dtype=np.int64)
        self.buffers = [
            self.frontier,
            np.empty(cap + 1, dtype=np.int64),  # next
            np.zeros(cap, dtype=np.int64),  # touch_count
            np.zeros(cap, dtype=np.float64),  # dense_acc
            np.zeros(cap, dtype=np.uint8),  # enqueued_mask
            np.zeros(cap, dtype=np.uint8),  # current_mask
            np.empty(cap, dtype=np.int64),  # touched_buf
            np.empty(cap, dtype=np.float64),  # weight
            self.rows,
            self.pushed,
            self.frontier_len,
        ]
        self.pointers = tuple(buffer.ctypes.data for buffer in self.buffers)
        self.cap = cap


_SCRATCH = _Scratch()

#: The view arrays the kernel reads, in parameter order.
_VIEW_ARRAYS = (
    "row_start",
    "row_count",
    "row_overlay",
    "base_indices",
    "overlay_indices",
    "dout",
)


def _view_pointers(ka: dict) -> tuple:
    """Addresses of a view's kernel arrays, resolved once per view: ``ka``
    is cached on the (immutable) view and keeps the arrays alive for as
    long as the addresses are."""
    pointers = ka.get("pointers")
    if pointers is None:
        pointers = ka["pointers"] = tuple(
            ka[name].ctypes.data for name in _VIEW_ARRAYS
        )
    return pointers


def compiled_phase(
    lib: KernelLibrary,
    state: PPRState,
    ka: dict,
    phase: Phase,
    config: PPRConfig,
    seeds: Iterable[int] | None,
    stats: PushStats,
) -> int | None:
    """Run one sign phase through the compiled kernel to exhaustion.

    Returns the number of C calls made: none for an empty frontier, one
    otherwise (one more per ``_MAX_ROWS`` iterations). Returns ``None``
    (without touching any state) when the prepared frontier contains ids
    outside the kernel arrays — the caller then runs the numpy oracle for
    this phase instead.
    """
    frontier = _prepare_seeds(state, phase, config.epsilon, seeds)
    if not frontier.size:
        return 0
    p, r, nrows = state.p, state.r, ka["num_rows"]
    # _prepare_seeds output is sorted ascending; later frontiers only hold
    # in-neighbors (< nrows) and reactivated frontier members. The kernel
    # indexes p/r unchecked, so they must cover every row.
    if int(frontier[-1]) >= nrows or min(len(p), len(r)) < nrows:
        return None
    variant = config.variant
    scratch = _SCRATCH
    scratch.ensure(len(r))
    scratch.frontier[: frontier.size] = frontier
    scratch.frontier_len[0] = frontier.size
    head = (
        p.ctypes.data,
        r.ctypes.data,
        len(r),
        *_view_pointers(ka),
        config.alpha,
        1.0 - config.alpha,
        config.epsilon,
        1.0 if phase is Phase.POS else -1.0,
        variant.eager,
        variant.local_duplicate_detection,
        config.workers,
        _BINCOUNT_THRESHOLD,
    )
    rounds = calls = 0
    while scratch.frontier_len[0]:
        calls += 1
        done = lib._phase(
            *head,
            config.max_iterations + 1 - rounds,
            _MAX_ROWS,
            *scratch.pointers,
        )
        for row, pushed in zip(
            scratch.rows[:done].tolist(), scratch.pushed[:done].tolist()
        ):
            stats.record(IterationRecord(phase, *row, pushed))
        rounds += done
        if rounds > config.max_iterations:
            raise ConvergenceError(rounds, state.residual_linf())
    return calls


def compiled_restore(
    lib: KernelLibrary,
    states: Sequence[PPRState],
    alpha: float,
    batch: np.ndarray,
    dout_after: np.ndarray,
    cover: int,
    deltas: np.ndarray,
) -> None:
    """Repair every state for one applied batch; Δ of state ``i`` lands in
    ``deltas[i]`` (C-contiguous float64, ``(len(states), k)``).

    ``batch`` is the C-contiguous ``(k, 3)`` int64 ``(u, v, op)`` array and
    ``dout_after`` what the graph's apply returned, every id below ``cover``.
    Every state must already cover ``cover`` ids (the caller replays the
    oracle's capacity growth); the kernel indexes unchecked, so that is
    verified here.
    """
    for state in states:
        for vector in (state.p, state.r):
            if (
                vector.dtype != np.float64
                or not vector.flags.c_contiguous
                or len(vector) < cover
            ):
                raise ValueError(
                    f"state vector (dtype {vector.dtype}, length {len(vector)})"
                    f" is not a contiguous float64 array covering {cover} ids"
                )
    p = np.array([state.p.ctypes.data for state in states], dtype=np.uintp)
    r = np.array([state.r.ctypes.data for state in states], dtype=np.uintp)
    sources = np.array([state.source for state in states], dtype=np.int64)
    lib._restore(
        p.ctypes.data,
        r.ctypes.data,
        sources.ctypes.data,
        len(states),
        alpha,
        batch.ctypes.data,
        dout_after.ctypes.data,
        len(batch),
        deltas.ctypes.data,
    )


def compiled_graph_apply(
    lib: KernelLibrary,
    pointers: tuple,
    batch: np.ndarray,
    begin: int,
    dout_after: np.ndarray,
    status: np.ndarray,
) -> int:
    """One ``repro_graph_apply`` call over a graph's slab ``pointers``
    (see :meth:`repro.graph.digraph.DynamicDiGraph.apply_batch` for the
    protocol: ``len(batch)`` done, ``-1`` rejected, else resume there)."""
    done = lib._graph_apply(
        batch.ctypes.data,
        len(batch),
        begin,
        *pointers,
        dout_after.ctypes.data,
        status.ctypes.data,
    )
    if done == -2:
        raise MemoryError("repro_graph_apply could not allocate its validation table")
    return done


def compiled_in_rows(
    lib: KernelLibrary, pointers: tuple, ids: np.ndarray, flat: np.ndarray
) -> None:
    """Fill ``flat`` with the expanded in-rows of ``ids`` (C-contiguous
    int64), a graph's ``_slab_pointers()`` naming the in direction. The
    kernel writes within ``flat``; rows that do not fill it exactly mean
    the graph's ``din`` and slabs disagree."""
    id_cap, in_table, in_nbr, in_mult = pointers[1], *pointers[10:13]
    written = lib._graph_in_rows(
        ids.ctypes.data, len(ids), id_cap, in_table, in_nbr, in_mult,
        flat.ctypes.data, len(flat),
    )
    if written != len(flat):
        raise GraphError(f"in-rows hold {written} entries, din says {len(flat)}")
