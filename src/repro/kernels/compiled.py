"""ctypes bindings and the drivers for the compiled push/restore backend.

:func:`compiled_phase` mirrors :func:`repro.core.push_vectorized.vectorized_phase`
iteration for iteration. The C kernel (``_push.c``) only does neighbor
propagation and next-frontier candidate emission; everything numpy computes
with array *reductions* — the frontier self-updates ``p += alpha*w`` /
``r -= w``, the ``residual_pushed`` mass sums, the eager second pass — stays
in numpy here so summation order (and therefore every bit of the result)
matches the oracle. See the header comment of ``_push.c`` for the full
bit-identity contract.

:func:`compiled_restore` is the batch ``RestoreInvariant`` twin of
:func:`repro.core.invariant.restore_invariant`: one call repairs one state
for a whole applied batch (see :func:`repro.core.invariant.restore_states`).
"""

from __future__ import annotations

import ctypes
import threading
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from ..config import Phase, PPRConfig
from ..core.push_vectorized import _BINCOUNT_THRESHOLD, _exceeds, _prepare_seeds
from ..core.state import PPRState
from ..core.stats import IterationRecord, PushStats
from ..errors import ConvergenceError
from .build import ABI_VERSION

_I64 = ctypes.c_int64
_F64 = ctypes.c_double
_PTR = ctypes.c_void_p

#: repro_push_iteration's exact parameter list; keep in lockstep with _push.c.
_ARGTYPES = [
    _PTR,  # r
    _I64,  # rcap
    _I64,  # nrows
    _PTR,  # row_start
    _PTR,  # row_count
    _PTR,  # row_overlay
    _PTR,  # base_indices
    _PTR,  # overlay_indices
    _PTR,  # dout
    _PTR,  # frontier
    _I64,  # frontier_len
    _F64,  # one_minus_alpha
    _F64,  # epsilon
    _F64,  # sign
    _I64,  # eager
    _I64,  # local_detect
    _I64,  # chunk_width
    _I64,  # bincount_threshold
    _PTR,  # weights
    _PTR,  # touch_stamp
    _PTR,  # before_val
    _PTR,  # dense_acc
    _PTR,  # enqueued_mask
    _PTR,  # current_mask
    _PTR,  # touched_buf
    _PTR,  # out_next
    _PTR,  # counters
    _PTR,  # token_io
]

#: repro_restore_batch's exact parameter list; keep in lockstep with _push.c.
_RESTORE_ARGTYPES = [
    _PTR,  # p
    _PTR,  # r
    _I64,  # source
    _F64,  # alpha
    _PTR,  # u
    _PTR,  # v
    _PTR,  # op
    _PTR,  # dout_after
    _I64,  # count
    _PTR,  # delta_out
]


class KernelLibrary:
    """One loaded ``_push`` shared library."""

    def __init__(self, path: Path) -> None:
        self.path = path
        cdll = ctypes.CDLL(str(path))
        cdll.repro_kernel_abi.restype = _I64
        cdll.repro_kernel_abi.argtypes = []
        abi = int(cdll.repro_kernel_abi())
        if abi != ABI_VERSION:
            raise OSError(
                f"kernel ABI mismatch: library {path} is v{abi},"
                f" expected v{ABI_VERSION}"
            )
        cdll.repro_push_iteration.restype = _I64
        cdll.repro_push_iteration.argtypes = _ARGTYPES
        self._iteration = cdll.repro_push_iteration
        cdll.repro_restore_batch.restype = None
        cdll.repro_restore_batch.argtypes = _RESTORE_ARGTYPES
        self._restore = cdll.repro_restore_batch


class _Scratch:
    """Process-wide reusable kernel buffers, grown monotonically.

    ``touch_stamp`` + ``token`` implement first-touch detection without
    per-chunk clearing; the other buffers are maintained all-zero by the
    kernel itself (it re-clears exactly the entries it set). One scratch
    per process is enough: engines run a push under the service lock, and
    forked replica/shard workers each get their own copy.
    """

    __slots__ = (
        "cap",
        "token",
        "counters",
        "touch_stamp",
        "before_val",
        "dense_acc",
        "enqueued_mask",
        "current_mask",
        "touched_buf",
        "out_next",
        "lock",
    )

    def __init__(self) -> None:
        self.cap = 0
        self.token = np.zeros(1, dtype=np.int64)
        self.counters = np.zeros(4, dtype=np.int64)
        self.lock = threading.Lock()

    def ensure(self, rcap: int) -> None:
        if rcap <= self.cap:
            return
        cap = max(rcap, 2 * self.cap)
        self.touch_stamp = np.full(cap, -1, dtype=np.int64)
        self.before_val = np.empty(cap, dtype=np.float64)
        self.dense_acc = np.zeros(cap, dtype=np.float64)
        self.enqueued_mask = np.zeros(cap, dtype=np.uint8)
        self.current_mask = np.zeros(cap, dtype=np.uint8)
        self.touched_buf = np.empty(cap, dtype=np.int64)
        self.out_next = np.empty(cap, dtype=np.int64)
        self.cap = cap


_SCRATCH = _Scratch()


def _run_iteration(
    lib: KernelLibrary,
    scratch: _Scratch,
    r: np.ndarray,
    ka: dict,
    frontier: np.ndarray,
    weights: np.ndarray,
    *,
    one_minus_alpha: float,
    epsilon: float,
    sign: float,
    eager: bool,
    local_detect: bool,
    chunk_width: int,
) -> int:
    return int(
        lib._iteration(
            r.ctypes.data,
            len(r),
            ka["num_rows"],
            ka["row_start"].ctypes.data,
            ka["row_count"].ctypes.data,
            ka["row_overlay"].ctypes.data,
            ka["base_indices"].ctypes.data,
            ka["overlay_indices"].ctypes.data,
            ka["dout"].ctypes.data,
            frontier.ctypes.data,
            len(frontier),
            one_minus_alpha,
            epsilon,
            sign,
            1 if eager else 0,
            1 if local_detect else 0,
            chunk_width,
            _BINCOUNT_THRESHOLD,
            weights.ctypes.data,
            scratch.touch_stamp.ctypes.data,
            scratch.before_val.ctypes.data,
            scratch.dense_acc.ctypes.data,
            scratch.enqueued_mask.ctypes.data,
            scratch.current_mask.ctypes.data,
            scratch.touched_buf.ctypes.data,
            scratch.out_next.ctypes.data,
            scratch.counters.ctypes.data,
            scratch.token.ctypes.data,
        )
    )


def compiled_phase(
    lib: KernelLibrary,
    state: PPRState,
    ka: dict,
    phase: Phase,
    config: PPRConfig,
    seeds: Iterable[int] | None,
    stats: PushStats,
) -> bool:
    """Run one sign phase through the compiled kernel to exhaustion.

    Returns ``False`` (without touching any state) when the prepared
    frontier contains ids outside the kernel arrays — the caller then runs
    the numpy oracle for this phase instead.
    """
    epsilon = config.epsilon
    alpha = config.alpha
    one_minus_alpha = 1.0 - alpha
    sign = 1.0 if phase is Phase.POS else -1.0
    eager = config.variant.eager
    local_detect = config.variant.local_duplicate_detection
    nrows = ka["num_rows"]

    frontier = _prepare_seeds(state, phase, epsilon, seeds)
    # _prepare_seeds output is sorted ascending; later frontiers only hold
    # in-neighbors (< nrows) and reactivated frontier members.
    if frontier.size and int(frontier[-1]) >= nrows:
        return False

    scratch = _SCRATCH
    with scratch.lock:
        counters = scratch.counters
        rounds = 0
        while frontier.size:
            r = state.r
            scratch.ensure(len(r))
            frontier = np.ascontiguousarray(frontier, dtype=np.int64)
            rec = IterationRecord(phase=phase, frontier_size=int(frontier.size))
            counters[:] = 0
            if eager:
                consistent = np.empty(len(frontier), dtype=np.float64)
                n_out = _run_iteration(
                    lib,
                    scratch,
                    r,
                    ka,
                    frontier,
                    consistent,
                    one_minus_alpha=one_minus_alpha,
                    epsilon=epsilon,
                    sign=sign,
                    eager=True,
                    local_detect=local_detect,
                    chunk_width=config.workers,
                )
                candidates = scratch.out_next[:n_out].copy()
                # Session 2 — self-update with the consistent values.
                state.p[frontier] += alpha * consistent
                r[frontier] -= consistent
                rec.residual_pushed += float(np.abs(consistent).sum())
                reactivated = frontier[_exceeds(r[frontier], phase, epsilon)]
                rec.second_pass_enqueued = int(reactivated.size)
                pieces = [a for a in (candidates, reactivated) if a.size]
                if pieces:
                    new = np.concatenate(pieces)
                    rec.enqueued = int(new.size)
                    frontier = np.sort(new)
                else:
                    rec.enqueued = 0
                    frontier = np.empty(0, dtype=np.int64)
            else:
                weights = r[frontier].copy()
                state.p[frontier] += alpha * weights
                r[frontier] = 0.0
                rec.residual_pushed += float(np.abs(weights).sum())
                n_out = _run_iteration(
                    lib,
                    scratch,
                    r,
                    ka,
                    frontier,
                    weights,
                    one_minus_alpha=one_minus_alpha,
                    epsilon=epsilon,
                    sign=sign,
                    eager=False,
                    local_detect=local_detect,
                    chunk_width=max(int(frontier.size), 1),
                )
                new = scratch.out_next[:n_out].copy()
                rec.enqueued = int(new.size)
                frontier = np.sort(new)
            rec.edge_traversals += int(counters[0])
            rec.atomic_adds += int(counters[1])
            rec.enqueue_attempts += int(counters[2])
            rec.dedup_checks += int(counters[3])
            stats.record(rec)
            rounds += 1
            if rounds > config.max_iterations:
                raise ConvergenceError(rounds, state.residual_linf())
    return True


def compiled_restore(
    lib: KernelLibrary,
    state: PPRState,
    alpha: float,
    batch: np.ndarray,
    cover: int,
    deltas: np.ndarray,
) -> None:
    """Repair ``state`` for one applied batch; per-update Δ lands in ``deltas``.

    ``batch`` is a C-contiguous ``(4, k)`` int64 array whose rows are
    ``u``, ``v``, ``op`` (±1) and ``dout_after``, every id below ``cover``;
    ``deltas`` is contiguous float64 of length ``k``. ``state`` must
    already cover ``cover`` ids (the caller replays the oracle's capacity
    growth); the kernel indexes unchecked, so that is verified here.
    """
    for vector in (state.p, state.r):
        if (
            vector.dtype != np.float64
            or not vector.flags.c_contiguous
            or len(vector) < cover
        ):
            raise ValueError(
                f"state vector (dtype {vector.dtype}, length {len(vector)}) is not"
                f" a contiguous float64 array covering {cover} ids"
            )
    u, v, op, dout_after = batch
    lib._restore(
        state.p.ctypes.data,
        state.r.ctypes.data,
        state.source,
        alpha,
        u.ctypes.data,
        v.ctypes.data,
        op.ctypes.data,
        dout_after.ctypes.data,
        batch.shape[1],
        deltas.ctypes.data,
    )
