"""Vectorized (numpy) backend for the parallel local push.

Semantically equivalent to the pure engine in :mod:`push_parallel` —
same frontier-per-iteration structure, same worker-width chunked
scheduling for eager reads, same sorted-frontier contract — but the inner
loops run as numpy array operations:

* ``np.add.at`` / ``np.bincount`` play the role of atomic residual
  additions (commutative, so the final sums match hardware atomics);
* local duplicate detection compares each touched vertex's residual
  before and after a chunk's propagation — monotonicity within a phase
  guarantees the crossing is observed by exactly one chunk, mirroring the
  exactly-one-thread guarantee of the paper's atomicAdd trick.

One accounting approximation (documented): ``enqueue_attempts`` counts
every addition landing on a vertex whose *post-chunk* residual passes the
threshold, whereas the pure engine tests each addition's own post-value.
Within a chunk these can differ by the adds that precede the crossing;
totals agree to within one chunk's contribution and both upper-bound the
true synchronized-check count used by the cost models.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable

import numpy as np

from ..config import Phase, PPRConfig
from ..errors import ConvergenceError
from ..graph.delta import CSRView
from .state import PPRState
from .stats import IterationRecord, PushStats

#: Floor below which the scatter-add never considers the bincount path.
#: The measured crossover (``benchmarks/bench_core_micro.py``,
#: ``test_scatter_add_crossover``) sits where a chunk's traversals exceed
#: the state-vector capacity — buffered ``np.add.at`` wins everywhere
#: below it on numpy ≥ 2 and allocates nothing, whereas the historical
#: policy paid a capacity-sized ``np.bincount`` output for every call
#: above this constant.
_BINCOUNT_THRESHOLD = 2048


class _Scratch(threading.local):
    """Per-thread reusable buffers for the push hot path.

    The vectorized push used to allocate two capacity-sized arrays per
    propagation chunk (a ``np.bincount`` accumulator and the
    ``passing_mask`` boolean); at delta-sized batches those allocations
    dominated the chunk cost. The mask lives here instead, grown
    monotonically and *cleared by the borrower* (reset exactly the
    positions it set) so reuse costs O(touched), not O(capacity). Each
    thread borrows its own mask: a cold read pushes with the gateway
    lock released, beside whatever push holds it.
    """

    def __init__(self) -> None:
        self.mask = np.zeros(0, dtype=bool)

    def bool_mask(self, size: int) -> np.ndarray:
        """An all-``False`` mask of at least ``size``; caller re-clears it."""
        if len(self.mask) < size:
            self.mask = np.zeros(max(size, 2 * len(self.mask)), dtype=bool)
        return self.mask


_SCRATCH = _Scratch()


def _scatter_add(r: np.ndarray, targets: np.ndarray, values: np.ndarray, cap: int) -> None:
    """Atomic-add equivalent: accumulate ``values`` into ``r[targets]``.

    Policy set by the crossover micro-bench
    (``benchmarks/bench_core_micro.py::test_scatter_add_crossover``):
    buffered ``np.add.at`` allocates nothing and wins until a chunk's
    traversal count reaches the state-vector capacity, so the full-width
    ``np.bincount`` accumulator — a capacity-sized allocation per call —
    runs only in that denser-than-the-vector regime where its output is
    no larger than its input. (``np.bincount`` cannot write into caller
    memory, so the reusable scratch of this hot path lives at the
    ``passing_mask`` in ``_propagate_chunk`` instead.)

    The two branches agree only up to float rounding (``add.at`` folds
    each increment into ``r`` as it goes; ``bincount`` totals them from
    0.0 first) — but the branch choice is a deterministic function of
    the input sizes, so any two runs being compared bit-for-bit (delta
    vs rebuild snapshots, recovery vs uninterrupted) take the same
    branch on the same data and stay bit-identical. Do not make the
    threshold depend on anything that can differ between such runs.
    """
    if len(targets) > max(_BINCOUNT_THRESHOLD, cap):
        r += np.bincount(targets, weights=values, minlength=cap)
    else:
        np.add.at(r, targets, values)


def _exceeds(values: np.ndarray, phase: Phase, epsilon: float) -> np.ndarray:
    """Vectorized ``pushCond``."""
    if phase is Phase.POS:
        return values > epsilon
    return values < -epsilon


def _prepare_seeds(
    state: PPRState,
    phase: Phase,
    epsilon: float,
    seeds: Iterable[int] | None,
) -> np.ndarray:
    """The phase's first frontier: seeds that pass ``pushCond``, ascending.

    ``seeds=None`` — a resident's lazy refresh — scans ``r`` (ascending and
    distinct by construction): linear in the id space, about 26 µs per
    phase at 41 600 ids and 0.7 ms at 10⁶ on one Xeon core. Given seeds
    may repeat in any order, so the filter runs before the sort-and-dedup;
    :func:`parallel_local_push` converts them to an array once.
    """
    if seeds is None:
        return np.flatnonzero(_exceeds(state.r, phase, epsilon))
    if not isinstance(seeds, np.ndarray):
        seeds = np.fromiter(seeds, dtype=np.int64)
    return np.unique(seeds[_exceeds(state.r[seeds], phase, epsilon)])


def _propagate_chunk(
    state: PPRState,
    csr: CSRView,
    phase: Phase,
    config: PPRConfig,
    chunk: np.ndarray,
    weights: np.ndarray,
    rec: IterationRecord,
    current_mask: np.ndarray | None,
    enqueued_mask: np.ndarray,
) -> np.ndarray:
    """Neighbor propagation for one scheduling chunk; returns new frontier ids.

    ``current_mask`` is set for eager variants (exclude the unconsumed
    current frontier from global enqueueing); ``enqueued_mask`` dedupes
    across chunks for the global-queue variants.
    """
    epsilon = config.epsilon
    local_detect = config.variant.local_duplicate_detection
    r = state.r
    src_idx, targets = csr.gather_in_edges(chunk)
    if targets.size == 0:
        return targets
    increments = (1.0 - config.alpha) * weights[src_idx] / csr.dout[targets]
    touched = np.unique(targets)
    before = r[touched].copy()
    _scatter_add(r, targets, increments, len(r))
    after = r[touched]

    rec.edge_traversals += int(targets.size)
    rec.atomic_adds += int(targets.size)

    passes_after = _exceeds(after, phase, epsilon)
    passing = touched[passes_after]
    # Attempts: adds landing on vertices whose post-chunk value passes.
    if passing.size:
        passing_mask = _SCRATCH.bool_mask(len(r))
        passing_mask[passing] = True
        attempts = int(passing_mask[targets].sum())
        passing_mask[passing] = False  # leave the scratch clean
    else:
        attempts = 0
    rec.enqueue_attempts += attempts

    if local_detect:
        crossed = touched[~_exceeds(before, phase, epsilon) & passes_after]
        return crossed
    rec.dedup_checks += attempts
    candidates = passing
    if current_mask is not None and candidates.size:
        candidates = candidates[~current_mask[candidates]]
    if candidates.size:
        candidates = candidates[~enqueued_mask[candidates]]
        enqueued_mask[candidates] = True
    return candidates


def _snapshot_iteration(
    state: PPRState,
    csr: CSRView,
    phase: Phase,
    config: PPRConfig,
    frontier: np.ndarray,
    rec: IterationRecord,
) -> np.ndarray:
    """Algorithm 3 session order, whole-frontier snapshot semantics."""
    alpha = config.alpha
    r = state.r
    weights = r[frontier].copy()
    state.p[frontier] += alpha * weights
    r[frontier] = 0.0
    rec.residual_pushed += float(np.abs(weights).sum())
    enqueued_mask = np.zeros(len(r), dtype=bool)
    new = _propagate_chunk(
        state, csr, phase, config, frontier, weights, rec, None, enqueued_mask
    )
    rec.enqueued = int(new.size)
    return np.sort(new)


def _eager_iteration(
    state: PPRState,
    csr: CSRView,
    phase: Phase,
    config: PPRConfig,
    frontier: np.ndarray,
    rec: IterationRecord,
) -> np.ndarray:
    """Algorithm 4 session order with worker-width chunked eager reads."""
    alpha = config.alpha
    epsilon = config.epsilon
    local_detect = config.variant.local_duplicate_detection
    r = state.r
    consistent = np.empty(len(frontier), dtype=np.float64)
    pieces: list[np.ndarray] = []
    enqueued_mask = np.zeros(len(r), dtype=bool)
    current_mask: np.ndarray | None = None
    if not local_detect:
        current_mask = np.zeros(len(r), dtype=bool)
        current_mask[frontier] = True

    width = config.workers
    for start in range(0, len(frontier), width):
        chunk = frontier[start : start + width]
        weights = r[chunk].copy()  # simultaneous (chunk-wide) eager reads
        consistent[start : start + len(chunk)] = weights
        piece = _propagate_chunk(
            state, csr, phase, config, chunk, weights, rec, current_mask, enqueued_mask
        )
        if piece.size:
            pieces.append(piece)

    # Session 2 — self-update with the consistent values, second frontier pass.
    state.p[frontier] += alpha * consistent
    r[frontier] -= consistent
    rec.residual_pushed += float(np.abs(consistent).sum())
    reactivated = frontier[_exceeds(r[frontier], phase, epsilon)]
    rec.second_pass_enqueued = int(reactivated.size)
    if reactivated.size:
        pieces.append(reactivated)
    if not pieces:
        rec.enqueued = 0
        return np.empty(0, dtype=np.int64)
    new = np.concatenate(pieces)
    rec.enqueued = int(new.size)
    return np.sort(new)


def vectorized_phase(
    state: PPRState,
    csr: CSRView,
    phase: Phase,
    config: PPRConfig,
    seeds: Iterable[int] | None,
    stats: PushStats,
) -> None:
    """Run one sign phase of the vectorized parallel push to exhaustion."""
    frontier = _prepare_seeds(state, phase, config.epsilon, seeds)
    iteration = _eager_iteration if config.variant.eager else _snapshot_iteration
    # Distributed views (repro.shard) expose a prefetch hook so one batched
    # round-trip fetches every remote in-row the iteration will gather;
    # plain CSR snapshots don't have it and skip the probe entirely. The
    # weights are informational (the eager variant re-reads residuals per
    # chunk); the frontier is the contract.
    prefetch = getattr(csr, "prefetch_rows", None)
    rounds = 0
    while frontier.size:
        if prefetch is not None:
            prefetch(frontier, state.r[frontier])
        rec = IterationRecord(phase=phase, frontier_size=int(frontier.size))
        frontier = iteration(state, csr, phase, config, frontier, rec)
        stats.record(rec)
        rounds += 1
        if rounds > config.max_iterations:
            raise ConvergenceError(rounds, state.residual_linf())
