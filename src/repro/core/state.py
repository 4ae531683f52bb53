"""PPR estimate/residual state (the paper's ``P_s`` and ``R_s`` vectors).

One :class:`PPRState` tracks the approximate PPR vector for a single
personalization vertex ``s``. ``p[v]`` is the current estimate of the true
value ``pi_v(s)`` (the fixpoint of invariant Eq. 2) and ``r[v]`` bounds the
estimation bias: whenever the invariant holds and ``max |r| <= eps``,
``|p[v] - pi_v(s)| <= eps`` for every vertex.

The arrays are dense, indexed by vertex id, and grow amortized as the
dynamic graph introduces new ids. On disk they are sparse:
:func:`encode_states`/:func:`decode_states` is the one persistence codec
for state vectors (service residents and hub vectors alike).
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from ..errors import ConfigError


class PPRState:
    """Dense estimate (``p``) and residual (``r``) vectors for one source."""

    __slots__ = ("source", "p", "r")

    def __init__(self, source: int, capacity: int = 0) -> None:
        if source < 0:
            raise ConfigError(f"source must be a vertex id >= 0, got {source}")
        cap = max(capacity, source + 1)
        self.source = source
        self.p = np.zeros(cap, dtype=np.float64)
        self.r = np.zeros(cap, dtype=np.float64)

    @classmethod
    def initial(cls, source: int, capacity: int = 0) -> "PPRState":
        """The from-scratch starting state: ``p = 0``, ``r = e_s``.

        This satisfies invariant Eq. 2 on any graph (for ``v != s`` both
        sides are 0 when ``p = 0``; for ``s`` both sides equal ``alpha``).
        """
        state = cls(source, capacity)
        state.r[source] = 1.0
        return state

    # ------------------------------------------------------------------ #
    # capacity management
    # ------------------------------------------------------------------ #

    @property
    def capacity(self) -> int:
        return len(self.p)

    def ensure_capacity(self, capacity: int) -> None:
        """Grow (never shrink) the arrays to cover ``capacity`` ids."""
        current = len(self.p)
        if capacity <= current:
            return
        new_cap = max(capacity, 2 * current, 16)
        p = np.zeros(new_cap, dtype=np.float64)
        r = np.zeros(new_cap, dtype=np.float64)
        p[:current] = self.p
        r[:current] = self.r
        self.p = p
        self.r = r

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def estimate(self, v: int) -> float:
        """Current PPR estimate of vertex ``v`` (0.0 for ids never touched)."""
        return float(self.p[v]) if 0 <= v < len(self.p) else 0.0

    def residual(self, v: int) -> float:
        """Current residual of vertex ``v`` (0.0 for ids never touched)."""
        return float(self.r[v]) if 0 <= v < len(self.r) else 0.0

    def residual_linf(self) -> float:
        """``max_v |r[v]|`` — the convergence measure of the local push."""
        # Two reductions over r, not a |r| temporary the size of the vector.
        return max(0.0, float(self.r.max()), -float(self.r.min()))

    def residual_l1(self) -> float:
        """``sum_v |r[v]|`` — the quantity Lemma 4 reasons about."""
        return float(np.abs(self.r).sum())

    def estimate_sum(self) -> float:
        return float(self.p.sum())

    def active_vertices(self, epsilon: float) -> np.ndarray:
        """All vertex ids with ``|r| > epsilon`` (topology-driven scan)."""
        return np.flatnonzero(np.abs(self.r) > epsilon)

    def top_k(self, k: int) -> list[tuple[int, float]]:
        """The ``k`` best vertices as ``(id, value)``: largest estimate
        first, ties broken by ascending vertex id.

        One deterministic order for every tier and process; on a sparse
        vector the padding is the lowest-numbered zero-estimate ids. The
        dense vector is never partitioned (``argpartition`` spent over a
        millisecond on the ties among its tens of thousands of zeros): the
        ``k``-th largest of ~sqrt(n/k) strided groups' maxima (one
        vectorised pass) bounds the vector's own ``k``-th largest from
        below, so everything strictly above that bound either holds
        the whole answer or — when fewer than ``k`` values clear it — the
        bound *is* the ``k``-th largest value and its lowest-id ties fill
        the rest.
        """
        if k < 1:
            raise ConfigError(f"k must be >= 1, got {k}")
        p = self.p
        k = min(k, len(p))
        size = math.isqrt(len(p) // k)
        groups = len(p) // size
        maxima = p[: size * groups].reshape(size, groups).max(axis=0)
        bound = np.partition(maxima, -k)[-k]
        idx = np.flatnonzero(p > bound)
        need = k - len(idx)
        if need > 0:
            limit = 4 * k
            ties = np.flatnonzero(p[:limit] == bound)
            while len(ties) < need:  # the whole vector holds at least `need`
                limit *= 8
                ties = np.flatnonzero(p[:limit] == bound)
            idx = np.concatenate([idx, ties[:need]])
        # ids ascend within each part and ties sit below, so a stable sort
        # by value leaves equal estimates in id order
        idx = idx[np.argsort(-p[idx], kind="stable")[:k]]
        return list(zip(idx.tolist(), p[idx].tolist()))

    # ------------------------------------------------------------------ #
    # copies / comparison
    # ------------------------------------------------------------------ #

    def copy(self) -> "PPRState":
        out = PPRState(self.source, len(self.p))
        out.p[:] = self.p
        out.r[:] = self.r
        return out

    def allclose(self, other: "PPRState", *, atol: float = 1e-12) -> bool:
        """Numerically-equal states (padding shorter arrays with zeros)."""
        if self.source != other.source:
            return False
        cap = max(len(self.p), len(other.p))
        a_p = np.zeros(cap)
        a_p[: len(self.p)] = self.p
        b_p = np.zeros(cap)
        b_p[: len(other.p)] = other.p
        a_r = np.zeros(cap)
        a_r[: len(self.r)] = self.r
        b_r = np.zeros(cap)
        b_r[: len(other.r)] = other.r
        return bool(np.allclose(a_p, b_p, atol=atol) and np.allclose(a_r, b_r, atol=atol))

    def __repr__(self) -> str:
        return (
            f"PPRState(source={self.source}, capacity={len(self.p)},"
            f" |r|_inf={self.residual_linf():.3e})"
        )


# ---------------------------------------------------------------------- #
# persistence codec
# ---------------------------------------------------------------------- #


def _encode_vectors(
    vectors: Sequence[np.ndarray], index_dtype: type
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(per-vector counts, indices, values)`` of the non-zero *bit patterns*."""
    # ``!= 0`` on the integer view first: ``nonzero`` over a boolean mask
    # is several times faster than over int64, and this runs per resident
    # vector on the ingest ack path (a checkpoint capture).
    indices = [
        np.flatnonzero(np.ascontiguousarray(vec, np.float64).view(np.int64) != 0)
        for vec in vectors
    ]
    counts = np.array([len(idx) for idx in indices], dtype=np.int64)
    if not indices:
        return counts, np.empty(0, dtype=index_dtype), np.empty(0, dtype=np.float64)
    values = np.concatenate([vec[idx] for vec, idx in zip(vectors, indices)])
    return counts, np.concatenate(indices).astype(index_dtype), values


def encode_states(states: Sequence[PPRState]) -> dict[str, np.ndarray]:
    """Serialize many states' vectors sparsely and bit-exactly.

    A converged vector is mostly zeros (≈ 11 % non-zero at ε = 1e-5 on the
    serving workloads), so the encoding costs O(nnz), not O(capacity):
    per vector, the indices and values of the entries whose **bit
    pattern** is non-zero — selecting on bits, not on value, keeps
    ``-0.0`` — plus per-vector counts. ``lengths`` records each state's
    *exact* array length, capacity padding included, so a restored state
    continues the same growth trajectory (the doubling schedule of
    :meth:`PPRState.ensure_capacity`, and with it the kernel's
    dense-accumulator crossover). Sources are not included.
    """
    lengths = np.array([len(state.p) for state in states], dtype=np.int64)
    fits_int32 = lengths.max(initial=0) <= np.iinfo(np.int32).max
    index_dtype = np.int32 if fits_int32 else np.int64
    out = {"lengths": lengths}
    for name in ("p", "r"):
        counts, indices, values = _encode_vectors(
            [getattr(state, name) for state in states], index_dtype
        )
        out[f"{name}_nnz"] = counts
        out[f"{name}_idx"] = indices
        out[f"{name}_val"] = values
    return out


def decode_states(
    sources: Sequence[int], arrays: dict[str, np.ndarray]
) -> list[PPRState]:
    """Rebuild the states serialized by :func:`encode_states` bit-exactly.

    Raises :class:`ValueError` when the arrays are inconsistent with each
    other (counts that do not add up, a length too short for its source).
    """
    lengths = arrays["lengths"].tolist()
    if len(lengths) != len(sources):
        raise ValueError(f"{len(sources)} sources but {len(lengths)} vector lengths")
    states = []
    for source, length in zip(sources, lengths):
        state = PPRState(int(source), length)
        if len(state.p) != length:
            raise ValueError(f"vector length {length} cannot hold source {source}")
        states.append(state)
    for name in ("p", "r"):
        counts = arrays[f"{name}_nnz"]
        indices, values = arrays[f"{name}_idx"], arrays[f"{name}_val"]
        if len(counts) != len(states) or not (
            int(counts.sum()) == len(indices) == len(values)
        ):
            raise ValueError(f"sparse {name} vectors: counts do not match the data")
        offset = 0
        for state, count in zip(states, counts.tolist()):
            getattr(state, name)[indices[offset : offset + count]] = values[
                offset : offset + count
            ]
            offset += count
    return states
