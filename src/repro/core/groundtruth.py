"""Exact PPR solvers used as ground truth in tests and accuracy reports.

The convergent state of the local update scheme satisfies, for every
vertex ``v``, ``|P_s(v) - p*(v)| <= eps`` where ``p*`` is the fixpoint of
invariant Eq. 2 with zero residuals::

    p*(v) = alpha * 1{v = s} + (1 - alpha) / dout(v) * sum_{x in Nout(v)} p*(x)

i.e. ``p* = alpha e_s + (1 - alpha) D^{-1} A p*`` — the PPR value *of* ``s``
personalized *to* each vertex ``v`` (reverse / contribution PPR). Both a
power-iteration solver and a direct sparse linear solve are provided; they
agree to solver tolerance and serve as cross-checks of each other.
"""

from __future__ import annotations

import numpy as np

from ..errors import BackendError, ConvergenceError
from ..graph.digraph import DynamicDiGraph
from ..utils.validation import check_fraction


def _scipy_sparse():
    """``(scipy.sparse, scipy.sparse.linalg)``, imported on first use.

    scipy is needed by the exact solvers only (the ``groundtruth`` extra);
    nothing on the serving path may pay for or depend on it.
    """
    try:
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla
    except ImportError as exc:
        raise BackendError(
            "the exact PPR solvers need the 'scipy' package, which is not"
            " installed (pip install repro-dynamic-ppr[groundtruth])"
        ) from exc
    return sp, spla


def _out_csr(graph: DynamicDiGraph, capacity: int):
    """Row-stochastic-ish matrix ``M = D^{-1} A`` (rows of dangling vertices are 0)."""
    sp, _ = _scipy_sparse()
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for u in graph.vertices():
        dout = graph.out_degree(u)
        if dout == 0:
            continue
        inv = 1.0 / dout
        for v, mult in graph.out_neighbors(u):
            rows.append(u)
            cols.append(v)
            vals.append(mult * inv)
    return sp.csr_matrix(
        (vals, (rows, cols)), shape=(capacity, capacity), dtype=np.float64
    )


def ground_truth_ppr(
    graph: DynamicDiGraph,
    source: int,
    alpha: float,
    *,
    tol: float = 1e-14,
    max_iterations: int = 10_000,
    capacity: int | None = None,
) -> np.ndarray:
    """Solve ``p = alpha e_s + (1-alpha) M p`` by fixed-point iteration.

    The iteration contracts with factor ``1 - alpha`` in the sup norm, so
    convergence to ``tol`` takes ``O(log(1/tol) / alpha)`` sweeps.
    """
    check_fraction("alpha", alpha)
    cap = max(graph.capacity, source + 1) if capacity is None else capacity
    matrix = _out_csr(graph, cap)
    e_s = np.zeros(cap)
    e_s[source] = alpha
    p = e_s.copy()
    for _ in range(max_iterations):
        nxt = e_s + (1.0 - alpha) * matrix.dot(p)
        delta = float(np.abs(nxt - p).max())
        p = nxt
        if delta <= tol:
            return p
    raise ConvergenceError(max_iterations, delta)


def ground_truth_linear(
    graph: DynamicDiGraph,
    source: int,
    alpha: float,
    *,
    capacity: int | None = None,
) -> np.ndarray:
    """Solve ``(I - (1-alpha) M) p = alpha e_s`` directly (sparse LU).

    Exact up to linear-solver round-off; preferred for small graphs and as
    an independent cross-check of :func:`ground_truth_ppr`.
    """
    check_fraction("alpha", alpha)
    cap = max(graph.capacity, source + 1) if capacity is None else capacity
    sp, spla = _scipy_sparse()
    matrix = _out_csr(graph, cap)
    system = sp.identity(cap, format="csc") - (1.0 - alpha) * matrix.tocsc()
    rhs = np.zeros(cap)
    rhs[source] = alpha
    return spla.spsolve(system, rhs)


def max_estimate_error(
    estimate: np.ndarray,
    truth: np.ndarray,
) -> float:
    """``max_v |estimate[v] - truth[v]|`` with zero-padding to equal length."""
    cap = max(len(estimate), len(truth))
    a = np.zeros(cap)
    a[: len(estimate)] = estimate
    b = np.zeros(cap)
    b[: len(truth)] = truth
    return float(np.abs(a - b).max()) if cap else 0.0
