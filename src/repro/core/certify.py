"""Error certification and convergence diagnostics.

The local update scheme's guarantee, ``|P_s(v) - pi_v(s)| <= max_u
|R_s(u)|``, certifies more than point estimates: it certifies *rankings*.
If the worst-case intervals ``[P(v) - eps, P(v) + eps]`` of two vertices
do not overlap, their exact order is known. This module turns the raw
state into such certified facts:

* :func:`error_bound` — the rigorous per-vertex error bound implied by the
  current residuals (tighter than ``epsilon`` right after convergence);
* :func:`certified_top_k` — the top-k ranking with a per-entry flag
  telling whether the *position* is provably correct;
* :func:`topk_matches` — whether two ε-approximate rankings agree up to
  admissible ε-tie swaps;
* :func:`residual_decay` — per-iteration residual-mass series from a push
  trace, the quantity Lemma 4 compares between schedules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from .state import PPRState
from .stats import PushStats


def error_bound(state: PPRState) -> float:
    """Rigorous sup-norm error bound of the current estimate.

    Derivation: with ``e = p* - P``, the invariant gives
    ``e = alpha R + (1 - alpha) M e`` with ``||M||_inf <= 1``, hence
    ``||e||_inf <= ||R||_inf``. Valid whenever the invariant holds (the
    engines preserve it at every step, converged or not).
    """
    return state.residual_linf()


@dataclass(frozen=True)
class CertifiedEntry:
    """One row of a certified ranking."""

    vertex: int
    estimate: float
    lower: float
    upper: float
    position_certified: bool


def certified_top_k(state: PPRState, k: int) -> list[CertifiedEntry]:
    """Top-k vertices with certificates on their ranking positions.

    Entry ``i`` is *position-certified* when its lower bound clears the
    upper bound of entry ``i+1`` (and, for the last entry, the best upper
    bound among all remaining vertices). Certified entries provably hold
    their exact rank in the true PPR ordering.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    bound = error_bound(state)
    ranked = state.top_k(min(k + 1, len(state.p)))
    # The strongest challenger for the k-th slot among non-top vertices.
    challenger = ranked[k][1] + bound if len(ranked) > k else -np.inf
    entries: list[CertifiedEntry] = []
    top = ranked[:k]
    for i, (vertex, value) in enumerate(top):
        lower = value - bound
        next_upper = top[i + 1][1] + bound if i + 1 < len(top) else challenger
        entries.append(
            CertifiedEntry(
                vertex=vertex,
                estimate=value,
                lower=lower,
                upper=value + bound,
                position_certified=bool(lower > next_upper),
            )
        )
    return entries


def certified_comparison(state: PPRState, u: int, v: int) -> int | None:
    """Provable order of ``pi_u(s)`` vs ``pi_v(s)``: 1, -1, or None.

    Returns 1 when ``u`` is provably larger, -1 when provably smaller,
    ``None`` when the error intervals overlap (undecidable at this eps).
    """
    bound = error_bound(state)
    pu, pv = state.estimate(u), state.estimate(v)
    if pu - bound > pv + bound:
        return 1
    if pv - bound > pu + bound:
        return -1
    return None


def topk_matches(
    served: list[CertifiedEntry],
    fresh: list[CertifiedEntry],
    epsilon: float,
) -> bool:
    """Whether two ε-approximate top-k rankings agree up to ε-ties.

    Both rankings carry per-vertex error at most ``epsilon``, so two
    correct answers may still swap vertices whose true values are within
    ``2 * epsilon`` of each other. Position ``i`` matches when the vertex
    ids agree, or when the estimates differ by at most ``2 * epsilon``
    (an admissible tie swap).
    """
    if len(served) != len(fresh):
        return False
    for a, b in zip(served, fresh):
        if a.vertex != b.vertex and abs(a.estimate - b.estimate) > 2.0 * epsilon:
            return False
    return True


def residual_decay(stats: PushStats) -> list[float]:
    """Residual mass pushed per iteration — the convergence trajectory.

    Decreasing absolute values indicate the push is draining mass;
    comparing two variants' series on the same workload visualizes the
    parallel-loss gap (Lemma 4).
    """
    return [rec.residual_pushed for rec in stats.iterations]


@dataclass(frozen=True)
class ConvergenceReport:
    """Summary of a push run for dashboards/logs."""

    iterations: int
    total_pushes: int
    total_edge_traversals: int
    peak_frontier: int
    mass_drained: float
    final_error_bound: float

    def __str__(self) -> str:
        return (
            f"converged in {self.iterations} iterations: "
            f"{self.total_pushes} pushes, {self.total_edge_traversals} edge ops, "
            f"peak frontier {self.peak_frontier}, "
            f"error bound {self.final_error_bound:.2e}"
        )


def convergence_report(state: PPRState, stats: PushStats) -> ConvergenceReport:
    """Bundle a push trace and the resulting state into one report."""
    return ConvergenceReport(
        iterations=stats.num_iterations,
        total_pushes=stats.pushes,
        total_edge_traversals=stats.edge_traversals,
        peak_frontier=stats.max_frontier,
        mass_drained=float(sum(residual_decay(stats))),
        final_error_bound=error_bound(state),
    )
