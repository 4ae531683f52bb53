"""Sliding-window benchmark workloads (the paper's Section 5.1 setup).

A :class:`WorkloadSpec` names a dataset analog and the stream parameters;
:func:`prepare_workload` materializes the timestamped stream once (cached)
and hands out fresh :class:`SlidingWindow`/graph pairs so every approach
replays *exactly the same* update sequence.

Source-vertex selection follows Table 2: a random vertex among the top-K
out-degrees. On the scaled analogs, K = 10 stays 10 ("top-10"), K = 1000
is a mid-degree tier, and K = 1e6 exceeds n and degenerates to a uniformly
random vertex — the same qualitative tiers as the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ..config import PPRConfig
from ..errors import ConfigError
from .datasets import dataset_edges, get_spec
from .digraph import DynamicDiGraph
from .stream import SlidingWindow, random_permutation_stream
from ..utils.rng import ensure_rng


@dataclass(frozen=True)
class WorkloadSpec:
    """One benchmark configuration.

    ``batch_fraction`` is the slide size as a fraction of the window
    (paper: 1%, 0.1%, 0.01%); ``source_top_k`` the degree tier for source
    selection (10 / 1_000 / 1_000_000 in Table 2).
    """

    dataset: str = "youtube"
    batch_fraction: float = 0.01
    window_fraction: float = 0.10
    source_top_k: int = 10
    seed: int = 42

    def __post_init__(self) -> None:
        get_spec(self.dataset)  # validates the name
        if not 0.0 < self.batch_fraction <= 1.0:
            raise ConfigError(f"batch_fraction must be in (0,1], got {self.batch_fraction}")
        if self.source_top_k < 1:
            raise ConfigError(f"source_top_k must be >= 1, got {self.source_top_k}")


@dataclass
class PreparedWorkload:
    """A materialized stream plus factory methods for fresh replays."""

    spec: WorkloadSpec
    stream_edges: np.ndarray = field(repr=False)
    undirected: bool = False
    window_size: int = 0
    batch_size: int = 0
    source: int = 0

    def new_window(self) -> SlidingWindow:
        """A fresh sliding window positioned after initialization."""
        return SlidingWindow(
            self.stream_edges,
            window_fraction=self.spec.window_fraction,
            batch_size=self.batch_size,
            undirected=self.undirected,
        )

    def initial_graph(self) -> DynamicDiGraph:
        """The graph holding the initial window contents."""
        initial = self.stream_edges[: self.window_size]
        if self.undirected:
            return DynamicDiGraph.from_undirected_edges(initial)
        return DynamicDiGraph.from_edges(initial)

    @property
    def updates_per_slide(self) -> int:
        """Directed updates per slide (insert + delete, 2x if undirected)."""
        per_edge = 2 if self.undirected else 1
        return 2 * self.batch_size * per_edge

    def describe(self) -> str:
        return (
            f"{self.spec.dataset}: window={self.window_size}"
            f" batch={self.batch_size} source={self.source}"
            f" undirected={self.undirected}"
        )


@lru_cache(maxsize=32)
def _prepared_cache(spec: WorkloadSpec) -> PreparedWorkload:
    dataset = get_spec(spec.dataset)
    rng = ensure_rng(spec.seed)
    edges = random_permutation_stream(dataset_edges(spec.dataset), rng)
    window_size = int(len(edges) * spec.window_fraction)
    batch_size = SlidingWindow.batch_for_fraction(window_size, spec.batch_fraction)

    # Source: random among the top-K out-degree vertices of the initial window.
    initial = edges[:window_size]
    dout = np.bincount(initial[:, 0], minlength=dataset.num_vertices)
    if not dataset.directed:
        dout = dout + np.bincount(
            initial[:, 1], minlength=len(dout)
        )  # both directions exist
    k = min(spec.source_top_k, int((dout > 0).sum()))
    top = np.argsort(dout)[::-1][:k]
    source = int(top[rng.integers(0, len(top))])

    return PreparedWorkload(
        spec=spec,
        stream_edges=edges,
        undirected=not dataset.directed,
        window_size=window_size,
        batch_size=batch_size,
        source=source,
    )


def prepare_workload(spec: WorkloadSpec) -> PreparedWorkload:
    """Materialize (or fetch the cached) workload for ``spec``."""
    return _prepared_cache(spec)


def default_config(epsilon: float = 1e-5, alpha: float = 0.15) -> PPRConfig:
    """The benchmark default algorithm configuration.

    Parameter scaling: the amortized push work per update is governed by
    ``n * epsilon`` (Theorem 1's ``K/(n eps)`` term). The paper's default
    epsilon (~1e-7) on million-vertex graphs gives ``n*eps ~ 0.1-4``; the
    analogs are ~100x smaller, so the default scales to 1e-5 to preserve
    the same work regime (``n * epsilon`` ~ 0.1-4 on every analog).
    """
    return PPRConfig(alpha=alpha, epsilon=epsilon)
