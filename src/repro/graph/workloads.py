"""Sliding-window benchmark workloads (the paper's Section 5.1 setup).

A :class:`WorkloadSpec` names a dataset analog and the stream parameters;
:func:`prepare_workload` materializes a workload once (cached) and hands
out fresh :class:`SlidingWindow`/graph pairs so every approach
replays *exactly the same* update sequence; :func:`build_workload` is the
same workload built afresh and cached nowhere.

Source-vertex selection follows Table 2: a random vertex among the top-K
out-degrees. On the scaled analogs, K = 10 stays 10 ("top-10"), K = 1000
is a mid-degree tier, and K = 1e6 exceeds n and degenerates to a uniformly
random vertex — the same qualitative tiers as the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from ..config import PPRConfig
from ..errors import ConfigError
from .datasets import build_dataset_edges, dataset_edges, get_spec
from .digraph import DynamicDiGraph
from .stream import SlidingWindow
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
    """A dataset analog, its arrival order, and factories for fresh replays.

    Stream row ``i`` is ``edges[order[i]]``. The initial window and the
    source are gathered through ``order[:window_size]`` alone; the full
    permuted stream is built on the first :meth:`new_window` call, so a
    server that only serves the initial window never holds it.
    """

    spec: WorkloadSpec
    edges: np.ndarray = field(repr=False)
    order: np.ndarray = field(repr=False)
    undirected: bool = False
    window_size: int = 0
    batch_size: int = 0
    source: int = 0

    @cached_property
    def stream_edges(self) -> np.ndarray:
        """The timestamp-ordered stream: the edges in arrival order."""
        return self.edges[self.order]

    def new_window(self) -> SlidingWindow:
        """A fresh sliding window positioned after initialization."""
        return SlidingWindow(
            self.stream_edges,
            window_fraction=self.spec.window_fraction,
            batch_size=self.batch_size,
            undirected=self.undirected,
        )

    def initial_edges(self) -> np.ndarray:
        """The initial window contents: the first ``window_size`` arrivals."""
        return self.edges[self.order[: self.window_size]]

    def initial_graph(self) -> DynamicDiGraph:
        """The graph holding the initial window contents."""
        initial = self.initial_edges()
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


def _prepare(spec: WorkloadSpec, edges: np.ndarray) -> PreparedWorkload:
    dataset = get_spec(spec.dataset)
    rng = ensure_rng(spec.seed)
    # Random timestamps: a random permutation of the edge rows.
    order = rng.permutation(len(edges))
    window_size = int(len(edges) * spec.window_fraction)
    batch_size = SlidingWindow.batch_for_fraction(window_size, spec.batch_fraction)
    prepared = PreparedWorkload(
        spec=spec,
        edges=edges,
        order=order,
        undirected=not dataset.directed,
        window_size=window_size,
        batch_size=batch_size,
    )

    # Source: random among the top-K out-degree vertices of the initial window.
    initial = prepared.initial_edges()
    dout = np.bincount(initial[:, 0], minlength=dataset.num_vertices)
    if not dataset.directed:
        dout = dout + np.bincount(
            initial[:, 1], minlength=len(dout)
        )  # both directions exist
    k = min(spec.source_top_k, int((dout > 0).sum()))
    top = np.argsort(dout)[::-1][:k]
    prepared.source = int(top[rng.integers(0, len(top))])
    return prepared


def build_workload(spec: WorkloadSpec) -> PreparedWorkload:
    """Materialize ``spec`` afresh, caching nothing.

    For a process that serves the initial window and then drops the
    workload: what it returns is the only reference to the dataset edges.
    """
    return _prepare(spec, build_dataset_edges(spec.dataset))


@lru_cache(maxsize=32)
def prepare_workload(spec: WorkloadSpec) -> PreparedWorkload:
    """Materialize (or fetch the cached) workload for ``spec``.

    Benchmarks replay one workload many times, so this keeps the dataset
    edges and, once a window has been asked for, the stream alive.
    """
    return _prepare(spec, dataset_edges(spec.dataset))


def default_config(epsilon: float = 1e-5, alpha: float = 0.15) -> PPRConfig:
    """The benchmark default algorithm configuration.

    Parameter scaling: the amortized push work per update is governed by
    ``n * epsilon`` (Theorem 1's ``K/(n eps)`` term). The paper's default
    epsilon (~1e-7) on million-vertex graphs gives ``n*eps ~ 0.1-4``; the
    analogs are ~100x smaller, so the default scales to 1e-5 to preserve
    the same work regime (``n * epsilon`` ~ 0.1-4 on every analog).
    """
    return PPRConfig(alpha=alpha, epsilon=epsilon)
