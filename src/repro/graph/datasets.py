"""Paper-dataset analogs.

The paper evaluates on five SNAP graphs (Section 5.1). No network access is
available in this environment, so each dataset is substituted by a
scaled-down synthetic analog that preserves the properties the local push
is sensitive to — directedness, average degree, and heavy-tailed degree
skew — generated deterministically from a fixed seed.

=============  ==================  =====================  =========================
Paper dataset  Paper size (n / m)  Analog size (n / m)    Generator
=============  ==================  =====================  =========================
Pokec          1.6M / 30.6M        16k / ~306k            R-MAT, directed
LiveJournal    4.8M / 68.9M        24k / ~345k            R-MAT, directed
Youtube        1.1M / 2.9M         11k / ~29k             R-MAT, undirected
Orkut          3.0M / 117.1M       7.5k / ~293k           R-MAT, undirected
Twitter        41.6M / 1.4B        41.6k / ~1.4M          R-MAT, directed
=============  ==================  =====================  =========================

(Undirected analogs list each undirected edge once; loading them expands to
two directed edges, and the sliding-window stream applies both directions
per update, as the paper's theory prescribes for the undirected model.)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..errors import ConfigError
from .digraph import DynamicDiGraph
from .generators import rmat_graph


@dataclass(frozen=True)
class DatasetSpec:
    """Metadata for one paper-dataset analog."""

    name: str
    paper_vertices: int
    paper_edges: int
    num_vertices: int
    num_edges: int
    directed: bool
    seed: int
    description: str

    @property
    def scale_factor(self) -> float:
        """Edge-count ratio paper/analog (how much we scaled down)."""
        return self.paper_edges / self.num_edges

    @property
    def average_degree(self) -> float:
        return self.num_edges / self.num_vertices


DATASETS: dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in [
        DatasetSpec(
            name="pokec",
            paper_vertices=1_600_000,
            paper_edges=30_600_000,
            num_vertices=16_000,
            num_edges=306_000,
            directed=True,
            seed=1001,
            description="Slovak social network; directed friendship graph.",
        ),
        DatasetSpec(
            name="livejournal",
            paper_vertices=4_800_000,
            paper_edges=68_900_000,
            num_vertices=24_000,
            num_edges=345_000,
            directed=True,
            seed=1002,
            description="Blogging community; directed declared friendships.",
        ),
        DatasetSpec(
            name="youtube",
            paper_vertices=1_100_000,
            paper_edges=2_900_000,
            num_vertices=11_000,
            num_edges=29_000,
            directed=False,
            seed=1003,
            description="Youtube user friendships; undirected.",
        ),
        DatasetSpec(
            name="orkut",
            paper_vertices=3_000_000,
            paper_edges=117_100_000,
            num_vertices=7_500,
            num_edges=293_000,
            directed=False,
            seed=1004,
            description="Orkut social network; undirected, very dense.",
        ),
        DatasetSpec(
            name="twitter",
            paper_vertices=41_600_000,
            paper_edges=1_400_000_000,
            num_vertices=41_600,
            num_edges=1_400_000,
            directed=True,
            seed=1005,
            description="Twitter followed-by sample (2010); directed, largest.",
        ),
    ]
}


@lru_cache(maxsize=None)
def dataset_edges(name: str) -> np.ndarray:
    """Deterministic ``(m, 2)`` edge array for dataset ``name``.

    Cached: generating the Twitter analog takes a couple of seconds and is
    reused by every benchmark.
    """
    spec = get_spec(name)
    edges = rmat_graph(spec.num_vertices, spec.num_edges, rng=spec.seed)
    if not spec.directed:
        # Undirected analog: canonicalize (low, high) and drop duplicates so
        # each undirected edge appears exactly once.
        lo = np.minimum(edges[:, 0], edges[:, 1])
        hi = np.maximum(edges[:, 0], edges[:, 1])
        keys = lo * spec.num_vertices + hi
        _, first = np.unique(keys, return_index=True)
        edges = np.column_stack([lo, hi])[np.sort(first)]
    edges.setflags(write=False)
    return edges


def get_spec(name: str) -> DatasetSpec:
    """Look up a dataset spec; raise :class:`ConfigError` for unknown names."""
    try:
        return DATASETS[name]
    except KeyError:
        known = ", ".join(sorted(DATASETS))
        raise ConfigError(f"unknown dataset {name!r}; known datasets: {known}") from None


def load_dataset(name: str) -> DynamicDiGraph:
    """Materialize the full analog graph (both directions when undirected)."""
    spec = get_spec(name)
    edges = dataset_edges(name)
    if spec.directed:
        return DynamicDiGraph.from_edges(edges)
    return DynamicDiGraph.from_undirected_edges(edges)


def top_degree_vertices(edges: np.ndarray, k: int) -> np.ndarray:
    """Vertex ids with the ``k`` largest out-degrees in ``edges``.

    Used by the Figure 7 workloads (top-10 / top-1K / top-1M source
    selection, scaled to the analog's size).
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    dout = np.bincount(edges[:, 0])
    k = min(k, len(dout))
    return np.argsort(dout)[::-1][:k].astype(np.int64)
