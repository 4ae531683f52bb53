"""The row-wise R-MAT generator: the oracle of the column-wise one.

:func:`repro.graph.generators.rmat_graph` draws its ids into narrow
columns, reuses one draw buffer and dedupes with a single stable sort;
this is the ``(m, 2)`` int64 implementation it replaced, kept as the
reference its differential tests (``tests/test_generators.py``) compare
against byte for byte. Every random draw (the id permutation first, then,
per level, every dst draw and then every src draw; the top-up rounds'
batch sizes) and the first-occurrence dedupe order it defines are the
contract the columns reproduce. It holds a full-length temporary at every
step (about 118 bytes per requested edge at peak), which is why it is no
longer the generator.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.utils.rng import RngLike, ensure_rng


def _dedupe(edges: np.ndarray) -> np.ndarray:
    """Drop self loops and duplicate edges, preserving first occurrence order."""
    if edges.size == 0:
        return edges.reshape(0, 2)
    edges = edges[edges[:, 0] != edges[:, 1]]
    keys = edges[:, 0].astype(np.int64) * (edges.max() + 1) + edges[:, 1]
    _, first = np.unique(keys, return_index=True)
    return edges[np.sort(first)]


def reference_rmat_graph(
    num_vertices: int,
    num_edges: int,
    *,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    rng: RngLike = None,
) -> np.ndarray:
    """R-MAT edges without self loops or duplicates, one full row array per step."""
    if num_vertices < 2:
        raise ConfigError(f"num_vertices must be >= 2, got {num_vertices}")
    if num_edges < 1:
        raise ConfigError(f"num_edges must be >= 1, got {num_edges}")
    if min(a, b, c) < 0 or a + b + c >= 1.0:
        raise ConfigError(f"invalid R-MAT parameters a={a} b={b} c={c}")
    gen = ensure_rng(rng)
    scale = int(np.ceil(np.log2(num_vertices)))
    p_right = b + (1.0 - a - b - c)  # P(dst bit = 1)
    p_down_given = np.array(
        [
            (1.0 - a - b - c) / p_right if p_right > 0 else 0.0,  # src bit | dst=1
            c / (a + c) if a + c > 0 else 0.0,  # src bit | dst=0
        ]
    )
    perm = gen.permutation(num_vertices)

    def sample_edges(count: int) -> np.ndarray:
        src = np.zeros(count, dtype=np.int64)
        dst = np.zeros(count, dtype=np.int64)
        for level in range(scale):
            dst_bit = gen.random(count) < p_right
            cond = np.where(dst_bit, p_down_given[0], p_down_given[1])
            src_bit = gen.random(count) < cond
            src |= src_bit.astype(np.int64) << level
            dst |= dst_bit.astype(np.int64) << level
        return np.column_stack([perm[src % num_vertices], perm[dst % num_vertices]])

    edges = np.empty((0, 2), dtype=np.int64)
    shortfall = num_edges
    for _ in range(64):
        batch = sample_edges(int(shortfall * 1.5) + 32)
        edges = _dedupe(np.vstack([edges, batch]))
        shortfall = num_edges - len(edges)
        if shortfall <= 0:
            return edges[:num_edges]
    raise ConfigError(
        f"could not draw {num_edges} distinct R-MAT edges over {num_vertices}"
        " vertices; the graph is too dense for these skew parameters"
    )
