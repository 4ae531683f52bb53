"""Synthetic graph generators.

The paper evaluates on five SNAP social networks that are not available
offline; :mod:`repro.graph.datasets` substitutes scaled-down synthetic
analogs built from these generators. R-MAT and directed preferential
attachment reproduce the heavy-tailed degree distributions that drive
local-push frontier shapes; Erdos-Renyi and the utility graphs (star,
path, cycle, complete) serve tests and worked examples.

All generators return ``(m, 2)`` int64 edge arrays; callers wrap them in
:class:`~repro.graph.digraph.DynamicDiGraph` or stream them.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from ..utils.rng import RngLike, ensure_rng


#: Doubles drawn per ``Generator.random(out=...)`` call. PCG64 fills
#: consecutive chunks with the same doubles one ``random(count)`` call
#: returns, so the chunk size changes memory, never the edges.
_DRAW_CHUNK = 1 << 16


def _first_distinct(src: np.ndarray, dst: np.ndarray, num_vertices: int) -> np.ndarray:
    """Sorted indices of each distinct non-loop ``(src, dst)`` pair's first occurrence."""
    keys = src.astype(np.int64)
    keys *= num_vertices
    keys += dst
    keys[src == dst] = -1  # self loops share one sentinel key that sorts first
    # Stable: each run of equal keys starts at its earliest index, the
    # occurrence np.unique(return_index=True) keeps for any injective key.
    order = np.argsort(keys, kind="stable")
    keys.sort()
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    first[: np.searchsorted(keys, 0)] = False
    del keys
    kept = order[first]
    kept.sort()
    return kept


def rmat_graph(
    num_vertices: int,
    num_edges: int,
    *,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    rng: RngLike = None,
) -> np.ndarray:
    """Recursive-MATrix (R-MAT) generator (Chakrabarti et al.).

    Produces power-law in/out degree distributions similar to web and
    social graphs. ``a + b + c`` must be < 1; ``d = 1 - a - b - c``.
    Ids are drawn over ``2**ceil(log2(num_vertices))``, folded into
    ``[0, num_vertices)`` mod ``num_vertices`` and then relabelled by a
    random permutation, so high-degree ids are scattered.

    Self loops and duplicate edges are dropped, keeping each edge's first
    occurrence in draw order. Every round oversamples the shortfall by
    50% (plus 32) until ``num_edges`` distinct edges accumulate.

    Ids live in int32 columns (int64 past ``2**31``) and the draws go
    through one reused 64 Ki-double buffer, so the peak is about 40 bytes
    per requested edge; the ``(m, 2)`` int64 result is built once, at
    the end.
    """
    if num_vertices < 2:
        raise ConfigError(f"num_vertices must be >= 2, got {num_vertices}")
    if num_edges < 1:
        raise ConfigError(f"num_edges must be >= 1, got {num_edges}")
    if min(a, b, c) < 0 or a + b + c >= 1.0:
        raise ConfigError(f"invalid R-MAT parameters a={a} b={b} c={c}")
    gen = ensure_rng(rng)
    scale = int(np.ceil(np.log2(num_vertices)))
    id_dtype = np.int32 if scale < 31 else np.int64
    # Each bit of the id is drawn independently per edge — standard R-MAT
    # with per-level probability noise folded out (deterministic quadrants).
    p_right = b + (1.0 - a - b - c)  # P(dst bit = 1)
    p_down_given = np.array(
        [
            (1.0 - a - b - c) / p_right if p_right > 0 else 0.0,  # src bit | dst=1
            c / (a + c) if a + c > 0 else 0.0,  # src bit | dst=0
        ]
    )
    perm = gen.permutation(num_vertices)
    draws = np.empty(_DRAW_CHUNK, dtype=np.float64)

    def sample_ids(count: int) -> tuple[np.ndarray, np.ndarray]:
        """``count`` folded (src, dst) id columns, before the permutation."""
        src = np.zeros(count, dtype=id_dtype)
        dst = np.zeros(count, dtype=id_dtype)
        for level in range(scale):
            # Per level: every dst draw, then every src draw.
            for lo in range(0, count, _DRAW_CHUNK):
                chunk = gen.random(out=draws[: min(_DRAW_CHUNK, count - lo)])
                col = dst[lo : lo + len(chunk)]
                col |= (chunk < p_right).astype(id_dtype) << level
            for lo in range(0, count, _DRAW_CHUNK):
                chunk = gen.random(out=draws[: min(_DRAW_CHUNK, count - lo)])
                col = src[lo : lo + len(chunk)]
                dst_bit = (dst[lo : lo + len(chunk)] >> level) & 1
                p_down = np.where(dst_bit, p_down_given[0], p_down_given[1])
                col |= (chunk < p_down).astype(id_dtype) << level
        np.remainder(src, num_vertices, out=src)
        np.remainder(dst, num_vertices, out=dst)
        return src, dst

    # Dedup collapses repeated quadrant picks (common on skewed graphs):
    # oversample iteratively until enough distinct edges accumulate.
    src = dst = np.empty(0, dtype=id_dtype)
    shortfall = num_edges
    for _ in range(64):
        new_src, new_dst = sample_ids(int(shortfall * 1.5) + 32)
        src, dst = np.concatenate([src, new_src]), np.concatenate([dst, new_dst])
        del new_src, new_dst
        kept = _first_distinct(src, dst, num_vertices)[:num_edges]
        src, dst = src[kept], dst[kept]
        del kept
        shortfall = num_edges - len(src)
        if shortfall <= 0:
            edges = np.empty((num_edges, 2), dtype=np.int64)
            edges[:, 0] = perm[src]
            edges[:, 1] = perm[dst]
            return edges
    raise ConfigError(
        f"could not draw {num_edges} distinct R-MAT edges over {num_vertices}"
        " vertices; the graph is too dense for these skew parameters"
    )


def preferential_attachment_graph(
    num_vertices: int,
    out_degree: int,
    *,
    rng: RngLike = None,
) -> np.ndarray:
    """Directed preferential attachment (Bollobas et al. style).

    Vertex ``t`` attaches ``out_degree`` edges to earlier vertices chosen
    proportionally to (1 + in-degree). Produces a heavy-tailed in-degree
    distribution with fixed out-degree — a reasonable stand-in for
    follower-style graphs such as Twitter.
    """
    if num_vertices < 2:
        raise ConfigError(f"num_vertices must be >= 2, got {num_vertices}")
    if out_degree < 1:
        raise ConfigError(f"out_degree must be >= 1, got {out_degree}")
    gen = ensure_rng(rng)
    edges: list[tuple[int, int]] = []
    # Repeated-target list: each vertex appears once (smoothing) plus once
    # per received edge; sampling uniformly from it is preferential.
    targets = [0]
    for t in range(1, num_vertices):
        k = min(out_degree, t)
        picks = gen.integers(0, len(targets), size=k)
        chosen = {targets[int(i)] for i in picks}
        for v in chosen:
            edges.append((t, v))
            targets.append(v)
        targets.append(t)
    return np.array(edges, dtype=np.int64).reshape(-1, 2)


def erdos_renyi_graph(
    num_vertices: int,
    num_edges: int,
    *,
    rng: RngLike = None,
) -> np.ndarray:
    """Uniform random directed graph with ``num_edges`` distinct edges."""
    if num_vertices < 2:
        raise ConfigError(f"num_vertices must be >= 2, got {num_vertices}")
    max_edges = num_vertices * (num_vertices - 1)
    if not 0 <= num_edges <= max_edges:
        raise ConfigError(f"num_edges must be in [0, {max_edges}], got {num_edges}")
    gen = ensure_rng(rng)
    chosen: set[tuple[int, int]] = set()
    out = np.empty((num_edges, 2), dtype=np.int64)
    count = 0
    while count < num_edges:
        need = num_edges - count
        u = gen.integers(0, num_vertices, size=2 * need + 8)
        v = gen.integers(0, num_vertices, size=2 * need + 8)
        for uu, vv in zip(u.tolist(), v.tolist()):
            if uu == vv:
                continue
            key = (uu, vv)
            if key in chosen:
                continue
            chosen.add(key)
            out[count] = key
            count += 1
            if count == num_edges:
                break
    return out


def star_graph(num_leaves: int, *, inward: bool = True) -> np.ndarray:
    """Star with center 0; ``inward`` means edges leaf -> center."""
    if num_leaves < 1:
        raise ConfigError(f"num_leaves must be >= 1, got {num_leaves}")
    leaves = np.arange(1, num_leaves + 1, dtype=np.int64)
    zeros = np.zeros(num_leaves, dtype=np.int64)
    if inward:
        return np.column_stack([leaves, zeros])
    return np.column_stack([zeros, leaves])


def path_graph(num_vertices: int) -> np.ndarray:
    """Directed path ``0 -> 1 -> ... -> n-1``."""
    if num_vertices < 2:
        raise ConfigError(f"num_vertices must be >= 2, got {num_vertices}")
    ids = np.arange(num_vertices - 1, dtype=np.int64)
    return np.column_stack([ids, ids + 1])


def cycle_graph(num_vertices: int) -> np.ndarray:
    """Directed cycle over ``num_vertices`` vertices."""
    if num_vertices < 2:
        raise ConfigError(f"num_vertices must be >= 2, got {num_vertices}")
    ids = np.arange(num_vertices, dtype=np.int64)
    return np.column_stack([ids, (ids + 1) % num_vertices])


def complete_graph(num_vertices: int) -> np.ndarray:
    """All ordered pairs ``(u, v)`` with ``u != v``."""
    if num_vertices < 2:
        raise ConfigError(f"num_vertices must be >= 2, got {num_vertices}")
    u, v = np.meshgrid(
        np.arange(num_vertices, dtype=np.int64),
        np.arange(num_vertices, dtype=np.int64),
        indexing="ij",
    )
    mask = u != v
    return np.column_stack([u[mask], v[mask]])
