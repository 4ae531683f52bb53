"""Deterministic random-number-generator plumbing.

Every stochastic component of the library (graph generators, streams,
Monte-Carlo walks) accepts either a seed, an existing
:class:`numpy.random.Generator`, or ``None``; :func:`ensure_rng` normalizes
all three. Benchmarks pass explicit seeds so figures are reproducible.
"""

from __future__ import annotations

import numpy as np

RngLike = int | np.random.Generator | None


def ensure_rng(rng: RngLike = None) -> np.random.Generator:
    """Coerce ``rng`` into a :class:`numpy.random.Generator`.

    ``None`` yields a fresh nondeterministic generator; an ``int`` seeds a
    new PCG64 generator; an existing generator is returned unchanged.
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise TypeError(f"cannot build an RNG from {rng!r}")

