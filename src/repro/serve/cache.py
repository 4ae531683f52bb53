"""LRU pool of resident per-source PPR states.

The serving layer keeps one maintained :class:`~repro.core.state.PPRState`
per *resident* source — the working set of the query mix. Residency is
bounded by :attr:`repro.config.ServeConfig.cache_capacity`; admitting a
cold source past capacity evicts the least-recently-queried resident
(classic LRU, the policy who-to-follow style workloads reward because
query popularity is heavy-tailed).

Each resident carries maintenance bookkeeping alongside its state: the
snapshot version it was last converged at and usage counters feeding
:class:`repro.serve.service.ServiceMetrics`. Nothing per resident grows
with the updates ingested: a lazy refresh finds its frontier by scanning
the residual vector itself (see ``PPRService._refresh``).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from ..config import ServeConfig
from ..core.certify import CertifiedEntry
from ..core.state import PPRState
from ..errors import ConfigError


@dataclass
class ResidentSource:
    """One cached source: its PPR state plus maintenance bookkeeping."""

    state: PPRState
    #: Snapshot version the state was last pushed to convergence at.
    version: int
    #: Count of ingested updates reflected at that convergence (staleness
    #: is measured against the service's running total).
    updates_reflected: int
    queries: int = 0
    #: Certified answers already computed from this state, by ``k``, and
    #: the ``(graph_version, version)`` they were computed at — they are
    #: served again only while that stamp still matches (see
    #: ``PPRService._certified``).
    memo: dict[int, tuple[CertifiedEntry, ...]] = field(default_factory=dict)
    memo_stamp: tuple[int, int] | None = None

    @property
    def source(self) -> int:
        return self.state.source

    def mark_converged(self, version: int, updates_reflected: int) -> None:
        """Record a completed push: state is ε-fresh as of ``version``."""
        self.version = version
        self.updates_reflected = updates_reflected


class SourceCache:
    """LRU-evicting map from source vertex to :class:`ResidentSource`.

    ``get`` is a *use*: it moves the entry to the most-recently-used
    position. Iteration (:meth:`entries`, :meth:`sources`) is in eviction
    order — least recently used first — and does not perturb recency.

    Examples
    --------
    >>> from repro.core.state import PPRState
    >>> cache = SourceCache(capacity=2)
    >>> for s in (1, 2):
    ...     _ = cache.put(ResidentSource(PPRState.initial(s), 0, 0))
    >>> cache.get(1).source        # 1 becomes most-recently-used
    1
    >>> [e.source for e in cache.put(ResidentSource(PPRState.initial(3), 0, 0))]
    [2]
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[int, ResidentSource]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @classmethod
    def from_config(cls, config: ServeConfig) -> "SourceCache":
        return cls(config.cache_capacity)

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #

    def get(self, source: int) -> ResidentSource | None:
        """The resident entry for ``source`` (marking it used), or None."""
        entry = self._entries.get(source)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(source)
        self.hits += 1
        return entry

    def peek(self, source: int) -> ResidentSource | None:
        """Lookup without touching recency or hit/miss counters."""
        return self._entries.get(source)

    def __contains__(self, source: int) -> bool:
        return source in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------ #
    # admission / eviction
    # ------------------------------------------------------------------ #

    def put(self, entry: ResidentSource) -> list[ResidentSource]:
        """Admit ``entry`` as most-recently-used; return any evictees.

        Re-admitting a resident source replaces its entry in place (and
        marks it used). At most one entry is evicted per call, but the
        return type is a list so callers can treat it uniformly.
        """
        source = entry.source
        if source in self._entries:
            self._entries[source] = entry
            self._entries.move_to_end(source)
            return []
        evicted: list[ResidentSource] = []
        while len(self._entries) >= self.capacity:
            _, victim = self._entries.popitem(last=False)
            self.evictions += 1
            evicted.append(victim)
        self._entries[source] = entry
        return evicted

    def evict(self, source: int) -> ResidentSource | None:
        """Explicitly drop one resident (None when not resident)."""
        entry = self._entries.pop(source, None)
        if entry is not None:
            self.evictions += 1
        return entry

    # ------------------------------------------------------------------ #
    # iteration (LRU -> MRU, recency-preserving)
    # ------------------------------------------------------------------ #

    def sources(self) -> list[int]:
        """Resident source ids, least recently used first."""
        return list(self._entries)

    def entries(self) -> list[ResidentSource]:
        """Resident entries, least recently used first."""
        return list(self._entries.values())

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:
        return (
            f"SourceCache(resident={len(self._entries)}/{self.capacity},"
            f" hits={self.hits}, misses={self.misses}, evictions={self.evictions})"
        )
