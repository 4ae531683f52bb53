"""Multi-query PPR serving layer atop maintained dynamic-PPR state.

The paper's maintenance machinery only pays off when many queries are
served from the maintained state (Section 6). This package is that layer:

* :class:`~repro.serve.service.PPRService` — one dynamic graph, versioned
  CSR snapshots, many sources served ε-fresh;
* :class:`~repro.serve.cache.SourceCache` — LRU pool of resident
  per-source states;
* :class:`~repro.serve.pool.AdmissionPool` — the from-scratch push that
  admits a cold source.

See ``docs/serving.md`` for the design; ``perf/`` (``hot_reads`` vs
``cold_reads``) measures what serving from maintained state saves.
"""

from .cache import ResidentSource, SourceCache
from .pool import AdmissionPool
from .service import (
    PPRService,
    ServedQuery,
    ServedScore,
    ServiceMetrics,
    workload_service,
)

__all__ = [
    "AdmissionPool",
    "PPRService",
    "ResidentSource",
    "ServedQuery",
    "ServedScore",
    "ServiceMetrics",
    "SourceCache",
    "workload_service",
]
