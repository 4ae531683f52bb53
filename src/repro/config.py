"""Configuration objects shared across the library.

:class:`PPRConfig` bundles every knob of the dynamic-PPR maintenance
pipeline: the PPR definition itself (``alpha``), the approximation quality
(``epsilon``), which push algorithm variant runs (``variant``, the paper's
Table 3), which execution backend evaluates it (``backend``), and how much
hardware parallelism the simulated engine assumes (``workers``).
:class:`ServeConfig` bundles the knobs of the multi-query serving layer
built on top (:mod:`repro.serve`, see ``docs/serving.md``).
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, field, replace
from typing import Any

from .errors import ConfigError

#: Teleport probability used throughout the paper's experiments (Table 2).
DEFAULT_ALPHA = 0.15

#: Error threshold default; the paper sweeps 1e-5 .. 1e-10 (Table 2).
DEFAULT_EPSILON = 1e-5

#: :mod:`multiprocessing` context of every worker tier (replicas, shards).
#: ``fork`` keeps worker start O(1) in the library's import cost and is
#: what the shared-memory bootstrap and the chaos plans are tested under.
WORKER_START = "fork"


class PushVariant(enum.Enum):
    """The four parallel-push variants of the paper's Table 3.

    ===========  ==================  =========================
    Variant      Eager propagation   Local duplicate detection
    ===========  ==================  =========================
    ``VANILLA``  no                  no
    ``EAGER``    yes                 no
    ``DUPDETECT`` no                 yes
    ``OPT``      yes                 yes
    ===========  ==================  =========================
    """

    VANILLA = "vanilla"
    EAGER = "eager"
    DUPDETECT = "dupdetect"
    OPT = "opt"

    @property
    def eager(self) -> bool:
        """Whether this variant uses eager propagation (Section 4.1)."""
        return self in (PushVariant.EAGER, PushVariant.OPT)

    @property
    def local_duplicate_detection(self) -> bool:
        """Whether this variant uses local duplicate detection (Section 4.2)."""
        return self in (PushVariant.DUPDETECT, PushVariant.OPT)


class Backend(enum.Enum):
    """Execution backend for the parallel push.

    ``PURE``
        Reference implementation with explicit per-vertex scheduling.
        Exact algorithm semantics; used by tests and small workloads.
    ``NUMPY``
        Vectorized execution (``np.add.at`` plays the role of atomic adds)
        with worker-count-sized scheduling chunks. Used by benchmarks.
    """

    PURE = "pure"
    NUMPY = "numpy"


class KernelMode(enum.Enum):
    """Which push-kernel implementation backs the ``NUMPY`` backend's loops.

    ``AUTO``
        Use the compiled C kernel when one can be built (or is cached),
        fall back to the vectorized numpy path otherwise. The default.
    ``COMPILED``
        Require the compiled kernel; raise
        :class:`~repro.errors.BackendError` when it is unavailable
        (no compiler, build failure). Views a compiled kernel cannot
        serve at all — e.g. the sharded tier's distributed views — still
        fall back per push.
    ``NUMPY``
        Force the pure-numpy vectorized path (the correctness oracle).

    Both kernels are bit-identical by contract; ``repro.kernels``
    enforces it with differential property tests in CI.
    """

    AUTO = "auto"
    COMPILED = "compiled"
    NUMPY = "numpy"


@dataclass(frozen=True)
class KernelConfig:
    """Push-kernel selection (see :mod:`repro.kernels`).

    Parameters
    ----------
    mode:
        Which implementation to select (see :class:`KernelMode`).
    compiler:
        C compiler executable; ``None`` defers to ``REPRO_KERNEL_CC``
        or the first of ``cc``/``gcc``/``clang`` on ``PATH``.
    cache_dir:
        Directory caching built kernel libraries; ``None`` defers to
        ``REPRO_KERNEL_CACHE`` or ``~/.cache/repro-kernels``.
    """

    mode: KernelMode = KernelMode.AUTO
    compiler: str | None = None
    cache_dir: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.mode, KernelMode):
            raise ConfigError(f"mode must be a KernelMode, got {self.mode!r}")

    @classmethod
    def from_env(cls) -> "KernelConfig":
        """Selection from ``REPRO_KERNEL`` (``compiled|numpy|auto``)."""
        raw = os.environ.get("REPRO_KERNEL", "").strip().lower()
        if not raw:
            return cls()
        try:
            mode = KernelMode(raw)
        except ValueError:
            choices = "/".join(m.value for m in KernelMode)
            raise ConfigError(
                f"REPRO_KERNEL must be one of {choices}, got {raw!r}"
            ) from None
        return cls(mode=mode)

    def with_(self, **changes: Any) -> "KernelConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


class Phase(enum.Enum):
    """Push phase: positive residuals first, then negative (Algorithm 2/3)."""

    POS = 1
    NEG = -1

    def exceeds(self, residual: float, epsilon: float) -> bool:
        """The paper's ``pushCond``: is ``residual`` over threshold in this phase?"""
        if self is Phase.POS:
            return residual > epsilon
        return residual < -epsilon


@dataclass(frozen=True)
class StoreConfig:
    """Configuration of the durable state store (:mod:`repro.store`).

    Parameters
    ----------
    root:
        Directory holding the store (``wal/``, ``graph/`` and
        ``checkpoints/`` live under it; created on first use).
    checkpoint_interval:
        Capture a checkpoint every this many ingested batches (it is
        written off the ack path and durable before the next batch is
        acknowledged). The WAL tail recovery replays *through ingest* is
        at most this many batches long; the stretch it applies
        graph-only, from the graph base up to the checkpoint, is bounded
        by the store's rebase rule instead.
    retain_checkpoints:
        How many recent checkpoints to keep; older ones are pruned after
        each new checkpoint (at least 1). The WAL is kept back to the
        oldest graph base a retained checkpoint names.

    The write-ahead log fsyncs every batch before it is acknowledged; a
    crash loses at most the batch being written (a torn tail, truncated
    on recovery). See ``docs/persistence.md`` for formats and the
    recovery walkthrough.
    """

    root: str = "ppr-store"
    checkpoint_interval: int = 10
    retain_checkpoints: int = 2

    def __post_init__(self) -> None:
        if not self.root:
            raise ConfigError("root must be a non-empty path")
        if self.checkpoint_interval < 1:
            raise ConfigError(
                f"checkpoint_interval must be >= 1, got {self.checkpoint_interval}"
            )
        if self.retain_checkpoints < 1:
            raise ConfigError(
                f"retain_checkpoints must be >= 1, got {self.retain_checkpoints}"
            )

    def with_(self, **changes: Any) -> "StoreConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


class ConsistencyLevel(enum.Enum):
    """Per-request read consistency of the gateway API (:mod:`repro.api`).

    Ingest only restores the invariant of resident states; consistency
    controls what a read is allowed to return before it pays the push:

    ``FRESH``
        Refresh-before-read: the answer is ε-approximate on the latest
        snapshot version (the pre-gateway behaviour of every query).
    ``BOUNDED``
        The answer may lag the latest snapshot by at most ``s`` versions
        (``Consistency.bounded(s)``); a resident state within the bound
        is served as-is, a staler one is refreshed first.
    ``ANY``
        Serve whatever resident state exists, however stale; only a cold
        source (no resident state at all) pays a push.
    """

    FRESH = "fresh"
    BOUNDED = "bounded"
    ANY = "any"


@dataclass(frozen=True)
class ObsConfig:
    """Configuration of the observability layer (:mod:`repro.obs`).

    Parameters
    ----------
    enabled:
        Master switch for distributed tracing. Off (the default) the
        whole span machinery collapses to a couple of attribute checks
        per request; the per-stage latency histograms and the slow-query
        log stay on regardless (they are counters, not traces).
    sample_rate:
        Fraction of ingress requests that mint a trace, decided once at
        the front door with a deterministic accumulator (exactly this
        fraction samples, no RNG). ``1.0`` traces everything.
    ring_capacity:
        Finished spans retained in the in-process ring buffer that backs
        ``GET /v1/trace/<id>``; older spans fall off the end.
    slowlog_capacity:
        Entries retained in the slow-query ring (``GET /v1/slow``).
    slowlog_threshold_ms:
        Requests at least this slow are recorded in the slow-query log.
    export_path:
        Append every finished span as one JSON line to this file (the
        structured event sink; ``repro trace export`` turns it into a
        Chrome ``trace_event`` file). ``None`` disables the sink.

    See ``docs/observability.md`` for the trace model and span taxonomy.
    """

    enabled: bool = False
    sample_rate: float = 1.0
    ring_capacity: int = 4096
    slowlog_capacity: int = 256
    slowlog_threshold_ms: float = 50.0
    export_path: str | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.sample_rate <= 1.0:
            raise ConfigError(
                f"sample_rate must be in [0, 1], got {self.sample_rate}"
            )
        if self.ring_capacity < 1:
            raise ConfigError(
                f"ring_capacity must be >= 1, got {self.ring_capacity}"
            )
        if self.slowlog_capacity < 1:
            raise ConfigError(
                f"slowlog_capacity must be >= 1, got {self.slowlog_capacity}"
            )
        if self.slowlog_threshold_ms < 0:
            raise ConfigError(
                f"slowlog_threshold_ms must be >= 0, got {self.slowlog_threshold_ms}"
            )

    def with_(self, **changes: Any) -> "ObsConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


@dataclass(frozen=True)
class ApiConfig:
    """Configuration of the typed gateway API (:mod:`repro.api`).

    Parameters
    ----------
    host / port:
        Bind address of the HTTP front-end (``repro serve``); port ``0``
        asks the OS for an ephemeral port (tests do this).
    max_batch:
        Maximum reads :meth:`repro.api.Gateway.submit_many` coalesces into
        one engine batch: it groups consecutive same-shaped top-k reads
        between writes into one batched call (deduplicating repeated
        sources); see ``docs/api.md``.
    admission_queue:
        Capacity of the gateway's bounded admission queue; ``0`` (the
        default) disables admission control entirely. When enabled, a
        request is shed with :class:`~repro.errors.OverloadError` (HTTP
        429) once the in-flight depth crosses its priority class's
        threshold — ``ANY`` reads shed first, then ``BOUNDED``, then
        ``FRESH`` reads and writes; admin ops are never shed. See
        ``docs/load.md``.
    obs:
        Observability configuration (:class:`ObsConfig`). A gateway built
        with ``obs.enabled`` (or an ``export_path``) installs it as the
        process-wide tracer; the default (disabled) leaves whatever is
        already configured alone.
    """

    host: str = "127.0.0.1"
    port: int = 8707
    max_batch: int = 256
    admission_queue: int = 0
    obs: ObsConfig = field(default_factory=ObsConfig)

    def __post_init__(self) -> None:
        if not self.host:
            raise ConfigError("host must be non-empty")
        if not 0 <= self.port <= 65535:
            raise ConfigError(f"port must be in [0, 65535], got {self.port}")
        if self.max_batch < 1:
            raise ConfigError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.admission_queue < 0:
            raise ConfigError(
                f"admission_queue must be >= 0, got {self.admission_queue}"
            )
        if not isinstance(self.obs, ObsConfig):
            raise ConfigError(f"obs must be an ObsConfig, got {self.obs!r}")

    def with_(self, **changes: Any) -> "ApiConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


@dataclass(frozen=True)
class ClusterConfig:
    """Configuration of the replicated serving tier (:mod:`repro.cluster`).

    Parameters
    ----------
    replicas:
        Worker processes, each hosting a full replica of the serving
        engine. A read of source ``s`` is served by replica
        ``s % replicas``, so each replica's resident cache (and the lazy
        refreshes and cold admissions it pays for) holds a stable
        partition of the source space. Writes apply on the primary and
        ship to every replica as ordered deltas over the same FIFO pipe
        as its reads, so a FRESH read never overtakes a shipped write.
    max_respawns:
        How many times a crashed replica may be respawned before the
        cluster gives up and raises (guards against a poison batch
        crash-looping a worker).
    breaker_failures / breaker_cooldown:
        Per-replica circuit breaker: consecutive failures before the
        replica is ejected from the read rotation, and denied requests
        before a half-open probe is allowed
        (:class:`repro.api.resilience.CircuitBreaker`).

    See ``docs/cluster.md`` for topology and ``docs/faults.md`` for the
    failure model.
    """

    replicas: int = 2
    max_respawns: int = 3
    breaker_failures: int = 3
    breaker_cooldown: int = 8

    def __post_init__(self) -> None:
        if not 1 <= self.replicas <= 64:
            raise ConfigError(f"replicas must be in [1, 64], got {self.replicas}")
        if self.max_respawns < 0:
            raise ConfigError(
                f"max_respawns must be >= 0, got {self.max_respawns}"
            )
        if self.breaker_failures < 1:
            raise ConfigError(
                f"breaker_failures must be >= 1, got {self.breaker_failures}"
            )
        if self.breaker_cooldown < 1:
            raise ConfigError(
                f"breaker_cooldown must be >= 1, got {self.breaker_cooldown}"
            )

    def with_(self, **changes: Any) -> "ClusterConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


@dataclass(frozen=True)
class ShardConfig:
    """Configuration of the partitioned serving tier (:mod:`repro.shard`).

    Parameters
    ----------
    shards:
        Worker processes, each *owning* a vertex slice of the dynamic
        graph: its in-adjacency rows, the PPR states of its resident
        sources, and (when a store is attached) its own WAL segment
        directory and checkpoints. Unlike :class:`ClusterConfig`
        replicas, shards partition writes and memory, not just reads.
        A vertex is placed by a stateless splitmix64 hash of its id mod
        the shard count, so its owner never changes as the graph grows.
    max_respawns:
        How many times a crashed shard may be respawned before the
        gateway gives up and raises.

    See ``docs/sharding.md`` for placement, the frontier-exchange
    protocol, and the recovery manifest.
    """

    shards: int = 2
    max_respawns: int = 3

    def __post_init__(self) -> None:
        if not 1 <= self.shards <= 64:
            raise ConfigError(f"shards must be in [1, 64], got {self.shards}")
        if self.max_respawns < 0:
            raise ConfigError(
                f"max_respawns must be >= 0, got {self.max_respawns}"
            )

    def with_(self, **changes: Any) -> "ShardConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


@dataclass(frozen=True)
class ServeConfig:
    """Configuration of the multi-query serving layer (:mod:`repro.serve`).

    Parameters
    ----------
    cache_capacity:
        Maximum number of resident per-source PPR states. When a cold
        source is admitted past capacity the least-recently-queried
        resident is evicted. Resident states are refreshed lazily:
        ingest only restores their invariant, and a source's push runs
        when a read of it needs a newer version than the one it
        converged at.
    num_hubs:
        Size of the always-resident :class:`repro.core.hub_index.DynamicHubIndex`
        tier maintained alongside the query cache; ``0`` disables it. Hub
        vectors re-converge at every ingest.
    top_k:
        Default ranking depth returned by queries.
    store:
        Durable-state-store configuration (:class:`StoreConfig`); ``None``
        keeps the service purely in-memory. When set, the service attaches
        a :class:`repro.store.StateStore` at construction and persists
        every ingested batch (see ``docs/persistence.md``).

    See ``docs/serving.md`` for the serving-layer design rationale.
    """

    cache_capacity: int = 64
    num_hubs: int = 0
    top_k: int = 10
    store: "StoreConfig | None" = None

    def __post_init__(self) -> None:
        if self.cache_capacity < 1:
            raise ConfigError(
                f"cache_capacity must be >= 1, got {self.cache_capacity}"
            )
        if self.num_hubs < 0:
            raise ConfigError(f"num_hubs must be >= 0, got {self.num_hubs}")
        if self.top_k < 1:
            raise ConfigError(f"top_k must be >= 1, got {self.top_k}")
        if self.store is not None and not isinstance(self.store, StoreConfig):
            raise ConfigError(f"store must be a StoreConfig, got {self.store!r}")

    def with_(self, **changes: Any) -> "ServeConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


@dataclass(frozen=True)
class PPRConfig:
    """Immutable configuration for dynamic PPR maintenance.

    Parameters
    ----------
    alpha:
        Teleport probability of the PPR random walk, ``0 < alpha < 1``.
    epsilon:
        Error threshold; on convergence ``|P_s(v) - pi_v(s)| <= epsilon``.
    variant:
        Parallel push variant (Table 3 of the paper).
    backend:
        Execution backend for the parallel push.
    workers:
        Degree of (simulated) hardware parallelism. For the pure/numpy
        backends this is the scheduling chunk width used to emulate
        concurrent threads; it also feeds the cost models.
    max_iterations:
        Safety bound on push iterations; exceeded only on library bugs
        (the push provably terminates), so hitting it raises.
    kernel:
        Push-kernel selection for the ``NUMPY`` backend's inner loops
        (:class:`KernelConfig`); ``None`` (the default) reads
        ``REPRO_KERNEL`` from the environment at push time. Answers are
        bit-identical either way — this knob only trades speed.
    """

    alpha: float = DEFAULT_ALPHA
    epsilon: float = DEFAULT_EPSILON
    variant: PushVariant = PushVariant.OPT
    backend: Backend = Backend.PURE
    workers: int = 40
    max_iterations: int = 1_000_000
    kernel: "KernelConfig | None" = None

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if not isinstance(self.variant, PushVariant):
            raise ConfigError(f"variant must be a PushVariant, got {self.variant!r}")
        if not isinstance(self.backend, Backend):
            raise ConfigError(f"backend must be a Backend, got {self.backend!r}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.max_iterations < 1:
            raise ConfigError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.kernel is not None and not isinstance(self.kernel, KernelConfig):
            raise ConfigError(f"kernel must be a KernelConfig, got {self.kernel!r}")

    def with_(self, **changes: Any) -> "PPRConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    def describe(self) -> str:
        """One-line human-readable summary, used in benchmark tables."""
        kernel = f" kernel={self.kernel.mode.value}" if self.kernel else ""
        return (
            f"alpha={self.alpha} eps={self.epsilon:g} variant={self.variant.value}"
            f" backend={self.backend.value} workers={self.workers}{kernel}"
        )
