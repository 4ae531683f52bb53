"""Typed response protocol of the gateway API.

Mirror of :mod:`repro.api.requests`: one frozen dataclass per operation,
each carrying the common envelope — ``snapshot_version`` (the version the
answer is ε-approximate on), ``staleness`` (ingested updates the serving
state was behind at arrival), ``wall_time_s``, and a structured
:class:`ErrorInfo` (``None`` on success) mapped from the
:class:`~repro.errors.ReproError` hierarchy's stable codes. ``to_dict``
produces the exact JSON the HTTP front-end ships; embedded callers get
the same objects with the rich payloads (e.g.
:class:`~repro.core.certify.CertifiedEntry` rankings) intact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, ClassVar, Mapping

from ..core.certify import CertifiedEntry
from ..errors import ReproError, error_from_dict

if TYPE_CHECKING:
    from ..core.stats import PushStats
    from ..serve.service import ServedQuery


@dataclass(frozen=True)
class ErrorInfo:
    """A failed operation, as stable protocol data.

    ``code`` is the stable machine-readable code of the originating
    exception class (see ``ERROR_CODES`` in :mod:`repro.errors`);
    ``details`` its structured context (e.g. the offending vertex id).
    """

    code: str
    message: str
    details: Mapping[str, Any] = field(default_factory=dict)

    @classmethod
    def from_exception(cls, exc: BaseException) -> "ErrorInfo":
        if isinstance(exc, ReproError):
            return cls(code=exc.code, message=str(exc), details=exc.details())
        return cls(code="INTERNAL", message=f"{type(exc).__name__}: {exc}")

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"code": self.code, "message": self.message}
        if self.details:
            payload["details"] = dict(self.details)
        return payload

    def to_exception(self) -> ReproError:
        """Reconstruct the typed exception (what the embedded client raises)."""
        return error_from_dict(self.to_dict())


def entry_to_dict(entry: CertifiedEntry) -> dict[str, Any]:
    """One certified ranking row as JSON-safe data (floats untouched)."""
    return {
        "vertex": entry.vertex,
        "estimate": entry.estimate,
        "lower": entry.lower,
        "upper": entry.upper,
        "position_certified": entry.position_certified,
    }


@dataclass(frozen=True)
class ApiResponse:
    """Base class: the common response envelope."""

    op: ClassVar[str] = ""

    #: Snapshot version the payload is ε-approximate on (-1 when n/a).
    snapshot_version: int = -1
    #: Ingested updates the serving state was behind at request arrival.
    staleness: int = 0
    wall_time_s: float = 0.0
    error: ErrorInfo | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def _payload(self) -> dict[str, Any]:
        """Operation-specific fields (subclass hook for :meth:`to_dict`)."""
        return {}

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "op": self.op,
            "ok": self.ok,
            "snapshot_version": self.snapshot_version,
            "staleness": self.staleness,
            "wall_time_s": self.wall_time_s,
        }
        if self.ok:
            payload.update(self._payload())
        else:
            payload["error"] = self.error.to_dict()
        return payload

    @classmethod
    def failure(
        cls,
        error: ErrorInfo,
        *,
        snapshot_version: int = -1,
        wall_time_s: float = 0.0,
        **fields_: Any,
    ) -> "ApiResponse":
        """An error-carrying response of this operation's type."""
        return cls(
            snapshot_version=snapshot_version,
            wall_time_s=wall_time_s,
            error=error,
            **fields_,
        )


@dataclass(frozen=True)
class TopKResult(ApiResponse):
    """Answer to a :class:`~repro.api.requests.TopKQuery`."""

    op: ClassVar[str] = "top_k"

    source: int = -1
    k: int = 0
    entries: tuple[CertifiedEntry, ...] = ()
    cold: bool = False
    #: The engine's native answer object (embedded callers only).
    served: "ServedQuery | None" = field(default=None, compare=False, repr=False)

    @property
    def vertices(self) -> list[int]:
        """Ranked vertex ids, best first."""
        return [entry.vertex for entry in self.entries]

    def _payload(self) -> dict[str, Any]:
        return {
            "source": self.source,
            "k": self.k,
            "cold": self.cold,
            "entries": [entry_to_dict(e) for e in self.entries],
        }


@dataclass(frozen=True)
class BatchResult(ApiResponse):
    """Answers to a :class:`~repro.api.requests.BatchQuery`, request order."""

    op: ClassVar[str] = "batch"

    results: tuple[TopKResult, ...] = ()

    def _payload(self) -> dict[str, Any]:
        return {"results": [r.to_dict() for r in self.results]}


@dataclass(frozen=True)
class HubResult(ApiResponse):
    """Answer to a :class:`~repro.api.requests.HubQuery`."""

    op: ClassVar[str] = "hub_top_k"

    hub: int = -1
    k: int = 0
    entries: tuple[CertifiedEntry, ...] = ()

    @property
    def vertices(self) -> list[int]:
        return [entry.vertex for entry in self.entries]

    def _payload(self) -> dict[str, Any]:
        return {
            "hub": self.hub,
            "k": self.k,
            "entries": [entry_to_dict(e) for e in self.entries],
        }


@dataclass(frozen=True)
class ScoreResult(ApiResponse):
    """Answer to a :class:`~repro.api.requests.ScoreQuery`."""

    op: ClassVar[str] = "score"

    source: int = -1
    target: int = -1
    estimate: float = 0.0
    #: Rigorous sup-norm bound: |estimate - true PPR| <= error_bound.
    error_bound: float = 0.0
    cold: bool = False

    def _payload(self) -> dict[str, Any]:
        return {
            "source": self.source,
            "target": self.target,
            "estimate": self.estimate,
            "error_bound": self.error_bound,
            "cold": self.cold,
        }


@dataclass(frozen=True)
class IngestResult(ApiResponse):
    """Acknowledgement of an :class:`~repro.api.requests.IngestBatch`.

    ``snapshot_version`` (envelope) is the *post-batch* version;
    ``previous_version`` the one the batch applied against.
    """

    op: ClassVar[str] = "ingest"

    accepted: int = 0
    previous_version: int = -1
    pushes: int = 0
    #: Push traces of the refreshes the ingest ran (embedded callers only).
    traces: "Mapping[int, PushStats]" = field(
        default_factory=dict, compare=False, repr=False
    )

    def _payload(self) -> dict[str, Any]:
        return {
            "accepted": self.accepted,
            "previous_version": self.previous_version,
            "pushes": self.pushes,
        }


@dataclass(frozen=True)
class PrefetchResult(ApiResponse):
    """Acknowledgement of a :class:`~repro.api.requests.Prefetch`."""

    op: ClassVar[str] = "prefetch"

    requested: int = 0
    #: Requested sources this request pushed from scratch (the rest were
    #: resident already, or repeated).
    admitted: int = 0

    def _payload(self) -> dict[str, Any]:
        return {"requested": self.requested, "admitted": self.admitted}


@dataclass(frozen=True)
class CheckpointResult(ApiResponse):
    """Acknowledgement of a :class:`~repro.api.requests.CheckpointNow`."""

    op: ClassVar[str] = "checkpoint"

    path: str = ""
    written: bool = False

    def _payload(self) -> dict[str, Any]:
        return {"path": self.path, "written": self.written}


@dataclass(frozen=True)
class StatsResult(ApiResponse):
    """Structured metrics (:meth:`repro.serve.ServiceMetrics.to_dict`)."""

    op: ClassVar[str] = "stats"

    stats: Mapping[str, Any] = field(default_factory=dict)

    def _payload(self) -> dict[str, Any]:
        return {"stats": dict(self.stats)}


@dataclass(frozen=True)
class HealthResult(ApiResponse):
    """Liveness payload (:class:`~repro.api.requests.Health`)."""

    op: ClassVar[str] = "health"

    status: str = "ok"
    graph_version: int = -1
    num_vertices: int = 0
    num_edges: int = 0
    resident: int = 0
    hubs: int = 0

    def _payload(self) -> dict[str, Any]:
        return {
            "status": self.status,
            "graph_version": self.graph_version,
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "resident": self.resident,
            "hubs": self.hubs,
        }


@dataclass(frozen=True)
class ReadyResult(ApiResponse):
    """Readiness payload (:class:`~repro.api.requests.Ready`).

    ``ready`` is the load-balancer bit (``/v1/readyz`` maps it to
    200/503); ``replicas`` carries one dict per worker — alive flag,
    role, applied-version lag behind the acked head, circuit-breaker
    state — and ``primary``/``epoch`` identify the current write
    authority. A single-process gateway is trivially ready.
    """

    op: ClassVar[str] = "ready"

    ready: bool = True
    status: str = "ready"
    primary: str | None = "embedded"
    epoch: int = 0
    replicas: tuple[dict[str, Any], ...] = ()

    def _payload(self) -> dict[str, Any]:
        return {
            "ready": self.ready,
            "status": self.status,
            "primary": self.primary,
            "epoch": self.epoch,
            "replicas": [dict(r) for r in self.replicas],
        }
