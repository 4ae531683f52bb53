"""Typed request protocol of the gateway API.

Every operation the engine supports is a frozen dataclass here — the
single vocabulary shared by the embedded :class:`~repro.api.client.Client`,
the :class:`~repro.api.gateway.Gateway` scheduler, and the JSON front-end
(:mod:`repro.api.http`). Each request validates its fields at
construction (raising :class:`~repro.errors.RequestError`, stable code
``REQUEST``) and round-trips through ``to_dict``/``from_dict`` so the
wire protocol and the in-process API are the same objects.

Reads carry a per-request :class:`Consistency` — ``FRESH`` (refresh
before read), ``BOUNDED(s)`` (tolerate ≤ s versions of lag), ``ANY``
(serve resident state however stale) — replacing the serving layer's
implicit global freshness policy. See ``docs/api.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, ClassVar, Mapping, Sequence

from ..config import ConsistencyLevel
from ..errors import DeadlineError, RequestError
from ..graph.update import EdgeOp, EdgeUpdate

if TYPE_CHECKING:  # engine-internal side channel, never on the wire
    from ..graph.delta import CSRView


# ---------------------------------------------------------------------- #
# consistency
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class Consistency:
    """A read's freshness contract: level plus (for BOUNDED) the bound."""

    level: ConsistencyLevel = ConsistencyLevel.FRESH
    #: Maximum tolerated version lag; meaningful only for ``BOUNDED``.
    bound: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.level, ConsistencyLevel):
            raise RequestError(
                f"level must be a ConsistencyLevel, got {self.level!r}"
            )
        if self.bound < 0:
            raise RequestError(f"bound must be >= 0, got {self.bound}")
        if self.bound and self.level is not ConsistencyLevel.BOUNDED:
            raise RequestError(
                f"bound only applies to BOUNDED, got {self.level.value}"
            )

    @classmethod
    def bounded(cls, versions: int) -> "Consistency":
        """Tolerate answers at most ``versions`` snapshot versions old."""
        return cls(ConsistencyLevel.BOUNDED, versions)

    @property
    def max_staleness(self) -> int | None:
        """The engine-facing bound: versions of lag allowed (None = any)."""
        if self.level is ConsistencyLevel.FRESH:
            return 0
        if self.level is ConsistencyLevel.BOUNDED:
            return self.bound
        return None

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"level": self.level.value}
        if self.level is ConsistencyLevel.BOUNDED:
            payload["bound"] = self.bound
        return payload

    @classmethod
    def from_dict(cls, payload: Any) -> "Consistency":
        """Parse ``"fresh"`` / ``{"level": "bounded", "bound": 3}`` forms."""
        if isinstance(payload, Consistency):
            return payload
        if isinstance(payload, str):
            payload = {"level": payload}
        if not isinstance(payload, Mapping):
            raise RequestError(f"bad consistency: {payload!r}")
        try:
            level = ConsistencyLevel(str(payload.get("level", "fresh")))
        except ValueError:
            raise RequestError(
                f"unknown consistency level: {payload.get('level')!r}"
            ) from None
        bound = payload.get("bound", 0)
        if not isinstance(bound, int) or isinstance(bound, bool):
            raise RequestError(f"bound must be an integer, got {bound!r}")
        return cls(level, bound if level is ConsistencyLevel.BOUNDED else 0)


#: The two boundless contracts, shared instances.
FRESH = Consistency(ConsistencyLevel.FRESH)
ANY = Consistency(ConsistencyLevel.ANY)


# ---------------------------------------------------------------------- #
# deadlines
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class Deadline:
    """A request's latency budget: an absolute monotonic expiry.

    Created from a relative budget (:meth:`after_ms`); the absolute
    ``expires_at`` is ``time.monotonic()``-based so it survives wall-clock
    adjustments but is only meaningful within one process. On the wire the
    budget travels as ``timeout_ms`` and the clock *restarts* at the
    server (gRPC-style): network transit is not charged against it, and
    round-tripping a request re-arms the full budget.
    """

    #: Absolute ``time.monotonic()`` instant after which the request is dead.
    expires_at: float
    #: The original relative budget, kept for the wire form and errors.
    budget_ms: float

    def __post_init__(self) -> None:
        if isinstance(self.budget_ms, bool) or not isinstance(
            self.budget_ms, (int, float)
        ):
            raise RequestError(
                f"timeout_ms must be a number, got {self.budget_ms!r}"
            )
        if not self.budget_ms > 0:
            raise RequestError(f"timeout_ms must be > 0, got {self.budget_ms}")

    @classmethod
    def after_ms(cls, budget_ms: float, *, now: float | None = None) -> "Deadline":
        """The deadline ``budget_ms`` milliseconds from ``now`` (monotonic)."""
        if isinstance(budget_ms, bool) or not isinstance(budget_ms, (int, float)):
            raise RequestError(f"timeout_ms must be a number, got {budget_ms!r}")
        if not budget_ms > 0:
            raise RequestError(f"timeout_ms must be > 0, got {budget_ms}")
        start = time.monotonic() if now is None else now
        return cls(expires_at=start + budget_ms / 1e3, budget_ms=float(budget_ms))

    def expired(self, now: float | None = None) -> bool:
        """Whether the budget has elapsed (``now`` defaults to monotonic)."""
        return (time.monotonic() if now is None else now) >= self.expires_at

    def remaining_s(self, now: float | None = None) -> float:
        """Seconds of budget left; negative once expired."""
        return self.expires_at - (time.monotonic() if now is None else now)

    def to_error(self, now: float | None = None) -> DeadlineError:
        """The typed error describing this deadline's expiry."""
        overrun_ms = -self.remaining_s(now) * 1e3
        return DeadlineError(
            budget_ms=self.budget_ms,
            elapsed_ms=self.budget_ms + max(0.0, overrun_ms),
        )

    @classmethod
    def tightest(cls, deadlines: "Sequence[Deadline | None]") -> "Deadline | None":
        """The earliest-expiring of the given deadlines (None if all None)."""
        present = [d for d in deadlines if d is not None]
        if not present:
            return None
        return min(present, key=lambda d: d.expires_at)


def consistency_for(max_staleness: int | None) -> Consistency:
    """The consistency matching an engine-style staleness bound."""
    if max_staleness is None:
        return ANY
    if max_staleness == 0:
        return FRESH
    return Consistency.bounded(max_staleness)


# ---------------------------------------------------------------------- #
# field validation helpers
# ---------------------------------------------------------------------- #


def _vertex(value: Any, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise RequestError(f"{name} must be an integer vertex id, got {value!r}")
    if value < 0:
        raise RequestError(f"{name} must be >= 0, got {value}")
    return value


def _optional_k(k: Any) -> int | None:
    if k is None:
        return None
    if isinstance(k, bool) or not isinstance(k, int):
        raise RequestError(f"k must be an integer, got {k!r}")
    if k < 1:
        raise RequestError(f"k must be >= 1, got {k}")
    return k


def _vertex_tuple(values: Any, name: str) -> tuple[int, ...]:
    if isinstance(values, (str, bytes)) or not isinstance(values, Sequence):
        raise RequestError(f"{name} must be a sequence of vertex ids")
    out = tuple(_vertex(v, name) for v in values)
    if not out:
        raise RequestError(f"{name} must be non-empty")
    return out


def _optional_deadline(value: Any) -> None:
    if value is not None and not isinstance(value, Deadline):
        raise RequestError(f"deadline must be a Deadline or None, got {value!r}")


def _deadline_from_payload(payload: Mapping[str, Any]) -> Deadline | None:
    """Re-arm a wire ``timeout_ms`` as a fresh server-side deadline."""
    timeout_ms = payload.get("timeout_ms")
    if timeout_ms is None:
        return None
    return Deadline.after_ms(timeout_ms)


_WIRE_OPS = {"insert": EdgeOp.INSERT, "delete": EdgeOp.DELETE}


def _parse_update(item: Any) -> EdgeUpdate:
    # The decoded wire form, by exact type (a bool is not an int here).
    if type(item) is list and len(item) == 3:
        u, v, op = item
        if type(u) is int and type(v) is int and u >= 0 and v >= 0:
            op = _WIRE_OPS.get(op) if type(op) is str else None
            if op is not None:
                return EdgeUpdate(u, v, op)
    if isinstance(item, EdgeUpdate):
        return item
    if isinstance(item, Mapping):
        item = [item.get("u"), item.get("v"), item.get("op", "insert")]
    if not isinstance(item, Sequence) or not 2 <= len(item) <= 3:
        raise RequestError(f"bad update (want [u, v] or [u, v, op]): {item!r}")
    u = _vertex(item[0], "u")
    v = _vertex(item[1], "v")
    op = item[2] if len(item) == 3 else EdgeOp.INSERT
    if isinstance(op, str):
        try:
            op = {"insert": EdgeOp.INSERT, "+": EdgeOp.INSERT,
                  "delete": EdgeOp.DELETE, "-": EdgeOp.DELETE}[op]
        except KeyError:
            raise RequestError(f"bad update op: {op!r}") from None
    try:
        op = EdgeOp(op)
    except ValueError:
        raise RequestError(f"bad update op: {op!r}") from None
    return EdgeUpdate(u, v, op)


# ---------------------------------------------------------------------- #
# requests
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class ApiRequest:
    """Base class: the ``op`` tag and write/read classification."""

    #: Stable operation name, the dispatch tag of the wire protocol.
    op: ClassVar[str] = ""
    #: Writes are scheduling barriers: reads never coalesce across one.
    is_write: ClassVar[bool] = False

    def to_dict(self) -> dict[str, Any]:
        return {"op": self.op}


@dataclass(frozen=True)
class TopKQuery(ApiRequest):
    """Certified top-k PPR ranking personalized to ``source``."""

    op: ClassVar[str] = "top_k"

    source: int = 0
    k: int | None = None
    consistency: Consistency = FRESH
    #: Optional latency budget; excluded from equality so deadline-carrying
    #: reads still coalesce with their deadline-free twins.
    deadline: Deadline | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        _vertex(self.source, "source")
        _optional_k(self.k)
        if not isinstance(self.consistency, Consistency):
            raise RequestError(
                f"consistency must be a Consistency, got {self.consistency!r}"
            )
        _optional_deadline(self.deadline)

    def to_dict(self) -> dict[str, Any]:
        payload = {"op": self.op, "source": self.source,
                   "consistency": self.consistency.to_dict()}
        if self.k is not None:
            payload["k"] = self.k
        if self.deadline is not None:
            payload["timeout_ms"] = self.deadline.budget_ms
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TopKQuery":
        if "source" not in payload:
            raise RequestError("top_k requires a 'source' field")
        return cls(
            source=payload["source"],
            k=payload.get("k"),
            consistency=Consistency.from_dict(payload.get("consistency", FRESH)),
            deadline=_deadline_from_payload(payload),
        )


@dataclass(frozen=True)
class BatchQuery(ApiRequest):
    """Many top-k reads answered together (cold sources admitted batched)."""

    op: ClassVar[str] = "batch"

    sources: tuple[int, ...] = ()
    k: int | None = None
    consistency: Consistency = FRESH
    #: Optional latency budget (tightest member when built by coalescing).
    deadline: Deadline | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "sources", _vertex_tuple(self.sources, "sources"))
        _optional_k(self.k)
        if not isinstance(self.consistency, Consistency):
            raise RequestError(
                f"consistency must be a Consistency, got {self.consistency!r}"
            )
        _optional_deadline(self.deadline)

    def to_dict(self) -> dict[str, Any]:
        payload = {"op": self.op, "sources": list(self.sources),
                   "consistency": self.consistency.to_dict()}
        if self.k is not None:
            payload["k"] = self.k
        if self.deadline is not None:
            payload["timeout_ms"] = self.deadline.budget_ms
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "BatchQuery":
        if "sources" not in payload:
            raise RequestError("batch requires a 'sources' field")
        return cls(
            sources=payload["sources"],
            k=payload.get("k"),
            consistency=Consistency.from_dict(payload.get("consistency", FRESH)),
            deadline=_deadline_from_payload(payload),
        )


@dataclass(frozen=True)
class HubQuery(ApiRequest):
    """Certified top-k contributors of one hub (requires the hub tier)."""

    op: ClassVar[str] = "hub_top_k"

    hub: int = 0
    k: int | None = None

    def __post_init__(self) -> None:
        _vertex(self.hub, "hub")
        _optional_k(self.k)

    def to_dict(self) -> dict[str, Any]:
        payload = {"op": self.op, "hub": self.hub}
        if self.k is not None:
            payload["k"] = self.k
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "HubQuery":
        if "hub" not in payload:
            raise RequestError("hub_top_k requires a 'hub' field")
        return cls(hub=payload["hub"], k=payload.get("k"))


@dataclass(frozen=True)
class ScoreQuery(ApiRequest):
    """One PPR score: ``target``'s value in ``source``'s vector, with bound."""

    op: ClassVar[str] = "score"

    source: int = 0
    target: int = 0
    consistency: Consistency = FRESH
    deadline: Deadline | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        _vertex(self.source, "source")
        _vertex(self.target, "target")
        if not isinstance(self.consistency, Consistency):
            raise RequestError(
                f"consistency must be a Consistency, got {self.consistency!r}"
            )
        _optional_deadline(self.deadline)

    def to_dict(self) -> dict[str, Any]:
        payload = {"op": self.op, "source": self.source, "target": self.target,
                   "consistency": self.consistency.to_dict()}
        if self.deadline is not None:
            payload["timeout_ms"] = self.deadline.budget_ms
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScoreQuery":
        for name in ("source", "target"):
            if name not in payload:
                raise RequestError(f"score requires a {name!r} field")
        return cls(
            source=payload["source"],
            target=payload["target"],
            consistency=Consistency.from_dict(payload.get("consistency", FRESH)),
            deadline=_deadline_from_payload(payload),
        )


@dataclass(frozen=True)
class IngestBatch(ApiRequest):
    """One ordered batch of edge updates (the write operation).

    ``expect_version`` is optimistic concurrency: the batch applies only
    if the engine's snapshot version still equals it (else the gateway
    raises :class:`~repro.errors.ConflictError`, stable code ``CONFLICT``).
    """

    op: ClassVar[str] = "ingest"
    is_write: ClassVar[bool] = True

    updates: tuple[EdgeUpdate, ...] = ()
    expect_version: int | None = None
    #: Optional latency budget — writes get deadline semantics too.
    deadline: Deadline | None = field(default=None, compare=False, repr=False)
    #: Engine-internal: a pre-built CSR view of the post-batch graph
    #: (sliding-window harnesses pass one); never serialized.
    snapshot: "CSRView | None" = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if isinstance(self.updates, (str, bytes)) or not isinstance(
            self.updates, Sequence
        ):
            raise RequestError("updates must be a sequence of edge updates")
        object.__setattr__(
            self, "updates", tuple(_parse_update(u) for u in self.updates)
        )
        if self.expect_version is not None and (
            isinstance(self.expect_version, bool)
            or not isinstance(self.expect_version, int)
        ):
            raise RequestError(
                f"expect_version must be an integer, got {self.expect_version!r}"
            )
        _optional_deadline(self.deadline)

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "op": self.op,
            "updates": [[u.u, u.v, "insert" if u.is_insert else "delete"]
                        for u in self.updates],
        }
        if self.expect_version is not None:
            payload["expect_version"] = self.expect_version
        if self.deadline is not None:
            payload["timeout_ms"] = self.deadline.budget_ms
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "IngestBatch":
        if "updates" not in payload:
            raise RequestError("ingest requires an 'updates' field")
        return cls(
            updates=payload["updates"],
            expect_version=payload.get("expect_version"),
            deadline=_deadline_from_payload(payload),
        )


@dataclass(frozen=True)
class Prefetch(ApiRequest):
    """Admit non-resident sources now, answering no query."""

    op: ClassVar[str] = "prefetch"

    sources: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "sources", _vertex_tuple(self.sources, "sources"))

    def to_dict(self) -> dict[str, Any]:
        return {"op": self.op, "sources": list(self.sources)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Prefetch":
        if "sources" not in payload:
            raise RequestError("prefetch requires a 'sources' field")
        return cls(sources=payload["sources"])


@dataclass(frozen=True)
class CheckpointNow(ApiRequest):
    """Force a durable checkpoint (requires an attached state store)."""

    op: ClassVar[str] = "checkpoint"
    is_write: ClassVar[bool] = True

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CheckpointNow":
        return cls()


@dataclass(frozen=True)
class Stats(ApiRequest):
    """Structured serving metrics (the ``/v1/stats`` payload)."""

    op: ClassVar[str] = "stats"

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Stats":
        return cls()


@dataclass(frozen=True)
class Health(ApiRequest):
    """Liveness probe: engine identity and size counters."""

    op: ClassVar[str] = "health"

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Health":
        return cls()


@dataclass(frozen=True)
class Ready(ApiRequest):
    """Readiness probe: can this tier serve traffic *right now*?

    Distinct from :class:`Health` (liveness): a cluster mid-failover or
    with dead/ejected replicas is alive but not ready, and answers with
    per-replica state so a load balancer can act (``/v1/readyz``).
    """

    op: ClassVar[str] = "ready"

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Ready":
        return cls()


#: Stable op tag -> request class; the wire protocol's dispatch table.
REQUEST_TYPES: dict[str, type[ApiRequest]] = {
    cls.op: cls
    for cls in (
        TopKQuery,
        BatchQuery,
        HubQuery,
        ScoreQuery,
        IngestBatch,
        Prefetch,
        CheckpointNow,
        Stats,
        Health,
        Ready,
    )
}


def request_from_dict(payload: Any) -> ApiRequest:
    """Parse one wire-format request (``{"op": ..., ...}``).

    A payload without an ``op`` tag is treated as a ``top_k`` query — the
    overwhelmingly common operation — so ``{"source": 7}`` just works.
    """
    if not isinstance(payload, Mapping):
        raise RequestError(f"request must be a JSON object, got {payload!r}")
    op = payload.get("op", TopKQuery.op)
    cls = REQUEST_TYPES.get(op)
    if cls is None:
        raise RequestError(
            f"unknown op {op!r} (have: {sorted(REQUEST_TYPES)})"
        )
    return cls.from_dict(payload)
