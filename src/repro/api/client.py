"""The embedded client — the canonical programmatic API.

:class:`Client` wraps a :class:`~repro.api.gateway.Gateway` (or builds
one around a ``PPRService``) and exposes one ergonomic method per
operation of the typed protocol. Error-carrying responses are raised as
the typed exceptions they encode (reconstructed through the stable codes
of :mod:`repro.errors`), so embedded callers keep ``except VertexError:``
semantics while remote callers see the same codes as JSON.

The examples and the CLI use this client; the HTTP front-end
(:mod:`repro.api.http`) serves the same protocol over a socket.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

from .. import obs
from ..config import ApiConfig
from ..graph.update import EdgeUpdate
from .gateway import Gateway
from .requests import (
    FRESH,
    ApiRequest,
    BatchQuery,
    CheckpointNow,
    Consistency,
    Health,
    HubQuery,
    IngestBatch,
    Prefetch,
    Ready,
    ScoreQuery,
    Stats,
    TopKQuery,
)
from .responses import (
    ApiResponse,
    BatchResult,
    CheckpointResult,
    HealthResult,
    HubResult,
    IngestResult,
    PrefetchResult,
    ReadyResult,
    ScoreResult,
    StatsResult,
    TopKResult,
)

if TYPE_CHECKING:
    from ..serve.service import PPRService


class Client:
    """Typed embedded client bound to one gateway.

    Parameters
    ----------
    target:
        A :class:`~repro.api.gateway.Gateway` (or any gateway-shaped
        front door exposing ``submit``/``submit_many``, e.g. the
        replicated :class:`~repro.cluster.gateway.ClusterGateway`), or a
        ``PPRService`` to front (its own gateway is used, so one engine
        never ends up behind two schedulers).
    config:
        Only consulted when ``target`` is a service *without* a gateway
        yet; an existing gateway keeps its configuration.

    Examples
    --------
    >>> from repro import DynamicDiGraph, PPRService
    >>> client = PPRService(DynamicDiGraph([(1, 0), (2, 0), (0, 1)])).api
    >>> client.top_k(0, k=2).vertices[0]
    0
    >>> client.ingest([(1, 2)]).accepted
    1
    """

    def __init__(
        self,
        target: "Gateway | PPRService",
        config: ApiConfig | None = None,
    ) -> None:
        if isinstance(target, Gateway) or (
            hasattr(target, "submit") and hasattr(target, "submit_many")
        ):
            self.gateway = target
        else:
            if config is not None and target._gateway is None:
                Gateway(target, config)  # registers itself as the service's
            self.gateway = target.gateway

    @property
    def config(self) -> ApiConfig:
        return self.gateway.config

    def _send(self, request: ApiRequest) -> ApiResponse:
        # The embedded front door mints traces exactly like the HTTP one,
        # so embedded and remote callers sample the same way.
        ing = obs.ingress("client.request", op=request.op)
        with ing:
            obs.attach(request, ing.ctx)
            response = self.gateway.submit(request)
        if response.error is not None:
            raise response.error.to_exception()
        return response

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #

    def top_k(
        self,
        source: int,
        k: int | None = None,
        *,
        consistency: Consistency | None = None,
    ) -> TopKResult:
        """Certified top-k ranking personalized to ``source``."""
        return self._send(
            TopKQuery(
                source=source,
                k=k,
                consistency=consistency or FRESH,
            )
        )

    def top_k_many(
        self,
        sources: Sequence[int],
        k: int | None = None,
        *,
        consistency: Consistency | None = None,
    ) -> BatchResult:
        """Top-k for many sources at once, answered in order."""
        return self._send(
            BatchQuery(
                sources=tuple(sources),
                k=k,
                consistency=consistency or FRESH,
            )
        )

    def score(
        self,
        source: int,
        target: int,
        *,
        consistency: Consistency | None = None,
    ) -> ScoreResult:
        """``target``'s PPR value in ``source``'s vector, with error bound."""
        return self._send(
            ScoreQuery(
                source=source,
                target=target,
                consistency=consistency or FRESH,
            )
        )

    def hub_top_k(self, hub: int, k: int | None = None) -> HubResult:
        """Certified top-k contributors of ``hub`` (hub tier required)."""
        return self._send(HubQuery(hub=hub, k=k))

    def stats(self) -> StatsResult:
        """Structured serving metrics (the ``/v1/stats`` payload)."""
        return self._send(Stats())

    def health(self) -> HealthResult:
        """Liveness probe with engine size counters."""
        return self._send(Health())

    def ready(self) -> ReadyResult:
        """Readiness probe: replica roster, primary identity, epoch.

        Unlike :meth:`health`, a degraded cluster does not raise — it
        answers with ``ready=False`` and the per-replica detail, the
        embedded twin of ``GET /v1/readyz`` returning 503.
        """
        return self._send(Ready())

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #

    def ingest(
        self,
        updates: Sequence[EdgeUpdate] | Sequence[tuple[int, int]],
        *,
        expect_version: int | None = None,
    ) -> IngestResult:
        """Apply one ordered edge-update batch.

        Accepts :class:`~repro.graph.update.EdgeUpdate` objects or bare
        ``(u, v)`` pairs (treated as insertions). ``expect_version``
        makes the write conditional on the engine still being at that
        snapshot version (:class:`~repro.errors.ConflictError` otherwise).
        """
        return self._send(
            IngestBatch(updates=tuple(updates), expect_version=expect_version)
        )

    def prefetch(self, *sources: int) -> PrefetchResult:
        """Admit the sources that are not resident, answering no query."""
        return self._send(Prefetch(sources=sources))

    def checkpoint_now(self) -> CheckpointResult:
        """Force a durable checkpoint (requires an attached store)."""
        return self._send(CheckpointNow())

    # ------------------------------------------------------------------ #
    # raw protocol
    # ------------------------------------------------------------------ #

    def send(self, *requests: ApiRequest) -> list[ApiResponse]:
        """Submit a mixed request sequence through the scheduler.

        The raw :meth:`Gateway.submit_many` surface: responses come back
        in request order and carry :class:`~repro.api.responses.ErrorInfo`
        instead of raising, so one bad request does not void the batch.
        """
        ing = obs.ingress("client.request", requests=len(requests))
        with ing:
            for request in requests:
                obs.attach(request, ing.ctx)
            return self.gateway.submit_many(list(requests))

    def __repr__(self) -> str:
        return f"Client({self.gateway!r})"
