"""The shared request-scheduling policy of every gateway front door.

:meth:`repro.api.gateway.GatewayFront.submit_many` — the one scheduler
of the single-process, replicated and sharded gateways — decides here
*when* requests may be reordered or merged: writes are barriers, and
only maximal runs of same-shaped top-k reads between them coalesce into
one batched call. This module is that policy:

* :func:`plan_schedule` — turn a request sequence into an ordered list
  of :class:`Single` / :class:`ReadRun` steps (pure, no engine access);
* :func:`scatter_run_results` — fan a coalesced batch's per-source
  results back out to every request position, replaying the cold-flag
  semantics per-request dispatch would have produced;
* :func:`fail_run` — shape one batch failure into per-position typed
  failures.

The plan is deterministic: two gateways given the same request sequence
and the same ``max_batch`` produce identical steps,
which is what lets the cluster benchmark assert bit-identical answers
across the single-process and replicated schedulers.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from dataclasses import replace as dc_replace
from typing import Mapping, Union

from .requests import ApiRequest, Deadline, TopKQuery
from .responses import ApiResponse, ErrorInfo, TopKResult


@dataclass(frozen=True)
class Single:
    """One request executed at its arrival position (writes always are)."""

    position: int


@dataclass(frozen=True)
class ReadRun:
    """A maximal coalescible run of top-k reads between two barriers.

    ``positions`` are the run's request indices in arrival order;
    ``sources`` the deduplicated source ids in first-occurrence order —
    one batched engine call over ``sources`` answers every position.
    """

    positions: tuple[int, ...]
    sources: tuple[int, ...]
    #: Tightest member deadline — the coalesced batch must honour the most
    #: impatient request it answers. Excluded from equality so plans with
    #: and without deadlines compare by shape.
    deadline: Deadline | None = field(default=None, compare=False, repr=False)

    @property
    def coalesced(self) -> int:
        """Requests answered without their own engine call (duplicates)."""
        return len(self.positions) - len(self.sources)


ScheduleStep = Union[Single, ReadRun]


def plan_schedule(
    requests: Sequence[ApiRequest], *, max_batch: int
) -> list[ScheduleStep]:
    """Plan a request sequence into ordered schedule steps.

    Writes (:attr:`~repro.api.requests.ApiRequest.is_write`) and
    non-top-k reads become :class:`Single` steps at their arrival
    position. Maximal runs of
    :class:`~repro.api.requests.TopKQuery` sharing ``(k, consistency)``
    become :class:`ReadRun` steps — a run closes once it holds
    ``max_batch`` *unique* sources (duplicates inside the run never
    count against the cap). A run of length one degenerates to
    ``Single`` so the executor's per-request path keeps serving the
    common case.
    """
    steps: list[ScheduleStep] = []
    i = 0
    while i < len(requests):
        request = requests[i]
        if isinstance(request, TopKQuery):
            group = [i]
            unique: dict[int, None] = {request.source: None}
            j = i + 1
            while (
                j < len(requests)
                and isinstance(requests[j], TopKQuery)
                and requests[j].k == request.k
                and requests[j].consistency == request.consistency
                and len(unique) < max_batch
            ):
                unique.setdefault(requests[j].source, None)
                group.append(j)
                j += 1
            if len(group) > 1:
                steps.append(
                    ReadRun(
                        tuple(group),
                        tuple(unique),
                        deadline=Deadline.tightest(
                            [requests[p].deadline for p in group]
                        ),
                    )
                )
                i = j
                continue
        steps.append(Single(i))
        i += 1
    return steps


def scatter_run_results(
    requests: Sequence[ApiRequest],
    run: ReadRun,
    by_source: Mapping[int, TopKResult],
    responses: list[ApiResponse | None],
) -> None:
    """Fan one coalesced batch's per-source results back to positions.

    Duplicate occurrences of a cold source are rewritten as cache hits —
    per-request dispatch would have admitted on the first occurrence
    only, and with the scheduler's lock held there is no intervening
    write, so the duplicate answers are exactly the ones per-request
    dispatch would have produced.
    """
    seen: set[int] = set()
    for position in run.positions:
        request = requests[position]
        assert isinstance(request, TopKQuery)
        result = by_source[request.source]
        if request.source in seen and result.cold:
            served = (
                dc_replace(result.served, cold=False)
                if result.served is not None
                else None
            )
            result = dc_replace(result, cold=False, served=served)
        seen.add(request.source)
        responses[position] = result


def fail_run(
    requests: Sequence[ApiRequest],
    run: ReadRun,
    error: ErrorInfo,
    snapshot_version: int,
    responses: list[ApiResponse | None],
) -> None:
    """Shape one batch failure into a typed failure per run position."""
    for position in run.positions:
        request = requests[position]
        assert isinstance(request, TopKQuery)
        responses[position] = TopKResult.failure(
            error,
            snapshot_version=snapshot_version,
            source=request.source,
        )
