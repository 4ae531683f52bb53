"""Span-tree arithmetic: self times and per-request layer breakdowns.

A span is a dict ``{"id", "name", "start", "end", "parent", "request",
"attrs"}`` with times in seconds on the shared monotonic clock; ``parent``
is the id of the span that caused it (-1 for a request's root) and
``request`` the id of that root. A layer's self time is its span's
duration minus the part its child spans cover. Requests run on one
thread each, so siblings never overlap and the covered part is the sum
of the children's durations; self times therefore sum to the root span.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable

Span = dict


def duration(span: Span) -> float:
    return span["end"] - span["start"]


def layer_of(name: str) -> str:
    """``core.push`` for ``core.push``, ``api.http`` for ``api.http.parse``:
    the first two dotted components name the layer."""
    return ".".join(name.split(".")[:2])


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id → duration minus the durations of its direct children."""
    spans = list(spans)
    own = {span["id"]: duration(span) for span in spans}
    for span in spans:
        if span["parent"] in own:
            own[span["parent"]] -= duration(span)
    return own


def by_request(spans: Iterable[Span]) -> dict[int, list[Span]]:
    grouped: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        grouped[span["request"]].append(span)
    return dict(grouped)


def layer_self_times(request_spans: list[Span]) -> dict[str, float]:
    """Layer → summed self time over one request's spans."""
    own = self_times(request_spans)
    out: dict[str, float] = defaultdict(float)
    for span in request_spans:
        out[layer_of(span["name"])] += own[span["id"]]
    return dict(out)


def reconciliation_error(request_spans: list[Span]) -> float:
    """|Σ self times − root span| as a share of the root span."""
    root = next(s for s in request_spans if s["parent"] == -1)
    total = sum(self_times(request_spans).values())
    span = duration(root)
    return abs(total - span) / span if span > 0 else 0.0


def has_ancestor(span: Span, index: dict[int, Span], name: str) -> bool:
    parent = index.get(span["parent"])
    while parent is not None:
        if parent["name"] == name:
            return True
        parent = index.get(parent["parent"])
    return False
