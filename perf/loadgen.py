"""Closed-loop load generator over HTTP/1.1 persistent connections.

One connection per client thread, zero think time: a client sends its
next request only after the previous answer's body has been read. The
latency of an op is send → body read on ``time.perf_counter`` (on Linux
CLOCK_MONOTONIC, the clock the traced launcher stamps spans with, so
client and server intervals can be compared). Parsing and checking the
answer happen after the clock stops.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

from perf.workloads import K, Op

REQUEST_TIMEOUT_S = 30.0
_HEADERS = {"Content-Type": "application/json"}


@dataclass
class Sample:
    """One completed (or failed) request."""

    kind: str
    sent: float
    done: float
    engine_s: float  # the response's wall_time_s
    updates: int
    error: str | None = None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.sent) * 1e3


@dataclass
class ClientLog:
    samples: list[Sample] = field(default_factory=list)
    #: Correctness violations (malformed answer, stale read), as messages.
    violations: list[str] = field(default_factory=list)
    #: Parsed answers of reads, kept only when the caller asks (probes).
    answers: list[dict] = field(default_factory=list)
    last_acked: int = 0
    timed_out: bool = False


class Client:
    """One persistent connection and the per-connection version contract."""

    def __init__(self, connect: Callable[[float], http.client.HTTPConnection]) -> None:
        self._connect = connect
        self.conn = connect(REQUEST_TIMEOUT_S)
        self.log = ClientLog()

    def close(self) -> None:
        self.conn.close()

    def send(self, op: Op, *, keep_answer: bool = False) -> Sample:
        sent = time.perf_counter()
        try:
            self.conn.request("POST", op.path, body=op.body, headers=_HEADERS)
            response = self.conn.getresponse()
            raw = response.read()
            done = time.perf_counter()
        except (OSError, http.client.HTTPException) as exc:
            done = time.perf_counter()
            # The connection state is unknown after a transport error.
            self.conn.close()
            self.conn = self._connect(REQUEST_TIMEOUT_S)
            sample = Sample(op.kind, sent, done, 0.0, op.updates, f"transport: {exc!r}")
            self.log.samples.append(sample)
            return sample
        error, answer = self._check(op, response.status, raw)
        engine_s = answer.get("wall_time_s", 0.0) if isinstance(answer, dict) else 0.0
        sample = Sample(op.kind, sent, done, float(engine_s), op.updates, error)
        self.log.samples.append(sample)
        if keep_answer and isinstance(answer, dict):
            self.log.answers.append(answer)
        return sample

    def _check(self, op: Op, status: int, raw: bytes) -> tuple[str | None, object]:
        """A failed request gets an error; a wrong answer gets a violation."""
        try:
            answer = json.loads(raw)
        except ValueError:
            return f"status {status}, body is not JSON", None
        if status != 200 or not isinstance(answer, dict) or answer.get("ok") is not True:
            return f"status {status}: {str(answer)[:200]}", answer
        version = answer.get("snapshot_version")
        if not isinstance(version, int):
            self.log.violations.append(f"{op.kind}: no snapshot_version")
            return None, answer
        if op.kind == "write":
            if answer.get("accepted") != op.updates:
                self.log.violations.append(
                    f"write acknowledged {answer.get('accepted')} of {op.updates}"
                )
            self.log.last_acked = max(self.log.last_acked, version)
            return None, answer
        problem = check_top_k(answer)
        if problem is not None:
            self.log.violations.append(f"source {op.source}: {problem}")
        if op.max_lag is not None and version < self.log.last_acked - op.max_lag:
            self.log.violations.append(
                f"source {op.source}: read at v{version} but v{self.log.last_acked}"
                f" was acknowledged on this connection (allowed lag {op.max_lag})"
            )
        return None, answer


def check_top_k(answer: dict) -> str | None:
    """K entries, sorted by estimate descending, every estimate in [0, 1]."""
    entries = answer.get("entries")
    if not isinstance(entries, list) or len(entries) != K:
        return f"want {K} entries, got {entries if entries is None else len(entries)}"
    previous = 1.0
    for entry in entries:
        estimate = entry.get("estimate") if isinstance(entry, dict) else None
        if not isinstance(estimate, (int, float)) or not 0.0 <= estimate <= 1.0:
            return f"estimate out of [0, 1]: {estimate!r}"
        if estimate > previous:
            return "entries not sorted by estimate descending"
        previous = estimate
    return None


def run_sequence(client: Client, ops: list[Op], *, keep_answers: bool = False) -> None:
    """Send ``ops`` in order on one connection (warm-up, probes)."""
    for op in ops:
        client.send(op, keep_answer=keep_answers)


def run_timed(
    clients: list[Client],
    streams: list[Iterator[Op]],
    seconds: float,
    *,
    may_stop: Callable[[int], bool],
    hard_deadline: float,
    after_op: Callable[[Op], None] | None = None,
) -> tuple[float, float]:
    """Drive every client for ``seconds``; returns the phase's (start, end).

    A client stops at the first op boundary past the deadline where
    ``may_stop(ops_done)`` holds. Past ``hard_deadline`` (monotonic) it
    stops regardless and is marked timed out — a failed run, not a hang.
    """
    barrier = threading.Barrier(len(clients) + 1)
    marks = [len(client.log.samples) for client in clients]

    def loop(client: Client, stream: Iterator[Op], mark: int) -> None:
        barrier.wait()
        deadline = time.perf_counter() + seconds
        while True:
            done = len(client.log.samples) - mark
            now = time.perf_counter()
            if now >= deadline and may_stop(done):
                return
            if time.monotonic() >= hard_deadline:
                client.log.timed_out = True
                return
            op = next(stream)
            client.send(op)
            if after_op is not None:
                after_op(op)

    threads = [
        threading.Thread(target=loop, args=(client, stream, mark), daemon=True)
        for client, stream, mark in zip(clients, streams, marks)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    return start, time.perf_counter()
