"""The worker-group runtime (:mod:`repro.workers`), without a PPR engine.

:class:`~repro.workers.WorkerGroup` is driven with an echo worker, so
what is under test is the supervisor itself: the spawn handshake, the
one await loop and its hooks, retry-once / abandon-on-deadline rounds,
the per-slot respawn budget, and the bounded drain. The two tiers'
policies on top of it are covered by ``test_cluster.py`` and
``test_shard.py``.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from collections import Counter

import pytest

from repro import workers
from repro.api.requests import Deadline
from repro.errors import ClusterError, DeadlineError
from repro.workers import BYE, HELLO, SHUTDOWN, WorkerGroup


def echo_main(spec: dict, conn) -> None:
    """``(echo, ticket, payload, delay)`` -> ``(echoed, ticket, payload)``."""
    if spec.get("mute"):
        time.sleep(60)  # never says hello
    if spec.get("stillborn"):
        os._exit(3)
    conn.send((HELLO, 7))
    while True:
        try:
            frame = conn.recv()
        except (EOFError, OSError):
            break
        if frame[0] == SHUTDOWN:
            conn.send((BYE, 7))
            break
        if spec.get("poison"):
            os._exit(3)  # dies on its first request
        _, ticket, payload, delay = frame
        conn.send(("note", payload))  # unsolicited, before the answer
        time.sleep(delay)
        conn.send(("echoed", ticket, payload))


def echo(payload: str, delay: float = 0.0):
    return lambda ticket: ("echo", ticket, payload, delay)


class Hooks:
    """The policy side of the runtime, recording what it is told."""

    def __init__(self) -> None:
        self.group: WorkerGroup
        self.respawn_spec: dict = {}
        self.notes: list[tuple[int, str]] = []
        self.outcomes: list[tuple[int, bool]] = []

    def respawn(self, index: int):
        return self.group.spawn(index, self.respawn_spec)[0]

    def on_frame(self, index: int, frame: tuple) -> bool:
        if frame[0] != "note":
            return False
        self.notes.append((index, frame[1]))
        return True

    def on_outcome(self, index: int, ok: bool) -> None:
        self.outcomes.append((index, ok))


@pytest.fixture
def make_group():
    groups: list[WorkerGroup] = []

    def make(workers: int = 1, max_respawns: int = 3) -> WorkerGroup:
        hooks = Hooks()
        group = WorkerGroup(
            "echo",
            "echo",
            "echo.crashed",
            echo_main,
            hooks,
            max_respawns=max_respawns,
            counters=Counter(),
        )
        hooks.group = group
        groups.append(group)
        for index in range(workers):
            handle, version = group.spawn(index, {})
            assert version == 7 and handle.applied_version == 7
            group.handles.append(handle)
        return group

    yield make
    for group in groups:
        group.close(deadline_s=1.0)


def echo_children() -> list:
    return [
        child
        for child in multiprocessing.active_children()
        if child.name.startswith("ppr-echo-")
    ]


def kill(group: WorkerGroup, index: int, sig: int = signal.SIGKILL) -> None:
    os.kill(group.handles[index].process.pid, sig)


class TestSpawn:
    def test_handshake_timeout_is_typed_and_leaves_no_child(
        self, make_group, monkeypatch
    ):
        monkeypatch.setattr(workers, "SPAWN_TIMEOUT_S", 0.3)
        group = make_group(workers=0)
        with pytest.raises(ClusterError, match="spawn handshake"):
            group.spawn(0, {"mute": True})
        assert echo_children() == []

    def test_death_during_spawn_is_typed_and_leaves_no_child(self, make_group):
        group = make_group(workers=0)
        with pytest.raises(ClusterError):
            group.spawn(0, {"stillborn": True})
        assert echo_children() == []


class TestCall:
    def test_retries_once_on_sigkill(self, make_group):
        group = make_group()
        kill(group, 0)
        reply = group.call(0, echo("a"), "echoed")
        assert reply[2] == "a"
        assert group.counters["respawns"] == 1
        assert group.hooks.outcomes == [(0, False), (0, True)]

    def test_second_death_in_one_call_raises(self, make_group):
        group = make_group()
        group.hooks.respawn_spec = {"poison": True}
        kill(group, 0)
        with pytest.raises(ClusterError, match="died twice"):
            group.call(0, echo("a"), "echoed")
        assert group.counters["respawns"] == 1

    def test_no_retry_reports_the_death_and_leaves_the_slot_alone(self, make_group):
        group = make_group()
        kill(group, 0)
        assert group.call(0, echo("a"), "echoed", retry=False) is None
        assert group.counters["respawns"] == 0

    def test_sigstopped_worker_degrades_to_deadline_and_respawn(self, make_group):
        group = make_group()
        kill(group, 0, signal.SIGSTOP)
        start = time.monotonic()
        with pytest.raises(DeadlineError):
            group.call(0, echo("a"), "echoed", Deadline.after_ms(200.0))
        assert time.monotonic() - start < 10.0
        assert group.counters["respawns"] == 1
        assert group.call(0, echo("b"), "echoed")[2] == "b"

    def test_budget_is_per_slot_and_exhaustion_is_typed(self, make_group):
        group = make_group(workers=2, max_respawns=1)
        for index in (0, 1):
            kill(group, index)
            assert group.call(index, echo("a"), "echoed")[2] == "a"
        assert group.counters["respawns"] == 2
        kill(group, 0)
        with pytest.raises(ClusterError, match="budget"):
            group.call(0, echo("a"), "echoed")


class TestAwait:
    def test_late_reply_to_an_abandoned_ticket_is_absorbed(self, make_group):
        group = make_group()
        stale = group.send(0, echo("stale"))
        group.abandon({0: stale})
        assert group.call(0, echo("b"), "echoed")[2] == "b"
        handle = group.handles[0]
        assert handle.pending == [] and handle.abandoned == set()

    def test_unsolicited_frames_reach_on_frame_while_another_is_awaited(
        self, make_group
    ):
        group = make_group(workers=2)
        early = group.send(1, echo("from-1"))
        # Worker 0 answers late, so worker 1's note and reply both land
        # while slot 0 is the one being awaited.
        assert group.call(0, echo("from-0", delay=0.3), "echoed")[2] == "from-0"
        assert (1, "from-1") in group.hooks.notes
        assert [f[0] for f in group.handles[1].pending] == ["echoed"]
        assert group.await_reply(1, "echoed", early)[2] == "from-1"
        assert group.handles[1].pending == []

    def test_abandoning_an_already_buffered_reply_drops_it(self, make_group):
        group = make_group(workers=2)
        early = group.send(1, echo("from-1"))
        group.call(0, echo("from-0", delay=0.3), "echoed")
        assert len(group.handles[1].pending) == 1
        group.abandon({1: early})
        assert group.handles[1].pending == []
        assert group.handles[1].abandoned == set()

    def test_failed_round_abandons_its_siblings_tickets(self, make_group):
        group = make_group(workers=2)
        kill(group, 0, signal.SIGSTOP)
        with pytest.raises(DeadlineError):
            group.round(
                {0: echo("a"), 1: echo("slow", delay=0.5)},
                "echoed",
                Deadline.after_ms(150.0),
            )
        # Slot 1 was healthy, merely slower than the deadline: its late
        # answer must not be mistaken for (or buffered ahead of) the next.
        assert group.call(1, echo("next"), "echoed")[2] == "next"
        assert group.handles[1].pending == []
        assert group.counters["respawns"] == 1  # only the wedged slot

    def test_drain_absorbs_without_blocking(self, make_group):
        group = make_group()
        stale = group.send(0, echo("x"))
        group.abandon({0: stale})
        deadline = time.monotonic() + 5.0
        while group.handles[0].abandoned and time.monotonic() < deadline:
            group.drain()
            time.sleep(0.01)
        assert group.handles[0].abandoned == set()
        assert group.hooks.notes == [(0, "x")]


class TestClose:
    def test_close_sigkills_stragglers_inside_the_bound(self, make_group):
        group = make_group(workers=2)
        kill(group, 0, signal.SIGSTOP)
        start = time.monotonic()
        group.close(deadline_s=0.5)
        assert time.monotonic() - start < 3.0
        assert echo_children() == []
        assert all(not handle.alive() for handle in group.handles)
