"""Scripted fault schedules: *what* fails, *where*, and on *which visit*.

A :class:`FaultPlan` is a deterministic script over **virtual steps**,
not wall-clock time: every injection point in the stack (a *site*, e.g.
``wal.fsync`` or ``replica.apply``) counts its own visits, and a
:class:`Fault` fires on an exact visit number. Re-running the same
workload against the same plan injects the same faults at the same
instants — which is what makes the recovery paths of the cluster tier
(`docs/faults.md`) *testable* instead of merely plausible.

Plans are plain frozen dataclasses with a JSON round-trip, so they can
ride a :class:`~repro.cluster.replica.ReplicaSpec` into worker
processes, travel on a CLI flag (``repro serve --chaos plan.json``), or
be built inline by tests.

Sites currently threaded through the stack:

=====================  ==================================================
site                   seam (process)
=====================  ==================================================
``primary.apply``      before a write applies on the primary (coordinator)
``cluster.ship``       per-replica delta ship (coordinator; ``replica=``)
``wal.fsync``          before the WAL fsync (whoever owns the store)
``checkpoint.write``   on the checkpoint writer thread, before any file I/O
``checkpoint.rename``  between a tmp-write and its atomic rename (once per
                       file: the graph base of a rebase, then the checkpoint)
``checkpoint.compact`` after the checkpoint is durable, before anything it
                       made redundant is deleted
``replica.apply``      before a replica applies a shipped delta (worker)
``replica.serve``      before a replica serves a read frame (worker)
``shard.apply``        before a shard applies a write batch (shard worker)
``shard.exchange``     per frontier-exchange relay (coordinator; ``replica=``
                       carries the *requesting* shard index)
=====================  ==================================================
"""

from __future__ import annotations

import enum
import json
import os
from dataclasses import dataclass, field
from typing import Any

from ..errors import ConfigError

PathLike = str | os.PathLike


class FaultKind(enum.Enum):
    """What happens when a fault fires at its site.

    ``ERROR``
        Raise an ``OSError`` at the site (an injected I/O failure: fsync
        error, pipe error, torn rename window). The stack's normal error
        handling must contain it.
    ``CRASH``
        Die on the spot. In a worker process this is ``os._exit`` (the
        moral equivalent of SIGKILL); at the coordinator's
        ``primary.apply`` site it marks the embedded primary dead, which
        is what forces a failover.
    ``WEDGE``
        Stop making progress without dying (the SIGSTOP analog): the
        site blocks forever. Deadlines, response timeouts, and circuit
        breakers must route around it.
    ``DROP``
        Discard the action (a dropped pipe frame / lost delta). The
        receiver sees a sequence gap and must recover.
    ``DUP``
        Perform the send twice (a duplicated frame). Idempotent apply
        must absorb it.
    ``DELAY``
        Hold the frame back one virtual step, so the *next* frame
        overtakes it (reordering on a FIFO channel). The receiver sees a
        gap and must recover.
    """

    ERROR = "error"
    CRASH = "crash"
    WEDGE = "wedge"
    DROP = "drop"
    DUP = "dup"
    DELAY = "delay"


@dataclass(frozen=True)
class Fault:
    """One scripted fault: fire ``kind`` at ``site`` on visit ``at``.

    ``at`` is 1-based and counted per matching fault (each fault keeps
    its own visit counter), so two faults on the same site script
    independently. ``count`` fires the fault on that many *consecutive*
    visits. ``replica`` restricts the fault to one worker (sites that
    concern a specific replica pass the index; ``None`` matches any).
    """

    site: str
    kind: FaultKind
    at: int = 1
    count: int = 1
    replica: int | None = None
    message: str = ""

    def __post_init__(self) -> None:
        if not self.site:
            raise ConfigError("fault site must be non-empty")
        if not isinstance(self.kind, FaultKind):
            raise ConfigError(f"kind must be a FaultKind, got {self.kind!r}")
        if self.at < 1:
            raise ConfigError(f"at must be >= 1 (1-based visit), got {self.at}")
        if self.count < 1:
            raise ConfigError(f"count must be >= 1, got {self.count}")
        if self.replica is not None and self.replica < 0:
            raise ConfigError(f"replica must be >= 0, got {self.replica}")

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "site": self.site,
            "kind": self.kind.value,
            "at": self.at,
        }
        if self.count != 1:
            payload["count"] = self.count
        if self.replica is not None:
            payload["replica"] = self.replica
        if self.message:
            payload["message"] = self.message
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Fault":
        try:
            kind = FaultKind(payload["kind"])
        except (KeyError, ValueError):
            raise ConfigError(
                f"fault needs a valid 'kind', got {payload.get('kind')!r}"
            ) from None
        if "site" not in payload:
            raise ConfigError("fault needs a 'site'")
        return cls(
            site=str(payload["site"]),
            kind=kind,
            at=int(payload.get("at", 1)),
            count=int(payload.get("count", 1)),
            replica=(
                int(payload["replica"]) if payload.get("replica") is not None else None
            ),
            message=str(payload.get("message", "")),
        )


@dataclass(frozen=True)
class FaultPlan:
    """An ordered script of faults, shared by every process of a cluster.

    The plan itself is immutable; per-process firing state lives in the
    :class:`~repro.chaos.injector.ChaosInjector` it is installed into.
    """

    faults: tuple[Fault, ...] = ()
    name: str = "plan"

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        for fault in self.faults:
            if not isinstance(fault, Fault):
                raise ConfigError(f"faults must be Fault objects, got {fault!r}")

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "faults": [f.to_dict() for f in self.faults]}

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "FaultPlan":
        if not isinstance(payload, dict) or "faults" not in payload:
            raise ConfigError("a fault plan is an object with a 'faults' array")
        faults = payload["faults"]
        if not isinstance(faults, list):
            raise ConfigError("'faults' must be a JSON array")
        return cls(
            faults=tuple(Fault.from_dict(item) for item in faults),
            name=str(payload.get("name", "plan")),
        )

    @classmethod
    def load(cls, path: PathLike) -> "FaultPlan":
        """Parse a plan from a JSON file (the ``--chaos`` CLI flag)."""
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def dump(self, path: PathLike) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)

    def __len__(self) -> int:
        return len(self.faults)

    def __repr__(self) -> str:
        return f"FaultPlan(name={self.name!r}, faults={len(self.faults)})"
