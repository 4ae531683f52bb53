"""``repro.chaos`` — deterministic fault injection for the serving stack.

Failure is an input, not an accident: a :class:`FaultPlan` scripts
faults (pipe drops, duplicated/delayed WAL frames, fsync errors, replica
wedge/crash, primary kill) in **virtual steps** — exact visit counts at
named injection sites threaded through :mod:`repro.cluster`,
:mod:`repro.store`, and :mod:`repro.api` — so every run of the same
workload hits the same faults at the same points. The process-wide
:data:`INJECTOR` fires them; each injection is emitted as a
``chaos.inject`` span event so a trace shows fault and recovery in one
tree.

Usage::

    from repro import chaos

    plan = chaos.FaultPlan(
        faults=(
            chaos.Fault("replica.apply", chaos.FaultKind.CRASH, at=2, replica=1),
            chaos.Fault("wal.fsync", chaos.FaultKind.ERROR, at=3),
        ),
        name="kill-and-fsync",
    )
    chaos.install(plan)          # coordinator process
    ...                          # drive the workload; faults fire on schedule
    chaos.injected()             # -> what actually fired, in order
    chaos.reset()

Cluster workers receive the same plan via their
:class:`~repro.cluster.replica.ReplicaSpec` and install it with their
own replica id, so ``replica=``-scoped faults fire only in the right
process. ``repro serve --chaos plan.json`` installs a plan into a live
server; ``scripts/chaos_smoke.py`` drives the scripted schedule CI
gates on over HTTP, ``tests/test_chaos.py`` the in-process ones. See ``docs/faults.md`` for the failure
matrix each fault kind exercises.
"""

from __future__ import annotations

from .injector import (
    INJECTOR,
    ChaosInjector,
    check,
    fire,
    injected,
    install,
    reset,
)
from .plan import Fault, FaultKind, FaultPlan

__all__ = [
    "INJECTOR",
    "ChaosInjector",
    "Fault",
    "FaultKind",
    "FaultPlan",
    "check",
    "fire",
    "injected",
    "install",
    "reset",
]
