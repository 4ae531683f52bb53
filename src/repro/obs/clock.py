"""The single monotonic clock every repro timing reads.

``time.perf_counter`` on Linux is ``CLOCK_MONOTONIC``: it never jumps
backwards, ticks at sub-microsecond resolution, and — crucial for the
cluster tier — reads the *same kernel clock in every process on the
machine*, so a span timestamped on a replica worker lines up directly
against spans timestamped on the coordinator when a trace is stitched
together across the pipes.

Everything in this library that measures a duration (:mod:`repro.obs`
spans, the gateways, the serving engine, the benchmarks) imports :func:`now` from here, so there is
exactly one time source to reason about and serve/bench timings are
directly comparable.
"""

from __future__ import annotations

import time

#: Read the monotonic clock (seconds as a float since an arbitrary epoch).
now = time.perf_counter
