"""Coordinator <-> replica wire protocol of the cluster tier.

One duplex :func:`multiprocessing.Pipe` per replica carries every frame,
which is what makes the consistency story simple: the channel is FIFO,
so a read enqueued after a write delta is *guaranteed* to be served at a
version covering that delta (FRESH reads need no catch-up round trip).

Frames are small tagged tuples (``Connection.send`` pickles them), with
one deliberate exception: write deltas travel as the **WAL record
framing** of :mod:`repro.store.wal` (:func:`~repro.store.wal.pack_record`
bytes — magic, seq, length, CRC-32, packed ``(u, v, op)`` rows). The
durability codec and the replication codec are the same bytes, so a
delta damaged in transit is rejected by the same CRC check that rejects
a torn WAL tail, and a replica applying frame ``seq`` is bit-for-bit
replaying what the primary logged as ``seq``.

Coordinator -> replica::

    (APPLY, frame_bytes, trace_ctx)       ordered write delta (WAL frame)
    (REQUESTS, ticket, request)           one read to serve (a typed ApiRequest)
    (PROMOTE, ticket, epoch, store_root, store_config)
                                          become primary: own the store,
                                          replay the WAL tail, fence epoch
    (INGEST, ticket, request, trace_ctx)  forwarded write (promoted primary)
    (SHUTDOWN,)                           drain and exit

Replica -> coordinator::

    (HELLO, graph_version)                spawn handshake
    (APPLIED, seq, spans)                 delta applied through version seq
    (RESPONSES, ticket, responses, graph_version, spans)
    (PROMOTED, ticket, graph_version, frames, spans)
    (BYE, graph_version)                  clean shutdown acknowledgement

``PROMOTE``/``PROMOTED`` carry the failover handshake
(``docs/faults.md``): the coordinator picks the most-caught-up live
replica, sends it the new write-authority ``epoch`` plus the store root
(or ``None`` for a storeless cluster); the replica truncates torn WAL
tails, replays records past its own applied version, attaches the store
under the new epoch, and answers with its resulting version and the
replayed records re-stamped as ``pack_record`` frames under the new
epoch — which the coordinator ships to the *other* replicas so the whole
fleet converges. After promotion, writes are forwarded as ``INGEST``
frames and answered with ordinary ``RESPONSES`` frames (ticket, one
response); replicas reject ``APPLY`` frames whose epoch predates the one
they were promoted-or-fenced into, which is what makes a zombie
primary's late deltas harmless.

``trace_ctx`` is the coordinator's active
:class:`~repro.obs.TraceContext` (or ``None``), so replica-side work
joins the request's distributed trace; ``spans`` is the replica
tracer's drained span-record outbox (a list of dicts, empty when
tracing is off), which the coordinator folds back into its own ring so
one ``GET /v1/trace/<id>`` shows the whole cross-process tree. Typed
requests shipped in ``REQUESTS`` frames carry their trace context as a
pickled instance attribute (:data:`repro.obs.TRACE_ATTR`).
"""

from __future__ import annotations

#: Coordinator -> replica tags (``REQUESTS`` and ``SHUTDOWN`` are shared
#: with the shard tier and live in :mod:`repro.workers`).
APPLY = "apply"
PROMOTE = "promote"
INGEST = "ingest"

#: Replica -> coordinator tags (``HELLO``, ``RESPONSES`` and ``BYE`` are
#: shared and live in :mod:`repro.workers`).
APPLIED = "applied"
PROMOTED = "promoted"
