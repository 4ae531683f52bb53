"""Wire protocol of the sharded serving tier (:mod:`repro.shard`).

Frames travel over :class:`multiprocessing.Pipe` channels between the
coordinating :class:`~repro.shard.gateway.ShardedGateway` and its shard
workers, as plain picklable tuples whose first element is one of the tag
constants below. Anything bulky — write batches, frontier requests,
in-adjacency rows — rides inside the frame as *bytes* produced by the
WAL codec (:func:`repro.store.wal.pack_payload`), so a frame damaged in
transit is rejected by the same CRC check that rejects a torn WAL tail,
and the ``seq`` slot of the framing doubles as the graph version both
sides must agree on.

Coordinator -> shard::

    (APPLY,      ticket, frame_bytes, ctx)        # full write batch (WAL frame)
    (VALIDATE,   ticket, frame_bytes)             # simulate batch, no mutation
    (REQUESTS,   ticket, request)                 # one typed read request
    (EXCHANGE,   ticket, requester, frame_bytes)  # serve a peer's row fetch
    (FETCHED,    ticket, frame_bytes | None)      # answer to this shard's FETCH
    (REGISTER,   ticket, ids)                     # register vertex ids (no edges)
    (CHECKPOINT, ticket)                          # write a checkpoint now
    (STATUS,     ticket)                          # report the status payload
    (TAIL,       ticket, after_seq)               # re-frame own WAL tail
    (SHUTDOWN,)                                   # exit the worker loop

Shard -> coordinator::

    (HELLO,        version)                           # spawn handshake
    (APPLIED,      ticket, version, response, spans)  # APPLY outcome (ApiResponse)
    (VALIDATED,    ticket, error_info | None)         # VALIDATE verdict
    (RESPONSES,    ticket, responses, version, spans) # REQUESTS answers
    (FETCH,        ticket, owner, frame_bytes)        # fetch rows from a peer
    (EXCHANGED,    ticket, requester, frame_bytes)    # EXCHANGE answer
    (REGISTERED,   ticket, capacity)                  # REGISTER ack
    (CHECKPOINTED, ticket, version, path | None)      # CHECKPOINT outcome
    (STATUSED,     ticket, payload)                   # STATUS payload
    (TAILED,       ticket, frames)                    # TAIL answer (WAL frames)
    (BYE,          version)                           # orderly exit

``FETCH`` is the one *unsolicited* shard-to-coordinator frame: a shard
mid-push that needs a remote vertex's in-adjacency row emits it and
blocks until the matching ``FETCHED`` arrives, serving any ``EXCHANGE``
frames (pure reads) that reach it in the meantime. The coordinator
relays the request to the owning shard as ``EXCHANGE`` and the owner's
``EXCHANGED`` back as ``FETCHED`` — see ``docs/sharding.md`` for why the
relayed star topology cannot deadlock.

Two payload codecs ride the :func:`pack_payload` framing:

* a **frontier request** (:func:`encode_frontier`) is an ``(n, 2)``
  little-endian int64 array — column 0 the vertex ids whose rows are
  wanted, column 1 the requester's residual mass on each (float64
  bit-cast to int64: informational, carried so traces and future
  mass-aware owners can see what the requester is pushing);
* a **row reply** (:func:`encode_rows`) is a flat int64 array
  ``[n, ids..., lengths..., targets...]`` — the ``n`` requested ids, the
  length of each id's in-row, then the rows concatenated *in request
  order*, each row in the owner's insertion order (the order contract
  that keeps sharded pushes bit-identical to the single-process oracle).
"""

from __future__ import annotations

import numpy as np

from ..errors import StoreError
from ..store.wal import pack_payload, unpack_payload

# Coordinator -> shard (``REQUESTS`` and ``SHUTDOWN`` are shared with the
# replicated tier and live in :mod:`repro.workers`).
APPLY = "apply"
VALIDATE = "validate"
EXCHANGE = "exchange"
FETCHED = "fetched"
REGISTER = "register"
CHECKPOINT = "checkpoint"
STATUS = "status"
TAIL = "tail"

# Shard -> coordinator (``HELLO``, ``RESPONSES`` and ``BYE`` are shared
# and live in :mod:`repro.workers`).
APPLIED = "applied"
VALIDATED = "validated"
FETCH = "fetch"
EXCHANGED = "exchanged"
REGISTERED = "registered"
CHECKPOINTED = "checkpointed"
STATUSED = "statused"
TAILED = "tailed"


def pack_frontier(version: int, ids: np.ndarray, weights: np.ndarray) -> bytes:
    """Frame one frontier request: remote ids + residual mass at ``version``."""
    ids = np.asarray(ids, dtype="<i8")
    weights = np.asarray(weights, dtype="<f8")
    rows = np.empty((len(ids), 2), dtype="<i8")
    rows[:, 0] = ids
    rows[:, 1] = weights.view("<i8")
    return pack_payload(version, rows.tobytes())


def unpack_frontier(frame: bytes) -> tuple[int, np.ndarray, np.ndarray]:
    """Decode one :func:`pack_frontier` frame -> ``(version, ids, weights)``."""
    version, _, payload = unpack_payload(frame)
    if len(payload) % 16:
        raise StoreError(
            f"malformed frontier payload: {len(payload)} bytes is not (n, 2) int64"
        )
    rows = np.frombuffer(payload, dtype="<i8").reshape(-1, 2)
    return version, rows[:, 0].copy(), rows[:, 1].copy().view("<f8")


def pack_rows(version: int, ids: np.ndarray, rows: list[np.ndarray]) -> bytes:
    """Frame one row reply: each requested id's in-row, in request order."""
    ids = np.asarray(ids, dtype="<i8")
    lengths = np.fromiter((len(row) for row in rows), dtype="<i8", count=len(rows))
    flat = (
        np.concatenate(rows).astype("<i8", copy=False)
        if rows
        else np.empty(0, dtype="<i8")
    )
    header = np.empty(1 + 2 * len(ids), dtype="<i8")
    header[0] = len(ids)
    header[1 : 1 + len(ids)] = ids
    header[1 + len(ids) :] = lengths
    return pack_payload(version, header.tobytes() + flat.tobytes())


def unpack_rows(frame: bytes) -> tuple[int, dict[int, np.ndarray]]:
    """Decode one :func:`pack_rows` frame -> ``(version, {id: in_row})``."""
    version, _, payload = unpack_payload(frame)
    data = np.frombuffer(payload, dtype="<i8")
    if data.size < 1:
        raise StoreError("malformed row payload: empty")
    n = int(data[0])
    if n < 0 or data.size < 1 + 2 * n:
        raise StoreError(f"malformed row payload: claims {n} rows, {data.size} words")
    ids = data[1 : 1 + n]
    lengths = data[1 + n : 1 + 2 * n]
    if (lengths < 0).any() or 1 + 2 * n + int(lengths.sum()) != data.size:
        raise StoreError("malformed row payload: row lengths do not cover payload")
    out: dict[int, np.ndarray] = {}
    cursor = 1 + 2 * n
    for v, length in zip(ids.tolist(), lengths.tolist()):
        out[v] = data[cursor : cursor + length].astype(np.int64, copy=True)
        cursor += length
    return version, out
