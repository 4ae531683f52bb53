"""The four workloads, generated from ``--seed`` by the benchmark alone.

The server only ever sees the generated requests. Each client's stream
is an endless deterministic sequence; a run consumes the prefix that
fits in ``--seconds``, so the same seed always sends the same requests
in the same order and only the length of the prefix depends on speed.
Request bodies are encoded here, once, so the timed loop sends bytes.

A workload's *working set* (which sources are resident, which are cold)
is part of its definition and does not change with the seed: a push
costs 0.1 to 50 ms depending on the source, so 64 residents drawn anew
per seed moved every metric by more than its bound. The seed drives
everything drawn at run time: which source each read asks for, the
consistency mix, the read/write interleaving, every edge endpoint, and
the order in which cold sources are visited.
"""

from __future__ import annotations

import itertools
import json
import random
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

#: Source ids are a fixed permutation of [0, SOURCE_SPACE): the R-MAT
#: analog puts its dense vertices at the low ids.
SOURCE_SPACE = 8192
WORKING_SET_SEED = 2017
#: Write endpoints are uniform in [0, ENDPOINT_SPACE).
ENDPOINT_SPACE = 20000
#: ``repro serve --cache`` (the CLI default, stated so the plans can rely on it).
CACHE = 64
K = 10
ZIPF_S = 1.1

HOT_SOURCES = 48
WINDOW_INSERTS = 128
WINDOW_LAG = 4
READS_PER_SLIDE = 3
#: ``StoreConfig.checkpoint_interval`` default; the run stops on a batch
#: count ≡ WAL_TAIL (mod CHECKPOINT_EVERY) so recovery replays WAL_TAIL.
CHECKPOINT_EVERY = 10
WAL_TAIL = 5
PROBES = 8
MIXED_SOURCES = 64
MIXED_WRITE_SHARE = 0.2
MIXED_INSERTS = 16
BOUNDED_LAG = 4

QUERY = "/v1/query"
INGEST = "/v1/ingest"


@dataclass(frozen=True)
class Op:
    """One request: what to send and what its answer must satisfy."""

    kind: str  # "read" | "write"
    path: str
    body: bytes
    source: int = -1
    #: Versions a read may lag the last write acknowledged on its
    #: connection (FRESH 0, BOUNDED(b) b, ANY None).
    max_lag: int | None = 0
    updates: int = 0


@dataclass
class Plan:
    """Everything one workload run needs, all derived from the seed."""

    name: str
    server_args: tuple[str, ...]
    clients: int
    warmup: list[Op]
    streams: list[Iterator[Op]]
    store: bool = False
    #: May the run stop after this many timed ops (single-client plans)?
    may_stop: Callable[[int], bool] = field(default=lambda done: True)
    #: Reads sent after the timed phase whose answers recovery must match.
    probes: list[Op] = field(default_factory=list)
    #: Workers of the sharded tier are separate processes: no traced run.
    sharded: bool = False
    has_writes: bool = False
    #: Every timed read hits the cache (else: every one misses and evicts).
    all_hits: bool = True


def read_op(source: int, level: str = "fresh", bound: int = 0) -> Op:
    consistency: dict[str, object] = {"level": level}
    max_lag: int | None = 0
    if level == "bounded":
        consistency["bound"] = bound
        max_lag = bound
    elif level == "any":
        max_lag = None
    body = {"op": "top_k", "source": source, "k": K, "consistency": consistency}
    return Op("read", QUERY, _encode(body), source=source, max_lag=max_lag)


def write_op(updates: list[tuple[int, int, str]]) -> Op:
    body = {"updates": [list(update) for update in updates]}
    return Op("write", INGEST, _encode(body), updates=len(updates))


def _encode(body: dict) -> bytes:
    return json.dumps(body, separators=(",", ":")).encode("ascii")


def _permutation() -> list[int]:
    return random.Random(WORKING_SET_SEED).sample(range(SOURCE_SPACE), SOURCE_SPACE)


def _zipf_cum_weights(n: int) -> list[float]:
    return list(itertools.accumulate(1.0 / rank**ZIPF_S for rank in range(1, n + 1)))


def _zipf_reads(rng: random.Random, sources: list[int]) -> Iterator[Op]:
    ops = [read_op(s) for s in sources]
    cum = _zipf_cum_weights(len(ops))
    while True:
        yield rng.choices(ops, cum_weights=cum)[0]


def _edge(rng: random.Random) -> tuple[int, int]:
    u = rng.randrange(ENDPOINT_SPACE)
    v = rng.randrange(ENDPOINT_SPACE - 1)
    return u, v + (v >= u)  # uniform over v != u


def sliding_window(rng: random.Random) -> Iterator[Op]:
    """Batches of WINDOW_INSERTS inserts plus the deletes of the batch
    WINDOW_LAG slides back — deletes only ever name this run's live edges."""
    history: list[list[tuple[int, int]]] = []
    while True:
        inserts = [_edge(rng) for _ in range(WINDOW_INSERTS)]
        history.append(inserts)
        updates = [(u, v, "insert") for u, v in inserts]
        if len(history) > WINDOW_LAG:
            updates += [(u, v, "delete") for u, v in history.pop(0)]
        yield write_op(updates)


def hot_reads(seed: int) -> Plan:
    sources = _permutation()[:HOT_SOURCES]
    return Plan(
        name="hot_reads",
        server_args=(),
        clients=2,
        warmup=[read_op(s) for s in sources],
        streams=[
            _zipf_reads(random.Random(seed * 7919 + client), sources)
            for client in range(2)
        ],
    )


def cold_reads(seed: int) -> Plan:
    perm = _permutation()
    prefill, rest = perm[:CACHE], perm[CACHE:]
    random.Random(seed * 7919 + 1).shuffle(rest)
    return Plan(
        name="cold_reads",
        server_args=(),
        clients=2,
        warmup=[read_op(s) for s in prefill],
        # Distinct sources per client; a wrap-around is ~4000 reads later,
        # far beyond the cache's 64 entries, so it is still a miss.
        streams=[
            itertools.cycle([read_op(s) for s in rest[client::2]])
            for client in range(2)
        ],
        all_hits=False,
    )


def write_stream(seed: int) -> Plan:
    residents = _permutation()[:CACHE]
    rng = random.Random(seed * 7919 + 2)
    batches = sliding_window(rng)
    reads = _zipf_reads(rng, residents)

    def slides() -> Iterator[Op]:
        while True:
            yield next(batches)
            for _ in range(READS_PER_SLIDE):
                yield next(reads)

    stream = slides()
    per_slide = 1 + READS_PER_SLIDE
    # The first WINDOW_LAG batches are insert-only; priming them untimed
    # makes every timed batch the full insert+delete slide.
    warmup = [read_op(s) for s in residents]
    warmup += list(itertools.islice(stream, WINDOW_LAG * per_slide))

    def may_stop(done: int) -> bool:
        batches_sent = WINDOW_LAG + done // per_slide
        return done % per_slide == 0 and batches_sent % CHECKPOINT_EVERY == WAL_TAIL

    return Plan(
        name="write_stream",
        server_args=(),
        clients=1,
        warmup=warmup,
        streams=[stream],
        store=True,
        may_stop=may_stop,
        probes=[read_op(s) for s in residents[:PROBES]],
        has_writes=True,
    )


def mixed_shards2(seed: int) -> Plan:
    sources = _permutation()[:MIXED_SOURCES]
    rng = random.Random(seed * 7919 + 3)
    cum = _zipf_cum_weights(len(sources))
    levels = (("fresh", 0), ("fresh", 0), ("bounded", BOUNDED_LAG), ("any", 0))
    reads = {level: [read_op(s, *level) for s in sources] for level in set(levels)}

    def stream() -> Iterator[Op]:
        while True:
            if rng.random() < MIXED_WRITE_SHARE:
                edges = [_edge(rng) for _ in range(MIXED_INSERTS)]
                yield write_op([(u, v, "insert") for u, v in edges])
            else:
                yield rng.choices(reads[rng.choice(levels)], cum_weights=cum)[0]

    return Plan(
        name="mixed_shards2",
        server_args=("--shards", "2"),
        clients=1,
        warmup=[read_op(s) for s in sources],
        streams=[stream()],
        sharded=True,
        has_writes=True,
    )


WORKLOADS: dict[str, Callable[[int], Plan]] = {
    "hot_reads": hot_reads,
    "cold_reads": cold_reads,
    "write_stream": write_stream,
    "mixed_shards2": mixed_shards2,
}
