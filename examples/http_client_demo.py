"""Real traffic over a socket: the HTTP front-end vs the embedded client.

Starts the stdlib HTTP/JSON front-end (``repro.api.http``, the machinery
behind ``python -m repro serve``) on an ephemeral port, drives it with
the stdlib :class:`repro.api.HttpClient` — queries at different
consistency levels, a conditional ingest, a scheduled (read-coalesced)
request sequence, stats — and verifies the protocol's core promise: an
answer served over HTTP is **bit-identical** to the embedded client's
for the same snapshot version.

Run:  PYTHONPATH=src python examples/http_client_demo.py
Docs: docs/api.md
"""

from __future__ import annotations

import threading

from repro import ConflictError, DynamicDiGraph, PPRService, ServeConfig
from repro.api import HttpClient, make_server
from repro.graph.generators import erdos_renyi_graph
from repro.utils.rng import ensure_rng


def main() -> None:
    # A small random social graph, served through the gateway's HTTP seam.
    edges = erdos_renyi_graph(60, 400, rng=ensure_rng(29))
    service = PPRService(
        DynamicDiGraph(map(tuple, edges.tolist())),
        serve=ServeConfig(cache_capacity=16, top_k=5),
    )
    server = make_server(service.gateway, port=0)  # port 0: OS picks one
    threading.Thread(target=server.serve_forever, daemon=True).start()
    http = HttpClient(server.url)
    print(f"serving {service} on {server.url}\n")

    health = http.healthz()
    print(f"GET /v1/healthz -> {health['status']},"
          f" n={health['num_vertices']} m={health['num_edges']}")

    # One user's recommendations, fresh; then a conditional write.
    answer = http.query({"source": 0, "k": 3})
    top = ", ".join(f"v{e['vertex']}:{e['estimate']:.4f}" for e in answer["entries"])
    print(f"POST /v1/query  -> top-3 for u0 [{'cold' if answer['cold'] else 'hit'}]:"
          f" {top}")
    acknowledged = http.ingest([[0, 1], [1, 0]], expect_version=0)
    print(f"POST /v1/ingest -> version {acknowledged['previous_version']}"
          f" -> {acknowledged['snapshot_version']}")
    try:
        http.ingest([[2, 3]], expect_version=0)  # the version moved
    except ConflictError as exc:
        print(f"stale expect_version -> CONFLICT: {exc}")

    # Consistency levels: a bounded read may serve the pre-write state.
    stale = http.query({"source": 0, "k": 3,
                        "consistency": {"level": "bounded", "bound": 5}})
    fresh = http.query({"source": 0, "k": 3})
    print(f"bounded(5) read -> version {stale['snapshot_version']},"
          f" fresh read -> version {fresh['snapshot_version']}")

    # A scheduled sequence: reads coalesce between the write barriers.
    burst = [{"source": s, "k": 3, "consistency": "any"} for s in (0, 7, 0, 7, 0)]
    responses = http.query_many(burst + [{"op": "stats"}])
    coalesced = responses[-1]["stats"]["gateway"]["reads_coalesced"]
    print(f"scheduled burst of {len(burst)} reads -> {coalesced} duplicates"
          f" answered by one certify each")

    # The protocol promise: HTTP floats are the embedded client's floats.
    over_http = http.query({"source": 0, "k": 5})
    embedded = service.api.top_k(0, k=5)
    assert over_http["snapshot_version"] == embedded.snapshot_version
    assert [(e["vertex"], e["estimate"]) for e in over_http["entries"]] == [
        (e.vertex, e.estimate) for e in embedded.entries
    ], "HTTP answer diverged from the embedded client"
    print("\nHTTP top-5 is bit-identical to the embedded client's"
          f" at version {embedded.snapshot_version}")

    server.shutdown()
    server.server_close()


if __name__ == "__main__":
    main()
