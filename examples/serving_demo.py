"""Serving top-k PPR queries while the graph keeps changing.

A miniature who-to-follow deployment (the workload of the paper's
Section 6): one :class:`repro.serve.PPRService` owns the dynamic graph
and answers recommendation queries for a mix of users from maintained
state, while a sliding stream of follow/unfollow events is ingested
between query bursts. Traffic flows through the typed gateway API's
embedded :class:`repro.api.Client` (the canonical entry point — the same
protocol ``python -m repro serve`` exposes over HTTP; see docs/api.md).
Demonstrates cold admission, LRU residency, lazy per-query refresh, the
always-fresh hub tier, and the freshness contract (served answers match
a from-scratch recomputation at the same ε).

Run:  PYTHONPATH=src python examples/serving_demo.py
Docs: docs/serving.md
"""

from __future__ import annotations

from repro.graph.workloads import WorkloadSpec, default_config, prepare_workload
from repro.config import Backend, ServeConfig
from repro.core.certify import certified_top_k, topk_matches
from repro.core.push_parallel import parallel_local_push
from repro.core.state import PPRState
from repro.graph.csr import CSRGraph
from repro.serve import PPRService


def main() -> None:
    prepared = prepare_workload(WorkloadSpec(dataset="youtube"))
    config = default_config(epsilon=1e-5).with_(backend=Backend.NUMPY)
    graph = prepared.initial_graph()
    service = PPRService(
        graph,
        config,
        ServeConfig(cache_capacity=8, num_hubs=4, top_k=5),
    )
    client = service.api  # the typed gateway's embedded client
    print(f"workload: {prepared.describe()}")
    print(f"service:  {service}\n")

    # A small user mix: the workload source plus a few of the hub vertices'
    # neighbors — admitted cold on first query, resident afterwards.
    users = [prepared.source] + service.hubs[:3]
    for user in users:
        answer = client.top_k(user)
        kind = "cold admission" if answer.cold else "cache hit"
        top = ", ".join(f"v{e.vertex}:{e.estimate:.4f}" for e in answer.entries[:3])
        print(f"query u{user:<6d} [{kind:>14s}]  top-3: {top}")

    # Ingest stream batches between query bursts; answers stay ε-fresh.
    window = prepared.new_window()
    for slide in window.slides(3):
        client.ingest(list(slide.updates))
        answer = client.top_k(prepared.source)
        print(
            f"\nslide {slide.step}: ingested {len(slide.updates)} updates"
            f" -> version {answer.snapshot_version},"
            f" query arrived {answer.staleness} updates stale,"
            f" answered fresh"
        )

    # Freshness contract: the served ranking matches a from-scratch
    # vectorized push at the same epsilon on the same graph.
    served = client.top_k(prepared.source)
    fresh = PPRState.initial(prepared.source, graph.capacity)
    parallel_local_push(
        fresh, graph, config, seeds=[prepared.source], csr=CSRGraph.from_digraph(graph)
    )
    reference = certified_top_k(fresh, 5)
    assert topk_matches(list(served.entries), reference, config.epsilon), (
        "served top-k diverged from fresh recomputation"
    )
    print("\nserved top-5 matches a from-scratch recomputation at the same ε")

    print("\n" + service.metrics().describe())


if __name__ == "__main__":
    main()
