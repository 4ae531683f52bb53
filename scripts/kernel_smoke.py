"""Kernel CI smoke: selection works, fallback works, answers agree.

Three checks, all cheap enough for every CI leg:

1. log which backend this host selected (``repro.kernels.describe``) —
   every CI job greps this line, so a silently-wrong selection (the
   compiled leg falling back, the numpy leg accidentally compiling)
   fails loudly;
2. ``REPRO_KERNEL=numpy`` and the selected default must serve
   bit-identical certified top-k answers over a real service — on a
   compiler-less host this degenerates to numpy-vs-numpy, which is
   exactly the graceful-fallback behavior the no-compiler CI job
   asserts;
3. when ``REPRO_KERNEL_EXPECT`` is set (``compiled`` or ``numpy``), the
   selected backend must match it — CI pins expectations per leg;
4. the dispatch counters the service reports (``/v1/stats``): the cold
   queries of check 2 cost exactly one C call each under the compiled
   kernel (one per non-empty phase; a from-scratch push has no NEG
   frontier) and none under numpy, with ``kernel_fallbacks == 0`` on
   both legs;
5. a loaded library speaks kernel ABI 5 (one ``repro_graph_apply`` call
   applies a batch to the graph, one ``repro_restore_states`` call
   repairs every resident), and after one ingest batch the refreshed
   answers of every resident still agree bit for bit;
6. the compiled batch apply leaves the twitter analog's graph exactly
   as the numpy one does — arrays, dumps and ``dout_after`` records —
   over 10 sliding-window batches.

Run from the repository root:  PYTHONPATH=src python scripts/kernel_smoke.py
CI runs this in both backend legs (.github/workflows/ci.yml).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro import DynamicDiGraph, PPRService, kernels  # noqa: E402
from repro.api.requests import FRESH, TopKQuery  # noqa: E402
from repro.config import KernelConfig, KernelMode  # noqa: E402
from repro.graph.generators import rmat_graph  # noqa: E402
from repro.graph.update import EdgeOp, EdgeUpdate  # noqa: E402
from repro.graph.workloads import WorkloadSpec, prepare_workload  # noqa: E402

#: The C signature this script was written against.
EXPECTED_ABI = 5


def answers(service: PPRService, sources: range) -> list[list[tuple]]:
    out = []
    for source in sources:
        result = service.gateway.submit(
            TopKQuery(source=source, k=5, consistency=FRESH)
        )
        if not result.ok:
            raise SystemExit(f"query failed: {result}")
        out.append([(e.vertex, e.estimate) for e in result.entries])
    return out


def graph_apply_matches(batches: int = 10) -> bool:
    """Apply 10 twitter-analog window slides with each kernel; the graphs
    (dumps, slabs, degrees) and ``dout_after`` records must be identical."""
    prepared = prepare_workload(WorkloadSpec(dataset="twitter"))
    window = prepared.new_window()
    slides = [list(window.slide().updates) for _ in range(batches)]
    graphs, records = [], []
    for mode in (KernelMode.COMPILED, KernelMode.NUMPY):
        graph, kernel = prepared.initial_graph(), KernelConfig(mode=mode)
        records.append([graph.apply_batch(s, kernel=kernel).tolist() for s in slides])
        graphs.append(graph)
    compiled, numpy_ = graphs
    ours, theirs = compiled.to_arrays(), numpy_.to_arrays()
    same = records[0] == records[1] and all(
        ours[key].tobytes() == theirs[key].tobytes() for key in theirs
    )
    same = same and all(
        a.tobytes() == b.tobytes()
        for name in ("_nbr", "_mult", "_table")
        for a, b in zip(getattr(compiled, name), getattr(numpy_, name))
    )
    if not same:
        print("compiled graph apply diverged from the numpy apply", file=sys.stderr)
        return False
    updates = sum(len(s) for s in slides)
    print(f"graph apply identical across compiled/numpy: {batches} twitter"
          f" batches, {updates} updates, m={compiled.num_edges}")
    return True


def main() -> int:
    info = kernels.describe()
    print(f"kernel backend: {info['backend']}"
          f" (mode={info['mode']}, {info['reason']})")

    expect = os.environ.get("REPRO_KERNEL_EXPECT")
    if expect and info["backend"] != expect:
        print(f"expected backend {expect!r}, selected {info['backend']!r}",
              file=sys.stderr)
        return 1

    edges = rmat_graph(600, 4_000, rng=20170901)
    selected = PPRService(DynamicDiGraph.from_edge_array(edges))
    oracle = PPRService(
        DynamicDiGraph.from_edge_array(edges),
        selected.config.with_(kernel=KernelConfig(mode=KernelMode.NUMPY)),
    )
    sources = range(8)
    served = answers(selected, sources)
    counted = selected.metrics().to_dict()
    if served != answers(oracle, sources):
        print("certified top-k diverged between selected kernel and numpy",
              file=sys.stderr)
        return 1
    print(f"certified top-k identical across {info['backend']}/numpy"
          f" for {len(sources)} sources")

    expected_calls = len(sources) if info["backend"] == "compiled" else 0
    calls, fallbacks = counted["kernel_calls"], counted["kernel_fallbacks"]
    print(f"kernel calls: {calls} for {len(sources)} cold pushes"
          f" ({counted['push_iterations']} iterations), {fallbacks} fallbacks")
    if (calls, fallbacks) != (expected_calls, 0):
        print(f"expected {expected_calls} kernel calls and 0 fallbacks",
              file=sys.stderr)
        return 1
    if oracle.metrics().to_dict()["kernel_calls"] != calls:
        print("the forced-numpy service reached the compiled kernel",
              file=sys.stderr)
        return 1

    library = kernels.load_library()[0]
    if library is not None:
        if library.abi != EXPECTED_ABI:
            print(f"kernel ABI v{library.abi}, expected v{EXPECTED_ABI}",
                  file=sys.stderr)
            return 1
        print(f"kernel ABI: v{library.abi}")
    batch = [EdgeUpdate(int(u), int(v), EdgeOp.DELETE) for u, v in edges[:32]]
    batch += [EdgeUpdate(s, (s + 7) % 600, EdgeOp.INSERT) for s in sources]
    selected.ingest(batch)
    oracle.ingest(batch)
    if answers(selected, sources) != answers(oracle, sources):
        print("refreshed top-k diverged after an ingest", file=sys.stderr)
        return 1
    print(f"refreshed top-k identical after a {len(batch)}-update ingest")

    if library is not None and not graph_apply_matches():
        return 1
    print("kernel smoke: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
