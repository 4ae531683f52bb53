"""Shard CI smoke: HTTP answers from a 2-shard tier must equal embedded.

Starts ``python -m repro serve --shards 2`` on a toy dataset analog as
a real subprocess, waits for ``/v1/healthz``, requests a certified
top-k over the socket, and asserts it is **bit-for-bit identical**
(vertex ids and float estimates) to the answer the embedded
single-process :class:`repro.api.Client` produces at the same snapshot
version — partitioning the graph across shard processes must never
change an answer, only who owns the rows. Also checks the shard-aware
operational surfaces: per-shard ``/v1/readyz`` payloads, the
``stats["shard"]`` section, and the ``repro_shard_*`` Prometheus
samples on ``/v1/metrics``.

Run from the repository root:  PYTHONPATH=src python scripts/shard_smoke.py
CI runs this after the test suite (.github/workflows/ci.yml).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.api.http import HttpClient  # noqa: E402
from repro.serve import workload_service  # noqa: E402

DATASET = "youtube"
PORT = 8713
SHARDS = 2
K = 5


def wait_healthy(base: str, deadline_s: float = 90.0) -> None:
    start = time.time()
    while time.time() - start < deadline_s:
        try:
            with urllib.request.urlopen(f"{base}/v1/healthz", timeout=2) as response:
                if json.loads(response.read()).get("status") == "ok":
                    return
        except (urllib.error.URLError, ConnectionError):
            time.sleep(0.3)
    raise SystemExit(f"server on {base} never became healthy")


def main() -> int:
    from repro.kernels import describe

    info = describe()
    print(f"kernel backend: {info['backend']} ({info['reason']})")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", DATASET,
            "--shards", str(SHARDS), "--port", str(PORT),
        ],
        env=env,
        cwd=REPO,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    base = f"http://127.0.0.1:{PORT}"
    try:
        wait_healthy(base)
        http = HttpClient(base)

        # The embedded twin: same deterministic bootstrap, same query.
        service, prepared = workload_service(DATASET)
        embedded = service.api.top_k(prepared.source, k=K)

        answer = http.query({"source": prepared.source, "k": K})
        if answer["snapshot_version"] != embedded.snapshot_version:
            print("snapshot versions diverged", file=sys.stderr)
            return 1
        got = [(e["vertex"], e["estimate"]) for e in answer["entries"]]
        want = [(e.vertex, e.estimate) for e in embedded.entries]
        if got != want:
            print(
                f"top-{K} mismatch:\n  sharded  {got}\n  embedded {want}",
                file=sys.stderr,
            )
            return 1
        print(
            f"top-{K} over HTTP from {SHARDS} shards is bit-identical"
            f" to the embedded client: {got}"
        )

        # Readiness: one payload per shard, all caught up.
        with urllib.request.urlopen(f"{base}/v1/readyz", timeout=5) as response:
            ready = json.loads(response.read())
        shards = ready.get("replicas")
        assert isinstance(shards, list) and len(shards) == SHARDS, ready
        for payload in shards:
            assert payload["alive"] and payload["role"] == "shard", payload
            assert payload["lag"] == 0, payload
        print(f"readyz reports {len(shards)} live shards at zero lag")

        # Stats: the shard section carries per-shard placement payloads.
        stats = http.stats()["stats"]
        section = stats["shard"]
        assert section["shards"] == SHARDS, section
        assert len(section["per_shard"]) == SHARDS, section
        assert sum(section["edges"]) > 0, section
        print(
            "stats[shard]: edges per shard ="
            f" {section['edges']}, dispatched = {section['dispatched']}"
        )

        # Metrics: the per-shard Prometheus families are exported.
        with urllib.request.urlopen(f"{base}/v1/metrics", timeout=5) as response:
            metrics = response.read().decode()
        for family in (
            "repro_shard_edges{shard=",
            "repro_shard_frontier_bytes_total{shard=",
            "repro_shard_exchange_rounds_total{shard=",
        ):
            assert family in metrics, f"missing {family!r} in /v1/metrics"
        print("per-shard Prometheus families exported on /v1/metrics")
        print("shard smoke: OK")
        return 0
    finally:
        server.terminate()
        try:
            server.wait(timeout=15)
        except subprocess.TimeoutExpired:
            server.kill()


if __name__ == "__main__":
    sys.exit(main())
