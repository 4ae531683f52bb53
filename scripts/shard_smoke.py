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
samples on ``/v1/metrics``. Last, after three acked writes it SIGKILLs
one shard worker: the next reads must answer bit-identically to the
embedded twin at the writes' version, and ``stats["shard"]`` must count
exactly one respawn.

Run from the repository root:  PYTHONPATH=src python scripts/shard_smoke.py
CI runs this after the test suite (.github/workflows/ci.yml).
"""

from __future__ import annotations

import json
import os
import signal
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
WRITES = [(20_000 + i, i) for i in range(3)]
PROBES = (11, 12, 13, 14)


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


def worker_pids(server_pid: int) -> list[int]:
    """The server's forked workers, oldest first: its children running
    its own command line (the resource tracker runs another)."""
    cmdline = Path(f"/proc/{server_pid}/cmdline").read_bytes()
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rpartition(")")[2].split()
            if int(fields[1]) == server_pid and (stat.parent / "cmdline").read_bytes() == cmdline:
                found.append((int(fields[19]), int(stat.parent.name)))
        except (OSError, ValueError, IndexError):
            continue  # exited while we looked
    return [pid for _, pid in sorted(found)]


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

        # Respawn: acked writes, then SIGKILL one shard worker. The next
        # reads revive it from the seed snapshot and heal it to the head
        # from the coordinator's frame history.
        for edge in WRITES:
            assert http.ingest([list(edge)])["ok"], edge
            service.api.ingest([edge])
        victim = worker_pids(server.pid)[0]
        os.kill(victim, signal.SIGKILL)
        for source in PROBES:  # never read before: from scratch on both arms
            answer = http.query({"source": source, "k": K})
            embedded = service.api.top_k(source, k=K)
            got = [(e["vertex"], e["estimate"]) for e in answer["entries"]]
            want = [(e.vertex, e.estimate) for e in embedded.entries]
            assert answer["snapshot_version"] == embedded.snapshot_version, answer
            if got != want:
                print(f"post-respawn top-{K} mismatch for {source}:\n"
                      f"  sharded  {got}\n  embedded {want}", file=sys.stderr)
                return 1
        section = http.stats()["stats"]["shard"]
        assert section["respawns"] == 1, section
        assert section["applied_versions"] == [len(WRITES)] * SHARDS, section
        assert victim not in worker_pids(server.pid)
        print(
            f"shard worker {victim} SIGKILLed after {len(WRITES)} acked writes:"
            f" 1 respawn, {len(PROBES)} reads at v{len(WRITES)} bit-identical"
        )
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
